package backend

import (
	"errors"
	"slices"
	"testing"

	"dbsvec/internal/core"
	"dbsvec/internal/index/indextest"
)

// TestConformance runs every row of the table through the shared oracle
// suite, so each kind's builder answers like a linear scan, and checks that
// each row's builder honours a context cancelled up front. The backend
// packages run the build-level checks (float32 storage, identical answers
// across build worker counts, mid-build cancellation) on their own
// constructors.
func TestConformance(t *testing.T) {
	for _, k := range Kinds() {
		b, err := k.Builder(0)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		indextest.Run(t, k.String(), b)
		t.Run(k.String()+"/cancel-up-front", func(t *testing.T) { indextest.BuildCancelledUpFront(t, b) })
	}
}

// TestKindNames pins the table: its names and order, and the public Kind
// values (dbsvec.IndexKind re-exports them, so renumbering is an API change).
// Every kind survives String → Parse, and unknown names (including deleted
// backends) and unknown kinds are parameter errors.
func TestKindNames(t *testing.T) {
	if got, want := Names(), []string{"linear", "kdtree", "rtree", "rproj"}; !slices.Equal(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for want, k := range []Kind{Linear, KDTree, RTree, RProj} {
		if int(k) != want {
			t.Errorf("%v = %d, want %d", k, int(k), want)
		}
	}
	for _, k := range Kinds() {
		got, err := Parse(k.String())
		if err != nil || got != k {
			t.Errorf("Parse(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	for _, name := range []string{"", "pyramid", "parallel", "grid", "vptree", "KDTree", "kd-tree"} {
		if _, err := Parse(name); !errors.Is(err, core.ErrInvalidParams) {
			t.Errorf("Parse(%q): err = %v, want ErrInvalidParams", name, err)
		}
	}
	for _, k := range []Kind{-1, Kind(len(Kinds())), 99} {
		if _, err := k.Builder(1); !errors.Is(err, core.ErrInvalidParams) {
			t.Errorf("%v.Builder: err = %v, want ErrInvalidParams", k, err)
		}
	}
}
