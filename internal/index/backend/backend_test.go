package backend

import (
	"errors"
	"testing"

	"dbsvec/internal/core"
	"dbsvec/internal/index/indextest"
)

// TestConformance runs every row of the table through the shared oracle
// suite, so each kind's builder, including the grid's ε/√d cell width for
// ε = 10, answers like a linear scan, and checks that each row's builder
// honours a context cancelled up front. The backend packages run the
// build-level checks (float32 storage, identical answers across build
// worker counts, mid-build cancellation) on their own constructors.
func TestConformance(t *testing.T) {
	for _, k := range Kinds() {
		b, err := k.Builder(10, 0)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		indextest.Run(t, k.String(), b)
		t.Run(k.String()+"/cancel-up-front", func(t *testing.T) { indextest.BuildCancelledUpFront(t, b) })
	}
}

// TestKindNames: every kind survives String → Parse, the names are unique,
// and unknown names, unknown kinds and a grid without a positive eps are
// parameter errors.
func TestKindNames(t *testing.T) {
	if Linear != 0 {
		t.Fatalf("Linear = %d, want the zero value", Linear)
	}
	for _, k := range Kinds() {
		got, err := Parse(k.String())
		if err != nil || got != k {
			t.Errorf("Parse(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	for _, name := range []string{"", "pyramid", "parallel", "KDTree", "kd-tree"} {
		if _, err := Parse(name); !errors.Is(err, core.ErrInvalidParams) {
			t.Errorf("Parse(%q): err = %v, want ErrInvalidParams", name, err)
		}
	}
	for _, k := range []Kind{-1, Kind(len(Kinds())), 99} {
		if _, err := k.Builder(1, 1); !errors.Is(err, core.ErrInvalidParams) {
			t.Errorf("%v.Builder: err = %v, want ErrInvalidParams", k, err)
		}
	}
	if _, err := Grid.Builder(0, 1); !errors.Is(err, core.ErrInvalidParams) {
		t.Errorf("Grid.Builder(eps=0): err = %v, want ErrInvalidParams", err)
	}
}
