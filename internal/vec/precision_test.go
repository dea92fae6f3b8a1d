package vec

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"dbsvec/internal/dist"
)

func randDataset(t *testing.T, rng *rand.Rand, n, d int) *Dataset {
	t.Helper()
	coords := make([]float64, n*d)
	for i := range coords {
		coords[i] = (rng.Float64() - 0.5) * 2000
	}
	ds, err := NewDataset(coords, d)
	if err != nil {
		t.Fatal(err)
	}
	// The conversion tests need a true F64 starting point even when the
	// process default (DBSVEC_PRECISION=f32) makes constructors quantize.
	ds, err = ds.ToPrecision(F64)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestParsePrecision(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Precision
		ok   bool
	}{
		{"f64", F64, true}, {"float64", F64, true}, {"", F64, true},
		{"f32", F32, true}, {"float32", F32, true},
		{"f16", F64, false}, {"double", F64, false},
	} {
		got, err := ParsePrecision(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParsePrecision(%q) = (%v, %v), want (%v, ok=%v)", tc.in, got, err, tc.want, tc.ok)
		}
	}
	if F64.String() != "f64" || F32.String() != "f32" {
		t.Errorf("String() spellings wrong: %q %q", F64, F32)
	}
}

// TestToPrecision pins the conversion semantics: one quantization F64→F32
// that leaves the source untouched and keeps master == widened mirror; a
// no-op for matching precision; and F32→F64 dropping the mirror while
// keeping the quantized master (round-tripping back to F32 is then exact).
func TestToPrecision(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ds := randDataset(t, rng, 40, 7)
	orig := append([]float64(nil), ds.Coords()...)

	if same, err := ds.ToPrecision(F64); err != nil || same != ds {
		t.Fatalf("ToPrecision(same) = (%p, %v), want receiver", same, err)
	}

	ds32, err := ds.ToPrecision(F32)
	if err != nil {
		t.Fatal(err)
	}
	if ds32.Precision() != F32 || ds.Precision() != F64 {
		t.Fatalf("precisions after convert: got %v / source %v", ds32.Precision(), ds.Precision())
	}
	for i, v := range ds.Coords() {
		if v != orig[i] {
			t.Fatalf("source coordinate %d mutated by conversion", i)
		}
	}
	m32 := ds32.Matrix().Coords32
	if m32 == nil || len(m32) != ds.Len()*ds.Dim() {
		t.Fatalf("F32 mirror missing or mis-sized")
	}
	for i, v := range ds32.Coords() {
		if v != float64(m32[i]) {
			t.Fatalf("master[%d] = %v is not the widening of mirror %v", i, v, m32[i])
		}
		if m32[i] != float32(orig[i]) {
			t.Fatalf("mirror[%d] not the rounding of the source", i)
		}
	}

	back, err := ds32.ToPrecision(F64)
	if err != nil {
		t.Fatal(err)
	}
	if back.Precision() != F64 || back.Matrix().Coords32 != nil {
		t.Fatal("F32→F64 must drop the mirror")
	}
	// Master is already quantized, so a second F32 conversion is lossless.
	again, err := back.ToPrecision(F32)
	if err != nil {
		t.Fatal(err)
	}
	for i := range again.Coords() {
		if again.Coords()[i] != ds32.Coords()[i] {
			t.Fatalf("re-quantization changed coordinate %d", i)
		}
	}
}

func TestToPrecisionOverflow(t *testing.T) {
	ds, err := NewDataset([]float64{1, 2, 1e300, 4}, 2)
	if DefaultPrecision() == F32 {
		// Under a global f32 default the constructor itself quantizes and
		// must already refuse the overflowing coordinate.
		if !errors.Is(err, ErrNotF32) {
			t.Fatalf("f32-default constructor err = %v, want ErrNotF32", err)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.ToPrecision(F32); !errors.Is(err, ErrNotF32) {
		t.Fatalf("overflowing conversion err = %v, want ErrNotF32", err)
	}
}

func TestCloneSubsetPreservePrecision(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	ds, err := randDataset(t, rng, 30, 5).ToPrecision(F32)
	if err != nil {
		t.Fatal(err)
	}
	cl := ds.Clone()
	if cl.Precision() != F32 {
		t.Fatal("Clone dropped F32 precision")
	}
	clm := cl.Matrix().Coords32
	for i, v := range ds.Matrix().Coords32 {
		if clm[i] != v {
			t.Fatalf("Clone mirror[%d] differs", i)
		}
	}
	sub := ds.Subset([]int32{3, 1, 7})
	if sub.Precision() != F32 || sub.Len() != 3 {
		t.Fatalf("Subset precision/len = %v/%d", sub.Precision(), sub.Len())
	}
	sm, dm := sub.Matrix().Coords32, ds.Matrix().Coords32
	for k, id := range []int{3, 1, 7} {
		for j := 0; j < ds.Dim(); j++ {
			if sm[k*ds.Dim()+j] != dm[id*ds.Dim()+j] {
				t.Fatalf("Subset mirror row %d diverges from source row %d", k, id)
			}
			if sub.Point(k)[j] != float64(sm[k*ds.Dim()+j]) {
				t.Fatalf("Subset master not the widening of its mirror")
			}
		}
	}
}

// TestNormalizeToRequantizes checks that the sanctioned mutation keeps the
// two storage views consistent in F32 mode.
func TestNormalizeToRequantizes(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ds, err := randDataset(t, rng, 50, 3).ToPrecision(F32)
	if err != nil {
		t.Fatal(err)
	}
	ds.NormalizeTo(1e5)
	m32 := ds.Matrix().Coords32
	for i, v := range ds.Coords() {
		if v != float64(m32[i]) {
			t.Fatalf("after NormalizeTo, master[%d] = %v diverges from mirror %v", i, v, m32[i])
		}
		if math.Abs(v) > 1e5 {
			t.Fatalf("normalized coordinate %d out of range: %v", i, v)
		}
	}
}

// TestRoutingMethodsBitIdentical checks the dataset's kernel convenience
// methods: on an F32 dataset they stream the mirror, yet must return exactly
// what the kernels compute on the widened master alone — the method-level
// face of the kernel equivalence contract.
func TestRoutingMethodsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, d := range []int{2, 3, 9} {
		ds, err := randDataset(t, rng, 80, d).ToPrecision(F32)
		if err != nil {
			t.Fatal(err)
		}
		m := dist.Matrix{Coords: ds.Coords(), Dim: d} // widened master alone
		q := make([]float64, d)
		for j := range q {
			q[j] = (rng.Float64() - 0.5) * 2000
		}
		ids := []int32{5, 17, 5, 63, 0}

		got := make([]float64, ds.Len())
		want := make([]float64, ds.Len())
		ds.SqDistsToAll(q, got)
		dist.SqDistsToAll(m, q, want)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("d=%d: SqDistsToAll[%d] routed result not bit-identical", d, i)
			}
		}
		eps2 := want[ds.Len()/2]

		gi := make([]float64, len(ids))
		wi := make([]float64, len(ids))
		ds.SqDistsTo(q, ids, gi)
		dist.SqDistsTo(m, q, ids, wi)
		for k := range gi {
			if gi[k] != wi[k] {
				t.Fatalf("d=%d: SqDistsTo routed result not bit-identical", d)
			}
		}

		if g, w := ds.FilterWithin(q, eps2, nil), dist.FilterWithin(m, q, eps2, nil); !equalIDs(g, w) {
			t.Fatalf("d=%d: FilterWithin routed %v, want %v", d, g, w)
		}
		if g, w := ds.FilterWithinIDs(q, eps2, ids, nil), dist.FilterWithinIDs(m, q, eps2, ids, nil); !equalIDs(g, w) {
			t.Fatalf("d=%d: FilterWithinIDs routed %v, want %v", d, g, w)
		}
		if g, w := ds.CountWithin(q, eps2, 0), dist.CountWithin(m, q, eps2, 0); g != w {
			t.Fatalf("d=%d: CountWithin routed %d, want %d", d, g, w)
		}
		if g, w := ds.CountWithinIDs(q, eps2, ids, 0), dist.CountWithinIDs(m, q, eps2, ids, 0); g != w {
			t.Fatalf("d=%d: CountWithinIDs routed %d, want %d", d, g, w)
		}
	}
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
