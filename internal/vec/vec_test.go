package vec

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"dbsvec/internal/dist"
)

func TestNewDataset(t *testing.T) {
	ds, err := NewDataset([]float64{1, 2, 3, 4, 5, 6}, 2)
	if err != nil {
		t.Fatalf("NewDataset: %v", err)
	}
	if ds.Len() != 3 || ds.Dim() != 2 {
		t.Fatalf("got n=%d d=%d, want 3,2", ds.Len(), ds.Dim())
	}
	if got := ds.Point(1); !reflect.DeepEqual(got, []float64{3, 4}) {
		t.Errorf("Point(1) = %v, want [3 4]", got)
	}
}

func TestNewDatasetErrors(t *testing.T) {
	if _, err := NewDataset([]float64{1, 2, 3}, 2); err == nil {
		t.Error("want error for non-multiple length")
	}
	if _, err := NewDataset(nil, 0); err == nil {
		t.Error("want error for zero dimension")
	}
	if _, err := NewDataset(nil, -3); err == nil {
		t.Error("want error for negative dimension")
	}
}

func TestFromRows(t *testing.T) {
	ds, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	if ds.Len() != 3 || ds.Dim() != 2 {
		t.Fatalf("got n=%d d=%d", ds.Len(), ds.Dim())
	}
}

func TestFromRowsEmpty(t *testing.T) {
	ds, err := FromRows(nil)
	if err != nil {
		t.Fatalf("FromRows(nil): %v", err)
	}
	if !ds.Empty() || ds.Len() != 0 {
		t.Error("empty input should produce empty dataset")
	}
}

func TestFromRowsRagged(t *testing.T) {
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("want error for ragged rows")
	}
}

func TestFromRowsNonFinite(t *testing.T) {
	if _, err := FromRows([][]float64{{1, math.NaN()}}); err == nil {
		t.Error("want error for NaN")
	}
	if _, err := FromRows([][]float64{{math.Inf(1), 0}}); err == nil {
		t.Error("want error for +Inf")
	}
}

func TestValidate(t *testing.T) {
	ds, err := NewDatasetUnchecked([]float64{1, 2, math.NaN(), 4}, 2)
	if err != nil {
		t.Fatalf("NewDatasetUnchecked: %v", err)
	}
	if err := ds.Validate(); err == nil {
		t.Error("Validate should detect NaN")
	}
	ds2, _ := NewDataset([]float64{1, 2, 3, 4}, 2)
	if err := ds2.Validate(); err != nil {
		t.Errorf("Validate on clean data: %v", err)
	}
}

// TestNewDatasetNonFinite is the regression test for the NewDataset /
// FromRows validation asymmetry: both constructors now share the same
// finite-value check, and NewDatasetUnchecked is the only way to wrap
// non-finite coordinates.
func TestNewDatasetNonFinite(t *testing.T) {
	if _, err := NewDataset([]float64{1, 2, math.NaN(), 4}, 2); err == nil {
		t.Error("NewDataset should reject NaN like FromRows does")
	}
	if _, err := NewDataset([]float64{math.Inf(-1), 0}, 2); err == nil {
		t.Error("NewDataset should reject -Inf like FromRows does")
	}
	if _, err := NewDatasetUnchecked([]float64{1, 2, math.NaN(), 4}, 2); err != nil {
		t.Errorf("NewDatasetUnchecked should accept non-finite values: %v", err)
	}
	// The structural checks still apply to the unchecked constructor.
	if _, err := NewDatasetUnchecked([]float64{1, 2, 3}, 2); err == nil {
		t.Error("NewDatasetUnchecked should reject non-multiple length")
	}
	if _, err := NewDatasetUnchecked(nil, 0); err == nil {
		t.Error("NewDatasetUnchecked should reject zero dimension")
	}
}

func TestDistances(t *testing.T) {
	ds, _ := FromRows([][]float64{{0, 0}, {3, 4}})
	if got := ds.Dist(0, 1); math.Abs(got-5) > 1e-12 {
		t.Errorf("Dist = %v, want 5", got)
	}
	if got := ds.Dist2(0, 1); math.Abs(got-25) > 1e-12 {
		t.Errorf("Dist2 = %v, want 25", got)
	}
	if got := ds.Dist2To(0, []float64{0, 2}); math.Abs(got-4) > 1e-12 {
		t.Errorf("Dist2To = %v, want 4", got)
	}
}

func TestDotNorm(t *testing.T) {
	if got := dist.Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := dist.Norm([]float64{3, 4}); math.Abs(got-5) > 1e-12 {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := dist.Norm2([]float64{3, 4}); got != 25 {
		t.Errorf("Norm2 = %v, want 25", got)
	}
}

func TestCloneAndSubset(t *testing.T) {
	ds, _ := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	cp := ds.Clone()
	cp.Coords()[0] = 99
	if ds.Point(0)[0] == 99 {
		t.Error("Clone must not share backing storage")
	}
	sub := ds.Subset([]int32{2, 0})
	if sub.Len() != 2 || sub.Point(0)[0] != 3 || sub.Point(1)[0] != 1 {
		t.Errorf("Subset wrong: %+v", sub.Coords())
	}
}

func TestMean(t *testing.T) {
	ds, _ := FromRows([][]float64{{0, 0}, {2, 4}})
	m := ds.Mean([]int32{0, 1})
	if m[0] != 1 || m[1] != 2 {
		t.Errorf("Mean = %v, want [1 2]", m)
	}
	z := ds.Mean(nil)
	if z[0] != 0 || z[1] != 0 {
		t.Errorf("Mean(nil) = %v, want zero", z)
	}
}

func TestBounds(t *testing.T) {
	ds, _ := FromRows([][]float64{{1, 9}, {-2, 5}, {4, 7}})
	lo, hi := ds.Bounds()
	if lo[0] != -2 || lo[1] != 5 || hi[0] != 4 || hi[1] != 9 {
		t.Errorf("Bounds lo=%v hi=%v", lo, hi)
	}
	var empty Dataset
	elo, ehi := empty.Bounds()
	if elo != nil || ehi != nil {
		t.Error("empty Bounds should return nils")
	}
}

func TestNormalizeTo(t *testing.T) {
	ds, _ := FromRows([][]float64{{0, 5}, {10, 5}, {5, 5}})
	ds.NormalizeTo(100)
	lo, hi := ds.Bounds()
	if lo[0] != 0 || hi[0] != 100 {
		t.Errorf("dim0 should span [0,100], got [%v,%v]", lo[0], hi[0])
	}
	// Constant dimension collapses to 0.
	if lo[1] != 0 || hi[1] != 0 {
		t.Errorf("constant dim should be 0, got [%v,%v]", lo[1], hi[1])
	}
}

func TestNormalizeEmptyNoop(t *testing.T) {
	ds, _ := FromRows(nil)
	if got := ds.NormalizeTo(10); got != ds {
		t.Error("NormalizeTo should return receiver")
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(2)
	r.ExtendRect(RectOf([]float64{1, 2}))
	r.ExtendRect(RectOf([]float64{3, 0}))
	if !r.Contains([]float64{2, 1}) {
		t.Error("rect should contain interior point")
	}
	if r.Contains([]float64{4, 1}) {
		t.Error("rect should not contain exterior point")
	}
	c := r.Center(nil)
	if c[0] != 2 || c[1] != 1 {
		t.Errorf("Center = %v", c)
	}
}

func TestRectOf(t *testing.T) {
	p := []float64{1, 2}
	r := RectOf(p)
	p[0] = -5
	if r.Lo[0] != 1 || r.Hi[0] != 1 || r.Lo[1] != 2 || r.Hi[1] != 2 {
		t.Errorf("RectOf must copy the point: %+v", r)
	}
}

func TestRectDistances(t *testing.T) {
	r := Rect{Lo: []float64{0, 0}, Hi: []float64{2, 2}}
	if got := r.MinDist2([]float64{1, 1}); got != 0 {
		t.Errorf("MinDist2 inside = %v, want 0", got)
	}
	if got := r.MinDist2([]float64{5, 2}); math.Abs(got-9) > 1e-12 {
		t.Errorf("MinDist2 outside = %v, want 9", got)
	}
	if got := r.MaxDist2([]float64{0, 0}); math.Abs(got-8) > 1e-12 {
		t.Errorf("MaxDist2 = %v, want 8", got)
	}
}

func TestRectExtendRect(t *testing.T) {
	a := Rect{Lo: []float64{0, 0}, Hi: []float64{2, 2}}
	b := Rect{Lo: []float64{1, -1}, Hi: []float64{3, 1}}
	a.ExtendRect(b)
	if a.Lo[0] != 0 || a.Hi[0] != 3 || a.Lo[1] != -1 || a.Hi[1] != 2 {
		t.Errorf("ExtendRect wrong: %+v", a)
	}
}

// Property: SqDist is symmetric, non-negative, and zero iff equal vectors.
func TestSqDistProperties(t *testing.T) {
	f := func(a, b [4]float64) bool {
		av, bv := a[:], b[:]
		for i := range av {
			av[i] = math.Mod(av[i], 1e6)
			bv[i] = math.Mod(bv[i], 1e6)
			if math.IsNaN(av[i]) {
				av[i] = 0
			}
			if math.IsNaN(bv[i]) {
				bv[i] = 0
			}
		}
		d1 := dist.SqDist(av, bv)
		d2 := dist.SqDist(bv, av)
		return d1 >= 0 && math.Abs(d1-d2) <= 1e-9*(1+d1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: triangle inequality for Dist.
func TestTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		d := 1 + rng.Intn(8)
		a := make([]float64, d)
		b := make([]float64, d)
		c := make([]float64, d)
		for j := 0; j < d; j++ {
			a[j], b[j], c[j] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		}
		if dist.Dist(a, c) > dist.Dist(a, b)+dist.Dist(b, c)+1e-9 {
			t.Fatalf("triangle inequality violated: %v %v %v", a, b, c)
		}
	}
}

// Property: MinDist2 of a rectangle to a point never exceeds the distance to
// any point inside the rectangle.
func TestRectMinDistProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 300; iter++ {
		d := 1 + rng.Intn(5)
		r := NewRect(d)
		inside := make([]float64, d)
		for j := 0; j < d; j++ {
			lo := rng.NormFloat64() * 10
			hi := lo + rng.Float64()*10
			r.Lo[j], r.Hi[j] = lo, hi
			inside[j] = lo + rng.Float64()*(hi-lo)
		}
		q := make([]float64, d)
		for j := 0; j < d; j++ {
			q[j] = rng.NormFloat64() * 20
		}
		if r.MinDist2(q) > dist.SqDist(q, inside)+1e-9 {
			t.Fatalf("MinDist2 exceeded actual distance: rect=%+v q=%v p=%v", r, q, inside)
		}
		if r.MaxDist2(q)+1e-9 < dist.SqDist(q, inside) {
			t.Fatalf("MaxDist2 below actual distance")
		}
	}
}

func TestMinDist2Rect(t *testing.T) {
	a := Rect{Lo: []float64{0, 0}, Hi: []float64{2, 2}}
	b := Rect{Lo: []float64{1, 1}, Hi: []float64{3, 3}}
	if got := a.MinDist2Rect(b); got != 0 {
		t.Errorf("overlapping rects distance = %v, want 0", got)
	}
	c := Rect{Lo: []float64{5, 0}, Hi: []float64{6, 2}}
	if got := a.MinDist2Rect(c); math.Abs(got-9) > 1e-12 {
		t.Errorf("axis-gap distance = %v, want 9", got)
	}
	d := Rect{Lo: []float64{5, 6}, Hi: []float64{7, 8}}
	if got := a.MinDist2Rect(d); math.Abs(got-(9+16)) > 1e-12 {
		t.Errorf("diagonal-gap distance = %v, want 25", got)
	}
	// Symmetry.
	if a.MinDist2Rect(d) != d.MinDist2Rect(a) {
		t.Error("MinDist2Rect not symmetric")
	}
}

// Property: rect-to-rect min distance never exceeds the distance between
// any contained point pair.
func TestMinDist2RectProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 300; iter++ {
		dim := 1 + rng.Intn(5)
		mk := func() (Rect, []float64) {
			r := NewRect(dim)
			inside := make([]float64, dim)
			for j := 0; j < dim; j++ {
				lo := rng.NormFloat64() * 10
				hi := lo + rng.Float64()*5
				r.Lo[j], r.Hi[j] = lo, hi
				inside[j] = lo + rng.Float64()*(hi-lo)
			}
			return r, inside
		}
		ra, pa := mk()
		rb, pb := mk()
		if ra.MinDist2Rect(rb) > dist.SqDist(pa, pb)+1e-9 {
			t.Fatalf("rect min distance exceeds contained pair distance")
		}
	}
}

func BenchmarkSqDist8(b *testing.B) {
	x := make([]float64, 8)
	y := make([]float64, 8)
	for i := range x {
		x[i] = float64(i)
		y[i] = float64(i) * 1.5
	}
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += dist.SqDist(x, y)
	}
	_ = sink
}
