package data

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"dbsvec/internal/cluster"
	"dbsvec/internal/dist"
	"dbsvec/internal/vec"
)

func TestBlobsShape(t *testing.T) {
	ds := Blobs(500, 3, 4, 2, 100, 0.1, 1)
	if ds.Len() != 500 || ds.Dim() != 3 {
		t.Fatalf("n=%d d=%d", ds.Len(), ds.Dim())
	}
	lo, hi := ds.Bounds()
	for j := 0; j < 3; j++ {
		if lo[j] < 0 || hi[j] > 100 {
			t.Errorf("dim %d out of [0,100]: [%v,%v]", j, lo[j], hi[j])
		}
	}
	if err := ds.Validate(); err != nil {
		t.Error(err)
	}
}

func TestBlobsDeterministic(t *testing.T) {
	a := Blobs(100, 2, 3, 1, 50, 0, 7)
	b := Blobs(100, 2, 3, 1, 50, 0, 7)
	for i := range a.Coords() {
		if a.Coords()[i] != b.Coords()[i] {
			t.Fatal("same seed must give identical data")
		}
	}
	c := Blobs(100, 2, 3, 1, 50, 0, 8)
	same := true
	for i := range a.Coords() {
		if a.Coords()[i] != c.Coords()[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestEmbeddings(t *testing.T) {
	ds := Embeddings(400, 64, 8, 0.3, 3)
	if ds.Len() != 400 || ds.Dim() != 64 {
		t.Fatalf("shape %dx%d", ds.Len(), ds.Dim())
	}
	// Unit norm is a property of the float64 points the generator computes;
	// the dataset is those points at the construction precision.
	coords := embeddingCoords(400, 64, 8, 0.3, 3)
	for i := 0; i < ds.Len(); i++ {
		if n := dist.Norm(coords[i*64 : (i+1)*64]); math.Abs(n-1) > 1e-9 {
			t.Fatalf("point %d norm %v, want 1", i, n)
		}
	}
	want, _ := vec.NewDatasetUnchecked(coords, 64)
	if !slices.Equal(ds.Coords(), want.Coords()) || ds.Precision() != want.Precision() {
		t.Fatal("Embeddings differs from the construction of its float64 points")
	}
	// Same seed reproduces; points assigned round-robin to the same center
	// should be angularly closer on average than cross-cluster pairs.
	ds2 := Embeddings(400, 64, 8, 0.3, 3)
	for i := 0; i < ds.Len(); i += 41 {
		if dist.Dist(ds.Point(i), ds2.Point(i)) != 0 {
			t.Fatalf("point %d not reproducible", i)
		}
	}
	var same, cross float64
	for i := 0; i+9 < ds.Len(); i += 8 {
		same += dist.Dot(ds.Point(i), ds.Point(i+8))
		cross += dist.Dot(ds.Point(i), ds.Point(i+9))
	}
	if same <= cross {
		t.Fatalf("same-cluster mean dot %v not above cross-cluster %v", same, cross)
	}
}

func TestSeedSpreader(t *testing.T) {
	ds := SeedSpreader{N: 2000, D: 8, Seed: 3}.Generate()
	if ds.Len() != 2000 || ds.Dim() != 8 {
		t.Fatalf("n=%d d=%d", ds.Len(), ds.Dim())
	}
	lo, hi := ds.Bounds()
	for j := 0; j < 8; j++ {
		if lo[j] < 0 || hi[j] > 1e5 {
			t.Errorf("dim %d out of domain: [%v,%v]", j, lo[j], hi[j])
		}
	}
	// Density structure: mean nearest-neighbor distance of clustered points
	// must be far below the uniform expectation.
	if err := ds.Validate(); err != nil {
		t.Error(err)
	}
}

func TestRing(t *testing.T) {
	ds := Ring(100, 5, 0, 1)
	tol := 1e-9
	if vec.DefaultPrecision() == vec.F32 {
		// Under a global f32 storage default the generator's coordinates are
		// quantized once; the radius moves by at most a few float32 ULPs.
		tol = 1e-6
	}
	for i := 0; i < ds.Len(); i++ {
		r := math.Hypot(ds.Point(i)[0], ds.Point(i)[1])
		if math.Abs(r-5) > tol {
			t.Fatalf("point %d radius %v, want 5", i, r)
		}
	}
}

func TestDimSetAndD31(t *testing.T) {
	ds := DimSet(1024, 32, 2)
	if ds.Len() != 1024 || ds.Dim() != 32 {
		t.Fatalf("DimSet n=%d d=%d", ds.Len(), ds.Dim())
	}
	d31 := D31(2)
	if d31.Len() != 3100 || d31.Dim() != 2 {
		t.Fatalf("D31 n=%d d=%d", d31.Len(), d31.Dim())
	}
}

func TestShapes(t *testing.T) {
	t48 := Chameleon48K(1)
	if t48.Len() != 8000 || t48.Dim() != 2 {
		t.Fatalf("t4.8k n=%d d=%d", t48.Len(), t48.Dim())
	}
	t710 := Chameleon710K(1)
	if t710.Len() != 10000 || t710.Dim() != 2 {
		t.Fatalf("t7.10k n=%d d=%d", t710.Len(), t710.Dim())
	}
	rm := RoadMap(6014, 12, 1)
	if rm.Len() != 6014 || rm.Dim() != 2 {
		t.Fatalf("RoadMap n=%d d=%d", rm.Len(), rm.Dim())
	}
}

func TestOpenSuiteShapes(t *testing.T) {
	for _, e := range OpenSuite() {
		ds := e.Gen(1)
		if ds.Len() != e.N || ds.Dim() != e.D {
			t.Errorf("%s: generated %dx%d, want %dx%d", e.Name, ds.Len(), ds.Dim(), e.N, e.D)
		}
		if e.Eps <= 0 || e.MinPts < 1 {
			t.Errorf("%s: missing parameters", e.Name)
		}
	}
}

func TestSuiteByName(t *testing.T) {
	e, err := SuiteByName("t4.8k")
	if err != nil || e.N != 8000 {
		t.Errorf("SuiteByName(t4.8k) = %+v, %v", e, err)
	}
	if _, err := SuiteByName("nonexistent"); err == nil {
		t.Error("want error for unknown dataset")
	}
}

func TestRealWorldSuite(t *testing.T) {
	for _, e := range RealWorldSuite() {
		ds := e.Gen(1000, 1)
		if ds.Len() != 1000 || ds.Dim() != e.D {
			t.Errorf("%s: %dx%d, want 1000x%d", e.Name, ds.Len(), ds.Dim(), e.D)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ds, _ := vec.FromRows([][]float64{{1.5, -2}, {3, 4.25}})
	res := &cluster.Result{Labels: []int32{0, cluster.Noise}, Clusters: 1}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "1.5,-2,0") || !strings.Contains(out, "3,4.25,-1") {
		t.Fatalf("unexpected csv output:\n%s", out)
	}
	// Read back without the label column.
	var buf2 bytes.Buffer
	if err := WriteCSV(&buf2, ds, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.Dim() != 2 || got.Point(1)[1] != 4.25 {
		t.Errorf("round trip mismatch: %+v", got.Coords())
	}
}

func TestReadCSVHeaderAndComments(t *testing.T) {
	in := "x,y\n# comment\n1,2\n\n3,4\n"
	ds, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 2 {
		t.Errorf("n = %d, want 2", ds.Len())
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	ds := Blobs(500, 7, 3, 2, 100, 0.05, 9)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != ds.Len() || got.Dim() != ds.Dim() {
		t.Fatalf("shape %dx%d, want %dx%d", got.Len(), got.Dim(), ds.Len(), ds.Dim())
	}
	for i, v := range ds.Coords() {
		if got.Coords()[i] != v {
			t.Fatalf("coordinate %d differs: %v vs %v", i, got.Coords()[i], v)
		}
	}
}

func TestBinaryEmpty(t *testing.T) {
	ds, _ := vec.NewDataset(nil, 3)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.Dim() != 3 {
		t.Errorf("empty round trip: %dx%d", got.Len(), got.Dim())
	}
}

func TestBinaryErrors(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("not a dataset")); err == nil {
		t.Error("garbage should error")
	}
	// Valid header, truncated body.
	ds := Blobs(100, 2, 2, 1, 50, 0, 1)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, ds); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadBinary(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated stream should error")
	}
	// Wrong magic.
	bad := append([]byte("XXXX"), buf.Bytes()[4:]...)
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic should error")
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("1,2\nfoo,bar\n")); err == nil {
		t.Error("want error for non-numeric data row")
	}
	if _, err := ReadCSV(strings.NewReader("1,2\n3\n")); err == nil {
		t.Error("want error for ragged rows")
	}
	if _, err := ReadCSV(strings.NewReader("1,NaN\n")); err == nil {
		t.Error("want error for NaN")
	}
}

func TestDistributionsSuite(t *testing.T) {
	suite := Distributions()
	if len(suite) != 10 {
		t.Fatalf("want 10 distributions, got %d", len(suite))
	}
	seen := map[string]bool{}
	for _, d := range suite {
		if seen[d.Name] {
			t.Errorf("duplicate distribution name %q", d.Name)
		}
		seen[d.Name] = true
		ds := d.Gen(200, 1)
		if ds.Len() != 200 || ds.Dim() != 2 {
			t.Errorf("%s: generated %dx%d, want 200x2", d.Name, ds.Len(), ds.Dim())
		}
		if err := ds.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
		if d.Eps <= 0 || d.MinPts < 1 {
			t.Errorf("%s: missing parameters", d.Name)
		}
		// Determinism per seed.
		again := d.Gen(200, 1)
		for i := range ds.Coords() {
			if ds.Coords()[i] != again.Coords()[i] {
				t.Errorf("%s: not deterministic", d.Name)
				break
			}
		}
	}
}

func TestMoonsAndSpiralsShape(t *testing.T) {
	m := Moons(400, 2)
	lo, hi := m.Bounds()
	if hi[0]-lo[0] < 40 {
		t.Error("moons should span a wide x range")
	}
	s := Spirals(400, 2)
	if s.Len() != 400 {
		t.Errorf("spirals n = %d", s.Len())
	}
}

func TestUniform(t *testing.T) {
	ds := Uniform(100, 4, 10, 5)
	if ds.Len() != 100 || ds.Dim() != 4 {
		t.Fatal("shape wrong")
	}
	lo, hi := ds.Bounds()
	for j := 0; j < 4; j++ {
		if lo[j] < 0 || hi[j] > 10 {
			t.Errorf("dim %d out of range", j)
		}
	}
}
