// Package vec provides the vector and dataset substrate shared by every
// clustering algorithm in this repository: flat column-free point storage,
// Euclidean geometry helpers, bounding boxes, and coordinate normalization.
//
// Points are stored in a single contiguous []float64 of length n*d so that
// range scans are cache friendly and the garbage collector sees one object
// per dataset instead of n. Algorithms address points by their integer id
// (0..n-1) and borrow read-only views via Dataset.Point.
//
// Storage precision is a property of the dataset, not of the code: every
// dataset carries a Precision. F64 (the default) is the historical layout
// and stays bit-identical to it. F32 quantizes every coordinate to float32
// exactly once — at construction or conversion — and keeps two consistent
// views: a contiguous float32 mirror that the memory-bound batch kernels
// stream (half the bytes per scan), and a float64 master holding the exact
// widening of the mirror, which serves Point, geometry helpers and index
// construction unchanged. Matrix hands both views to internal/dist, whose
// kernels stream the mirror when it is present and accumulate in float64,
// so both views yield bit-identical distances; the only rounding in F32
// mode is the single quantization at ingest. Which storage a scan streams
// is decided there and here, never by a caller.
package vec

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sync"

	"dbsvec/internal/dist"
)

// Errors returned by dataset constructors and mutators.
var (
	ErrDimMismatch = errors.New("vec: point dimensionality does not match dataset")
	ErrBadDim      = errors.New("vec: dimensionality must be positive")
	ErrNonFinite   = errors.New("vec: coordinate is NaN or infinite")
	// ErrNotF32 reports a finite float64 coordinate whose float32 rounding
	// overflows to infinity, which F32 storage cannot represent.
	ErrNotF32 = errors.New("vec: coordinate overflows float32")
)

// Precision selects the point-storage layout of a Dataset.
type Precision uint8

// Supported storage precisions.
const (
	// F64 stores coordinates as float64 only: the default, bit-identical to
	// the historical single-precision-free layout.
	F64 Precision = iota
	// F32 stores a float32 mirror alongside the float64 master (the master
	// holding the exact widening of the mirror); hot scans stream the mirror.
	F32
)

// String returns the flag spelling of the precision ("f64" / "f32").
func (p Precision) String() string {
	if p == F32 {
		return "f32"
	}
	return "f64"
}

// ParsePrecision parses the flag spelling accepted by the CLIs.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "f64", "float64", "":
		return F64, nil
	case "f32", "float32":
		return F32, nil
	}
	return F64, fmt.Errorf("vec: unknown precision %q (want f64 or f32)", s)
}

// defaultPrecision is the construction-time default, read once from the
// DBSVEC_PRECISION environment variable ("f32" flips every dataset built by
// the constructors into float32 storage — the switch the CI float32-mode job
// uses to run the whole suite on f32 datasets). Unset or unparsable selects
// F64, so ordinary runs are unaffected.
var defaultPrecision = sync.OnceValue(func() Precision {
	p, err := ParsePrecision(os.Getenv("DBSVEC_PRECISION"))
	if err != nil {
		return F64
	}
	return p
})

// DefaultPrecision returns the process-wide construction default (F64 unless
// DBSVEC_PRECISION=f32). Tests that pin exact float64 golden values gate on
// it.
func DefaultPrecision() Precision { return defaultPrecision() }

// Dataset is an immutable-by-convention collection of n points in d
// dimensions backed by one flat slice. The zero value is unusable; construct
// with NewDataset or FromRows.
type Dataset struct {
	coords []float64 // len == n*d; in F32 mode the exact widening of coords32
	// coords32 is the float32 storage mirror, non-nil exactly when prec is
	// F32. It is quantized once at construction; the batch kernels stream it.
	coords32 []float32
	prec     Precision
	n        int
	d        int
}

// NewDataset wraps an existing flat coordinate slice. The slice length must
// be a multiple of d and every coordinate must be finite (the same contract
// FromRows enforces). The dataset takes ownership of coords; callers must
// not mutate it afterwards. Trusted internal producers of known-finite
// coordinates can skip the finite-value scan with NewDatasetUnchecked.
func NewDataset(coords []float64, d int) (*Dataset, error) {
	ds, err := NewDatasetUnchecked(coords, d)
	if err != nil {
		return nil, err
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}

// NewDatasetUnchecked is NewDataset without the finite-value scan. It is the
// documented escape hatch for trusted internal callers — synthetic data
// generators and derived datasets (cell centers, subsets) whose coordinates
// are finite by construction — where an extra O(n·d) pass per build would
// show up in benchmarks. Callers feeding external input must use NewDataset
// (or FromRows): NaN coordinates poison every distance comparison downstream.
func NewDatasetUnchecked(coords []float64, d int) (*Dataset, error) {
	if d <= 0 {
		return nil, ErrBadDim
	}
	if len(coords)%d != 0 {
		return nil, fmt.Errorf("vec: %d coordinates is not a multiple of dimension %d", len(coords), d)
	}
	ds := &Dataset{coords: coords, n: len(coords) / d, d: d}
	if DefaultPrecision() == F32 {
		if err := ds.quantize(); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// quantize flips the dataset into F32 storage in place: every master
// coordinate is rounded to float32 once, the mirror stores the rounded bits
// and the master is replaced by their exact widening. Finite coordinates
// beyond the float32 range fail with ErrNotF32 (quantizing them to ±Inf
// would poison every distance downstream).
func (ds *Dataset) quantize() error {
	mirror := make([]float32, len(ds.coords))
	for i, v := range ds.coords {
		f := float32(v)
		if math.IsInf(float64(f), 0) && !math.IsInf(v, 0) {
			return fmt.Errorf("%w: point %d dimension %d (%g)", ErrNotF32, i/ds.d, i%ds.d, v)
		}
		mirror[i] = f
		ds.coords[i] = float64(f)
	}
	ds.coords32 = mirror
	ds.prec = F32
	return nil
}

// Precision returns the dataset's storage precision.
func (ds *Dataset) Precision() Precision {
	if ds == nil {
		return F64
	}
	return ds.prec
}

// ToPrecision returns a dataset with the requested storage precision. A
// matching precision returns the receiver unchanged. F64→F32 returns a
// quantized copy (the receiver's coordinates are not mutated); the
// conversion is the one rounding step of float32 mode and fails with
// ErrNotF32 when a coordinate overflows the float32 range. F32→F64 drops the
// mirror; the master keeps the already-quantized values, so converting back
// does not recover the original float64 input.
func (ds *Dataset) ToPrecision(p Precision) (*Dataset, error) {
	if ds == nil || ds.prec == p {
		return ds, nil
	}
	if p == F64 {
		return &Dataset{coords: ds.coords, n: ds.n, d: ds.d}, nil
	}
	cp := &Dataset{coords: append([]float64(nil), ds.coords...), n: ds.n, d: ds.d}
	if err := cp.quantize(); err != nil {
		return nil, err
	}
	return cp, nil
}

// FromRows copies a row-per-point matrix into a new dataset. All rows must
// share the same length and contain only finite values.
func FromRows(rows [][]float64) (*Dataset, error) {
	if len(rows) == 0 {
		return &Dataset{coords: nil, n: 0, d: 1}, nil
	}
	d := len(rows[0])
	if d == 0 {
		return nil, ErrBadDim
	}
	coords := make([]float64, 0, len(rows)*d)
	for i, r := range rows {
		if len(r) != d {
			return nil, fmt.Errorf("%w: row %d has %d coordinates, want %d", ErrDimMismatch, i, len(r), d)
		}
		coords = append(coords, r...)
	}
	// The finite-value check is shared with NewDataset via Validate.
	return NewDataset(coords, d)
}

// Empty reports whether the dataset holds no points.
func (ds *Dataset) Empty() bool { return ds == nil || ds.n == 0 }

// Len returns the number of points n.
func (ds *Dataset) Len() int {
	if ds == nil {
		return 0
	}
	return ds.n
}

// Dim returns the dimensionality d.
func (ds *Dataset) Dim() int {
	if ds == nil {
		return 0
	}
	return ds.d
}

// Point returns a read-only view of point i. The returned slice aliases the
// dataset's backing array and must not be modified or retained across
// dataset mutations.
func (ds *Dataset) Point(i int) []float64 {
	return ds.coords[i*ds.d : i*ds.d+ds.d : i*ds.d+ds.d]
}

// Coords exposes the flat backing slice (length n*d). Read-only.
func (ds *Dataset) Coords() []float64 { return ds.coords }

// Clone returns a deep copy of the dataset, preserving its precision.
func (ds *Dataset) Clone() *Dataset {
	cp := make([]float64, len(ds.coords))
	copy(cp, ds.coords)
	out := &Dataset{coords: cp, prec: ds.prec, n: ds.n, d: ds.d}
	if ds.coords32 != nil {
		out.coords32 = append([]float32(nil), ds.coords32...)
	}
	return out
}

// Subset copies the points with the given ids into a new dataset, in order,
// preserving the precision. In F32 mode the master rows are already widened
// float32 values, so re-quantizing the subset is exact.
func (ds *Dataset) Subset(ids []int32) *Dataset {
	out := make([]float64, 0, len(ids)*ds.d)
	for _, id := range ids {
		out = append(out, ds.Point(int(id))...)
	}
	sub := &Dataset{coords: out, n: len(ids), d: ds.d}
	if ds.prec == F32 {
		mirror := make([]float32, len(out))
		for i, v := range out {
			mirror[i] = float32(v)
		}
		sub.coords32 = mirror
		sub.prec = F32
	}
	return sub
}

// Dist2 returns the squared Euclidean distance between points i and j.
func (ds *Dataset) Dist2(i, j int) float64 {
	return dist.SqDist(ds.Point(i), ds.Point(j))
}

// Dist returns the Euclidean distance between points i and j.
func (ds *Dataset) Dist(i, j int) float64 {
	return math.Sqrt(ds.Dist2(i, j))
}

// Dist2To returns the squared Euclidean distance between point i and an
// arbitrary query vector q (len(q) must equal Dim()).
func (ds *Dataset) Dist2To(i int, q []float64) float64 {
	return dist.SqDist(ds.Point(i), q)
}

// Matrix returns the dataset's coordinates for the batched kernels in
// internal/dist, without copying: the float64 master, plus the float32
// mirror in F32 mode, which every scan and dot kernel then streams (half
// the bytes, bit-identical results). The matrix aliases the dataset's
// backing arrays.
func (ds *Dataset) Matrix() dist.Matrix {
	return dist.Matrix{Coords: ds.coords, Coords32: ds.coords32, Dim: ds.d}
}

// Iota returns the identity id slice [0, 1, …, n-1]: the full-dataset id
// set consumed by index builders and whole-dataset SVDD training.
func Iota(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// Mean computes the coordinate-wise mean of the points with the given ids.
// It returns a zero vector when ids is empty.
func (ds *Dataset) Mean(ids []int32) []float64 {
	m := make([]float64, ds.d)
	if len(ids) == 0 {
		return m
	}
	for _, id := range ids {
		p := ds.Point(int(id))
		for j, v := range p {
			m[j] += v
		}
	}
	inv := 1 / float64(len(ids))
	for j := range m {
		m[j] *= inv
	}
	return m
}

// Bounds returns the per-dimension minimum and maximum over all points.
// For an empty dataset both slices are nil.
func (ds *Dataset) Bounds() (lo, hi []float64) {
	if ds.n == 0 {
		return nil, nil
	}
	lo = make([]float64, ds.d)
	hi = make([]float64, ds.d)
	copy(lo, ds.Point(0))
	copy(hi, ds.Point(0))
	for i := 1; i < ds.n; i++ {
		p := ds.Point(i)
		for j, v := range p {
			if v < lo[j] {
				lo[j] = v
			}
			if v > hi[j] {
				hi[j] = v
			}
		}
	}
	return lo, hi
}

// NormalizeTo linearly rescales every coordinate so each dimension spans
// [0, scale], matching the paper's experimental setup (coordinates
// normalized to [0,10^5]). Dimensions with zero extent map to 0. It returns
// the same dataset for chaining. This is the one sanctioned mutation of a
// dataset and must happen before any index is built over it.
func (ds *Dataset) NormalizeTo(scale float64) *Dataset {
	if ds.n == 0 {
		return ds
	}
	lo, hi := ds.Bounds()
	for j := 0; j < ds.d; j++ {
		ext := hi[j] - lo[j]
		if ext <= 0 {
			for i := 0; i < ds.n; i++ {
				ds.coords[i*ds.d+j] = 0
			}
			continue
		}
		f := scale / ext
		for i := 0; i < ds.n; i++ {
			ds.coords[i*ds.d+j] = (ds.coords[i*ds.d+j] - lo[j]) * f
		}
	}
	if ds.prec == F32 {
		// Rescaling happened on the float64 master; re-quantize so the mirror
		// and master stay two consistent views of one storage. Normalized
		// coordinates are bounded by |scale|, so this cannot overflow float32
		// for any sane scale.
		for i, v := range ds.coords {
			f := float32(v)
			ds.coords32[i] = f
			ds.coords[i] = float64(f)
		}
	}
	return ds
}

// Validate checks that every coordinate is finite.
func (ds *Dataset) Validate() error {
	for i, v := range ds.coords {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: point %d dimension %d", ErrNonFinite, i/ds.d, i%ds.d)
		}
	}
	return nil
}

// Rect is an axis-aligned hyper-rectangle used by spatial indexes.
type Rect struct {
	Lo, Hi []float64
}

// NewRect allocates a rectangle of dimensionality d initialized to the
// empty (inverted) state so that ExtendRect works incrementally.
func NewRect(d int) Rect {
	lo := make([]float64, d)
	hi := make([]float64, d)
	for j := 0; j < d; j++ {
		lo[j] = math.Inf(1)
		hi[j] = math.Inf(-1)
	}
	return Rect{Lo: lo, Hi: hi}
}

// RectOf returns the tight bounding rectangle of a single point.
func RectOf(p []float64) Rect {
	lo := make([]float64, len(p))
	hi := make([]float64, len(p))
	copy(lo, p)
	copy(hi, p)
	return Rect{Lo: lo, Hi: hi}
}

// ExtendRect grows r in place to cover another rectangle.
func (r *Rect) ExtendRect(o Rect) {
	for j := range r.Lo {
		if o.Lo[j] < r.Lo[j] {
			r.Lo[j] = o.Lo[j]
		}
		if o.Hi[j] > r.Hi[j] {
			r.Hi[j] = o.Hi[j]
		}
	}
}

// Contains reports whether point p lies inside (or on the border of) r.
func (r Rect) Contains(p []float64) bool {
	for j, v := range p {
		if v < r.Lo[j] || v > r.Hi[j] {
			return false
		}
	}
	return true
}

// MinDist2 returns the squared Euclidean distance from point q to the
// nearest point of the rectangle (0 when q is inside).
func (r Rect) MinDist2(q []float64) float64 {
	var s float64
	for j, v := range q {
		if v < r.Lo[j] {
			dv := r.Lo[j] - v
			s += dv * dv
		} else if v > r.Hi[j] {
			dv := v - r.Hi[j]
			s += dv * dv
		}
	}
	return s
}

// MinDist2Rect returns the squared Euclidean distance between the closest
// pair of points of two rectangles (0 when they intersect).
func (r Rect) MinDist2Rect(o Rect) float64 {
	var s float64
	for j := range r.Lo {
		if o.Hi[j] < r.Lo[j] {
			dv := r.Lo[j] - o.Hi[j]
			s += dv * dv
		} else if o.Lo[j] > r.Hi[j] {
			dv := o.Lo[j] - r.Hi[j]
			s += dv * dv
		}
	}
	return s
}

// MaxDist2 returns the squared Euclidean distance from point q to the
// farthest corner of the rectangle.
func (r Rect) MaxDist2(q []float64) float64 {
	var s float64
	for j, v := range q {
		a := v - r.Lo[j]
		b := r.Hi[j] - v
		m := math.Max(math.Abs(a), math.Abs(b))
		s += m * m
	}
	return s
}

// Center writes the rectangle's center into dst (allocating when dst is nil
// or too short) and returns it.
func (r Rect) Center(dst []float64) []float64 {
	if cap(dst) < len(r.Lo) {
		dst = make([]float64, len(r.Lo))
	}
	dst = dst[:len(r.Lo)]
	for j := range r.Lo {
		dst[j] = (r.Lo[j] + r.Hi[j]) / 2
	}
	return dst
}
