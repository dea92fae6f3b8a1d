package svdd

import (
	"math"
	"sync"

	"dbsvec/internal/dist"
	"dbsvec/internal/engine"
	"dbsvec/internal/vec"
)

// GaussianKernel evaluates the Gaussian (RBF) kernel of Eq. 6,
// K(a,b) = exp(-||a-b||² / (2σ²)).
func GaussianKernel(a, b []float64, sigma float64) float64 {
	return math.Exp(-dist.SqDist(a, b) / (2 * sigma * sigma))
}

// kernelMatrix is a symmetric ñ×ñ Gaussian kernel matrix over a target set,
// stored in one of two tiers chosen by target size alone:
//
//   - dense for ñ <= weightsExactCap, whose exact adaptive-weights pass reads
//     every row anyway; the fill fans out across the worker pool;
//   - lazy above it: rows are computed on first touch and cached, which keeps
//     SMO at the paper's O(ñ) per iteration (Section IV-D) — only the rows the
//     solver actually touches are evaluated, and with few support vectors
//     that is a small fraction of the matrix. The one batch of rows known in
//     advance, the adaptive-weights pivots, is computed up front across the
//     worker pool (fillRows).
//
// Both tiers produce bit-identical entries (see at), so neither the storage
// choice nor the worker count ever changes a trained model.
//
// Every row is computed from packed, a copy of the target rows in target
// order made once per training: the row kernels then stream contiguous rows
// through the four-row AVX kernels instead of gathering each target by id
// from the whole dataset, and dist.ExpInPlace exponentiates each row
// segment four lanes at a time. Both kernels are bit-identical to their
// per-pair forms, so the packing changes no entry.
type kernelMatrix struct {
	ds     *vec.Dataset
	m      dist.Matrix  // the dataset's, with its float32 mirror in F32 mode
	packed *dist.Matrix // pooled copy of the target rows, in the storage m streams
	ids    []int32
	gamma  float64 // 1/(2σ²)
	n      int
	full   []float64   // dense storage when n <= weightsExactCap
	rows   [][]float64 // lazy row cache otherwise
	// norms caches ‖x_i‖² per target for the cached-norms distance identity;
	// nil where dist.UseCachedNorms says the identity does not pay: at low
	// dimension, and in float32 storage mode, where its catastrophic
	// cancellation on large-magnitude coordinates is not worth the speedup.
	// The identity reassociates arithmetic (ULP-level error), which the
	// tolerance-based SMO solver absorbs — range-query backends never use it.
	norms []float64
}

// weightsExactCap is the largest target size for which the adaptive weights
// (Eq. 7) use exact kernel row sums — which read every row, so matrices up
// to this size are filled eagerly. Beyond it the pivot-sampled estimate is
// used and rows stay lazy. The size_sweep rows of BENCH_svdd.json time
// trainings on both sides of it.
const weightsExactCap = 256

// parallelFillMin is the smallest target size worth fanning the dense fill
// across workers; below it goroutine startup dominates the O(ñ²) fill.
const parallelFillMin = 128

// matrixPool recycles dense kernel-matrix backing slices. DBSVEC trains
// SVDD hundreds of times per run with similar target sizes, so reuse avoids
// repeated large allocations and their zeroing cost.
var matrixPool sync.Pool

func getMatrixBuf(n int) []float64 {
	if v := matrixPool.Get(); v != nil {
		buf := v.([]float64)
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]float64, n)
}

// packPool recycles the packed target copies (*dist.Matrix); like the
// matrix buffers they are sized by ñ, so consecutive trainings reuse them.
var packPool sync.Pool

// packTargets copies the rows ids of m, in order, into a pooled matrix.
func packTargets(m dist.Matrix, ids []int32) *dist.Matrix {
	p, _ := packPool.Get().(*dist.Matrix)
	if p == nil {
		p = new(dist.Matrix)
	}
	*p = m.PackedReuse(len(ids), *p)
	p.CopyRows(m, ids, 0, len(ids))
	return p
}

// rowPool recycles lazy kernel rows the same way: SMO materializes a row per
// touched target, and consecutive trainings touch similar row counts at
// similar lengths.
var rowPool sync.Pool

func getRowBuf(n int) []float64 {
	if v := rowPool.Get(); v != nil {
		buf := v.([]float64)
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]float64, n)
}

// releaseMatrix returns the model's packed targets, dense matrix and any
// materialized lazy rows to their pools; called by Train once the solver is
// done with them.
func releaseMatrix(km *kernelMatrix) {
	if km.packed != nil {
		packPool.Put(km.packed)
		km.packed = nil
	}
	if km.full != nil {
		matrixPool.Put(km.full) //nolint:staticcheck // slice reuse is the point
		km.full = nil
	}
	for i, r := range km.rows {
		if r != nil {
			rowPool.Put(r) //nolint:staticcheck // slice reuse is the point
			km.rows[i] = nil
		}
	}
	km.rows = nil
}

// newKernelMatrix builds the kernel matrix for the target set: dense up to
// weightsExactCap, with the fill fanned across workers goroutines (<= 1
// fills serially), and an empty lazy row cache above it.
func newKernelMatrix(ds *vec.Dataset, ids []int32, sigma float64, workers int) *kernelMatrix {
	km := &kernelMatrix{ds: ds, m: ds.Matrix(), ids: ids, gamma: 1 / (2 * sigma * sigma), n: len(ids)}
	km.packed = packTargets(km.m, ids)
	if dist.UseCachedNorms(km.m) {
		km.norms = dist.NormsIDs(km.m, ids)
	}
	if km.n <= weightsExactCap {
		km.full = getMatrixBuf(km.n * km.n)
		km.fillDense(workers)
	} else {
		km.rows = make([][]float64, km.n)
	}
	return km
}

// fillBlock is the column-tile width of the dense fill: the fill walks the
// upper triangle in tiles of fillBlock columns so the tile's target rows stay
// resident in L1/L2 across all the query rows that scan them, instead of
// streaming the whole remainder of the matrix once per row.
const fillBlock = 128

// fillStride is the number of rows a worker of the parallel dense fill
// claims at a time: enough rows to reuse each column tile, few enough that
// the triangle's shrinking rows spread evenly over the workers.
const fillStride = 16

// fillDense computes the dense matrix: the upper triangle via the batched
// distance and exp kernels in cache-blocked column tiles, each row segment
// computed in place and mirrored into the lower triangle. With workers > 1
// the rows run on engine.For in chunks of fillStride rows; workers claim
// the chunks in order, so the heaviest rows (row i contributes n−i−1
// upper-triangle entries) start first and the triangle balances itself. Each unordered pair (i,j) is written exactly
// once — by the chunk owning min(i,j) — so chunks touch disjoint matrix
// entries, and every entry is a per-pair-independent kernel evaluation, so
// neither the tiling nor the chunking changes a single bit: the result is
// identical for every worker count and tile width.
func (km *kernelMatrix) fillDense(workers int) {
	n := km.n
	fill := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			km.full[i*n+i] = 1
		}
		for j0 := lo + 1; j0 < n; j0 += fillBlock {
			j1 := min(j0+fillBlock, n)
			for i := lo; i < hi && i < j1; i++ {
				s := max(i+1, j0)
				if s >= j1 {
					continue
				}
				seg := km.full[i*n+s : i*n+j1]
				km.kernelRow(i, s, seg)
				for k, v := range seg {
					km.full[(s+k)*n+i] = v
				}
			}
		}
	}
	if workers <= 1 || n < parallelFillMin {
		fill(0, n)
		return
	}
	engine.For(nil, workers, n, fillStride, fill)
}

// kernelRow writes K(i, j) for the targets j in [off, off+len(out)) into
// out: the squared distances from the packed rows (through the cached-norms
// identity when it is enabled for this matrix), then −d²·γ (one NegScale),
// then one ExpInPlace over the segment. Each entry is math.Exp(−d²·γ) of the d²
// that SqDistsTo and SqDistsToCached give, bit for bit.
func (km *kernelMatrix) kernelRow(i, off int, out []float64) {
	q := km.ds.Point(int(km.ids[i]))
	hi := off + len(out)
	if km.norms != nil {
		dist.SqDistsToRangeCached(*km.packed, q, km.norms[i], off, hi, km.norms[off:hi], out)
	} else {
		dist.SqDistsToRange(*km.packed, q, off, hi, out)
	}
	dist.NegScale(out, km.gamma)
	dist.ExpInPlace(out)
}

// row returns row i of the kernel matrix (length ñ), computing and caching
// it on first access.
func (km *kernelMatrix) row(i int) []float64 {
	if km.full != nil {
		return km.full[i*km.n : (i+1)*km.n]
	}
	if r := km.rows[i]; r != nil {
		return r
	}
	r := km.computeRow(i)
	km.rows[i] = r
	return r
}

// computeRow evaluates row i of the kernel matrix into a pooled buffer.
func (km *kernelMatrix) computeRow(i int) []float64 {
	r := getRowBuf(km.n)
	km.kernelRow(i, 0, r)
	r[i] = 1
	return r
}

// fillRows computes and caches the lazy rows idx (distinct indices, none
// cached yet) as one batch fanned across workers goroutines. Each row is its
// own chunk of engine.For, so workers write disjoint km.rows entries, and
// every row goes through computeRow — the arithmetic row() uses — so the
// cache holds the same bits whichever path filled it. A no-op on dense
// storage.
func (km *kernelMatrix) fillRows(idx []int, workers int) {
	if km.full != nil {
		return
	}
	engine.For(nil, max(workers, 1), len(idx), 1, func(lo, hi int) {
		for _, i := range idx[lo:hi] {
			km.rows[i] = km.computeRow(i)
		}
	})
}

// at returns K(i,j) without forcing a whole row when neither is cached. The
// scalar fallback mirrors the batched row kernels entry for entry — plain
// SqDist below the norm-caching threshold, the cached-norms identity above
// it — so the value is bit-identical to what a materialized row would hold.
// IEEE addition and multiplication are commutative, so the identity is also
// symmetric in (i,j); together this makes every K(i,j) independent of the
// storage mode, the fill order and the worker count.
func (km *kernelMatrix) at(i, j int) float64 {
	if i == j {
		return 1
	}
	if km.full != nil {
		return km.full[i*km.n+j]
	}
	if r := km.rows[i]; r != nil {
		return r[j]
	}
	if r := km.rows[j]; r != nil {
		return r[i]
	}
	var d2 float64
	if km.norms != nil {
		d2 = km.norms[j] + km.norms[i] - 2*dist.Dot(km.m.Row(int(km.ids[j])), km.m.Row(int(km.ids[i])))
		if d2 < 0 {
			d2 = 0
		}
	} else {
		d2 = dist.SqDist(km.m.Row(int(km.ids[i])), km.m.Row(int(km.ids[j])))
	}
	return math.Exp(-d2 * km.gamma)
}

// KernelDistances evaluates the kernel distance function D(x) of Eq. 5 for
// every point of the target set: the squared feature-space distance from
// Φ(x_i) to the kernel centroid (1/ñ)ΣΦ(x_j). Exact O(ñ²) version; the
// solver's internal weight computation uses the pivot-sampled estimate
// instead.
func KernelDistances(ds *vec.Dataset, ids []int32, sigma float64) []float64 {
	n := len(ids)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	gamma := 1 / (2 * sigma * sigma)
	m := ds.Matrix()
	var norms []float64
	if dist.UseCachedNorms(m) {
		norms = dist.NormsIDs(m, ids)
	}
	// s[i] = Σ_j K(x_i, x_j); the double sum is Σ_i s[i].
	s := make([]float64, n)
	scratch := make([]float64, n)
	var double float64
	for i := 0; i < n; i++ {
		s[i] += 1 // K(x_i,x_i)
		row := scratch[:n-i-1]
		if norms != nil {
			dist.SqDistsToCached(m, ds.Point(int(ids[i])), norms[i], ids[i+1:], norms[i+1:], row)
		} else {
			dist.SqDistsTo(m, ds.Point(int(ids[i])), ids[i+1:], row)
		}
		for k, d2 := range row {
			v := math.Exp(-d2 * gamma)
			s[i] += v
			s[i+1+k] += v
		}
	}
	for i := 0; i < n; i++ {
		double += s[i]
	}
	nf := float64(n)
	c := double / (nf * nf)
	for i := 0; i < n; i++ {
		d := c + 1 - 2*s[i]/nf
		if d < 0 {
			d = 0 // numeric guard; D is a squared norm
		}
		out[i] = d
	}
	return out
}

// SigmaLowerBound returns the paper's kernel width choice σ = r/√2
// (Section IV-B2), where r is the distance from the centroid of the target
// points to the farthest target point. A small positive floor keeps the
// kernel well-defined for degenerate targets (single point, duplicates).
func SigmaLowerBound(ds *vec.Dataset, ids []int32) float64 {
	const floor = 1e-9
	if len(ids) == 0 {
		return floor
	}
	mean := ds.Mean(ids)
	var maxD2 float64
	for _, id := range ids {
		if d2 := dist.SqDist(ds.Point(int(id)), mean); d2 > maxD2 {
			maxD2 = d2
		}
	}
	sigma := math.Sqrt(maxD2) / math.Sqrt2
	if sigma < floor {
		sigma = floor
	}
	return sigma
}

// NuStar returns the paper's adaptive penalty factor
// ν* = d·√(log_MinPts ñ)/ñ (Eq. 20), clamped into (0, 1].
func NuStar(dim, minPts, targetSize int) float64 {
	if targetSize <= 0 {
		return 1
	}
	nf := float64(targetSize)
	nu := 1 / nf // minimum meaningful value: a single support vector
	if minPts > 1 && targetSize > 1 {
		l := math.Log(nf) / math.Log(float64(minPts))
		if l > 0 {
			nu = float64(dim) * math.Sqrt(l) / nf
		}
	}
	if nu < 1/nf {
		nu = 1 / nf
	}
	if nu > 1 {
		nu = 1
	}
	return nu
}
