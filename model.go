package dbsvec

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"dbsvec/internal/cluster"
	"dbsvec/internal/core"
	"dbsvec/internal/data"
	"dbsvec/internal/dist"
	"dbsvec/internal/engine"
	"dbsvec/internal/fault"
)

// ErrMalformed is wrapped by every rejection of a malformed model stream in
// LoadModel / LoadOneClass, so errors.Is(err, ErrMalformed) classifies any
// decode failure regardless of the specific corruption.
var ErrMalformed = data.ErrMalformed

// Model is the durable artifact of a clustering run: the run parameters
// that define assignment semantics (ε, MinPts, dimensionality, cluster
// count) plus every per-sub-cluster SVDD boundary the run trained, one
// snapshot per training round. A Model is self-contained — the snapshots
// carry their own support-vector coordinates — so it can be saved, loaded
// in a fresh process, and used to Assign new points without the training
// dataset.
type Model struct {
	art *data.ModelArtifact

	planOnce sync.Once
	plan     *assignPlan
}

// Model returns the run's retained model artifact: the input to Save and
// Assign. It is nil only when the Result was not
// produced by Cluster/ClusterContext (e.g. the zero Result).
func (r *Result) Model() *Model { return r.model }

func newModel(d *Dataset, opts Options, res *cluster.Result, retained []core.RetainedModel) *Model {
	return newModelDims(d.Dim(), d.Precision(), opts, res, retained)
}

// Dim returns the dimensionality the model was trained in.
func (m *Model) Dim() int { return m.art.Dim }

// Precision returns the storage precision of the training dataset. Models
// saved before precision existed in the format load as PrecisionF64.
func (m *Model) Precision() Precision {
	if m.art.Precision == data.ModelPrecisionF32 {
		return PrecisionF32
	}
	return PrecisionF64
}

// Eps returns the ε radius of the training run.
func (m *Model) Eps() float64 { return m.art.Eps }

// MinPts returns the density threshold of the training run.
func (m *Model) MinPts() int { return m.art.MinPts }

// Clusters returns the number of clusters of the training run.
func (m *Model) Clusters() int { return m.art.Clusters }

// Snapshots returns the number of retained SVDD snapshots.
func (m *Model) Snapshots() int {
	n := 0
	for i := range m.art.Entries {
		if m.art.Entries[i].Snap != nil {
			n++
		}
	}
	return n
}

// SupportVectors returns the total number of support vectors across every
// retained snapshot — the size of the boundary description Assign evaluates.
func (m *Model) SupportVectors() int {
	n := 0
	for i := range m.art.Entries {
		if s := m.art.Entries[i].Snap; s != nil {
			n += s.SVCount()
		}
	}
	return n
}

// DegradedClusters returns the sorted ids of clusters that hit the exact
// range-query expansion fallback during training (see Stats.Degraded): their
// boundaries are either best-effort or absent, so Assign decisions near them
// lean on the nearest-cluster fallback.
func (m *Model) DegradedClusters() []int32 {
	seen := make(map[int32]bool)
	var ids []int32
	for i := range m.art.Entries {
		e := &m.art.Entries[i]
		if e.Degraded && !seen[e.Cluster] {
			seen[e.Cluster] = true
			ids = append(ids, e.Cluster)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Save streams the model to w in the versioned binary model format. The
// encoding is canonical: saving a loaded model reproduces the original
// bytes exactly.
func (m *Model) Save(w io.Writer) error {
	if m == nil || m.art == nil {
		return fmt.Errorf("dbsvec: nil model")
	}
	return data.WriteModel(w, m.art)
}

// LoadModel reads a clustering model saved with Model.Save. Malformed input
// is rejected with an error wrapping ErrMalformed; a one-class artifact is
// rejected too (use LoadOneClass).
func LoadModel(r io.Reader) (*Model, error) {
	art, err := data.ReadModel(r)
	if err != nil {
		return nil, err
	}
	if art.Kind != data.ModelKindClustering {
		return nil, fmt.Errorf("%w: artifact is not a clustering model (kind %d)", ErrMalformed, art.Kind)
	}
	return &Model{art: art}, nil
}

// assignPlan is the flattened evaluation state Assign builds once per Model:
// all support vectors concatenated into one matrix so a single batched
// distance pass per query point serves every boundary evaluation and the
// nearest-vector fallback.
type assignPlan struct {
	svs     dist.Matrix // every SV of every snapshot, row-major
	alpha   []float64   // multiplier per SV row
	cluster []int32     // owning final cluster id per SV row
	entries []planEntry
	eps2    float64
}

// planEntry is one snapshot's slice of the plan.
type planEntry struct {
	lo, hi  int     // SV row range [lo, hi)
	gamma   float64 // 1 / (2σ²)
	bias    float64 // 1 + αᵀKα − R²: Eval(x) = bias − 2Σᵢ αᵢ·exp(−‖x−xᵢ‖²·γ)
	cluster int32
}

func (m *Model) assignPlan() *assignPlan {
	m.planOnce.Do(func() {
		p := &assignPlan{
			svs:  dist.Matrix{Dim: m.art.Dim},
			eps2: m.art.Eps * m.art.Eps,
		}
		for i := range m.art.Entries {
			e := &m.art.Entries[i]
			s := e.Snap
			if s == nil {
				continue
			}
			lo := len(p.alpha)
			p.svs.Coords = append(p.svs.Coords, s.Coords...)
			p.alpha = append(p.alpha, s.Alpha...)
			for range s.IDs {
				p.cluster = append(p.cluster, e.Cluster)
			}
			p.entries = append(p.entries, planEntry{
				lo:      lo,
				hi:      len(p.alpha),
				gamma:   1 / (2 * s.Sigma * s.Sigma),
				bias:    1 + s.AlphaDot - s.R2,
				cluster: e.Cluster,
			})
		}
		m.plan = p
	})
	return m.plan
}

// CheckAssignable validates up front that the points of d can be classified
// by this model: the model must be non-nil and the dimensionalities must
// match. Every rejection wraps ErrInvalidParams, so callers (the CLI, the
// serving daemon) can classify the failure before any assignment work runs
// instead of discovering it mid-batch.
func (m *Model) CheckAssignable(d *Dataset) error {
	if m == nil || m.art == nil {
		return fmt.Errorf("%w: nil model", core.ErrInvalidParams)
	}
	if d == nil {
		return core.ErrNilDataset
	}
	if d.Dim() != m.art.Dim && d.Len() > 0 {
		return fmt.Errorf("%w: cannot assign %d-dimensional points with a %d-dimensional model", core.ErrInvalidParams, d.Dim(), m.art.Dim)
	}
	return nil
}

// Assign classifies each point of d against the retained boundaries and
// returns one label per point: the cluster whose SVDD boundary contains the
// point (the most-interior boundary wins when several do; ties break to the
// lower cluster id), else — nearest-cluster fallback — the cluster of the
// nearest retained support vector when that vector lies within ε, else
// Noise.
//
// The batch fans across workers goroutines (0 selects all CPUs, 1 runs
// sequentially) that claim fixed chunks of points, and the work is
// independent per point, so the labels are bit-identical for every worker
// count.
func (m *Model) Assign(d *Dataset, workers int) ([]int32, error) {
	return m.AssignContext(context.Background(), d, workers)
}

// assignStride is the chunk of points an assign worker claims at a time.
// Workers check ctx before every claim, so a deadline or cancel aborts a
// batch within a bounded slice of work instead of after it.
const assignStride = 64

// AssignContext is Assign with cancellation: when ctx is cancelled or its
// deadline fires mid-batch, every worker stops before its next chunk
// (assignStride points), the fan-out drains, and ctx's error is returned
// with nil labels. No goroutines outlive the call.
func (m *Model) AssignContext(ctx context.Context, d *Dataset, workers int) ([]int32, error) {
	return m.assignContext(ctx, d, workers, (*assignPlan).assign)
}

// AssignNearestContext is the degraded assignment path: each point gets the
// cluster of its nearest retained support vector when that vector lies
// within ε, Noise otherwise — the fallback half of Assign alone, skipping
// every SVDD boundary evaluation. One batched distance pass per point
// remains, but the per-support-vector exp() work is gone, which is what the
// serving daemon sheds under sustained overload. Labels agree with Assign
// everywhere Assign itself falls back; points inside a boundary may differ.
func (m *Model) AssignNearestContext(ctx context.Context, d *Dataset, workers int) ([]int32, error) {
	return m.assignContext(ctx, d, workers, (*assignPlan).assignNearest)
}

func (m *Model) assignContext(ctx context.Context, d *Dataset, workers int, score func(*assignPlan, []float64, []float64) int32) ([]int32, error) {
	if err := m.CheckAssignable(d); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	plan := m.assignPlan()
	labels := make([]int32, d.Len())
	mat := d.ds.Matrix()
	err := engine.For(ctx, workers, d.Len(), assignStride, func(lo, hi int) {
		fault.PanicNow(fault.AssignPanic)
		scratch := getAssignScratch(2 * plan.svs.Len())
		defer assignScratchPool.Put(scratch)
		for i := lo; i < hi; i++ {
			labels[i] = score(plan, mat.Row(i), *scratch)
		}
	})
	if err != nil {
		return nil, err
	}
	return labels, nil
}

// assignScratchPool recycles the per-chunk assign scratch (*[]float64, two
// slots per support vector): a served request assigns a batch of a few
// points, often one, so without it each request would allocate twice the
// model's support-vector count.
var assignScratchPool sync.Pool

func getAssignScratch(n int) *[]float64 {
	if p, _ := assignScratchPool.Get().(*[]float64); p != nil && cap(*p) >= n {
		*p = (*p)[:n]
		return p
	}
	buf := make([]float64, n)
	return &buf
}

// assign scores one point. scratch is the caller's buffer of twice the
// support-vector count: its first half takes the squared distances to every
// support vector (one batched pass serves all boundary evaluations and the
// fallback), its second half each entry's kernel values (see
// planEntry.score).
func (p *assignPlan) assign(q []float64, scratch []float64) int32 {
	if len(scratch) == 0 {
		return Noise
	}
	d2, k := splitScratch(scratch)
	dist.SqDistsToAll(p.svs, q, d2)
	best := math.Inf(1)
	bestCluster := cluster.Noise
	for _, e := range p.entries {
		score := e.score(p.alpha, d2, k)
		if score < best || (score == best && e.cluster < bestCluster) {
			best = score
			bestCluster = e.cluster
		}
	}
	if best <= 0 {
		return bestCluster
	}
	return p.nearestWithinEps(d2)
}

// assignNearest scores one point on the degraded path: the nearest-SV
// fallback alone, no boundary evaluations. scratch is the caller's buffer
// as in assign; only its distance half is used.
func (p *assignPlan) assignNearest(q []float64, scratch []float64) int32 {
	if len(scratch) == 0 {
		return cluster.Noise
	}
	d2, _ := splitScratch(scratch)
	dist.SqDistsToAll(p.svs, q, d2)
	return p.nearestWithinEps(d2)
}

// score is e's boundary score bias − 2Σαᵢ·exp(−d²ᵢ·γ) over its support
// vectors [lo, hi), given every support vector's squared distance d2; k is
// the scratch half its exponentials are written to.
func (e planEntry) score(alpha, d2, k []float64) float64 {
	seg := k[e.lo:e.hi]
	for i, v := range d2[e.lo:e.hi] {
		seg[i] = -v * e.gamma
	}
	dist.ExpInPlace(seg)
	var s float64
	for i, v := range seg {
		s += alpha[e.lo+i] * v
	}
	return e.bias - 2*s
}

// splitScratch splits an assign scratch buffer into its squared-distance and
// kernel-value halves, one slot per support vector each.
func splitScratch(scratch []float64) (d2, k []float64) {
	n := len(scratch) / 2
	return scratch[:n], scratch[n:]
}

// nearestWithinEps attaches to the cluster of the nearest support vector if
// it is ε-close, mirroring how border points attach to core neighborhoods
// during clustering; Noise otherwise. d2 must be non-empty.
func (p *assignPlan) nearestWithinEps(d2 []float64) int32 {
	ni, nd := 0, d2[0]
	for i := 1; i < len(d2); i++ {
		if d2[i] < nd {
			ni, nd = i, d2[i]
		}
	}
	if nd <= p.eps2 {
		return p.cluster[ni]
	}
	return cluster.Noise
}
