// Package shard runs DBSVEC out-of-core over axis-aligned spatial slabs with
// eps-wide halo overlap and merges the per-shard clusterings into the exact
// global result.
//
// The partition is one-dimensional: the widest-extent axis is cut into k
// slabs, starting from equal-count quantiles and sliding each cut to the
// sparsest nearby histogram edge so halos stay small (exactness never depends
// on where the cuts land). Shard s owns the points whose axis
// value falls in [c_s, c_{s+1}) and works on the eps-dilated window
// [c_s − eps, c_{s+1} + eps). Two facts make the merge exact:
//
//  1. An owned point's entire eps-ball lies inside the owner's working set
//     (any neighbor is within eps along the axis too), so the owner's
//     core-point test and cluster label for every point it owns are the ones
//     the full dataset would produce.
//  2. Any two core points p, q within eps of each other are each inside the
//     other owner's working set (axis distance ≤ Euclidean distance ≤ eps),
//     so every cross-shard density connection is witnessed by a halo point
//     that is owner-confirmed core and carries a non-noise label in both
//     shards — a union-find edge between the two local clusters.
//
// Merging therefore unions, for every halo point whose owner confirms it
// core, all non-noise local labels the point received across shards, then
// relabels owner-side labels through the union-find. See DESIGN.md "Sharded
// execution & out-of-core streaming" for the full argument.
package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"dbsvec/internal/cluster"
	"dbsvec/internal/core"
	"dbsvec/internal/engine"
	"dbsvec/internal/fault"
	"dbsvec/internal/index"
	"dbsvec/internal/index/kdtree"
	"dbsvec/internal/unionfind"
	"dbsvec/internal/vec"
)

// MaxShards bounds the slab count; ownership bookkeeping is one byte per
// point.
const MaxShards = 256

// planBins is the histogram resolution of the cut planner.
const planBins = 8192

// Options configures a sharded run.
type Options struct {
	// Core holds the per-shard DBSVEC options (Eps and MinPts required).
	// Context and Budget apply per shard: a budget-tripped shard contributes
	// its valid partial clustering and the run reports the first trip.
	Core core.Options
	// Shards is the slab count k (default 1 = single-shot semantics).
	Shards int
	// Concurrency caps the shards in flight, bounding peak memory at
	// O(Concurrency × slab). Default 1: fully sequential, minimum footprint.
	Concurrency int
	// Retain keeps each shard's per-sub-cluster SVDD snapshots
	// (core.RunRetained), remapped to final global cluster ids.
	Retain bool
}

// ShardStat reports one shard's execution.
type ShardStat struct {
	// N is the working-set size (owned + halo), Owned the owned point count,
	// Boundary the shard's working-set points that fall in any halo band.
	N, Owned, Boundary int
	// Clusters is the shard-local cluster count before merging.
	Clusters int
	// Elapsed is the shard's total wall clock (slab load through boundary
	// summary).
	Elapsed time.Duration
	// Core is the inner DBSVEC run's statistics; Core.IndexBuild is the
	// shard's index construction.
	Core core.Stats
}

// Stats reports a sharded run.
type Stats struct {
	// Axis is the split axis (-1 when Shards == 1 and no planning ran).
	Axis int
	// Cuts are the k-1 slab boundaries along Axis.
	Cuts []float64
	// Shards holds per-shard execution stats in shard order.
	Shards []ShardStat
	// BoundaryPoints counts distinct points in any halo band; CrossMerges
	// counts the union-find merges the halo agreement pass performed.
	BoundaryPoints, CrossMerges int
	// Plan and Merge are the wall clocks of the planning scans and of the
	// boundary merge + final relabeling.
	Plan, Merge time.Duration
	// PeakHeapBytes is the sampled peak live heap across the run.
	PeakHeapBytes uint64
}

// Model is a retained per-sub-cluster SVDD snapshot tagged with the shard
// that trained it; Cluster references the final merged cluster ids.
type Model struct {
	Shard int
	core.RetainedModel
}

// plan is the slab decomposition: for every point its owning shard, and for
// every shard the sorted working-set ids. Boundary points (members of ≥2
// working sets) get dense indices for the merge bookkeeping.
type plan struct {
	axis    int
	cuts    []float64
	ownerOf []uint8
	work    [][]int32
	ownedN  []int
	bIdx    []int32 // point id → dense boundary index, -1 for interior
	bN      int
}

// Run executes DBSVEC over the source in Shards eps-halo slabs and returns
// the exact merged clustering. With Shards == 1 the result is identical to a
// single-shot core.Run over the materialized source; for any shard count the
// merged labels are a permutation of the single-shot labels whenever the
// per-shard runs are DBSCAN-exact on their working sets (see the package
// comment). The retained model list is nil unless Options.Retain is set.
//
// Run is a recover boundary like core.Run: a panic anywhere in it, the
// shard fan-out's workers included, returns a *fault.WorkerPanicError and no
// result.
func Run(src Source, o Options) (res *cluster.Result, models []Model, stats Stats, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, models, err = nil, nil, fault.AsWorkerPanic(v)
		}
	}()
	if src == nil {
		return nil, nil, stats, fmt.Errorf("%w: nil source", core.ErrInvalidParams)
	}
	k := o.Shards
	if k == 0 {
		k = 1
	}
	if k < 1 || k > MaxShards {
		return nil, nil, stats, fmt.Errorf("%w: Shards %d outside [1, %d]", core.ErrInvalidParams, o.Shards, MaxShards)
	}
	conc := o.Concurrency
	if conc == 0 {
		conc = 1
	}
	if conc < 0 {
		return nil, nil, stats, fmt.Errorf("%w: Concurrency %d must be non-negative", core.ErrInvalidParams, o.Concurrency)
	}
	if err := o.Core.Validate(); err != nil {
		return nil, nil, stats, err
	}
	n := src.Len()
	if n == 0 {
		stats.Axis = -1
		return &cluster.Result{Labels: []int32{}}, nil, stats, nil
	}

	sampler := startHeapSampler()
	defer func() { stats.PeakHeapBytes = sampler.Stop() }()

	planStart := time.Now()
	p, err := buildPlan(src, o.Core.Eps, k)
	if err != nil {
		return nil, nil, stats, err
	}
	stats.Plan = time.Since(planStart)
	stats.Axis = p.axis
	stats.Cuts = p.cuts
	stats.BoundaryPoints = p.bN
	k = len(p.work)

	// Per-shard execution: up to conc workers claim shards in order, one
	// shard per chunk. A shard writes owner-local labels into disjoint
	// rawLocal entries and reduces everything else to a boundary summary
	// before releasing the slab; merging below is sequential in shard order,
	// so results do not depend on completion order.
	rawLocal := make([]int32, n)
	outs := make([]*shardOut, k)
	errs := make([]error, k)
	parent := o.Core.Context
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	engine.For(nil, conc, k, 1, func(s, _ int) {
		if err := ctx.Err(); err != nil {
			errs[s] = err
			return
		}
		out, err := runShard(ctx, src, o, p, s, rawLocal)
		p.work[s] = nil // merge only needs bIdx/ownerOf; release the id list
		if err != nil {
			errs[s] = err
			cancel() // hard failure: stop remaining shards
			return
		}
		outs[s] = out
	})
	// Prefer the shard error that caused the cancellation over the
	// context.Canceled echoes of the shards it stopped.
	var firstErr error
	for s, err := range errs {
		if err == nil {
			continue
		}
		wrapped := fmt.Errorf("shard %d: %w", s, err)
		if firstErr == nil {
			firstErr = wrapped
		}
		if !errors.Is(err, context.Canceled) {
			firstErr = wrapped
			break
		}
	}
	if firstErr != nil {
		return nil, nil, stats, firstErr
	}

	mergeStart := time.Now()
	res, models, budgetErr := merge(p, outs, rawLocal, o.Retain, &stats)
	stats.Merge = time.Since(mergeStart)
	return res, models, stats, budgetErr
}

// buildPlan scans the source (bounds, axis histogram, assignment) and
// produces the slab decomposition. Three sequential streaming passes keep
// planning memory at O(blocks + id lists).
func buildPlan(src Source, eps float64, k int) (*plan, error) {
	n, d := src.Len(), src.Dim()
	p := &plan{axis: -1}
	if k == 1 {
		// No cuts, no boundary: one shard owns everything. Skip the scans so
		// Shards=1 adds no planning overhead over a single-shot run.
		p.ownerOf = make([]uint8, n)
		p.work = [][]int32{vec.Iota(n)}
		p.ownedN = []int{n}
		p.bIdx = make([]int32, n)
		for i := range p.bIdx {
			p.bIdx[i] = -1
		}
		return p, nil
	}

	// Pass 1: per-dimension bounds pick the widest axis.
	lo := make([]float64, d)
	hi := make([]float64, d)
	first := true
	err := src.Scan(func(start int, coords []float64) error {
		i := 0
		if first {
			copy(lo, coords[:d])
			copy(hi, coords[:d])
			first = false
			i = 1
		}
		for ; i < len(coords)/d; i++ {
			row := coords[i*d : (i+1)*d]
			for j, v := range row {
				if v < lo[j] {
					lo[j] = v
				}
				if v > hi[j] {
					hi[j] = v
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	axis := 0
	for j := 1; j < d; j++ {
		if hi[j]-lo[j] > hi[axis]-lo[axis] {
			axis = j
		}
	}
	p.axis = axis

	// Pass 2: density-aware cuts from an axis histogram. Cut values are bin
	// edges, so they are a deterministic function of the data alone.
	span := hi[axis] - lo[axis]
	if span > 0 {
		counts := make([]int64, planBins)
		err = src.Scan(func(start int, coords []float64) error {
			for i := 0; i < len(coords)/d; i++ {
				b := int(float64(planBins) * (coords[i*d+axis] - lo[axis]) / span)
				if b >= planBins {
					b = planBins - 1
				}
				counts[b]++
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		// Cut placement: start from the equal-count quantile edges (balanced
		// slabs), then slide each cut within a bounded window to the edge
		// whose eps-halo holds the fewest points, among edges that keep the
		// cumulative mass within half a slab of the quantile. On clustered
		// data the quantiles land inside dense regions — a halo there swallows
		// whole clusters and the boundary pass dominates the run — while a cut
		// whose entire [cut−eps, cut+eps) band is sparse costs almost nothing.
		// The mass constraint keeps every slab under ~2n/k owned points, so
		// halo-chasing cannot concentrate the dataset into one shard (that
		// would defeat the bounded-peak-memory goal of sharding). Correctness
		// never depends on placement (the halo-merge argument holds for any
		// cuts); this is purely a work minimizer, and it stays deterministic:
		// the leftmost minimal-halo edge wins ties.
		prefix := make([]int64, planBins+1)
		for b, c := range counts {
			prefix[b+1] = prefix[b] + c
		}
		// Halo population of a cut at edge e, conservatively rounded out to
		// whole bins.
		epsBins := int(float64(planBins)*eps/span) + 1
		haloN := func(e int) int64 {
			from, to := e-epsBins, e+epsBins
			if from < 0 {
				from = 0
			}
			if to > planBins {
				to = planBins
			}
			return prefix[to] - prefix[from]
		}
		// Half the mean quantile spacing: wide enough to escape a dense blob
		// whose radius is a modest fraction of the span, narrow enough that a
		// cut cannot cross its neighboring quantiles.
		window := planBins / (2 * k)
		if window < 1 {
			window = 1
		}
		maxSkew := int64(n) / int64(2*k)
		cuts := make([]float64, 0, k-1)
		prevEdge := 0
		for j := 1; j < k; j++ {
			target := int64(j) * int64(n) / int64(k)
			q := sort.Search(planBins+1, func(e int) bool { return prefix[e] >= target })
			loE := q - window
			if loE <= prevEdge {
				loE = prevEdge + 1
			}
			hiE := q + window
			if hiE > planBins-1 {
				hiE = planBins - 1
			}
			balanced := func(e int) bool {
				skew := prefix[e] - target
				return skew >= -maxSkew && skew <= maxSkew
			}
			// Fallback when no window edge satisfies the mass constraint (or
			// the window is degenerate, loE > hiE): the bound nearest the
			// quantile in mass.
			best := hiE
			if loE <= hiE && prefix[loE]-target > maxSkew {
				best = loE
			}
			for e := loE; e <= hiE; e++ {
				if balanced(e) && (!balanced(best) || haloN(e) < haloN(best)) {
					best = e
				}
			}
			prevEdge = best
			cuts = append(cuts, lo[axis]+span*float64(best)/planBins)
		}
		p.cuts = cuts
	}
	// span == 0 (all points identical on every axis) leaves cuts empty:
	// shard 0 owns everything, the others are empty.

	// Pass 3: assignment. A point with axis value x is owned by the slab
	// [c_s, c_{s+1}) containing x and belongs to the working set of every
	// shard t with c_t − eps ≤ x < c_{t+1} + eps — a contiguous range
	// [wLo, wHi]. Points with wLo < wHi sit in a halo band and get dense
	// boundary indices.
	cuts := p.cuts
	kEff := len(cuts) + 1
	p.ownerOf = make([]uint8, n)
	p.work = make([][]int32, kEff)
	p.ownedN = make([]int, kEff)
	p.bIdx = make([]int32, n)
	err = src.Scan(func(start int, coords []float64) error {
		for i := 0; i < len(coords)/d; i++ {
			id := int32(start + i)
			x := coords[i*d+axis]
			owner := sort.Search(len(cuts), func(j int) bool { return cuts[j] > x })
			wLo := sort.Search(len(cuts), func(j int) bool { return cuts[j]+eps > x })
			wHi := sort.Search(len(cuts), func(j int) bool { return cuts[j]-eps > x })
			p.ownerOf[id] = uint8(owner)
			p.ownedN[owner]++
			for t := wLo; t <= wHi; t++ {
				p.work[t] = append(p.work[t], id)
			}
			if wLo < wHi {
				p.bIdx[id] = int32(p.bN)
				p.bN++
			} else {
				p.bIdx[id] = -1
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// bEntry records one non-noise local label a boundary point received.
type bEntry struct {
	b     int32 // dense boundary index
	local int32 // shard-local cluster id
}

// shardOut is a shard's boundary summary: everything the merge needs after
// the slab, index and engine are released.
type shardOut struct {
	clusters  int
	entries   []bEntry
	coreB     []int32 // dense boundary indices owner-confirmed core
	retained  []core.RetainedModel
	stat      ShardStat
	budgetErr error
}

// runShard materializes one shard's working set, runs DBSVEC on it, and
// reduces the result to a boundary summary. Owner-local labels are written
// into rawLocal (disjoint per shard, so concurrent shards never race).
func runShard(ctx context.Context, src Source, o Options, p *plan, s int, rawLocal []int32) (*shardOut, error) {
	startT := time.Now()
	out := &shardOut{}
	work := p.work[s]
	out.stat.N = len(work)
	out.stat.Owned = p.ownedN[s]
	if len(work) == 0 {
		return out, nil
	}
	slab, err := src.Slab(work)
	if err != nil {
		return nil, err
	}

	copts := o.Core
	copts.Context = ctx
	var res *cluster.Result
	var st core.Stats
	if o.Retain {
		res, out.retained, st, err = core.RunRetained(slab, copts)
	} else {
		res, st, err = core.Run(slab, copts)
	}
	if err != nil {
		var be *core.BudgetExceededError
		if !errors.As(err, &be) || res == nil {
			return nil, err
		}
		out.budgetErr = err // valid partial clustering: keep going
	}
	out.clusters = res.Clusters
	out.stat.Clusters = res.Clusters
	out.stat.Core = st

	// Boundary summary: every non-noise label a halo-band point received in
	// this shard, plus exact core flags for the band points this shard owns.
	var ownedBandLocal []int32
	var ownedBandDense []int32
	for li, id := range work {
		b := p.bIdx[id]
		if p.ownerOf[id] == uint8(s) {
			rawLocal[id] = res.Labels[li]
			if b >= 0 {
				ownedBandLocal = append(ownedBandLocal, int32(li))
				ownedBandDense = append(ownedBandDense, b)
			}
		}
		if b >= 0 {
			out.stat.Boundary++
			if res.Labels[li] != cluster.Noise {
				out.entries = append(out.entries, bEntry{b: b, local: res.Labels[li]})
			}
		}
	}
	if len(ownedBandLocal) > 0 {
		// The owner's working set contains the full eps-ball of every owned
		// band point, so counting neighbors inside the slab decides the global
		// core property. Every such neighbor also lies within 2*eps of the
		// point's cut along the axis, so the count can run against just the
		// slab's sub-band near the cuts: the confirmation pass scales with the
		// band, not the slab, even when every candidate cut placement was
		// dense. A kd-tree over the sub-band keeps each counting query cheap
		// regardless of the index kind the clustering itself used.
		twoEps := 2 * o.Core.Eps
		sub := make([]int32, 0, 2*len(ownedBandLocal))
		subPos := make([]int32, len(work))
		for li := range work {
			x := slab.Point(li)[p.axis]
			j := sort.SearchFloat64s(p.cuts, x)
			near := (j < len(p.cuts) && p.cuts[j]-x <= twoEps) ||
				(j > 0 && x-p.cuts[j-1] <= twoEps)
			subPos[li] = -1
			if near {
				subPos[li] = int32(len(sub))
				sub = append(sub, int32(li))
			}
		}
		subSlab := slab.Subset(sub)
		slab = nil // the sub-band copy is all the confirmation pass needs
		bandIdx, err := kdtree.New(ctx, subSlab, 1)
		if err != nil {
			return nil, err
		}
		qs := make([]int32, len(ownedBandLocal))
		for i, li := range ownedBandLocal {
			qs[i] = subPos[li]
		}
		counts, err := index.Batch(bandIdx).BatchRangeCount(ctx, index.PointQueries(subSlab, qs), o.Core.Eps, o.Core.MinPts, o.Core.Workers, nil)
		if err != nil {
			return nil, err
		}
		for i, c := range counts {
			if c >= o.Core.MinPts {
				out.coreB = append(out.coreB, ownedBandDense[i])
			}
		}
	}
	out.stat.Elapsed = time.Since(startT)
	return out, nil
}

// merge stitches the per-shard summaries into the final clustering: local
// cluster ids get disjoint global ranges, halo agreement edges union them,
// and owner-side labels are relabeled densely in point order (the same
// first-appearance order cluster.Result.Compact uses, so a Shards=1 run
// reproduces the single-shot labels exactly).
func merge(p *plan, outs []*shardOut, rawLocal []int32, retain bool, stats *Stats) (*cluster.Result, []Model, error) {
	k := len(outs)
	off := make([]int32, k+1)
	for s, out := range outs {
		off[s+1] = off[s] + int32(out.clusters)
		stats.Shards = append(stats.Shards, out.stat)
	}
	totalRaw := int(off[k])

	// Owner-confirmed core flags per dense boundary index. Owners are
	// unique, so shard order does not matter here.
	ownerCore := make([]bool, p.bN)
	for _, out := range outs {
		for _, b := range out.coreB {
			ownerCore[b] = true
		}
	}

	// Anchor of each boundary point: its owner's raw global label. The owner
	// of a core point always assigns it a cluster (its exact neighborhood
	// has ≥ MinPts members), so every owner-core point has an anchor.
	anchor := make([]int32, p.bN)
	for i := range anchor {
		anchor[i] = cluster.Noise
	}
	for id, b := range p.bIdx {
		if b >= 0 && rawLocal[id] != cluster.Noise {
			anchor[b] = off[p.ownerOf[id]] + rawLocal[id]
		}
	}

	// Halo agreement: union every non-noise label an owner-core boundary
	// point received with its anchor, in shard order (the final labeling is
	// union-order-invariant anyway — pinned by the unionfind tests).
	dsu := unionfind.New(totalRaw)
	var pairs []int32
	for s, out := range outs {
		for _, e := range out.entries {
			if ownerCore[e.b] && anchor[e.b] >= 0 {
				pairs = append(pairs, anchor[e.b], off[s]+e.local)
			}
		}
	}
	stats.CrossMerges = dsu.UnionBatch(pairs)
	canon := dsu.Canonical()

	// Final labels: owner's label through the union-find, densified in point
	// order.
	labels := make([]int32, len(rawLocal))
	remap := make([]int32, totalRaw)
	for i := range remap {
		remap[i] = -1
	}
	next := int32(0)
	for id, l := range rawLocal {
		if l == cluster.Noise {
			labels[id] = cluster.Noise
			continue
		}
		c := canon[off[p.ownerOf[id]]+l]
		if remap[c] < 0 {
			remap[c] = next
			next++
		}
		labels[id] = remap[c]
	}
	res := &cluster.Result{Labels: labels, Clusters: int(next)}

	var models []Model
	if retain {
		for s, out := range outs {
			for _, rm := range out.retained {
				if rm.Cluster < 0 || int(rm.Cluster) >= out.clusters {
					continue
				}
				f := remap[canon[off[s]+rm.Cluster]]
				if f < 0 {
					continue // halo-only cluster: no owned point carries it
				}
				rm.Cluster = f
				models = append(models, Model{Shard: s, RetainedModel: rm})
			}
		}
	}

	var budgetErr error
	for _, out := range outs {
		if out.budgetErr != nil {
			budgetErr = out.budgetErr
			break
		}
	}
	return res, models, budgetErr
}
