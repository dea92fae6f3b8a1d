package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"dbsvec"
	"dbsvec/internal/cluster"
	"dbsvec/internal/core"
	"dbsvec/internal/data"
	"dbsvec/internal/dbscan"
	"dbsvec/internal/eval"
	"dbsvec/internal/index/kdtree"
	"dbsvec/internal/vec"
)

// clusterSpec sizes a cluster workload.
type clusterSpec struct {
	N, D   int
	Eps    float64
	MinPts int
	// Datasets is the size of the dataset family one run clusters: every
	// dataset is its own SeedSpreader draw, so that one seed's cluster
	// layout does not set the timing alone.
	Datasets int
	Index    dbsvec.IndexKind
	// MinARI is the least family-mean ARI against exact DBSCAN that passes.
	// A cluster that DBSVEC splits (Theorem 1 allows it) costs a dataset up
	// to about 0.03 at N=40000, so the bound applies to the mean.
	MinARI float64
	// IngestsPerCall is how many set-up samples follow each Cluster call.
	IngestsPerCall int
	// serve is the short load the traced run puts on the model of dataset
	// 0, so that it reports the serving layers too.
	serve serveSpec
}

// clusterDefault clusters the first five datasets of the family that
// clusterKDTree clusters sixteen of: a linear-index call takes about four
// times as long, and both fill a 20 s run with one pass over their datasets.
func clusterDefault() clusterSpec {
	return clusterSpec{N: 40000, D: 8, Eps: 2000, MinPts: 100, Datasets: 5,
		Index: dbsvec.IndexLinear, MinARI: 0.98, IngestsPerCall: 4, serve: serveShort()}
}

func clusterKDTree() clusterSpec {
	s := clusterDefault()
	s.Datasets = 16
	s.Index = dbsvec.IndexKDTree
	return s
}

// options is what a user of the library passes: only Eps, MinPts and Seed.
// The algorithm seed is fixed, so the workload seed reaches the program
// only through the points it generates.
func (s clusterSpec) options() dbsvec.Options {
	return dbsvec.Options{Eps: s.Eps, MinPts: s.MinPts, Seed: 1, Index: s.Index}
}

// coreOptions are the options dbsvec.ClusterContext passes to
// core.RunRetained for s.options(), with the index builder wrapped by tr.
func (s clusterSpec) coreOptions(tr *indexTrace) (core.Options, error) {
	build, err := backend(s.Index, 0)
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{Context: context.Background(), Eps: s.Eps, MinPts: s.MinPts, Seed: 1,
		IndexBuilderCtx: tr.wrap(build)}, nil
}

// datasetSeed derives the generator seed of dataset k of a run's family.
func datasetSeed(seed int64, k int) int64 { return seed*64 + int64(k) }

// family is a run's datasets with their exact-DBSCAN references.
type family struct {
	raw []*vec.Dataset
	pub []*dbsvec.Dataset
	ref []*cluster.Result
	ari []float64
}

// newFamily generates the datasets and clusters each with exact DBSCAN
// (parallel, over a kd-tree). None of this is timed.
func newFamily(s clusterSpec, seed int64) (*family, error) {
	f := &family{ari: make([]float64, s.Datasets)}
	for k := 0; k < s.Datasets; k++ {
		raw := data.SeedSpreader{N: s.N, D: s.D, Seed: datasetSeed(seed, k)}.Generate()
		ref, _, err := dbscan.RunParallel(raw, dbscan.Params{Eps: s.Eps, MinPts: s.MinPts}, kdtree.BuildWorkers(0), 0)
		if err != nil {
			return nil, fmt.Errorf("reference DBSCAN on dataset %d: %w", k, err)
		}
		f.raw = append(f.raw, raw)
		f.ref = append(f.ref, ref)
	}
	return f, nil
}

// ingest hands every dataset's points to the library: the set-up a user
// pays before the first Cluster call.
func (f *family) ingest(dim int) (time.Duration, error) {
	start := time.Now()
	pub := make([]*dbsvec.Dataset, len(f.raw))
	for k, raw := range f.raw {
		d, err := dbsvec.FromFlat(raw.Coords(), dim)
		if err != nil {
			return 0, fmt.Errorf("ingest dataset %d: %w", k, err)
		}
		pub[k] = d
	}
	el := time.Since(start)
	f.pub = pub
	return el, nil
}

// checkClustering checks labels against the exact-DBSCAN reference: the
// label invariants, and Theorem 3 (DBSVEC's noise set is DBSCAN's). It
// returns the ARI against the reference.
func checkClustering(ref *cluster.Result, labels []int32, clusters int) (float64, error) {
	if len(labels) != len(ref.Labels) {
		return 0, fmt.Errorf("%d labels for %d points", len(labels), len(ref.Labels))
	}
	sizes := make([]int, clusters)
	for i, l := range labels {
		switch {
		case l == dbsvec.Noise:
		case l >= 0 && int(l) < clusters:
			sizes[l]++
		default:
			return 0, fmt.Errorf("point %d has label %d outside [0,%d) and not noise", i, l, clusters)
		}
	}
	if i := slices.Index(sizes, 0); i >= 0 {
		return 0, fmt.Errorf("cluster %d of %d is empty", i, clusters)
	}
	got := &cluster.Result{Labels: labels, Clusters: clusters}
	agree, err := eval.NoiseAgreement(ref, got)
	if err != nil {
		return 0, err
	}
	if agree != 1 {
		return 0, fmt.Errorf("noise set differs from exact DBSCAN (agreement %.6f, Theorem 3 requires 1)", agree)
	}
	return eval.AdjustedRandIndex(ref, got)
}

// checkCall checks one Cluster call on dataset k. The first call on a
// dataset is checked against the reference; later ones must repeat its
// labels exactly.
func (f *family) checkCall(k int, res *dbsvec.Result, err error, first []*dbsvec.Result) error {
	if err != nil {
		return fmt.Errorf("dataset %d: %w", k, err)
	}
	if first[k] != nil {
		if res.Clusters != first[k].Clusters || !slices.Equal(res.Labels, first[k].Labels) {
			return fmt.Errorf("dataset %d: labels differ from the first call on the same data", k)
		}
		return nil
	}
	ari, err := checkClustering(f.ref[k], res.Labels, res.Clusters)
	if err != nil {
		return fmt.Errorf("dataset %d: %w", k, err)
	}
	f.ari[k] = ari
	first[k] = res
	return nil
}

// checkFamilyARI is the family-level accuracy check. A single dataset can
// legitimately sit below the bound when DBSVEC splits one DBSCAN cluster
// (Theorem 1 allows it), so the bound applies to the family mean.
func (f *family) checkFamilyARI(min float64) error {
	if m := mean(f.ari); m < min {
		return fmt.Errorf("mean ARI %.5f against exact DBSCAN is below %.2f (per dataset %v)", m, min, f.ari)
	}
	return nil
}

func runCluster(cfg runConfig, s clusterSpec, rep *report) error {
	fam, err := newFamily(s, cfg.seed)
	if err != nil {
		return err
	}
	// Set-up is ingest: once before the first call and IngestsPerCall times
	// after every call, so that the median samples the machine over the
	// whole run rather than at one instant.
	var setups []float64
	ingest := func(times int) error {
		for i := 0; i < times; i++ {
			d, err := fam.ingest(s.D)
			if err != nil {
				return err
			}
			setups = append(setups, seconds(d))
		}
		return nil
	}
	if err := ingest(1); err != nil {
		return err
	}
	if cfg.trace {
		return traceCluster(cfg, s, fam, rep)
	}

	opts := s.options()
	first := make([]*dbsvec.Result, s.Datasets)
	var calls []float64
	heap, gc := startHeapSampler(), startGC()
	start := time.Now()
	for {
		roundStart := time.Now()
		for k := range fam.raw {
			t0 := time.Now()
			res, err := dbsvec.Cluster(fam.pub[k], opts)
			calls = append(calls, seconds(time.Since(t0)))
			rep.op(fam.checkCall(k, res, err, first))
			if err := ingest(s.IngestsPerCall); err != nil {
				return err
			}
		}
		if !another(start, time.Since(roundStart), cfg.duration) {
			break
		}
	}
	peak := heap.Stop()
	cycles, pause := gc.Stop()
	rep.op(fam.checkFamilyARI(s.MinARI))
	rep.set("setup_s", median(setups), "s")

	clusterS := median(calls)
	rep.set("cluster_s", clusterS, "s")
	rep.set("op_p50_ms", clusterS*1000, "ms")
	rep.set("ari", mean(fam.ari), "1")
	rep.set("ari_min", slices.Min(fam.ari), "1")
	rep.set("peak_heap_mb", peak, "MB")
	rep.set("error_rate", rep.errorRate(), "fraction")
	rep.set("calls", float64(len(calls)), "count")
	rep.set("runtime.gc_cycles", cycles, "count")
	rep.set("runtime.gc_pause_ms", pause, "ms")
	return nil
}

// layerSums accumulates the traced per-layer metrics over calls: times are
// summed and averaged per call at the end, counts are summed over the first
// pass over the family (one call per dataset), so they repeat exactly.
type layerSums struct {
	calls     int
	wall      time.Duration
	untraced  time.Duration
	times     [len(layerTimes)]time.Duration
	counts    [len(layerCounts)]float64
	queryTime time.Duration
	queries   int64
}

// The traced cluster metrics, in the order layerSums.add fills them.
var (
	layerTimes = [...]string{"index.build_s", "index.query_s", "index.count_s", "index.batch_query_s",
		"index.batch_count_s", "svdd.fill_s", "svdd.solve_s", "svdd.finish_s",
		"core.init_self_s", "core.expand_self_s", "core.verify_self_s", "core.other_self_s"}
	layerCounts = [...]string{"index.query_calls", "index.count_calls", "index.batch_query_calls",
		"index.batch_query_points", "index.batch_count_points",
		"svdd.trainings", "svdd.iterations", "svdd.not_converged",
		"core.seeds", "core.support_vectors", "core.merges", "core.noise_list", "core.theta",
		"core.range_queries", "core.range_counts", "core.degraded"}
)

// add folds one traced call into the sums; countsToo selects the first pass.
// core self time is phase time minus the index and svdd time measured
// inside the phase; other_self is what lies outside the phases and the
// index build (allocation, label compaction, retained-model remapping), so
// index, svdd and core self time add up to the call's wall clock.
func (l *layerSums) add(tr *indexTrace, st core.Stats, wall time.Duration, minPts int, countsToo bool) {
	l.calls++
	l.wall += wall
	phase := func(p int) time.Duration { return time.Duration(tr.phaseNs[p].Load()) }
	times := [len(layerTimes)]time.Duration{
		tr.build,
		time.Duration(tr.queryNs.Load()),
		time.Duration(tr.countNs.Load()),
		time.Duration(tr.batchQueryNs.Load()),
		time.Duration(tr.batchCountNs.Load()),
		st.SVDD.Fill,
		st.SVDD.Solve,
		st.SVDD.Finish,
		st.Phases.Init - phase(phaseInit),
		st.Phases.Expand - phase(phaseExpand) - st.SVDD.Total(),
		st.Phases.Verify - phase(phaseVerify),
		wall - tr.build - st.Phases.Total(),
	}
	for i, d := range times {
		l.times[i] += d
	}
	l.queryTime += tr.total() - tr.build
	l.queries += tr.queries()
	if !countsToo {
		return
	}
	counts := [len(layerCounts)]float64{
		float64(tr.queryCalls.Load()),
		float64(tr.countCalls.Load()),
		float64(tr.batchQueryCalls.Load()),
		float64(tr.batchQueryPoints.Load()),
		float64(tr.batchCountPoints.Load()),
		float64(st.SVDDTrainings),
		float64(st.SVDDIterations),
		float64(st.SVDD.NotConverged),
		float64(st.Seeds),
		float64(st.SupportVectors),
		float64(st.Merges),
		float64(st.NoiseList),
		st.Theta(minPts),
		float64(st.RangeQueries),
		float64(st.RangeCounts),
		float64(st.Degraded),
	}
	for i, v := range counts {
		l.counts[i] += v
	}
}

// set writes the per-call averages and the first-pass counts.
func (l *layerSums) set(rep *report) {
	per := func(d time.Duration) float64 { return seconds(d) / float64(l.calls) }
	for i, name := range layerTimes {
		rep.set(name, per(l.times[i]), "s")
	}
	for i, name := range layerCounts {
		rep.set(name, l.counts[i], "count")
	}
	rep.set("index.us_per_query", float64(l.queryTime.Microseconds())/float64(max(l.queries, 1)), "us")
	rep.set("trace.cluster_s", per(l.wall), "s")
	rep.set("trace.untraced_cluster_s", per(l.untraced), "s")
	rep.set("trace.overhead_s", per(l.wall-l.untraced), "s")
}

// tracedCall runs DBSVEC through core.RunRetained with the index wrapped in
// a timing index, as dbsvec.Cluster would run it.
func tracedCall(s clusterSpec, raw *vec.Dataset, spans *spanLog) (*cluster.Result, core.Stats, *indexTrace, time.Duration, error) {
	tr := &indexTrace{spans: spans, op: spans.NewID()}
	opts, err := s.coreOptions(tr)
	if err != nil {
		return nil, core.Stats{}, nil, 0, err
	}
	start := time.Now()
	res, _, st, err := core.RunRetained(raw, opts)
	wall := time.Since(start)
	spans.Add(tr.op, 0, tr.op, "cluster.call", start, wall)
	return res, st, tr, wall, err
}

// sameRun checks that a traced call repeated the untraced one exactly, and
// that the timing index saw every query core counted.
func sameRun(res *cluster.Result, st core.Stats, tr *indexTrace, want *dbsvec.Result) error {
	if res == nil {
		return errors.New("traced run returned no result")
	}
	if res.Clusters != want.Clusters || !slices.Equal(res.Labels, want.Labels) {
		return errors.New("traced labels differ from the untraced run")
	}
	w := want.Stats
	got := [...]int64{int64(st.Seeds), st.SupportVectors, int64(st.Merges), int64(st.NoiseList),
		st.RangeQueries, st.RangeCounts, int64(st.SVDDTrainings), int64(st.Degraded)}
	exp := [...]int64{int64(w.Seeds), w.SupportVectors, int64(w.Merges), int64(w.NoiseList),
		w.RangeQueries, w.RangeCounts, int64(w.SVDDTrainings), int64(w.Degraded)}
	if got != exp {
		return fmt.Errorf("traced core counts %v differ from untraced %v", got, exp)
	}
	if tr.queryCalls.Load()+tr.batchQueryPoints.Load() != st.RangeQueries ||
		tr.countCalls.Load()+tr.batchCountPoints.Load() != st.RangeCounts {
		return errors.New("the timing index saw a different number of queries than core counted")
	}
	return nil
}

// traceCluster is the traced cluster run: each dataset of the family is
// clustered untraced through dbsvec.Cluster and then traced through
// core.RunRetained, round after round until the time is up; the traced run
// must repeat the untraced one exactly. Dataset 0's model is then served
// briefly so that the serving layers report too.
func traceCluster(cfg runConfig, s clusterSpec, fam *family, rep *report) error {
	opts := s.options()
	first := make([]*dbsvec.Result, s.Datasets)
	var sums layerSums
	gc := startGC()
	start := time.Now()
	for round := 0; ; round++ {
		roundStart := time.Now()
		for k := range fam.raw {
			t0 := time.Now()
			res, err := dbsvec.Cluster(fam.pub[k], opts)
			untraced := time.Since(t0)
			if err := fam.checkCall(k, res, err, first); err != nil {
				rep.op(err)
				continue
			}
			cres, st, tr, wall, err := tracedCall(s, fam.raw[k], cfg.spans)
			if err != nil {
				rep.op(err)
				continue
			}
			rep.op(sameRun(cres, st, tr, res))
			sums.untraced += untraced
			sums.add(tr, st, wall, s.MinPts, round == 0)
		}
		if !another(start, time.Since(roundStart), cfg.duration) {
			break
		}
	}
	rep.op(fam.checkFamilyARI(s.MinARI))
	if sums.calls == 0 {
		return errors.New("no traced call succeeded")
	}
	sums.set(rep)
	if first[0] == nil {
		return errors.New("dataset 0 has no model to serve")
	}

	var buf bytes.Buffer
	if err := first[0].Model().Save(&buf); err != nil {
		return fmt.Errorf("save model: %w", err)
	}
	queries, err := dbsvec.FromFlat(strideSample(fam.raw[0], s.serve.Queries), s.D)
	if err != nil {
		return err
	}
	if err := serveLayers(cfg, s.serve, buf.Bytes(), queries, rep); err != nil {
		return err
	}
	cycles, pause := gc.Stop()
	rep.set("runtime.gc_cycles", cycles, "count")
	rep.set("runtime.gc_pause_ms", pause, "ms")
	return nil
}

// another reports whether one more round of last's length fits in the
// run: rounds run whole, the first always runs, and a further one only when
// it is projected to end within d of start.
func another(start time.Time, last, d time.Duration) bool {
	return time.Since(start)+last <= d
}

// strideSample copies m points of ds spread evenly over its generation order.
func strideSample(ds *vec.Dataset, m int) []float64 {
	m = min(m, ds.Len())
	out := make([]float64, 0, m*ds.Dim())
	for i := 0; i < m; i++ {
		out = append(out, ds.Point(i*ds.Len()/m)...)
	}
	return out
}
