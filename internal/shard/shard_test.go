package shard

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"dbsvec/internal/cluster"
	"dbsvec/internal/core"
	"dbsvec/internal/data"
	"dbsvec/internal/eval"
	"dbsvec/internal/index/kdtree"
	"dbsvec/internal/vec"
)

// strips generates nStrips line clusters that all span the full extent of
// axis 0 — the DBSCAN-exact regime the sharded merge is proven for, built so
// every slab cut must slice every cluster: points sit on a jittered lattice
// along axis 0 (spacing 0.2 with jitter ±0.05 guarantees >= 14 neighbors
// within eps=3, so every point is core and each strip is one cluster), strips
// are > 2*eps apart on axis 1 (no border ambiguity), and the axis-0 histogram
// is gap-free, so the density-aware cut planner has no sparse region to
// retreat to and the halo merge always has work to do. Axis 0 must end up the
// widest axis, which bounds perStrip from below.
func strips(tb testing.TB, nStrips, perStrip, d int, seed int64) *vec.Dataset {
	tb.Helper()
	const (
		gap = 0.2 // axis-0 lattice spacing
		sep = 8.0 // strip separation on axis 1
	)
	if float64(perStrip)*gap <= float64(nStrips-1)*sep+0.5 {
		tb.Fatalf("strips(%d,%d): axis 0 would not be the widest axis", nStrips, perStrip)
	}
	rng := rand.New(rand.NewSource(seed))
	coords := make([]float64, 0, nStrips*perStrip*d)
	for s := 0; s < nStrips; s++ {
		for i := 0; i < perStrip; i++ {
			coords = append(coords, (float64(i)+0.5)*gap+(rng.Float64()-0.5)*0.1)
			coords = append(coords, float64(s)*sep+rng.Float64()*0.5)
			for j := 2; j < d; j++ {
				coords = append(coords, rng.Float64()*0.5)
			}
		}
	}
	ds, err := vec.NewDataset(coords, d)
	if err != nil {
		tb.Fatal(err)
	}
	return ds
}

const (
	boxEps    = 3.0
	boxMinPts = 10
)

func singleShot(tb testing.TB, ds *vec.Dataset, workers int) *cluster.Result {
	tb.Helper()
	res, _, err := core.Run(ds, core.Options{Eps: boxEps, MinPts: boxMinPts, Workers: workers})
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func requireIdentical(tb testing.TB, want, got *cluster.Result, context string) {
	tb.Helper()
	ari, err := eval.AdjustedRandIndex(want, got)
	if err != nil {
		tb.Fatal(err)
	}
	if ari != 1.0 {
		tb.Fatalf("%s: ARI = %v, want exactly 1.0", context, ari)
	}
	if got.Clusters != want.Clusters {
		tb.Fatalf("%s: %d clusters, want %d", context, got.Clusters, want.Clusters)
	}
	for i := range want.Labels {
		if want.Labels[i] != got.Labels[i] {
			tb.Fatalf("%s: label[%d] = %d, want %d (partition identical but "+
				"first-appearance order diverged)", context, i, got.Labels[i], want.Labels[i])
		}
	}
}

// TestShardedMatchesSingleShot is the tentpole acceptance test: for shard
// counts {1,2,4,8}, several worker counts and both precisions, the sharded
// run must be label-permutation-identical (ARI exactly 1.0 — and, in this
// regime, label-identical) to the single-shot run.
func TestShardedMatchesSingleShot(t *testing.T) {
	for _, prec := range []vec.Precision{vec.F64, vec.F32} {
		ds, err := strips(t, 6, 250, 2, 1).ToPrecision(prec)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			want := singleShot(t, ds, workers)
			if want.Clusters != 6 {
				t.Fatalf("single-shot found %d clusters, want 6", want.Clusters)
			}
			for _, shards := range []int{1, 2, 4, 8} {
				opts := Options{
					Core:       core.Options{Eps: boxEps, MinPts: boxMinPts, Workers: workers},
					Shards:     shards,
					HeapSample: -1,
				}
				res, _, st, err := Run(NewMemSource(ds), opts)
				if err != nil {
					t.Fatalf("%v/w%d/k%d: %v", prec, workers, shards, err)
				}
				requireIdentical(t, want, res, "sharded run")
				if len(st.Shards) > shards {
					t.Fatalf("stats report %d shards for k=%d", len(st.Shards), shards)
				}
				if shards > 1 && st.BoundaryPoints == 0 {
					t.Fatalf("k=%d produced no boundary points; the merge was not exercised", shards)
				}
				if shards > 1 && st.CrossMerges == 0 {
					t.Fatalf("k=%d performed no cross-shard merges; cuts missed every cluster", shards)
				}
			}
		}
	}
}

// TestShardedIndexKinds: injecting a non-default index builder per shard
// (kd-tree) preserves exactness.
func TestShardedIndexKinds(t *testing.T) {
	ds := strips(t, 5, 200, 3, 2)
	want := singleShot(t, ds, 2)
	opts := Options{
		Core:       core.Options{Eps: boxEps, MinPts: boxMinPts, Workers: 2, IndexBuilderCtx: kdtree.BuildWorkersCtx(2)},
		Shards:     4,
		HeapSample: -1,
	}
	res, _, _, err := Run(NewMemSource(ds), opts)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, want, res, "kd-tree sharded run")
}

// TestShardedConcurrencyDeterminism: the shard-level concurrency cap changes
// scheduling only — labels and merge statistics are identical for any cap.
func TestShardedConcurrencyDeterminism(t *testing.T) {
	ds := strips(t, 6, 250, 2, 3)
	var want *cluster.Result
	wantMerges := -1
	for _, conc := range []int{1, 2, 8} {
		opts := Options{
			Core:        core.Options{Eps: boxEps, MinPts: boxMinPts, Workers: 2},
			Shards:      8,
			Concurrency: conc,
			HeapSample:  -1,
		}
		res, _, st, err := Run(NewMemSource(ds), opts)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want, wantMerges = res, st.CrossMerges
			continue
		}
		requireIdentical(t, want, res, "concurrency variant")
		if st.CrossMerges != wantMerges {
			t.Fatalf("conc %d: %d cross merges, want %d", conc, st.CrossMerges, wantMerges)
		}
	}
}

// TestShardedFileMatchesMem: streaming the same data from a binary file
// through small blocks yields bit-identical labels to the in-memory source,
// for both on-disk precisions.
func TestShardedFileMatchesMem(t *testing.T) {
	dir := t.TempDir()
	for _, prec := range []vec.Precision{vec.F64, vec.F32} {
		ds, err := strips(t, 5, 180, 2, 4).ToPrecision(prec)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "pts_"+prec.String()+".bin")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := data.WriteBinary(f, ds); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}

		opts := Options{
			Core:        core.Options{Eps: boxEps, MinPts: boxMinPts, Workers: 1},
			Shards:      4,
			Concurrency: 2,
			HeapSample:  -1,
		}
		memRes, _, _, err := Run(NewMemSource(ds), opts)
		if err != nil {
			t.Fatal(err)
		}

		fs, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fs.BlockPoints = 64
		fileRes, _, _, err := Run(fs, opts)
		fs.Close()
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, memRes, fileRes, "file-sourced run "+prec.String())
	}
}

// TestShardedRetainedModels: Retain returns per-shard snapshots whose Cluster
// fields reference final merged ids.
func TestShardedRetainedModels(t *testing.T) {
	ds := strips(t, 4, 200, 2, 5)
	opts := Options{
		Core:       core.Options{Eps: boxEps, MinPts: boxMinPts},
		Shards:     4,
		Retain:     true,
		HeapSample: -1,
	}
	res, models, _, err := Run(NewMemSource(ds), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) == 0 {
		t.Fatal("Retain returned no models")
	}
	seen := make(map[int32]bool)
	for _, m := range models {
		if m.Cluster < 0 || int(m.Cluster) >= res.Clusters {
			t.Fatalf("model cluster %d outside final [0,%d)", m.Cluster, res.Clusters)
		}
		if m.Shard < 0 || m.Shard >= 4 {
			t.Fatalf("model shard %d", m.Shard)
		}
		seen[m.Cluster] = true
	}
	if len(seen) != res.Clusters {
		t.Fatalf("models cover %d of %d final clusters", len(seen), res.Clusters)
	}
}

// TestShardedBudgetPartial: a per-shard budget trip surfaces the
// BudgetExceededError while still returning a valid merged clustering.
func TestShardedBudgetPartial(t *testing.T) {
	ds := strips(t, 6, 250, 2, 6)
	opts := Options{
		Core: core.Options{
			Eps: boxEps, MinPts: boxMinPts,
			Budget: core.Budget{MaxRangeQueries: 5},
		},
		Shards:     4,
		HeapSample: -1,
	}
	res, _, _, err := Run(NewMemSource(ds), opts)
	var be *core.BudgetExceededError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want BudgetExceededError", err)
	}
	if res == nil {
		t.Fatal("budget trip must still return the merged partial clustering")
	}
	for i, l := range res.Labels {
		if l != cluster.Noise && (l < 0 || int(l) >= res.Clusters) {
			t.Fatalf("label[%d] = %d invalid in partial result", i, l)
		}
	}
}

// TestShardedEdgeCases: empty source, invalid options, heap sampling on.
func TestShardedEdgeCases(t *testing.T) {
	empty, err := vec.NewDataset(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, _, _, err := Run(NewMemSource(empty), Options{Core: core.Options{Eps: 1, MinPts: 2}, Shards: 4, HeapSample: -1})
	if err != nil || len(res.Labels) != 0 {
		t.Fatalf("empty source: res=%v err=%v", res, err)
	}

	ds := strips(t, 2, 60, 2, 7)
	if _, _, _, err := Run(nil, Options{}); !errors.Is(err, core.ErrInvalidParams) {
		t.Fatalf("nil source: %v", err)
	}
	if _, _, _, err := Run(NewMemSource(ds), Options{Core: core.Options{Eps: 1, MinPts: 2}, Shards: MaxShards + 1}); !errors.Is(err, core.ErrInvalidParams) {
		t.Fatalf("oversized shard count: %v", err)
	}
	if _, _, _, err := Run(NewMemSource(ds), Options{Core: core.Options{Eps: 1, MinPts: 2}, Concurrency: -1}); !errors.Is(err, core.ErrInvalidParams) {
		t.Fatalf("negative concurrency: %v", err)
	}

	// Heap sampling on: the stat must come back non-zero.
	_, _, st, err := Run(NewMemSource(ds), Options{Core: core.Options{Eps: boxEps, MinPts: boxMinPts}, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.PeakHeapBytes == 0 {
		t.Fatal("heap sampler reported zero peak")
	}
}

// TestPlanShape: cuts are sorted, owned counts sum to n, working sets cover
// their owners, and the k=1 fast path skips planning scans.
func TestPlanShape(t *testing.T) {
	ds := strips(t, 6, 220, 2, 8)
	p, err := buildPlan(NewMemSource(ds), boxEps, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.axis != 0 {
		t.Fatalf("axis = %d, want 0 (widest)", p.axis)
	}
	for i := 1; i < len(p.cuts); i++ {
		if p.cuts[i] < p.cuts[i-1] {
			t.Fatalf("cuts not sorted: %v", p.cuts)
		}
	}
	sum := 0
	for s, o := range p.ownedN {
		sum += o
		// Every owned point must be in its own shard's working set.
		inWork := make(map[int32]bool, len(p.work[s]))
		for _, id := range p.work[s] {
			inWork[id] = true
		}
		for id, owner := range p.ownerOf {
			if int(owner) == s && !inWork[int32(id)] {
				t.Fatalf("point %d owned by %d but not in its working set", id, s)
			}
		}
	}
	if sum != ds.Len() {
		t.Fatalf("owned counts sum to %d, want %d", sum, ds.Len())
	}

	p1, err := buildPlan(NewMemSource(ds), boxEps, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p1.axis != -1 || len(p1.work) != 1 || len(p1.work[0]) != ds.Len() {
		t.Fatalf("k=1 plan: axis=%d work=%d", p1.axis, len(p1.work))
	}
}

func BenchmarkRunSharded(b *testing.B) {
	ds := strips(b, 6, 400, 2, 42)
	o := Options{Core: core.Options{Eps: boxEps, MinPts: boxMinPts}, Shards: 4, Concurrency: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := Run(NewMemSource(ds), o); err != nil {
			b.Fatal(err)
		}
	}
}
