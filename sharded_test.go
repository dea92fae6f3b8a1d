package dbsvec

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// stripRows generates line clusters spanning the full extent of axis 0 —
// the DBSCAN-exact regime the sharded merge is proven for (see
// internal/shard): a jittered axis-0 lattice makes every point core, strips
// are > 2*eps apart on axis 1, and the gap-free axis-0 histogram forces every
// slab cut to slice every cluster, so the halo merge is exercised.
func stripRows(nStrips, perStrip int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, 0, nStrips*perStrip)
	for s := 0; s < nStrips; s++ {
		for i := 0; i < perStrip; i++ {
			rows = append(rows, []float64{
				(float64(i)+0.5)*0.2 + (rng.Float64()-0.5)*0.1,
				float64(s)*8 + rng.Float64()*0.5,
			})
		}
	}
	return rows
}

// TestRunShardedMatchesCluster: the public sharded entry point reproduces
// Cluster's labels exactly across shard counts and index kinds, and threads
// the sharding stats through.
func TestRunShardedMatchesCluster(t *testing.T) {
	ds, err := NewDataset(stripRows(6, 220, 3))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Eps: 3, MinPts: 10}
	want, err := Cluster(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want.Clusters != 6 {
		t.Fatalf("single-shot found %d clusters, want 6", want.Clusters)
	}
	for _, shards := range []int{1, 4, 8} {
		for _, kind := range []IndexKind{IndexLinear, IndexKDTree} {
			o := opts
			o.Shards = shards
			o.ShardConcurrency = 2
			o.Index = kind
			res, err := RunSharded(ds, o)
			if err != nil {
				t.Fatalf("shards=%d kind=%d: %v", shards, kind, err)
			}
			if res.Clusters != want.Clusters {
				t.Fatalf("shards=%d: %d clusters, want %d", shards, res.Clusters, want.Clusters)
			}
			for i := range want.Labels {
				if res.Labels[i] != want.Labels[i] {
					t.Fatalf("shards=%d kind=%d: label[%d] = %d, want %d", shards, kind, i, res.Labels[i], want.Labels[i])
				}
			}
			if res.Stats.Sharding == nil {
				t.Fatal("Stats.Sharding not populated")
			}
			if got := len(res.Stats.Sharding.Shards); got > shards {
				t.Fatalf("sharding stats report %d shards for k=%d", got, shards)
			}
			if res.Stats.Seeds == 0 || res.Stats.RangeQueries == 0 {
				t.Fatalf("aggregated stats not populated: %+v", res.Stats)
			}
			if res.Stats.Sharding.PeakHeapBytes == 0 {
				t.Fatal("peak heap not sampled")
			}
		}
	}
}

// TestRunShardedModel: the sharded run retains a usable model artifact that
// assigns the training points back to their clusters and round-trips through
// Save/LoadModel.
func TestRunShardedModel(t *testing.T) {
	ds, err := NewDataset(stripRows(4, 200, 4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSharded(ds, Options{Eps: 3, MinPts: 10, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Model()
	if m == nil {
		t.Fatal("sharded run returned no model")
	}
	if m.Clusters() != res.Clusters || m.Dim() != 2 {
		t.Fatalf("model clusters=%d dim=%d, want %d/2", m.Clusters(), m.Dim(), res.Clusters)
	}
	if m.Snapshots() == 0 {
		t.Fatal("model retained no snapshots")
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := loaded.Assign(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for i, l := range labels {
		if l == res.Labels[i] {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(labels)); frac < 0.9 {
		t.Fatalf("model assigns only %.2f of training points to their clusters", frac)
	}
}

// TestRunShardedFile: the out-of-core entry point matches the in-memory
// sharded run bit-for-bit, for both file precisions.
func TestRunShardedFile(t *testing.T) {
	dir := t.TempDir()
	for _, prec := range []Precision{PrecisionF64, PrecisionF32} {
		ds, err := NewDataset(stripRows(5, 180, 5))
		if err != nil {
			t.Fatal(err)
		}
		ds, err = ds.ToPrecision(prec)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "pts_"+prec.String()+".bin")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.WriteBinary(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}

		opts := Options{Eps: 3, MinPts: 10, Shards: 4}
		want, err := RunSharded(ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunShardedFile(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Labels {
			if got.Labels[i] != want.Labels[i] {
				t.Fatalf("%v: file label[%d] = %d, want %d", prec, i, got.Labels[i], want.Labels[i])
			}
		}
		if got.Model() == nil || got.Model().Precision() != prec {
			t.Fatalf("%v: file-run model precision wrong", prec)
		}

		// And the public binary round trip itself.
		raw, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ReadBinary(raw)
		raw.Close()
		if err != nil {
			t.Fatal(err)
		}
		if back.Len() != ds.Len() || back.Precision() != prec {
			t.Fatalf("%v: ReadBinary len=%d prec=%v", prec, back.Len(), back.Precision())
		}
	}
}

// TestRunShardedStatsSumShards: a sharded run's top-level Stats are the
// field-wise sums of its shards' core stats — every counter, SMO iterations
// included, and every wall clock — and Cluster reports SMO iterations too.
func TestRunShardedStatsSumShards(t *testing.T) {
	ds, err := NewDataset(stripRows(4, 200, 7))
	if err != nil {
		t.Fatal(err)
	}
	single, err := Cluster(ds, Options{Eps: 3, MinPts: 10})
	if err != nil {
		t.Fatal(err)
	}
	if single.Stats.SVDDTrainings == 0 || single.Stats.SVDDIterations == 0 {
		t.Fatalf("Cluster reports %d SVDD trainings and %d SMO iterations, want both positive",
			single.Stats.SVDDTrainings, single.Stats.SVDDIterations)
	}

	res, err := RunSharded(ds, Options{Eps: 3, MinPts: 10, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	shards := res.Stats.Sharding.Shards
	if len(shards) < 2 {
		t.Fatalf("run used %d shards, want several", len(shards))
	}
	var want CoreStats
	for _, sh := range shards {
		c := sh.Core
		want.Seeds += c.Seeds
		want.SupportVectors += c.SupportVectors
		want.Merges += c.Merges
		want.NoiseList += c.NoiseList
		want.RangeQueries += c.RangeQueries
		want.RangeCounts += c.RangeCounts
		want.SVDDTrainings += c.SVDDTrainings
		want.SVDDIterations += c.SVDDIterations
		want.Degraded += c.Degraded
		want.WarmRestarts += c.WarmRestarts
		want.RetainedModels += c.RetainedModels
		want.IndexBuild += c.IndexBuild
		want.Phases.Init += c.Phases.Init
		want.Phases.Expand += c.Phases.Expand
		want.Phases.Verify += c.Phases.Verify
		want.SVDD.Fill += c.SVDD.Fill
		want.SVDD.Solve += c.SVDD.Solve
		want.SVDD.Finish += c.SVDD.Finish
		want.SVDD.Rounds += c.SVDD.Rounds
		want.SVDD.NotConverged += c.SVDD.NotConverged
	}
	if want.SVDDIterations == 0 || want.SVDD.Total() == 0 || want.Phases.Total() == 0 {
		t.Fatalf("shards report no SVDD work: %+v", want)
	}
	if res.Stats.CoreStats != want {
		t.Fatalf("top-level stats\n%+v\ndiffer from the sum over shards\n%+v", res.Stats.CoreStats, want)
	}
}

// TestRunShardedRejectsWarmFrom: warm restarts reference whole-dataset point
// ids and are rejected up front in sharded mode.
func TestRunShardedRejectsWarmFrom(t *testing.T) {
	ds, err := NewDataset(stripRows(2, 100, 6))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Cluster(ds, Options{Eps: 3, MinPts: 10})
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunSharded(ds, Options{Eps: 3, MinPts: 10, Shards: 2, WarmFrom: res.Model()})
	if err == nil {
		t.Fatal("WarmFrom accepted in sharded mode")
	}
}
