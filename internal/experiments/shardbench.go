package experiments

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"dbsvec/internal/cluster"
	"dbsvec/internal/core"
	"dbsvec/internal/data"
	"dbsvec/internal/eval"
	"dbsvec/internal/shard"
	"dbsvec/internal/vec"
)

// Sharded out-of-core execution benchmark: eps-halo slab runs against the
// single-shot baseline on the paper's SeedSpreader workload (d=8, eps=2000,
// minPts=100 on the [0,1e5] domain — eps a fifth of the fig6a radius, the
// regime sharding targets: halos a small fraction of the axis span). Three
// modes per cardinality and storage precision:
//
//   - single: one core.Run over the whole dataset (the baseline), peak heap
//     sampled the same way the sharded runs sample theirs;
//   - sharded: shard.Run over an in-memory source, one slab in flight —
//     range queries scan O(slab) instead of O(n), which is where the
//     wall-clock win comes from even on one CPU;
//   - outofcore: shard.Run streaming slabs from a temporary binary file with
//     the dataset dropped from memory first, so the sampled peak heap shows
//     the O(slab) footprint against the dataset's in-RAM size.
//
// Every non-single entry reports its ARI against the same-precision single
// run; on this workload the sharded merge is expected to reproduce the
// single-shot labeling (ARI 1.0, modulo DBSVEC's own approximation at
// cluster borders).

// Benchmark shape pinned for the committed BENCH_shard.json.
const (
	shardBenchDim    = 8
	shardBenchEps    = 2000
	shardBenchMinPts = 100
)

// datasetBytes is the in-RAM coordinate footprint of n points in d
// dimensions at the given precision: a float64 master always, plus the
// float32 mirror in F32 storage.
func datasetBytes(n, d int, prec vec.Precision) int64 {
	per := int64(8)
	if prec == vec.F32 {
		per = 12
	}
	return int64(n) * int64(d) * per
}

// RunShardBench executes the benchmark and emits its rows, one per mode
// ("single", "sharded", "outofcore"), cardinality, storage precision and
// shard count.
func RunShardBench(cfg Config, emit func(Row)) error {
	ns := []int{100_000, 300_000, 1_000_000}
	shardCounts := []int{4, 8}
	if cfg.Quick {
		ns = []int{10_000, 30_000}
		shardCounts = []int{2, 4}
	}
	for _, n := range ns {
		for _, prec := range []vec.Precision{vec.F64, vec.F32} {
			if err := runShardBenchPoint(cfg, n, shardCounts, prec, emit); err != nil {
				return err
			}
		}
	}
	return nil
}

// runShardBenchPoint measures every mode at one cardinality and precision.
func runShardBenchPoint(cfg Config, n int, shardCounts []int, prec vec.Precision, emit func(Row)) error {
	copts := core.Options{
		Eps: shardBenchEps, MinPts: shardBenchMinPts, Seed: cfg.Seed, Workers: cfg.Workers,
		Budget: core.Budget{MaxDuration: cfg.RunTimeout},
	}
	// emitRun folds one run into a report row and emits it. Every row
	// carries its ARI against the same-precision single run.
	var single *cluster.Result
	emitRun := func(mode string, k int, elapsedNs int64, res *cluster.Result, sst shard.Stats) error {
		ari, err := eval.AdjustedRandIndex(single, res)
		if err != nil {
			return fmt.Errorf("shard bench ari: %w", err)
		}
		emit(Row{
			Exp: "shard",
			Params: map[string]any{
				"section": mode, "precision": prec.String(), "n": n, "dim": shardBenchDim,
				"shards": k, "seed": cfg.Seed,
			},
			Counts: map[string]float64{
				"clusters": float64(res.Clusters), "ari_vs_single": ari,
				"boundary_points": float64(sst.BoundaryPoints), "cross_merges": float64(sst.CrossMerges),
				"dataset_bytes": float64(datasetBytes(n, shardBenchDim, prec)),
			},
			Measured: map[string]float64{
				"elapsed_ns": float64(elapsedNs), "peak_heap_bytes": float64(sst.PeakHeapBytes),
			},
		})
		return nil
	}

	// Generate, run the in-memory modes, and spill the binary file — inside a
	// closure so the dataset itself becomes collectible before the
	// out-of-core run measures its peak heap.
	var binPath string
	err := func() error {
		ds := data.SeedSpreader{N: n, D: shardBenchDim, Seed: cfg.Seed}.Generate()
		ds, err := ds.ToPrecision(prec)
		if err != nil {
			return fmt.Errorf("shard bench precision: %w", err)
		}

		start := time.Now()
		peak, err := shard.MeasurePeakHeap(func() error {
			single, _, err = core.Run(ds, copts)
			return err
		})
		if err != nil {
			return fmt.Errorf("shard bench single n=%d: %w", n, err)
		}
		if err := emitRun("single", 1, time.Since(start).Nanoseconds(), single, shard.Stats{PeakHeapBytes: peak}); err != nil {
			return err
		}

		for _, k := range shardCounts {
			start := time.Now()
			res, _, sst, err := shard.Run(shard.NewMemSource(ds), shard.Options{
				Core: copts, Shards: k, Concurrency: 1,
			})
			if err != nil {
				return fmt.Errorf("shard bench sharded k=%d n=%d: %w", k, n, err)
			}
			if err := emitRun("sharded", k, time.Since(start).Nanoseconds(), res, sst); err != nil {
				return err
			}
		}

		f, err := os.CreateTemp("", "dbsvec-shardbench-*.bin")
		if err != nil {
			return err
		}
		binPath = f.Name()
		if err := data.WriteBinary(f, ds); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}()
	if err != nil {
		if binPath != "" {
			os.Remove(binPath)
		}
		return err
	}
	defer os.Remove(binPath)

	// Out-of-core: the dataset now lives only on disk. Settle the heap so the
	// sampled peak reflects the streaming run, not the generation garbage.
	// Every shard count runs, because footprint is not monotone in k: more
	// slabs mean smaller owned sets but force cuts into denser mass, growing
	// the halo bands the boundary pass copies.
	runtime.GC()
	fs, err := shard.OpenFile(binPath)
	if err != nil {
		return err
	}
	defer fs.Close()
	for _, k := range shardCounts {
		start := time.Now()
		res, _, sst, err := shard.Run(fs, shard.Options{Core: copts, Shards: k, Concurrency: 1})
		if err != nil {
			return fmt.Errorf("shard bench outofcore n=%d: %w", n, err)
		}
		if err := emitRun("outofcore", k, time.Since(start).Nanoseconds(), res, sst); err != nil {
			return err
		}
		runtime.GC()
	}
	return nil
}
