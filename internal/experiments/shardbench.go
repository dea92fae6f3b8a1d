package experiments

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

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

// RunShardBench executes the benchmark and returns its rows, one per mode
// ("single", "sharded", "outofcore"), cardinality, storage precision and
// shard count.
func RunShardBench(cfg Config) ([]Row, error) {
	ns := []int{100_000, 300_000, 1_000_000}
	shardCounts := []int{4, 8}
	if cfg.Quick {
		ns = []int{10_000, 30_000}
		shardCounts = []int{2, 4}
	}
	var rows []Row
	for _, n := range ns {
		for _, prec := range []vec.Precision{vec.F64, vec.F32} {
			point, err := runShardBenchPoint(cfg, n, shardCounts, prec)
			if err != nil {
				return nil, err
			}
			rows = append(rows, point...)
		}
	}
	return rows, nil
}

// runShardBenchPoint measures every mode at one cardinality and precision.
func runShardBenchPoint(cfg Config, n int, shardCounts []int, prec vec.Precision) ([]Row, error) {
	copts := core.Options{
		Eps: shardBenchEps, MinPts: shardBenchMinPts, Seed: cfg.Seed, Workers: cfg.Workers,
		Budget: core.Budget{MaxDuration: cfg.RunTimeout},
	}
	precName := "f64"
	if prec == vec.F32 {
		precName = "f32"
	}
	// row folds one run into a report row. Every non-single row carries its
	// ARI against the same-precision single run.
	var single *clusterResult
	row := func(mode string, k int, elapsedNs int64, res *clusterResult, sst shard.Stats) (Row, error) {
		ari, err := eval.AdjustedRandIndex(single, res)
		if err != nil {
			return Row{}, fmt.Errorf("shard bench ari: %w", err)
		}
		return Row{
			Exp: "shard",
			Params: map[string]any{
				"section": mode, "precision": precName, "n": n, "dim": shardBenchDim,
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
		}, nil
	}

	// Generate, run the in-memory modes, and spill the binary file — inside a
	// closure so the dataset itself becomes collectible before the
	// out-of-core run measures its peak heap.
	var (
		rows    []Row
		binPath string
	)
	err := func() error {
		ds := data.SeedSpreader{N: n, D: shardBenchDim, Seed: cfg.Seed}.Generate()
		ds, err := ds.ToPrecision(prec)
		if err != nil {
			return fmt.Errorf("shard bench precision: %w", err)
		}

		start := time.Now()
		peak, err := shard.MeasurePeakHeap(0, func() error {
			single, _, err = core.Run(ds, copts)
			return err
		})
		if err != nil {
			return fmt.Errorf("shard bench single n=%d: %w", n, err)
		}
		r, err := row("single", 1, time.Since(start).Nanoseconds(), single, shard.Stats{PeakHeapBytes: peak})
		if err != nil {
			return err
		}
		rows = append(rows, r)

		for _, k := range shardCounts {
			start := time.Now()
			res, _, sst, err := shard.Run(shard.NewMemSource(ds), shard.Options{
				Core: copts, Shards: k, Concurrency: 1,
			})
			if err != nil {
				return fmt.Errorf("shard bench sharded k=%d n=%d: %w", k, n, err)
			}
			r, err := row("sharded", k, time.Since(start).Nanoseconds(), res, sst)
			if err != nil {
				return err
			}
			rows = append(rows, r)
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
		return nil, err
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
		return nil, err
	}
	defer fs.Close()
	for _, k := range shardCounts {
		start := time.Now()
		res, _, sst, err := shard.Run(fs, shard.Options{Core: copts, Shards: k, Concurrency: 1})
		if err != nil {
			return nil, fmt.Errorf("shard bench outofcore n=%d: %w", n, err)
		}
		r, err := row("outofcore", k, time.Since(start).Nanoseconds(), res, sst)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
		runtime.GC()
	}
	return rows, nil
}

// ShardBench is the registry entry: it prints the rows and, when
// cfg.Reports names a path for "shard", merges them into that report.
func ShardBench(w io.Writer, cfg Config) error {
	header(w, fmt.Sprintf("Sharded out-of-core execution: slabs vs single-shot (SeedSpreader, eps=%d, minPts=%d)",
		shardBenchEps, shardBenchMinPts))
	rows, err := RunShardBench(cfg)
	if err != nil {
		return err
	}
	return emitReport(w, cfg, "shard", rows)
}
