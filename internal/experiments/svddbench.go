package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"dbsvec/internal/data"
	"dbsvec/internal/engine"
	"dbsvec/internal/svdd"
	"dbsvec/internal/vec"
)

// SVDD training micro-benchmark. Unlike the figure experiments it measures
// one component (svdd.Train) in isolation, at the paper's default maximum
// target size ñ = 1024's historical half (ñ = 512, d = 8), so the worker
// fan-out of the kernel work (at this size, the pivot-row batch of the lazy
// tier) and float32 storage can be attributed individually. The size sweep
// trains targets on both sides of the dense/lazy kernel-storage threshold
// (svdd's weightsExactCap, 256) up to the default maximum target size.

// svddBenchN and svddBenchD pin the benchmark shape; internal/svdd/README.md
// records the package micro-benchmarks against exactly this shape.
const (
	svddBenchN = 512
	svddBenchD = 8
)

// SVDDBenchVariant is one solver configuration's accumulated timings.
type SVDDBenchVariant struct {
	// Name identifies the configuration: "serial" (workers=1), "parallel"
	// (the run's worker count) and the float32-storage "parallel-f32".
	Name string `json:"name"`
	// Precision is the dataset storage mode the variant trained on
	// ("f64"/"f32"); only the -f32 variant uses float32 storage.
	Precision string `json:"precision"`
	// Workers is the kernel-fill worker count used.
	Workers int `json:"workers"`
	SVDDStageTotals
	// Speedup is TotalNs of this variant's baseline divided by its own:
	// the serial variant for parallel, the f64 parallel variant for
	// parallel-f32. 1.0 for serial itself.
	Speedup float64 `json:"speedup_vs_baseline"`
}

// SVDDStageTotals accumulates timed svdd.Train calls.
type SVDDStageTotals struct {
	// Rounds is the number of svdd.Train calls timed.
	Rounds int `json:"rounds"`
	// Iterations is the total SMO pair updates across all rounds.
	Iterations int `json:"smo_iterations"`
	// Per-stage wall clock summed over all rounds, in nanoseconds.
	FillNs   int64 `json:"fill_ns"`
	SolveNs  int64 `json:"solve_ns"`
	FinishNs int64 `json:"finish_ns"`
	TotalNs  int64 `json:"total_ns"`
}

// SVDDSizeRow is one target size of the size sweep: adaptive weights on,
// the run's worker count.
type SVDDSizeRow struct {
	// N is the target size ñ. Targets up to 256 use dense kernel storage,
	// larger ones lazy rows.
	N       int    `json:"n"`
	Storage string `json:"storage"`
	Workers int    `json:"workers"`
	SVDDStageTotals
}

// SVDDBenchReport is the machine-readable result benchall writes to
// BENCH_svdd.json.
type SVDDBenchReport struct {
	N         int                `json:"n"`
	Dim       int                `json:"dim"`
	Seed      int64              `json:"seed"`
	Repeats   int                `json:"repeats"`
	Variants  []SVDDBenchVariant `json:"variants"`
	SizeSweep []SVDDSizeRow      `json:"size_sweep"`
}

// accumulate folds one trained model's timings into the totals.
func (v *SVDDStageTotals) accumulate(m *svdd.Model) {
	v.Rounds++
	v.Iterations += m.Iterations
	v.FillNs += m.Times.Fill.Nanoseconds()
	v.SolveNs += m.Times.Solve.Nanoseconds()
	v.FinishNs += m.Times.Finish.Nanoseconds()
	v.TotalNs += m.Times.Total().Nanoseconds()
}

// svddBenchConfig is the shared solver setup: adaptive weights on (as in a
// real DBSVEC round) with fresh zero counts.
func svddBenchConfig(n int) svdd.Config {
	return svdd.Config{
		Nu:     0.1,
		Times:  make([]int, n),
		Tol:    1e-4,
		Dim:    svddBenchD,
		MinPts: 100,
	}
}

// RunSVDDBench executes the micro-benchmark and returns the report. Workers
// comes from cfg (0 = all CPUs); repeats scale with cfg.Quick.
func RunSVDDBench(cfg Config) (*SVDDBenchReport, error) {
	repeats := 20
	if cfg.Quick {
		repeats = 5
	}
	workers := engine.ResolveWorkers(cfg.Workers)
	ds := data.Blobs(svddBenchN, svddBenchD, 4, 30, 1000, 0.02, cfg.Seed)
	ids := vec.Iota(ds.Len())

	rep := &SVDDBenchReport{
		N:       svddBenchN,
		Dim:     svddBenchD,
		Seed:    cfg.Seed,
		Repeats: repeats,
	}

	// Float32-storage twin of the dataset: one quantization, then bit-exact
	// float64 arithmetic over the mirror (see internal/vec). The -f32 variant
	// measures what the storage mode buys the kernel fill.
	ds32, err := ds.ToPrecision(vec.F32)
	if err != nil {
		return nil, fmt.Errorf("svdd bench f32 conversion: %w", err)
	}

	// Fixed-target configurations: the same 512-point training repeated on
	// one worker, on the run's workers, and on the run's workers over
	// float32 storage.
	rep.Variants = []SVDDBenchVariant{
		{Name: "serial", Precision: "f64", Workers: 1},
		{Name: "parallel", Precision: "f64", Workers: workers},
		{Name: "parallel-f32", Precision: "f32", Workers: workers},
	}
	for vi := range rep.Variants {
		v := &rep.Variants[vi]
		vds := ds
		if v.Precision == "f32" {
			vds = ds32
		}
		for r := 0; r < repeats; r++ {
			c := svddBenchConfig(len(ids))
			c.Workers = v.Workers
			m, err := svdd.Train(vds, ids, c)
			if err != nil && m == nil {
				return nil, fmt.Errorf("svdd bench %s: %w", v.Name, err)
			}
			v.accumulate(m)
		}
	}
	serial, parallel, f32 := &rep.Variants[0], &rep.Variants[1], &rep.Variants[2]
	serial.Speedup = 1
	parallel.Speedup = speedup(serial.TotalNs, parallel.TotalNs)
	f32.Speedup = speedup(parallel.TotalNs, f32.TotalNs)

	// Size sweep: one Blobs dataset per target size, same family as above —
	// the largest dense target, then lazy targets up to the default maximum
	// SVDD target size.
	for _, n := range []int{256, 512, 1024} {
		sds := data.Blobs(n, svddBenchD, 4, 30, 1000, 0.02, cfg.Seed)
		sids := vec.Iota(n)
		row := SVDDSizeRow{N: n, Storage: "lazy", Workers: workers}
		if n <= 256 {
			row.Storage = "dense"
		}
		for r := 0; r < repeats; r++ {
			c := svddBenchConfig(n)
			c.Workers = workers
			m, err := svdd.Train(sds, sids, c)
			if err != nil && m == nil {
				return nil, fmt.Errorf("svdd bench size sweep n=%d: %w", n, err)
			}
			row.accumulate(m)
		}
		rep.SizeSweep = append(rep.SizeSweep, row)
	}
	return rep, nil
}

func speedup(baseline, own int64) float64 {
	if own <= 0 {
		return 0
	}
	return float64(baseline) / float64(own)
}

// SVDDPerf is the registry entry: it prints the variant table and, when
// cfg.SVDDJSONPath is set, writes the machine-readable report there.
func SVDDPerf(w io.Writer, cfg Config) error {
	header(w, "SVDD training (n=512, d=8): serial, parallel and float32 storage; target-size sweep")
	rep, err := RunSVDDBench(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-20s %5s %8s %8s %10s %12s %12s %12s %9s\n",
		"variant", "prec", "workers", "rounds", "smoIters", "fill", "solve", "total", "speedup")
	for _, v := range rep.Variants {
		fmt.Fprintf(w, "%-20s %5s %8d %8d %10d %11.3fms %11.3fms %11.3fms %8.2fx\n",
			v.Name, v.Precision, v.Workers, v.Rounds, v.Iterations,
			float64(v.FillNs)/1e6, float64(v.SolveNs)/1e6, float64(v.TotalNs)/1e6, v.Speedup)
	}
	fmt.Fprintf(w, "\nsize sweep (adaptive weights, %d workers; per-training means)\n", rep.SizeSweep[0].Workers)
	fmt.Fprintf(w, "%6s %8s %10s %12s %12s %12s\n", "n", "storage", "smoIters", "fill", "solve", "total")
	for _, r := range rep.SizeSweep {
		per := func(ns int64) float64 { return float64(ns) / float64(r.Rounds) / 1e6 }
		fmt.Fprintf(w, "%6d %8s %10d %11.3fms %11.3fms %11.3fms\n",
			r.N, r.Storage, r.Iterations/r.Rounds, per(r.FillNs), per(r.SolveNs), per(r.TotalNs))
	}
	if cfg.SVDDJSONPath != "" {
		if err := WriteSVDDBenchJSON(cfg.SVDDJSONPath, rep); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", cfg.SVDDJSONPath)
	}
	return nil
}

// WriteSVDDBenchJSON writes the report as indented JSON.
func WriteSVDDBenchJSON(path string, rep *SVDDBenchReport) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
