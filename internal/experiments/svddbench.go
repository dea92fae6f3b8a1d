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

// SVDD training fast-path micro-benchmark. Unlike the figure experiments it
// measures one component (svdd.Train) in isolation, at the paper's default
// maximum target size ñ = 1024's historical half (ñ = 512, d = 8), so the
// fast-path layers — parallel kernel fill and shrinking SMO — can be
// attributed individually. The incremental pair measures warm-starting each
// round from the previous one; it loses to the cold start, which is why
// DBSVEC cold-starts every round.

// svddBenchN and svddBenchD pin the benchmark shape; the acceptance target
// for the fast path (≥2x vs the serial baseline at 8 workers) is recorded
// against exactly this shape in internal/svdd/README.md.
const (
	svddBenchN = 512
	svddBenchD = 8
)

// SVDDBenchVariant is one solver configuration's accumulated timings.
type SVDDBenchVariant struct {
	// Name identifies the configuration: "serial" (workers=1, no
	// shrinking — the pre-fast-path baseline), "parallel-fill",
	// "parallel+shrink", the float32-storage "parallel+shrink-f32", and the
	// incremental pair "incremental-cold" / "incremental-warm".
	Name string `json:"name"`
	// Precision is the dataset storage mode the variant trained on
	// ("f64"/"f32"); only the -f32 variant uses float32 storage.
	Precision string `json:"precision"`
	// Workers is the kernel-fill worker count used.
	Workers int `json:"workers"`
	// Shrink and WarmStart record which fast-path layers were active.
	Shrink    bool `json:"shrink"`
	WarmStart bool `json:"warm_start"`
	// Rounds is the number of svdd.Train calls timed.
	Rounds int `json:"rounds"`
	// Iterations is the total SMO pair updates across all rounds.
	Iterations int `json:"smo_iterations"`
	// Per-stage wall clock summed over all rounds, in nanoseconds.
	FillNs   int64 `json:"fill_ns"`
	SolveNs  int64 `json:"solve_ns"`
	FinishNs int64 `json:"finish_ns"`
	TotalNs  int64 `json:"total_ns"`
	// Speedup is TotalNs of this variant's baseline divided by its own:
	// the serial variant for the fixed-target configurations, the f64
	// parallel+shrink variant for the f32 one, and the cold incremental
	// variant for the warm one. 1.0 for the baselines themselves.
	Speedup float64 `json:"speedup_vs_baseline"`
}

// SVDDBenchReport is the machine-readable result benchall writes to
// BENCH_svdd.json.
type SVDDBenchReport struct {
	N                 int                `json:"n"`
	Dim               int                `json:"dim"`
	Seed              int64              `json:"seed"`
	Repeats           int                `json:"repeats"`
	IncrementalRounds int                `json:"incremental_rounds"`
	Variants          []SVDDBenchVariant `json:"variants"`
}

// accumulate folds one trained model's timings into the variant.
func (v *SVDDBenchVariant) accumulate(m *svdd.Model) {
	v.Rounds++
	v.Iterations += m.Iterations
	v.FillNs += m.Times.Fill.Nanoseconds()
	v.SolveNs += m.Times.Solve.Nanoseconds()
	v.FinishNs += m.Times.Finish.Nanoseconds()
	v.TotalNs += m.Times.Total().Nanoseconds()
}

// svddBenchConfig is the shared solver setup: adaptive weights on (as in a
// real DBSVEC round) with fresh zero counts, second-order selection off.
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

	// Fixed-target configurations: the same 512-point training repeated,
	// layers switched on one at a time; the last swaps in float32 storage on
	// top of the full fast path.
	fixed := []SVDDBenchVariant{
		{Name: "serial", Precision: "f64", Workers: 1},
		{Name: "parallel-fill", Precision: "f64", Workers: workers},
		{Name: "parallel+shrink", Precision: "f64", Workers: workers, Shrink: true},
		{Name: "parallel+shrink-f32", Precision: "f32", Workers: workers, Shrink: true},
	}
	for vi := range fixed {
		v := &fixed[vi]
		vds := ds
		if v.Precision == "f32" {
			vds = ds32
		}
		for r := 0; r < repeats; r++ {
			c := svddBenchConfig(len(ids))
			c.Workers = v.Workers
			c.NoShrink = !v.Shrink
			m, err := svdd.Train(vds, ids, c)
			if err != nil && m == nil {
				return nil, fmt.Errorf("svdd bench %s: %w", v.Name, err)
			}
			v.accumulate(m)
		}
	}
	serialTotal := fixed[0].TotalNs
	for vi := range fixed {
		fixed[vi].Speedup = speedup(serialTotal, fixed[vi].TotalNs)
	}
	// The f32 variant's headline number is vs the same configuration in f64.
	fixed[3].Speedup = speedup(fixed[2].TotalNs, fixed[3].TotalNs)

	// Incremental configurations: a growing target (256 → 512 in steps of
	// 64, mirroring expansion rounds absorbing new points), cold-started vs
	// warm-started from the previous round's multipliers.
	steps := []int{256, 320, 384, 448, svddBenchN}
	rep.IncrementalRounds = len(steps)
	inc := []SVDDBenchVariant{
		{Name: "incremental-cold", Precision: "f64", Workers: workers, Shrink: true},
		{Name: "incremental-warm", Precision: "f64", Workers: workers, Shrink: true, WarmStart: true},
	}
	for vi := range inc {
		v := &inc[vi]
		for r := 0; r < repeats; r++ {
			var prev *svdd.Model
			for _, n := range steps {
				c := svddBenchConfig(n)
				c.Workers = v.Workers
				c.NoShrink = !v.Shrink
				if v.WarmStart && prev != nil {
					// Surviving ids are the prefix; new points carry 0.
					warm := make([]float64, n)
					copy(warm, prev.Alpha)
					c.WarmAlpha = warm
				}
				m, err := svdd.Train(ds, ids[:n], c)
				if err != nil && m == nil {
					return nil, fmt.Errorf("svdd bench %s: %w", v.Name, err)
				}
				v.accumulate(m)
				prev = m
			}
		}
	}
	coldTotal := inc[0].TotalNs
	for vi := range inc {
		inc[vi].Speedup = speedup(coldTotal, inc[vi].TotalNs)
	}

	rep.Variants = append(fixed, inc...)
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
	header(w, "SVDD training fast path (n=512, d=8): parallel fill, shrinking, warm start")
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
