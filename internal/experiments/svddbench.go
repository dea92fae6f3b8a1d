package experiments

import (
	"fmt"
	"io"

	"dbsvec/internal/data"
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

// svddBenchWorkers is the worker count of the parallel rows: fixed, so row
// keys are the same on every machine.
const svddBenchWorkers = 2

// RunSVDDBench executes the micro-benchmark and returns its rows: the
// 512-point target trained serially, in parallel and in parallel over
// float32 storage ("variant" rows), then the target-size sweep ("size"
// rows). Repeats scale with cfg.Quick.
func RunSVDDBench(cfg Config) ([]Row, error) {
	repeats := 20
	if cfg.Quick {
		repeats = 5
	}

	// train times repeats trainings of the whole of ds into one row.
	train := func(params map[string]any, ds *vec.Dataset, workers int) (Row, error) {
		n := ds.Len()
		ids := vec.Iota(n)
		var rounds, iters float64
		var fill, solve, finish, total float64
		for r := 0; r < repeats; r++ {
			c := svddBenchConfig(n)
			c.Workers = workers
			m, err := svdd.Train(ds, ids, c)
			if err != nil && m == nil {
				return Row{}, fmt.Errorf("svdd bench %v: %w", params, err)
			}
			rounds++
			iters += float64(m.Iterations)
			fill += float64(m.Times.Fill)
			solve += float64(m.Times.Solve)
			finish += float64(m.Times.Finish)
			total += float64(m.Times.Total())
		}
		params["n"], params["dim"], params["workers"] = n, svddBenchD, workers
		params["repeats"], params["seed"] = repeats, cfg.Seed
		return Row{
			Exp:      "svdd",
			Params:   params,
			Counts:   map[string]float64{"rounds": rounds, "smo_iterations": iters},
			Measured: map[string]float64{"fill_ns": fill, "solve_ns": solve, "finish_ns": finish, "total_ns": total},
		}, nil
	}

	// Float32-storage twin of the dataset: one quantization, then bit-exact
	// float64 arithmetic over the mirror (see internal/vec). The f32 variant
	// measures what the storage mode buys the kernel fill.
	ds := data.Blobs(svddBenchN, svddBenchD, 4, 30, 1000, 0.02, cfg.Seed)
	ds32, err := ds.ToPrecision(vec.F32)
	if err != nil {
		return nil, fmt.Errorf("svdd bench f32 conversion: %w", err)
	}
	var rows []Row
	for _, v := range []struct {
		ds      *vec.Dataset
		prec    string
		workers int
	}{{ds, "f64", 1}, {ds, "f64", svddBenchWorkers}, {ds32, "f32", svddBenchWorkers}} {
		row, err := train(map[string]any{"section": "variant", "precision": v.prec}, v.ds, v.workers)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}

	// Size sweep: one Blobs dataset per target size, same family as above —
	// the largest dense target, then lazy targets up to the default maximum
	// SVDD target size.
	for _, n := range []int{256, 512, 1024} {
		storage := "lazy"
		if n <= 256 {
			storage = "dense"
		}
		sds := data.Blobs(n, svddBenchD, 4, 30, 1000, 0.02, cfg.Seed)
		row, err := train(map[string]any{"section": "size", "precision": "f64", "storage": storage}, sds, svddBenchWorkers)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// SVDDPerf is the registry entry: it prints the rows and, when cfg.Reports
// names a path for "svdd", merges them into that report.
func SVDDPerf(w io.Writer, cfg Config) error {
	header(w, "SVDD training (n=512, d=8): serial, parallel and float32 storage; target-size sweep")
	rows, err := RunSVDDBench(cfg)
	if err != nil {
		return err
	}
	return emitReport(w, cfg, "svdd", rows)
}
