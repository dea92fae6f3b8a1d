package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"dbsvec/internal/data"
	"dbsvec/internal/index"
	"dbsvec/internal/index/backend"
	"dbsvec/internal/vec"
)

// Index construction micro-benchmark. The figure experiments measure whole
// clustering runs; this one isolates the range-query backends so the
// parallel, cache-conscious bulk loads (and the packed-leaf query layout)
// can be attributed individually: build wall-clock per backend x cardinality
// x worker count, plus range-query throughput on the finished structures.
// The build-time columns reported next to Figures 6/7 in EXPERIMENTS.md come
// from this experiment's BENCH_index.json.

// indexBenchDim and indexBenchEps pin the benchmark shape; measured numbers
// in internal/index/README.md refer to exactly this shape.
const (
	indexBenchDim = 3
	indexBenchEps = 25.0
)

// indexBenchKinds are the table's backends that build a structure at the
// benchmark's low-dimensional shape: Linear builds nothing, and rproj is a
// high-dimensional backend measured by the highdim experiment instead.
func indexBenchKinds() []backend.Kind {
	var kinds []backend.Kind
	for _, k := range backend.Kinds() {
		if k != backend.Linear && k != backend.RProj {
			kinds = append(kinds, k)
		}
	}
	return kinds
}

// indexBenchBuild builds kind over ds with the given worker count.
func indexBenchBuild(kind backend.Kind, ds *vec.Dataset, workers int) (index.Index, error) {
	build, err := kind.Builder(workers)
	if err != nil {
		return nil, err
	}
	return build(context.Background(), ds)
}

// indexBenchWorkers are the build worker counts swept: fixed, so row keys
// are the same on every machine.
var indexBenchWorkers = []int{1, 2}

// RunIndexBench executes the micro-benchmark and returns its rows: build
// time per backend, cardinality and worker count ("build"), range-query
// time per backend, cardinality and storage precision ("query"), and the
// batch linear scans ("scan").
func RunIndexBench(cfg Config) ([]Row, error) {
	sizes := []int{100_000, 500_000}
	repeats, queries := 5, 1000
	if cfg.Quick {
		sizes = []int{20_000, 50_000}
		repeats, queries = 3, 400
	}

	var builds, queryRows []Row
	for _, n := range sizes {
		ds := data.Blobs(n, indexBenchDim, 16, 30, 1000, 0.02, cfg.Seed)
		ds32, err := ds.ToPrecision(vec.F32)
		if err != nil {
			return nil, fmt.Errorf("index bench f32 conversion: %w", err)
		}
		for _, kind := range indexBenchKinds() {
			for _, workers := range indexBenchWorkers {
				best := int64(math.MaxInt64)
				for r := 0; r < repeats; r++ {
					start := time.Now()
					if _, err := indexBenchBuild(kind, ds, workers); err != nil {
						return nil, err
					}
					best = min(best, time.Since(start).Nanoseconds())
				}
				builds = append(builds, Row{
					Exp: "index",
					Params: map[string]any{
						"section": "build", "backend": kind.String(), "n": n, "dim": indexBenchDim,
						"workers": workers, "repeats": repeats, "seed": cfg.Seed,
					},
					Counts:   map[string]float64{},
					Measured: map[string]float64{"build_ns": float64(best)},
				})
			}

			// Query time on the serial-built structure; parallel builds
			// produce bit-identical trees, so one measurement covers them all.
			// Both storage precisions are measured — identical result sets,
			// different leaf-scan bandwidth.
			for _, pv := range []struct {
				prec string
				ds   *vec.Dataset
			}{{"f64", ds}, {"f32", ds32}} {
				idx, err := indexBenchBuild(kind, pv.ds, 1)
				if err != nil {
					return nil, err
				}
				stride := max(pv.ds.Len()/queries, 1)
				var results int
				buf := make([]int32, 0, 4096)
				start := time.Now()
				for q := 0; q < queries; q++ {
					buf = idx.RangeQuery(pv.ds.Point(q*stride%pv.ds.Len()), indexBenchEps, buf[:0])
					results += len(buf)
				}
				total := time.Since(start).Nanoseconds()
				queryRows = append(queryRows, Row{
					Exp: "index",
					Params: map[string]any{
						"section": "query", "backend": kind.String(), "precision": pv.prec,
						"n": n, "dim": indexBenchDim, "queries": queries, "seed": cfg.Seed,
					},
					Counts:   map[string]float64{"results": float64(results)},
					Measured: map[string]float64{"total_ns": float64(total)},
				})
			}
		}
	}

	scans, err := runScanBench(cfg, repeats)
	if err != nil {
		return nil, err
	}
	return append(append(builds, queryRows...), scans...), nil
}

// scanBenchN and scanBenchDim pin the batch-scan section's shape: an
// embeddings-like 100k × 32 dataset whose 25.6 MB (f64) working set defeats
// every cache level, so throughput is memory bandwidth and halving the bytes
// should approach 2x. The shape is identical in quick and full mode — the
// committed BENCH_index.json numbers are the acceptance measurement for the
// float32 storage mode.
const (
	scanBenchN   = 100_000
	scanBenchDim = 32
)

// runScanBench measures fused whole-dataset FilterWithin scans at the
// embeddings shape for both storage precisions and returns one "scan" row
// per precision: best of repeats over a fixed query batch.
func runScanBench(cfg Config, repeats int) ([]Row, error) {
	queries := 64
	if cfg.Quick {
		queries = 24
	}

	ds := data.Uniform(scanBenchN, scanBenchDim, 1000, cfg.Seed)
	ds32, err := ds.ToPrecision(vec.F32)
	if err != nil {
		return nil, fmt.Errorf("scan bench f32 conversion: %w", err)
	}
	// eps sized to catch a small neighborhood: scan cost is n·d regardless of
	// the hit count (the fused kernels never early-exit), so the radius only
	// keeps the append path realistic without swamping it.
	const scanEps = 300.0
	eps2 := scanEps * scanEps

	var rows []Row
	for _, pv := range []struct {
		prec string
		ds   *vec.Dataset
	}{{"f64", ds}, {"f32", ds32}} {
		stride := pv.ds.Len() / queries
		best := int64(math.MaxInt64)
		var results int
		buf := make([]int32, 0, 4096)
		for r := 0; r < repeats; r++ {
			results = 0
			start := time.Now()
			for q := 0; q < queries; q++ {
				buf = pv.ds.FilterWithin(pv.ds.Point(q*stride), eps2, buf[:0])
				results += len(buf)
			}
			best = min(best, time.Since(start).Nanoseconds())
		}
		rows = append(rows, Row{
			Exp: "index",
			Params: map[string]any{
				"section": "scan", "precision": pv.prec, "n": scanBenchN, "dim": scanBenchDim,
				"queries": queries, "repeats": repeats, "seed": cfg.Seed,
			},
			Counts:   map[string]float64{"results": float64(results)},
			Measured: map[string]float64{"total_ns": float64(best)},
		})
	}
	return rows, nil
}

// IndexPerf is the registry entry: it prints the rows and, when cfg.Reports
// names a path for "index", merges them into that report.
func IndexPerf(w io.Writer, cfg Config) error {
	header(w, "Index construction: parallel bulk loads + packed leaf blocks")
	rows, err := RunIndexBench(cfg)
	if err != nil {
		return err
	}
	return emitReport(w, cfg, "index", rows)
}
