package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"dbsvec/internal/data"
	"dbsvec/internal/engine"
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

// IndexBuildEntry is one backend's build time at one cardinality and worker
// count, best of Repeats runs.
type IndexBuildEntry struct {
	Backend string `json:"backend"`
	N       int    `json:"n"`
	Workers int    `json:"workers"`
	BuildNs int64  `json:"build_ns"`
	// Speedup is the serial (workers=1) build time of the same backend and
	// cardinality divided by this entry's; 1.0 for the serial rows.
	Speedup float64 `json:"speedup_vs_serial"`
}

// IndexQueryEntry is one backend's range-query throughput at one
// cardinality and storage precision, measured on the serial-built structure
// (parallel builds are bit-identical, so query cost does not depend on the
// build worker count).
type IndexQueryEntry struct {
	Backend       string  `json:"backend"`
	Precision     string  `json:"precision"`
	N             int     `json:"n"`
	Queries       int     `json:"queries"`
	TotalNs       int64   `json:"total_ns"`
	QueriesPerSec float64 `json:"queries_per_sec"`
	AvgResultSize float64 `json:"avg_result_size"`
}

// IndexScanEntry is one storage precision's batch linear-scan throughput at
// the embeddings-like shape (scanN × scanDim): the memory-bound regime the
// float32 storage mode targets. Queries are fused whole-dataset FilterWithin
// scans, so bytes streamed per query is exactly n·d·(8 or 4).
type IndexScanEntry struct {
	Precision     string  `json:"precision"`
	N             int     `json:"n"`
	Dim           int     `json:"dim"`
	Queries       int     `json:"queries"`
	TotalNs       int64   `json:"total_ns"`
	QueriesPerSec float64 `json:"queries_per_sec"`
	// SpeedupVsF64 is the f64 entry's TotalNs divided by this entry's; 1.0
	// for the f64 row itself.
	SpeedupVsF64 float64 `json:"speedup_vs_f64"`
}

// IndexBenchReport is the machine-readable result benchall writes to
// BENCH_index.json.
type IndexBenchReport struct {
	Dim          int               `json:"dim"`
	Eps          float64           `json:"eps"`
	Seed         int64             `json:"seed"`
	Repeats      int               `json:"repeats"`
	Sizes        []int             `json:"sizes"`
	WorkerCounts []int             `json:"worker_counts"`
	Builds       []IndexBuildEntry `json:"builds"`
	Queries      []IndexQueryEntry `json:"queries"`
	ScanN        int               `json:"scan_n"`
	ScanDim      int               `json:"scan_dim"`
	Scans        []IndexScanEntry  `json:"scans"`
}

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
	build, err := kind.Builder(indexBenchEps, workers)
	if err != nil {
		return nil, err
	}
	return build(context.Background(), ds)
}

// indexBenchWorkerCounts returns the deduplicated, ascending worker counts
// to sweep: serial, 2, and the resolved session worker count.
func indexBenchWorkerCounts(cfg Config) []int {
	set := map[int]bool{1: true, 2: true, engine.ResolveWorkers(cfg.Workers): true}
	counts := make([]int, 0, len(set))
	for w := range set {
		counts = append(counts, w)
	}
	sort.Ints(counts)
	return counts
}

// RunIndexBench executes the micro-benchmark and returns the report.
func RunIndexBench(cfg Config) (*IndexBenchReport, error) {
	sizes := []int{100_000, 500_000}
	repeats, queries := 5, 1000
	if cfg.Quick {
		sizes = []int{20_000, 50_000}
		repeats, queries = 3, 400
	}
	workerCounts := indexBenchWorkerCounts(cfg)

	rep := &IndexBenchReport{
		Dim:          indexBenchDim,
		Eps:          indexBenchEps,
		Seed:         cfg.Seed,
		Repeats:      repeats,
		Sizes:        sizes,
		WorkerCounts: workerCounts,
	}

	for _, n := range sizes {
		ds := data.Blobs(n, indexBenchDim, 16, 30, 1000, 0.02, cfg.Seed)
		ds32, err := ds.ToPrecision(vec.F32)
		if err != nil {
			return nil, fmt.Errorf("index bench f32 conversion: %w", err)
		}
		for _, kind := range indexBenchKinds() {
			serialNs := int64(0)
			for _, workers := range workerCounts {
				best := int64(math.MaxInt64)
				for r := 0; r < repeats; r++ {
					start := time.Now()
					if _, err := indexBenchBuild(kind, ds, workers); err != nil {
						return nil, err
					}
					if ns := time.Since(start).Nanoseconds(); ns < best {
						best = ns
					}
				}
				if workers == 1 {
					serialNs = best
				}
				rep.Builds = append(rep.Builds, IndexBuildEntry{
					Backend: kind.String(),
					N:       n,
					Workers: workers,
					BuildNs: best,
					Speedup: speedup(serialNs, best),
				})
			}

			// Query throughput on the serial-built structure; parallel builds
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
				stride := pv.ds.Len() / queries
				if stride < 1 {
					stride = 1
				}
				var results int64
				buf := make([]int32, 0, 4096)
				start := time.Now()
				for q := 0; q < queries; q++ {
					buf = idx.RangeQuery(pv.ds.Point(q*stride%pv.ds.Len()), indexBenchEps, buf[:0])
					results += int64(len(buf))
				}
				total := time.Since(start).Nanoseconds()
				qps := 0.0
				if total > 0 {
					qps = float64(queries) / (float64(total) / 1e9)
				}
				rep.Queries = append(rep.Queries, IndexQueryEntry{
					Backend:       kind.String(),
					Precision:     pv.prec,
					N:             n,
					Queries:       queries,
					TotalNs:       total,
					QueriesPerSec: qps,
					AvgResultSize: float64(results) / float64(queries),
				})
			}
		}
	}

	if err := runScanBench(cfg, rep); err != nil {
		return nil, err
	}
	return rep, nil
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
// embeddings shape for both storage precisions and appends the section to
// rep. Best-of-repeats over a fixed query batch.
func runScanBench(cfg Config, rep *IndexBenchReport) error {
	queries := 64
	if cfg.Quick {
		queries = 24
	}
	rep.ScanN = scanBenchN
	rep.ScanDim = scanBenchDim

	ds := data.Uniform(scanBenchN, scanBenchDim, 1000, cfg.Seed)
	ds32, err := ds.ToPrecision(vec.F32)
	if err != nil {
		return fmt.Errorf("scan bench f32 conversion: %w", err)
	}
	// eps sized to catch a small neighborhood: scan cost is n·d regardless of
	// the hit count (the fused kernels never early-exit), so the radius only
	// keeps the append path realistic without swamping it.
	const scanEps = 300.0
	eps2 := scanEps * scanEps

	var f64Total int64
	for _, pv := range []struct {
		prec string
		ds   *vec.Dataset
	}{{"f64", ds}, {"f32", ds32}} {
		stride := pv.ds.Len() / queries
		best := int64(math.MaxInt64)
		buf := make([]int32, 0, 4096)
		for r := 0; r < rep.Repeats; r++ {
			start := time.Now()
			for q := 0; q < queries; q++ {
				buf = pv.ds.FilterWithin(pv.ds.Point(q*stride), eps2, buf[:0])
			}
			if ns := time.Since(start).Nanoseconds(); ns < best {
				best = ns
			}
		}
		if pv.prec == "f64" {
			f64Total = best
		}
		qps := 0.0
		if best > 0 {
			qps = float64(queries) / (float64(best) / 1e9)
		}
		rep.Scans = append(rep.Scans, IndexScanEntry{
			Precision:     pv.prec,
			N:             scanBenchN,
			Dim:           scanBenchDim,
			Queries:       queries,
			TotalNs:       best,
			QueriesPerSec: qps,
			SpeedupVsF64:  speedup(f64Total, best),
		})
	}
	return nil
}

// IndexPerf is the registry entry: it prints the build and query tables and,
// when cfg.IndexJSONPath is set, writes the machine-readable report there.
func IndexPerf(w io.Writer, cfg Config) error {
	header(w, "Index construction: parallel bulk loads + packed leaf blocks")
	rep, err := RunIndexBench(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s %9s %8s %12s %9s\n", "backend", "n", "workers", "build", "speedup")
	for _, e := range rep.Builds {
		fmt.Fprintf(w, "%-8s %9d %8d %11.3fms %8.2fx\n",
			e.Backend, e.N, e.Workers, float64(e.BuildNs)/1e6, e.Speedup)
	}
	fmt.Fprintf(w, "\n%-8s %5s %9s %8s %12s %14s %10s\n", "backend", "prec", "n", "queries", "total", "queries/s", "avg|hood|")
	for _, e := range rep.Queries {
		fmt.Fprintf(w, "%-8s %5s %9d %8d %11.3fms %14.0f %10.1f\n",
			e.Backend, e.Precision, e.N, e.Queries, float64(e.TotalNs)/1e6, e.QueriesPerSec, e.AvgResultSize)
	}
	fmt.Fprintf(w, "\nbatch linear scans (n=%d, d=%d):\n", rep.ScanN, rep.ScanDim)
	fmt.Fprintf(w, "%-5s %8s %12s %14s %9s\n", "prec", "queries", "total", "queries/s", "speedup")
	for _, e := range rep.Scans {
		fmt.Fprintf(w, "%-5s %8d %11.3fms %14.1f %8.2fx\n",
			e.Precision, e.Queries, float64(e.TotalNs)/1e6, e.QueriesPerSec, e.SpeedupVsF64)
	}
	if cfg.IndexJSONPath != "" {
		if err := WriteIndexBenchJSON(cfg.IndexJSONPath, rep); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", cfg.IndexJSONPath)
	}
	return nil
}

// WriteIndexBenchJSON writes the report as indented JSON.
func WriteIndexBenchJSON(path string, rep *IndexBenchReport) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
