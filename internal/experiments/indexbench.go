package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"dbsvec/internal/data"
	"dbsvec/internal/dist"
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

// RunIndexBench executes the micro-benchmark and emits its rows: build
// time per backend, cardinality and worker count ("build"), range-query
// time per backend, cardinality and storage precision ("query"), the
// batch linear scans ("scan"), the linear scan's row-block split
// ("split") and its zone map on ordered and shuffled rows ("zones").
func RunIndexBench(cfg Config, emit func(Row)) error {
	sizes := []int{100_000, 500_000}
	repeats, queries := 5, 1000
	if cfg.Quick {
		sizes = []int{20_000, 50_000}
		repeats, queries = 3, 400
	}

	// Query rows are held back so every build row prints first.
	var queryRows []Row
	for _, n := range sizes {
		ds := data.Blobs(n, indexBenchDim, 16, 30, 1000, 0.02, cfg.Seed)
		ds32, err := ds.ToPrecision(vec.F32)
		if err != nil {
			return fmt.Errorf("index bench f32 conversion: %w", err)
		}
		for _, kind := range indexBenchKinds() {
			for _, workers := range indexBenchWorkers {
				best := int64(math.MaxInt64)
				for r := 0; r < repeats; r++ {
					start := time.Now()
					if _, err := indexBenchBuild(kind, ds, workers); err != nil {
						return err
					}
					best = min(best, time.Since(start).Nanoseconds())
				}
				emit(Row{
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
					return err
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

	for _, r := range queryRows {
		emit(r)
	}
	if err := runScanBench(cfg, repeats, emit); err != nil {
		return err
	}
	if err := runSplitBench(cfg, emit); err != nil {
		return err
	}
	return runZonesBench(cfg, emit)
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
// embeddings shape for both storage precisions and emits one "scan" row per
// precision: best of repeats over a fixed query batch.
func runScanBench(cfg Config, repeats int, emit func(Row)) error {
	queries := 64
	if cfg.Quick {
		queries = 24
	}

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
				buf = dist.FilterWithin(pv.ds.Matrix(), pv.ds.Point(q*stride), eps2, buf[:0])
				results += len(buf)
			}
			best = min(best, time.Since(start).Nanoseconds())
		}
		emit(Row{
			Exp: "index",
			Params: map[string]any{
				"section": "scan", "precision": pv.prec, "n": scanBenchN, "dim": scanBenchDim,
				"queries": queries, "repeats": repeats, "seed": cfg.Seed,
			},
			Counts:   map[string]float64{"results": float64(results)},
			Measured: map[string]float64{"total_ns": float64(best)},
		})
	}
	return nil
}

// The split section pins perfbench's cluster-default shape (SeedSpreader
// n=40k, d=8, ε=2000), where every seed query is a single call and
// DBSVEC's support-vector batches hold 9.5 queries on average (26,238
// points in 2,765 batches). Batches of 1, 6 and 12 queries run on
// index.Linear at 1 and 2 workers, and so does a count batch of 512
// queries with limit 100, the shape of noise verification's MinPts test.
// The worker count changes only the time, so the results totals are equal
// across it. The shape is identical in quick and full mode.
const (
	splitBenchN       = 40_000
	splitBenchDim     = 8
	splitBenchEps     = 2000.0
	splitBenchRepeats = 3
)

// splitBenchShapes are the split rows' batches: range queries (limit 0)
// or counts clamped at limit, rounds batches each.
var splitBenchShapes = []struct{ batch, rounds, limit int }{
	{1, 100, 0}, {6, 100, 0}, {12, 100, 0}, {512, 20, 100},
}

// runSplitBench emits one "split" row per batch shape and worker count.
func runSplitBench(cfg Config, emit func(Row)) error {
	ds := data.SeedSpreader{N: splitBenchN, D: splitBenchDim, Seed: cfg.Seed}.Generate()
	for _, s := range splitBenchShapes {
		for _, workers := range indexBenchWorkers {
			row, err := splitRow(cfg, ds, s.batch, s.rounds, s.limit, workers)
			if err != nil {
				return err
			}
			emit(row)
		}
	}
	return nil
}

// splitRow times rounds batches of batch queries, spread evenly over ds,
// on a linear scan over workers: range queries, or with limit > 0 counts.
// Its count is the results total over the rounds (ids returned, or counts
// summed), its timing the best of splitBenchRepeats.
func splitRow(cfg Config, ds *vec.Dataset, batch, rounds, limit, workers int) (Row, error) {
	lin, err := index.NewLinear(context.Background(), ds, workers)
	if err != nil {
		return Row{}, err
	}
	results, best, err := timeLinear(lin, splitQueries(ds, batch, rounds), limit, workers, false)
	if err != nil {
		return Row{}, err
	}
	params := map[string]any{
		"section": "split", "n": splitBenchN, "dim": splitBenchDim, "batch": batch,
		"workers": workers, "rounds": rounds, "repeats": splitBenchRepeats, "seed": cfg.Seed,
	}
	if limit > 0 {
		params["limit"] = limit
	}
	return Row{
		Exp:      "index",
		Params:   params,
		Counts:   map[string]float64{"results": float64(results)},
		Measured: map[string]float64{"total_ns": float64(best)},
	}, nil
}

// splitQueries returns rounds batches of batch queries spread evenly over
// ds.
func splitQueries(ds *vec.Dataset, batch, rounds int) []index.Queries {
	stride := ds.Len() / (rounds * batch)
	qs := make([]index.Queries, rounds)
	for round := range qs {
		qs[round] = index.Queries{N: batch, At: func(i int) []float64 { return ds.Point((round*batch + i) * stride) }}
	}
	return qs
}

// timeLinear runs the batches on lin over workers: range queries, or with
// limit > 0 counts; with single, one RangeQuery or RangeCount call per
// query. It returns the results total over the batches (ids returned, or
// counts summed) and the best wall clock of splitBenchRepeats passes.
func timeLinear(lin *index.Linear, batches []index.Queries, limit, workers int, single bool) (results int, best int64, err error) {
	ctx := context.Background()
	var hoods [][]int32
	var counts []int
	var buf []int32
	best = math.MaxInt64
	for r := 0; r < splitBenchRepeats; r++ {
		results = 0
		start := time.Now()
		for _, qs := range batches {
			switch {
			case single:
				for i := range qs.N {
					if limit > 0 {
						results += lin.RangeCount(qs.At(i), splitBenchEps, limit)
						continue
					}
					buf = lin.RangeQuery(qs.At(i), splitBenchEps, buf[:0])
					results += len(buf)
				}
			case limit > 0:
				if counts, err = lin.BatchRangeCount(ctx, qs, splitBenchEps, limit, workers, counts); err != nil {
					return 0, 0, err
				}
				for _, c := range counts {
					results += c
				}
			default:
				if hoods, err = lin.BatchRangeQuery(ctx, qs, splitBenchEps, workers, hoods); err != nil {
					return 0, 0, err
				}
				for _, hood := range hoods {
					results += len(hood)
				}
			}
		}
		best = min(best, time.Since(start).Nanoseconds())
	}
	return results, best, nil
}

// The zones section measures the linear scan's zone map on the split
// section's data in both of its cases: rows in generation order, where
// each SeedSpreader region's random walk is one run of rows and a query
// reads ~3 % of them, and the same rows shuffled by a fixed permutation,
// where every zone's box spans the data and a query reads every row. Each
// order runs single queries (one RangeQuery call per query), a 12-query
// batch and a 512-query count batch with limit 100, on 2 workers. Besides
// results, each row counts rows_scanned: the rows in the zones each
// query's ε-ball reaches, summed over its queries. The shape is identical
// in quick and full mode.
const (
	zonesBenchWorkers     = 2
	zonesBenchShuffleSeed = 1
)

// zonesBenchShapes are the zones rows' calls: single queries, or batches
// of batch range queries (limit 0) or counts clamped at limit.
var zonesBenchShapes = []struct {
	batch, rounds, limit int
	single               bool
}{
	{1, 100, 0, true}, {12, 100, 0, false}, {512, 20, 100, false},
}

// runZonesBench emits one "zones" row per row order and call shape.
func runZonesBench(cfg Config, emit func(Row)) error {
	ordered := data.SeedSpreader{N: splitBenchN, D: splitBenchDim, Seed: cfg.Seed}.Generate()
	perm := rand.New(rand.NewSource(zonesBenchShuffleSeed)).Perm(ordered.Len())
	shuffled := ordered.Subset(int32s(perm))
	for _, o := range []struct {
		name string
		ds   *vec.Dataset
	}{{"generation", ordered}, {"shuffled", shuffled}} {
		lin, err := index.NewLinear(context.Background(), o.ds, zonesBenchWorkers)
		if err != nil {
			return err
		}
		for _, s := range zonesBenchShapes {
			batches := splitQueries(o.ds, s.batch, s.rounds)
			rows := 0
			for _, qs := range batches {
				for i := range qs.N {
					rows += lin.ReachRows(qs.At(i), splitBenchEps)
				}
			}
			results, best, err := timeLinear(lin, batches, s.limit, zonesBenchWorkers, s.single)
			if err != nil {
				return err
			}
			params := map[string]any{
				"section": "zones", "order": o.name, "n": splitBenchN, "dim": splitBenchDim,
				"batch": s.batch, "workers": zonesBenchWorkers, "rounds": s.rounds,
				"repeats": splitBenchRepeats, "seed": cfg.Seed,
			}
			if s.single {
				params["batch"] = "single"
			}
			if s.limit > 0 {
				params["limit"] = s.limit
			}
			emit(Row{
				Exp:      "index",
				Params:   params,
				Counts:   map[string]float64{"results": float64(results), "rows_scanned": float64(rows)},
				Measured: map[string]float64{"total_ns": float64(best)},
			})
		}
	}
	return nil
}

// int32s converts a permutation to dataset ids.
func int32s(perm []int) []int32 {
	ids := make([]int32, len(perm))
	for i, p := range perm {
		ids[i] = int32(p)
	}
	return ids
}
