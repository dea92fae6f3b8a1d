package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"dbsvec/internal/data"
	"dbsvec/internal/dbscan"
	"dbsvec/internal/engine"
	"dbsvec/internal/eval"
	"dbsvec/internal/index"
	"dbsvec/internal/index/backend"
	"dbsvec/internal/index/rproj"
	"dbsvec/internal/vec"
)

// High-dimensional neighborhood benchmark: the rproj backend against the
// linear oracle on embeddings-like data (unit-norm Gaussian clusters, the
// geometry every spatial backend degrades on). Two sections: batched
// range-query throughput across dimensions and storage precisions, and an
// end-to-end DBSCAN agreement check — rproj is exact, so the ARI against
// the linear-indexed clustering must be 1.0, and any smaller value is a
// correctness regression, not a tuning matter.

// Benchmark shape pinned for the committed BENCH_highdim.json: 16 unit-norm
// cluster directions perturbed by noise 0.35 (tight angular clusters, well
// separated), queried at the radius that captures same-cluster
// neighborhoods (~0.49 expected same-cluster distance) while excluding
// other clusters (>= 1.0 away).
const (
	highdimClusters = 16
	highdimNoise    = 0.35
	highdimEps      = 0.5
	highdimMinPts   = 8
)

// HighdimQueryEntry is one backend's batched range-query throughput at one
// dimension and storage precision, best of repeats, plus its build time.
type HighdimQueryEntry struct {
	Backend       string  `json:"backend"`
	Precision     string  `json:"precision"`
	N             int     `json:"n"`
	Dim           int     `json:"dim"`
	Queries       int     `json:"queries"`
	BuildNs       int64   `json:"build_ns"`
	TotalNs       int64   `json:"total_ns"`
	QueriesPerSec float64 `json:"queries_per_sec"`
	AvgResultSize float64 `json:"avg_result_size"`
	// SpeedupVsLinear is the linear entry's TotalNs at the same dim and
	// precision divided by this entry's; 1.0 for the linear rows.
	SpeedupVsLinear float64 `json:"speedup_vs_linear"`
	// Cells/MaxCell are the rproj partition diagnostics (0 for linear).
	Cells   int `json:"cells"`
	MaxCell int `json:"max_cell"`
}

// HighdimARIEntry is one backend's end-to-end DBSCAN run on the embeddings
// dataset.
type HighdimARIEntry struct {
	Backend     string  `json:"backend"`
	ElapsedNs   int64   `json:"elapsed_ns"`
	Clusters    int     `json:"clusters"`
	ARIVsLinear float64 `json:"ari_vs_linear"`
}

// HighdimReport is the machine-readable result benchall writes to
// BENCH_highdim.json.
type HighdimReport struct {
	Seed     int64   `json:"seed"`
	Eps      float64 `json:"eps"`
	Clusters int     `json:"clusters"`
	Noise    float64 `json:"noise"`
	N        int     `json:"n"`
	Dims     []int   `json:"dims"`
	BatchQ   int     `json:"batch_queries"`
	Workers  int     `json:"workers"`
	Repeats  int     `json:"repeats"`

	Queries []HighdimQueryEntry `json:"queries"`

	ARIN   int               `json:"ari_n"`
	ARIDim int               `json:"ari_dim"`
	ARI    []HighdimARIEntry `json:"ari"`
}

// RunHighdim executes the benchmark and returns the report.
func RunHighdim(cfg Config) (*HighdimReport, error) {
	n, batchQ, repeats := 100_000, 64, 3
	ariN, ariDim := 30_000, 64
	if cfg.Quick {
		n, batchQ, repeats = 10_000, 32, 2
		ariN = 4_000
	}
	workers := engine.ResolveWorkers(cfg.Workers)
	rep := &HighdimReport{
		Seed:     cfg.Seed,
		Eps:      highdimEps,
		Clusters: highdimClusters,
		Noise:    highdimNoise,
		N:        n,
		Dims:     []int{64, 128, 256, 512},
		BatchQ:   batchQ,
		Workers:  workers,
		Repeats:  repeats,
		ARIN:     ariN,
		ARIDim:   ariDim,
	}

	for _, dim := range rep.Dims {
		ds := data.Embeddings(n, dim, highdimClusters, highdimNoise, cfg.Seed)
		ds32, err := ds.ToPrecision(vec.F32)
		if err != nil {
			return nil, fmt.Errorf("highdim f32 conversion: %w", err)
		}
		for _, pv := range []struct {
			prec string
			ds   *vec.Dataset
		}{{"f64", ds}, {"f32", ds32}} {
			// Queries stride across the dataset so every cluster is probed.
			qids := make([]int32, batchQ)
			stride := pv.ds.Len() / batchQ
			for i := range qids {
				qids[i] = int32(i * stride)
			}
			qs := index.Queries{N: batchQ, At: func(i int) []float64 {
				return pv.ds.Point(int(qids[i]))
			}}

			var linearNs int64
			for _, kind := range []backend.Kind{backend.Linear, backend.RProj} {
				build, err := kind.Builder(workers)
				if err != nil {
					return nil, err
				}
				start := time.Now()
				idx, err := build(context.Background(), pv.ds)
				if err != nil {
					return nil, fmt.Errorf("highdim %s build: %w", kind, err)
				}
				buildNs := time.Since(start).Nanoseconds()
				batch := index.Batch(idx)
				var out [][]int32
				best := int64(math.MaxInt64)
				var results int64
				for r := 0; r < repeats; r++ {
					start := time.Now()
					out, err = batch.BatchRangeQuery(nil, qs, highdimEps, workers, out)
					if err != nil {
						return nil, fmt.Errorf("highdim %s batch: %w", kind, err)
					}
					if ns := time.Since(start).Nanoseconds(); ns < best {
						best = ns
					}
				}
				results = 0
				for _, row := range out {
					results += int64(len(row))
				}
				if kind == backend.Linear {
					linearNs = best
				}
				qps := 0.0
				if best > 0 {
					qps = float64(batchQ) / (float64(best) / 1e9)
				}
				e := HighdimQueryEntry{
					Backend:         kind.String(),
					Precision:       pv.prec,
					N:               n,
					Dim:             dim,
					Queries:         batchQ,
					BuildNs:         buildNs,
					TotalNs:         best,
					QueriesPerSec:   qps,
					AvgResultSize:   float64(results) / float64(batchQ),
					SpeedupVsLinear: speedup(linearNs, best),
				}
				if x, ok := idx.(*rproj.Index); ok {
					e.Cells, e.MaxCell = x.Cells()
				}
				rep.Queries = append(rep.Queries, e)
			}
		}
	}

	if err := runHighdimARI(cfg, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// runHighdimARI clusters the embeddings dataset end to end with the linear
// oracle and with rproj and appends both runs with their label agreement.
func runHighdimARI(cfg Config, rep *HighdimReport) error {
	ds := data.Embeddings(rep.ARIN, rep.ARIDim, highdimClusters, highdimNoise, cfg.Seed+1)
	params := dbscan.Params{Eps: highdimEps, MinPts: highdimMinPts}

	var linear *clusterResult
	for _, kind := range []backend.Kind{backend.Linear, backend.RProj} {
		build, err := kind.Builder(1)
		if err != nil {
			return err
		}
		start := time.Now()
		res, _, err := dbscan.Run(ds, params, build)
		if err != nil {
			return fmt.Errorf("highdim ari %s: %w", kind, err)
		}
		elapsed := time.Since(start).Nanoseconds()
		ari := 1.0
		if linear == nil {
			linear = res
		} else {
			if ari, err = eval.AdjustedRandIndex(linear, res); err != nil {
				return fmt.Errorf("highdim ari: %w", err)
			}
		}
		rep.ARI = append(rep.ARI, HighdimARIEntry{
			Backend:     kind.String(),
			ElapsedNs:   elapsed,
			Clusters:    res.Clusters,
			ARIVsLinear: ari,
		})
	}
	return nil
}

// Highdim is the registry entry: it prints the throughput and agreement
// tables and, when cfg.HighdimJSONPath is set, writes the machine-readable
// report there.
func Highdim(w io.Writer, cfg Config) error {
	header(w, "High-dimensional neighborhoods: rproj vs linear on embeddings")
	rep, err := RunHighdim(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-7s %5s %5s %9s %12s %12s %12s %10s %8s %7s\n",
		"backend", "prec", "dim", "n", "build", "batch", "queries/s", "avg|hood|", "speedup", "cells")
	for _, e := range rep.Queries {
		fmt.Fprintf(w, "%-7s %5s %5d %9d %11.3fms %11.3fms %12.0f %10.1f %7.2fx %7d\n",
			e.Backend, e.Precision, e.Dim, e.N, float64(e.BuildNs)/1e6,
			float64(e.TotalNs)/1e6, e.QueriesPerSec, e.AvgResultSize, e.SpeedupVsLinear, e.Cells)
	}
	fmt.Fprintf(w, "\nend-to-end DBSCAN (n=%d, d=%d, eps=%g, minPts=%d):\n",
		rep.ARIN, rep.ARIDim, rep.Eps, highdimMinPts)
	fmt.Fprintf(w, "%-7s %12s %9s %14s\n", "backend", "elapsed", "clusters", "ARI vs linear")
	for _, e := range rep.ARI {
		fmt.Fprintf(w, "%-7s %11.3fms %9d %14.4f\n",
			e.Backend, float64(e.ElapsedNs)/1e6, e.Clusters, e.ARIVsLinear)
	}
	if cfg.HighdimJSONPath != "" {
		if err := WriteHighdimJSON(cfg.HighdimJSONPath, rep); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", cfg.HighdimJSONPath)
	}
	return nil
}

// WriteHighdimJSON writes the report as indented JSON.
func WriteHighdimJSON(path string, rep *HighdimReport) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
