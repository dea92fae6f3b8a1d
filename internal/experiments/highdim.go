package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"dbsvec/internal/data"
	"dbsvec/internal/dbscan"
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

// highdimWorkers is the build and batch-query worker count: fixed, so row
// keys are the same on every machine.
const highdimWorkers = 2

// RunHighdim executes the benchmark and returns its rows: batched range
// queries per backend, dimension and storage precision ("query"), then the
// end-to-end DBSCAN agreement runs ("ari").
func RunHighdim(cfg Config) ([]Row, error) {
	n, batchQ, repeats := 100_000, 64, 3
	ariN, ariDim := 30_000, 64
	if cfg.Quick {
		n, batchQ, repeats = 10_000, 32, 2
		ariN = 4_000
	}

	var rows []Row
	for _, dim := range []int{64, 128, 256, 512} {
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

			for _, kind := range []backend.Kind{backend.Linear, backend.RProj} {
				build, err := kind.Builder(highdimWorkers)
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
				for r := 0; r < repeats; r++ {
					start := time.Now()
					out, err = batch.BatchRangeQuery(nil, qs, highdimEps, highdimWorkers, out)
					if err != nil {
						return nil, fmt.Errorf("highdim %s batch: %w", kind, err)
					}
					best = min(best, time.Since(start).Nanoseconds())
				}
				var results int
				for _, row := range out {
					results += len(row)
				}
				// Cells and max_cell are the rproj partition diagnostics (0
				// for linear).
				var cells, maxCell int
				if x, ok := idx.(*rproj.Index); ok {
					cells, maxCell = x.Cells()
				}
				rows = append(rows, Row{
					Exp: "highdim",
					Params: map[string]any{
						"section": "query", "backend": kind.String(), "precision": pv.prec,
						"n": n, "dim": dim, "queries": batchQ, "workers": highdimWorkers,
						"repeats": repeats, "seed": cfg.Seed,
					},
					Counts: map[string]float64{
						"results": float64(results), "cells": float64(cells), "max_cell": float64(maxCell),
					},
					Measured: map[string]float64{"build_ns": float64(buildNs), "total_ns": float64(best)},
				})
			}
		}
	}

	ari, err := runHighdimARI(cfg, ariN, ariDim)
	if err != nil {
		return nil, err
	}
	return append(rows, ari...), nil
}

// runHighdimARI clusters the embeddings dataset end to end with the linear
// oracle and with rproj and returns both runs with their label agreement.
func runHighdimARI(cfg Config, n, dim int) ([]Row, error) {
	ds := data.Embeddings(n, dim, highdimClusters, highdimNoise, cfg.Seed+1)
	params := dbscan.Params{Eps: highdimEps, MinPts: highdimMinPts}

	var linear *clusterResult
	var rows []Row
	for _, kind := range []backend.Kind{backend.Linear, backend.RProj} {
		build, err := kind.Builder(1)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		res, _, err := dbscan.Run(ds, params, build)
		if err != nil {
			return nil, fmt.Errorf("highdim ari %s: %w", kind, err)
		}
		elapsed := time.Since(start).Nanoseconds()
		ari := 1.0
		if linear == nil {
			linear = res
		} else if ari, err = eval.AdjustedRandIndex(linear, res); err != nil {
			return nil, fmt.Errorf("highdim ari: %w", err)
		}
		rows = append(rows, Row{
			Exp: "highdim",
			Params: map[string]any{
				"section": "ari", "backend": kind.String(), "n": n, "dim": dim, "seed": cfg.Seed,
			},
			Counts:   map[string]float64{"clusters": float64(res.Clusters), "ari_vs_linear": ari},
			Measured: map[string]float64{"elapsed_ns": float64(elapsed)},
		})
	}
	return rows, nil
}

// Highdim is the registry entry: it prints the rows and, when cfg.Reports
// names a path for "highdim", merges them into that report.
func Highdim(w io.Writer, cfg Config) error {
	header(w, fmt.Sprintf("High-dimensional neighborhoods: rproj vs linear on embeddings (eps=%g, minPts=%d)",
		highdimEps, highdimMinPts))
	rows, err := RunHighdim(cfg)
	if err != nil {
		return err
	}
	return emitReport(w, cfg, "highdim", rows)
}
