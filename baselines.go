package dbsvec

import (
	"dbsvec/internal/dbscan"
	"dbsvec/internal/kmeans"
	"dbsvec/internal/lsh"
	"dbsvec/internal/lshdbscan"
	"dbsvec/internal/nqdbscan"
	"dbsvec/internal/rhodbscan"
)

// DBSCAN runs exact DBSCAN (Ester et al. 1996) — the reference the paper
// measures every approximation against. The result's Stats.RangeQueries
// reflects the one-query-per-point cost of the exact algorithm.
func DBSCAN(d *Dataset, eps float64, minPts int, idx IndexKind) (*Result, error) {
	if d == nil {
		return nil, dbscan.ErrNilDataset
	}
	build, err := idx.Builder(1)
	if err != nil {
		return nil, err
	}
	res, st, err := dbscan.Run(d.ds, dbscan.Params{Eps: eps, MinPts: minPts}, build)
	if err != nil {
		return nil, err
	}
	out := wrapResult(res)
	out.Stats.RangeQueries = st.RangeQueries
	return out, nil
}

// DBSCANParallel runs exact DBSCAN with neighborhoods computed concurrently
// across all CPUs (two-phase disjoint-set formulation). Output matches
// DBSCAN up to border-point tie-breaking; noise is identical. workers <= 0
// selects GOMAXPROCS.
func DBSCANParallel(d *Dataset, eps float64, minPts int, idx IndexKind, workers int) (*Result, error) {
	if d == nil {
		return nil, dbscan.ErrNilDataset
	}
	build, err := idx.Builder(workers)
	if err != nil {
		return nil, err
	}
	res, st, err := dbscan.RunParallel(d.ds, dbscan.Params{Eps: eps, MinPts: minPts}, build, workers)
	if err != nil {
		return nil, err
	}
	out := wrapResult(res)
	out.Stats.RangeQueries = st.RangeQueries
	out.Stats.Phases = st.Phases
	return out, nil
}

// RhoOptions configures RhoApproximate.
type RhoOptions struct {
	Eps    float64
	MinPts int
}

// rho is RhoApproximate's approximation tolerance, the value Gan & Tao
// recommend.
const rho = 0.001

// RhoApproximate runs ρ-approximate DBSCAN (Gan & Tao, SIGMOD 2015) with
// ρ = 0.001.
func RhoApproximate(d *Dataset, opts RhoOptions) (*Result, error) {
	if d == nil {
		return nil, dbscan.ErrNilDataset
	}
	res, _, err := rhodbscan.Run(d.ds, rhodbscan.Params{Eps: opts.Eps, MinPts: opts.MinPts, Rho: rho})
	if err != nil {
		return nil, err
	}
	return wrapResult(res), nil
}

// LSHOptions configures DBSCANLSH.
type LSHOptions struct {
	Eps    float64
	MinPts int
	// Seed drives the random projections of the hash functions.
	Seed int64
}

// DBSCANLSH runs the hashing-based approximate DBSCAN baseline (Li, Heinis
// & Luk, ADBIS 2016) on p-stable LSH: 8 tables of 2 hash functions each,
// quantized at width ε.
func DBSCANLSH(d *Dataset, opts LSHOptions) (*Result, error) {
	if d == nil {
		return nil, dbscan.ErrNilDataset
	}
	res, _, err := lshdbscan.Run(d.ds, lshdbscan.Params{
		Eps:    opts.Eps,
		MinPts: opts.MinPts,
		Hash:   lsh.Params{Seed: opts.Seed},
	})
	if err != nil {
		return nil, err
	}
	return wrapResult(res), nil
}

// NQDBSCAN runs the NQ-DBSCAN baseline (Chen et al., PR 2018): exact DBSCAN
// output with grid-pruned distance computations.
func NQDBSCAN(d *Dataset, eps float64, minPts int) (*Result, error) {
	if d == nil {
		return nil, dbscan.ErrNilDataset
	}
	res, _, err := nqdbscan.Run(d.ds, nqdbscan.Params{Eps: eps, MinPts: minPts})
	if err != nil {
		return nil, err
	}
	return wrapResult(res), nil
}

// KMeansResult extends Result with the final cluster centers.
type KMeansResult struct {
	*Result
	// Centers holds the K final centroids.
	Centers [][]float64
	// Inertia is the final sum of squared distances to assigned centers.
	Inertia float64
}

// KMeans runs Lloyd's k-means with k-means++ seeding (the paper's Table IV
// baseline).
func KMeans(d *Dataset, k int, seed int64) (*KMeansResult, error) {
	if d == nil {
		return nil, kmeans.ErrNilDataset
	}
	res, centers, st, err := kmeans.Run(d.ds, kmeans.Params{K: k, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &KMeansResult{Result: wrapResult(res), Centers: centers, Inertia: st.Inertia}, nil
}
