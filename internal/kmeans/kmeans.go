// Package kmeans implements Lloyd's k-means (Hartigan & Wong lineage) with
// k-means++ seeding. It is the partitioning-based baseline of the paper's
// Table IV clustering-validation experiment.
package kmeans

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"dbsvec/internal/cluster"
	"dbsvec/internal/dist"
	"dbsvec/internal/fault"
	"dbsvec/internal/vec"
)

// Params configures a run.
type Params struct {
	// K is the number of clusters. Must be >= 1 and <= n.
	K int
	// MaxIter caps Lloyd iterations; 0 selects 100.
	MaxIter int
	// Tol stops iteration when total center movement falls below it;
	// 0 selects 1e-6.
	Tol float64
	// Seed drives k-means++ seeding.
	Seed int64
}

// Stats reports work performed.
type Stats struct {
	// Iterations is the number of Lloyd rounds executed.
	Iterations int
	// Inertia is the final sum of squared distances to assigned centers.
	Inertia float64
}

// ErrNilDataset is returned when Run receives a nil dataset.
var ErrNilDataset = errors.New("kmeans: nil dataset")

// Run clusters ds into K groups and returns labels, the final centers, and
// statistics.
func Run(ds *vec.Dataset, p Params) (*cluster.Result, [][]float64, Stats, error) {
	var st Stats
	if ds == nil {
		return nil, nil, st, ErrNilDataset
	}
	n, d := ds.Len(), ds.Dim()
	if p.K < 1 || p.K > n {
		return nil, nil, st, fmt.Errorf("%w: kmeans: k %d outside [1, %d]", fault.ErrInvalidParams, p.K, n)
	}
	maxIter := p.MaxIter
	if maxIter == 0 {
		maxIter = 100
	}
	tol := p.Tol
	if tol == 0 {
		tol = 1e-6
	}
	rng := rand.New(rand.NewSource(p.Seed))

	// Centers live in one flat row-major slice so the assignment step can
	// run the batched nearest-center kernel over them as a dist.Matrix.
	centers := seedPlusPlus(ds, p.K, rng)
	centersM := dist.Matrix{Coords: centers, Dim: d}
	labels := make([]int32, n)
	counts := make([]int, p.K)
	sums := make([]float64, p.K*d)

	for iter := 0; iter < maxIter; iter++ {
		st.Iterations = iter + 1
		// Assignment step.
		st.Inertia = 0
		for i := 0; i < n; i++ {
			best, bestD := dist.Nearest(centersM, ds.Point(i))
			labels[i] = int32(best)
			st.Inertia += bestD
		}
		// Update step.
		for c := range counts {
			counts[c] = 0
		}
		for i := range sums {
			sums[i] = 0
		}
		for i := 0; i < n; i++ {
			c := int(labels[i])
			counts[c]++
			pt := ds.Point(i)
			for j := 0; j < d; j++ {
				sums[c*d+j] += pt[j]
			}
		}
		var moved float64
		for c := 0; c < p.K; c++ {
			row := centers[c*d : (c+1)*d]
			if counts[c] == 0 {
				// Re-seed an empty cluster at a random point.
				copy(row, ds.Point(rng.Intn(n)))
				moved += tol + 1
				continue
			}
			inv := 1 / float64(counts[c])
			for j := 0; j < d; j++ {
				nv := sums[c*d+j] * inv
				moved += math.Abs(nv - row[j])
				row[j] = nv
			}
		}
		if moved < tol {
			break
		}
	}
	res := &cluster.Result{Labels: labels, Clusters: p.K}
	out := make([][]float64, p.K)
	for c := 0; c < p.K; c++ {
		out[c] = append([]float64(nil), centers[c*d:(c+1)*d]...)
	}
	return res, out, st, nil
}

// seedPlusPlus picks K initial centers with k-means++ (D² sampling) and
// returns them as one flat row-major slice of length k*d.
func seedPlusPlus(ds *vec.Dataset, k int, rng *rand.Rand) []float64 {
	n, d := ds.Len(), ds.Dim()
	centers := make([]float64, 0, k*d)
	centers = append(centers, ds.Point(rng.Intn(n))...)

	dist2 := make([]float64, n)
	ds.SqDistsToAll(centers[:d], dist2)
	for len(centers) < k*d {
		var total float64
		for _, dd := range dist2 {
			total += dd
		}
		var idx int
		if total <= 0 {
			idx = rng.Intn(n) // all remaining points coincide with centers
		} else {
			target := rng.Float64() * total
			acc := 0.0
			idx = n - 1
			for i, dd := range dist2 {
				acc += dd
				if acc >= target {
					idx = i
					break
				}
			}
		}
		centers = append(centers, ds.Point(idx)...)
		c := centers[len(centers)-d:]
		dist.MinSqDistsToAll(ds.Matrix(), c, dist2)
	}
	return centers
}
