// Package eval provides the cluster-quality metrics used in the paper's
// evaluation: pairwise recall against a reference clustering (Lulli et al.,
// PVLDB 2016 — Section III-C of the paper), silhouette compactness
// (Rousseeuw 1987, "C" in Table IV) and Davies–Bouldin separation (Davies &
// Bouldin 1979, "S" in Table IV).
package eval

import (
	"errors"
	"math"

	"dbsvec/internal/cluster"
	"dbsvec/internal/dist"
	"dbsvec/internal/vec"
)

// ErrLengthMismatch is returned when two labelings cover different numbers
// of points.
var ErrLengthMismatch = errors.New("eval: labelings have different lengths")

// PairRecall returns the ratio of point pairs co-clustered by the reference
// clustering that are also co-clustered by the candidate clustering. Noise
// points form no pairs. A reference with no co-clustered pairs yields
// recall 1 by convention.
//
// The computation runs in O(n) using the contingency decomposition
// Σ_{ij} C(n_ij, 2) / Σ_i C(a_i, 2), where n_ij counts points in reference
// cluster i and candidate cluster j, and a_i the size of reference cluster
// i.
func PairRecall(reference, candidate *cluster.Result) (float64, error) {
	if len(reference.Labels) != len(candidate.Labels) {
		return 0, ErrLengthMismatch
	}
	refSizes := make(map[int32]int64)
	joint := make(map[[2]int32]int64)
	for idx, rl := range reference.Labels {
		if rl < 0 {
			continue
		}
		refSizes[rl]++
		cl := candidate.Labels[idx]
		if cl < 0 {
			continue
		}
		joint[[2]int32{rl, cl}]++
	}
	var refPairs, bothPairs int64
	for _, c := range refSizes {
		refPairs += c * (c - 1) / 2
	}
	for _, c := range joint {
		bothPairs += c * (c - 1) / 2
	}
	if refPairs == 0 {
		return 1, nil
	}
	return float64(bothPairs) / float64(refPairs), nil
}

// PairPrecision returns the ratio of point pairs co-clustered by the
// candidate that are also co-clustered by the reference. For DBSVEC the
// paper's Theorem 1 (every DBSVEC cluster is a subset of a DBSCAN cluster)
// predicts precision 1 up to border-point ties. A candidate with no
// co-clustered pairs yields 1 by convention.
func PairPrecision(reference, candidate *cluster.Result) (float64, error) {
	// Precision(ref, cand) is recall with the roles swapped.
	return PairRecall(candidate, reference)
}

// PairF1 returns the harmonic mean of pair recall and pair precision.
func PairF1(reference, candidate *cluster.Result) (float64, error) {
	r, err := PairRecall(reference, candidate)
	if err != nil {
		return 0, err
	}
	p, err := PairPrecision(reference, candidate)
	if err != nil {
		return 0, err
	}
	if r+p == 0 {
		return 0, nil
	}
	return 2 * r * p / (r + p), nil
}

// Silhouette returns the mean silhouette coefficient over all clustered
// points (noise excluded): for each point, (b−a)/max(a,b) with a the mean
// intra-cluster distance and b the smallest mean distance to another
// cluster. Higher is better; the paper's Table IV reports it as
// "Compactness". Runs in O(n²·d); sample large inputs before calling.
//
// Points in singleton clusters contribute 0, matching the scikit-learn
// convention. Results with fewer than 2 clusters return 0.
func Silhouette(ds *vec.Dataset, res *cluster.Result) (float64, error) {
	if ds.Len() != len(res.Labels) {
		return 0, ErrLengthMismatch
	}
	if res.Clusters < 2 {
		return 0, nil
	}
	sizes := res.Sizes()
	n := ds.Len()
	var total float64
	var counted int
	sums := make([]float64, res.Clusters)
	dists := make([]float64, n)
	for i := 0; i < n; i++ {
		li := res.Labels[i]
		if li < 0 {
			continue
		}
		if sizes[li] <= 1 {
			counted++ // silhouette 0 for singletons
			continue
		}
		for c := range sums {
			sums[c] = 0
		}
		dist.SqDistsToAll(ds.Matrix(), ds.Point(i), dists)
		for j := 0; j < n; j++ {
			lj := res.Labels[j]
			if lj < 0 || j == i {
				continue
			}
			sums[lj] += math.Sqrt(dists[j])
		}
		a := sums[li] / float64(sizes[li]-1)
		b := math.Inf(1)
		for c := range sums {
			if int32(c) == li || sizes[c] == 0 {
				continue
			}
			if m := sums[c] / float64(sizes[c]); m < b {
				b = m
			}
		}
		if math.IsInf(b, 1) {
			counted++
			continue
		}
		den := math.Max(a, b)
		if den > 0 {
			total += (b - a) / den
		}
		counted++
	}
	if counted == 0 {
		return 0, nil
	}
	return total / float64(counted), nil
}

// DaviesBouldin returns the Davies–Bouldin index: the mean over clusters of
// the worst ratio (s_i + s_j)/d(c_i, c_j), where s is the mean distance of
// members to their centroid and d the centroid separation. Lower is better;
// the paper's Table IV reports it as "Separation". Noise is excluded.
// Results with fewer than 2 clusters return 0.
func DaviesBouldin(ds *vec.Dataset, res *cluster.Result) (float64, error) {
	if ds.Len() != len(res.Labels) {
		return 0, ErrLengthMismatch
	}
	members := res.Members()
	// Drop empty clusters defensively.
	var cents [][]float64
	var scatter []float64
	var scratch []float64
	for _, ids := range members {
		if len(ids) == 0 {
			continue
		}
		c := ds.Mean(ids)
		if cap(scratch) < len(ids) {
			scratch = make([]float64, len(ids))
		}
		row := scratch[:len(ids)]
		dist.SqDistsTo(ds.Matrix(), c, ids, row)
		var s float64
		for _, d2 := range row {
			s += math.Sqrt(d2)
		}
		cents = append(cents, c)
		scatter = append(scatter, s/float64(len(ids)))
	}
	k := len(cents)
	if k < 2 {
		return 0, nil
	}
	var sum float64
	for i := 0; i < k; i++ {
		worst := 0.0
		for j := 0; j < k; j++ {
			if i == j {
				continue
			}
			sep := dist.Dist(cents[i], cents[j])
			if sep == 0 {
				continue // coincident centroids: skip the degenerate pair
			}
			if r := (scatter[i] + scatter[j]) / sep; r > worst {
				worst = r
			}
		}
		sum += worst
	}
	return sum / float64(k), nil
}

// AdjustedRandIndex returns the ARI between two clusterings: 1 for
// identical partitions, ~0 for independent ones, negative for worse than
// chance. Noise points are treated as singleton clusters so that results
// with noise remain comparable. Runs in O(n) via the contingency table.
func AdjustedRandIndex(a, b *cluster.Result) (float64, error) {
	if len(a.Labels) != len(b.Labels) {
		return 0, ErrLengthMismatch
	}
	n := len(a.Labels)
	if n == 0 {
		return 1, nil
	}
	// Remap noise to unique negative singleton ids.
	key := func(l int32, idx int) int32 {
		if l >= 0 {
			return l
		}
		return int32(-(idx + 1))
	}
	aSizes := map[int32]int64{}
	bSizes := map[int32]int64{}
	joint := map[[2]int32]int64{}
	for i := 0; i < n; i++ {
		ka := key(a.Labels[i], i)
		kb := key(b.Labels[i], i)
		aSizes[ka]++
		bSizes[kb]++
		joint[[2]int32{ka, kb}]++
	}
	choose2 := func(c int64) float64 { return float64(c) * float64(c-1) / 2 }
	var sumJoint, sumA, sumB float64
	for _, c := range joint {
		sumJoint += choose2(c)
	}
	for _, c := range aSizes {
		sumA += choose2(c)
	}
	for _, c := range bSizes {
		sumB += choose2(c)
	}
	total := choose2(int64(n))
	if total == 0 {
		return 1, nil
	}
	expected := sumA * sumB / total
	maxIdx := (sumA + sumB) / 2
	if maxIdx == expected {
		return 1, nil // both partitions trivial (all singletons or one block)
	}
	return (sumJoint - expected) / (maxIdx - expected), nil
}

// NoiseAgreement returns the fraction of points whose noise/clustered
// status agrees between two results.
func NoiseAgreement(a, b *cluster.Result) (float64, error) {
	if len(a.Labels) != len(b.Labels) {
		return 0, ErrLengthMismatch
	}
	if len(a.Labels) == 0 {
		return 1, nil
	}
	agree := 0
	for i := range a.Labels {
		if (a.Labels[i] == cluster.Noise) == (b.Labels[i] == cluster.Noise) {
			agree++
		}
	}
	return float64(agree) / float64(len(a.Labels)), nil
}
