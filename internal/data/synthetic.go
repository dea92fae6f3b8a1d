// Package data provides the dataset generators and loaders used by tests,
// examples and the experiment harness. Real datasets from the paper (UCI,
// Mopsi, chameleon, Fränti suites) are not redistributable, so each has a
// synthetic analogue with the same cardinality and dimensionality and a
// qualitatively similar density structure (see DESIGN.md §3).
package data

import (
	"math"
	"math/rand"

	"dbsvec/internal/dist"
	"dbsvec/internal/vec"
)

// Blobs generates k isotropic Gaussian clusters of roughly equal size in
// [0, span]^d plus a fraction of uniform noise. Cluster centers are drawn
// uniformly but rejected until they are at least 4·sd apart (best effort:
// after 100 tries the draw is accepted as-is).
func Blobs(n, d, k int, sd, span, noiseFrac float64, seed int64) *vec.Dataset {
	rng := rand.New(rand.NewSource(seed))
	centers := spreadCenters(rng, k, d, span, 4*sd)
	noise := int(float64(n) * noiseFrac)
	clustered := n - noise
	coords := make([]float64, 0, n*d)
	for i := 0; i < clustered; i++ {
		c := centers[i%k]
		for j := 0; j < d; j++ {
			coords = append(coords, clamp(c[j]+rng.NormFloat64()*sd, 0, span))
		}
	}
	for i := 0; i < noise; i++ {
		for j := 0; j < d; j++ {
			coords = append(coords, rng.Float64()*span)
		}
	}
	ds, _ := vec.NewDatasetUnchecked(coords, d)
	return ds
}

// spreadCenters draws k centers in [0,span]^d with pairwise separation of
// at least minSep when achievable.
func spreadCenters(rng *rand.Rand, k, d int, span, minSep float64) [][]float64 {
	centers := make([][]float64, 0, k)
	for len(centers) < k {
		c := make([]float64, d)
		for j := range c {
			c[j] = span*0.1 + rng.Float64()*span*0.8
		}
		ok := true
		for tries := 0; tries < 100; tries++ {
			ok = true
			for _, o := range centers {
				if dist.Dist(c, o) < minSep {
					ok = false
					break
				}
			}
			if ok {
				break
			}
			for j := range c {
				c[j] = span*0.1 + rng.Float64()*span*0.8
			}
		}
		centers = append(centers, c)
	}
	return centers
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Embeddings generates n unit-norm points in d dimensions around k
// unit-norm cluster directions — the geometry of learned embedding vectors
// (normalized neural representations), where density lives on the sphere
// and coordinate-aligned structure is absent. Each point is
// normalize(center + noise·g/√d) with g standard Gaussian, so noise is the
// expected perturbation norm before renormalization: small values give
// tight angular clusters, values near 1 approach uniform on the sphere.
// Centers are Gaussian directions redrawn until pairwise angles stay wide
// (best effort, like Blobs' center spreading).
func Embeddings(n, d, k int, noise float64, seed int64) *vec.Dataset {
	ds, _ := vec.NewDatasetUnchecked(embeddingCoords(n, d, k, noise, seed), d)
	return ds
}

// embeddingCoords computes Embeddings' unit-norm points in float64, before
// construction applies the storage precision.
func embeddingCoords(n, d, k int, noise float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, k)
	for c := range centers {
		v := make([]float64, d)
		for tries := 0; ; tries++ {
			gaussianDir(rng, v)
			ok := true
			for _, o := range centers[:c] {
				if dist.Dot(v, o) > 0.5 { // within 60°: too close
					ok = false
					break
				}
			}
			if ok || tries >= 100 {
				break
			}
		}
		centers[c] = v
	}
	scale := noise / math.Sqrt(float64(d))
	coords := make([]float64, 0, n*d)
	g := make([]float64, d)
	for i := 0; i < n; i++ {
		c := centers[i%k]
		for j := range g {
			g[j] = c[j] + rng.NormFloat64()*scale
		}
		normalize(g)
		coords = append(coords, g...)
	}
	return coords
}

// gaussianDir fills v with a uniformly random unit direction.
func gaussianDir(rng *rand.Rand, v []float64) {
	for j := range v {
		v[j] = rng.NormFloat64()
	}
	normalize(v)
}

// normalize scales v to unit norm (no-op on the zero vector).
func normalize(v []float64) {
	var s float64
	for _, x := range v {
		s += x * x
	}
	if s == 0 {
		return
	}
	inv := 1 / math.Sqrt(s)
	for j := range v {
		v[j] *= inv
	}
}

// SeedSpreader reproduces the flavor of the synthetic generator of Gan &
// Tao (SIGMOD 2015) used for the paper's efficiency experiments
// (Section V-C): a spreader performs a random walk confined to a compact
// cluster region in [0, span]^d, emitting points in a small ball around its
// position; after a region's quota it teleports, starting a new dense
// region. The walk is reflected at the region boundary, so clusters stay
// dense and compact (a few ε at the paper's default ε = 5000) rather than
// stretching into long filaments. A noise fraction is scattered uniformly.
// Defaults follow the paper: coordinates in [0, 10^5].
type SeedSpreader struct {
	// N is the number of points; D the dimensionality.
	N, D int
	// Span is the domain extent per dimension (default 1e5).
	Span float64
	// Clusters is the approximate number of dense regions (default 10).
	Clusters int
	// ClusterRadius bounds each region's extent (default Span/50, keeping
	// clusters dense and compact as in the original generator).
	ClusterRadius float64
	// LocalRadius is the emission radius around the spreader (default
	// ClusterRadius/10).
	LocalRadius float64
	// StepSize is the random-walk step (default LocalRadius).
	StepSize float64
	// NoiseFrac is the uniform-noise fraction (default 1e-4).
	NoiseFrac float64
	// Seed drives the generator.
	Seed int64
}

// Generate materializes the dataset.
func (s SeedSpreader) Generate() *vec.Dataset {
	coords := make([]float64, 0, s.N*s.D)
	s.Stream(func(p []float64) error {
		coords = append(coords, p...)
		return nil
	})
	ds, _ := vec.NewDatasetUnchecked(coords, s.D)
	return ds
}

// Stream emits the dataset's points one at a time in generation order —
// exactly the points Generate materializes — without holding more than one
// point in memory. The emit buffer is reused between calls; a non-nil error
// from emit aborts the stream and is returned.
func (s SeedSpreader) Stream(emit func(point []float64) error) error {
	span := s.Span
	if span == 0 {
		span = 1e5
	}
	clusters := s.Clusters
	if clusters == 0 {
		clusters = 10
	}
	clusterR := s.ClusterRadius
	if clusterR == 0 {
		clusterR = span / 50
	}
	localR := s.LocalRadius
	if localR == 0 {
		localR = clusterR / 10
	}
	step := s.StepSize
	if step == 0 {
		step = localR
	}
	noiseFrac := s.NoiseFrac
	if noiseFrac == 0 {
		noiseFrac = 1e-4
	}
	rng := rand.New(rand.NewSource(s.Seed))

	noise := int(float64(s.N) * noiseFrac)
	clustered := s.N - noise
	perRegion := clustered / clusters
	if perRegion < 1 {
		perRegion = 1
	}

	point := make([]float64, s.D)
	center := make([]float64, s.D)
	pos := make([]float64, s.D)
	emitted := 0
	for emitted < clustered {
		// Teleport to a new region.
		for j := range center {
			center[j] = clusterR + rng.Float64()*(span-2*clusterR)
		}
		copy(pos, center)
		regionTarget := perRegion
		if clustered-emitted < 2*perRegion {
			regionTarget = clustered - emitted // absorb the remainder
		}
		for e := 0; e < regionTarget; e++ {
			// Emit a point near the spreader.
			for j := 0; j < s.D; j++ {
				point[j] = clamp(pos[j]+rng.NormFloat64()*localR, 0, span)
			}
			if err := emit(point); err != nil {
				return err
			}
			emitted++
			// Walk, reflected into the region box.
			for j := range pos {
				p := pos[j] + (rng.Float64()*2-1)*step
				if p < center[j]-clusterR {
					p = center[j] - clusterR
				}
				if p > center[j]+clusterR {
					p = center[j] + clusterR
				}
				pos[j] = p
			}
		}
	}
	for i := 0; i < noise; i++ {
		for j := 0; j < s.D; j++ {
			point[j] = rng.Float64() * span
		}
		if err := emit(point); err != nil {
			return err
		}
	}
	return nil
}

// Ring generates n points on a circle of radius r centered at the origin
// (Eq. 14 of the paper) with optional Gaussian jitter.
func Ring(n int, r, jitter float64, seed int64) *vec.Dataset {
	rng := rand.New(rand.NewSource(seed))
	coords := make([]float64, 0, n*2)
	for i := 0; i < n; i++ {
		theta := 2 * math.Pi * float64(i) / float64(n)
		coords = append(coords,
			r*math.Cos(theta)+rng.NormFloat64()*jitter,
			r*math.Sin(theta)+rng.NormFloat64()*jitter)
	}
	ds, _ := vec.NewDatasetUnchecked(coords, 2)
	return ds
}

// DimSet mimics the Fränti DIM032/DIM064 benchmarks: 16 well-separated
// Gaussian clusters in a d-dimensional hypercube, n points total, no noise.
func DimSet(n, d int, seed int64) *vec.Dataset {
	return Blobs(n, d, 16, 2, 1000, 0, seed)
}

// D31 mimics Veenman's D31 benchmark: 31 Gaussian clusters of equal size in
// 2D.
func D31(seed int64) *vec.Dataset {
	return Blobs(3100, 2, 31, 1.1, 100, 0, seed)
}

// UCIAnalog generates a stand-in for a real tabular dataset with the given
// cardinality, dimensionality and class count: anisotropic Gaussian
// clusters (random per-dimension scales) plus light uniform noise.
func UCIAnalog(n, d, k int, seed int64) *vec.Dataset {
	rng := rand.New(rand.NewSource(seed))
	span := 100.0
	centers := spreadCenters(rng, k, d, span, 25)
	// Per-cluster, per-dimension scales in [1, 4].
	scales := make([][]float64, k)
	for c := range scales {
		scales[c] = make([]float64, d)
		for j := range scales[c] {
			scales[c][j] = 1 + rng.Float64()*3
		}
	}
	noise := n / 50
	clustered := n - noise
	coords := make([]float64, 0, n*d)
	for i := 0; i < clustered; i++ {
		c := i % k
		for j := 0; j < d; j++ {
			coords = append(coords, clamp(centers[c][j]+rng.NormFloat64()*scales[c][j], 0, span))
		}
	}
	for i := 0; i < noise; i++ {
		for j := 0; j < d; j++ {
			coords = append(coords, rng.Float64()*span)
		}
	}
	ds, _ := vec.NewDatasetUnchecked(coords, d)
	return ds
}

// Uniform scatters n points uniformly in [0, span]^d — the all-noise
// stress case.
func Uniform(n, d int, span float64, seed int64) *vec.Dataset {
	coords := make([]float64, 0, n*d)
	UniformStream(n, d, span, seed, func(p []float64) error {
		coords = append(coords, p...)
		return nil
	})
	ds, _ := vec.NewDatasetUnchecked(coords, d)
	return ds
}

// UniformStream emits Uniform's points one at a time in generation order
// (reused emit buffer, error aborts) without materializing the dataset.
func UniformStream(n, d int, span float64, seed int64, emit func(point []float64) error) error {
	rng := rand.New(rand.NewSource(seed))
	point := make([]float64, d)
	for i := 0; i < n; i++ {
		for j := range point {
			point[j] = rng.Float64() * span
		}
		if err := emit(point); err != nil {
			return err
		}
	}
	return nil
}
