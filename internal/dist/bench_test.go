package dist

import (
	"fmt"
	"math/rand"
	"testing"
)

// Benchmarks compare the unrolled/fused kernels against the naive scalar
// loops the repository used before this package existed. Run with
//
//	go test -bench=. -benchtime=2s ./internal/dist
//
// and see internal/dist/README.md for recorded results.

var (
	sinkF float64
	sinkI int
	sinkS []int32
)

func benchMatrix(n, d int) (Matrix, []float64) {
	rng := rand.New(rand.NewSource(7))
	coords := make([]float64, n*d)
	for i := range coords {
		coords[i] = rng.Float64() * 100
	}
	q := make([]float64, d)
	for i := range q {
		q[i] = rng.Float64() * 100
	}
	return Matrix{Coords: coords, Dim: d}, q
}

var benchDims = []int{2, 8, 32, 128}

func BenchmarkSqDist(b *testing.B) {
	for _, d := range benchDims {
		m, q := benchMatrix(2, d)
		a := m.Row(0)
		b.Run(fmt.Sprintf("unrolled/d=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkF += SqDist(a, q)
			}
		})
		b.Run(fmt.Sprintf("naive/d=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkF += naiveSqDist(a, q)
			}
		})
	}
}

// BenchmarkSqDistsToAll measures the one-to-many path: the acceptance
// criterion is >= 1.3x throughput over the naive loop for d >= 8.
func BenchmarkSqDistsToAll(b *testing.B) {
	const n = 1024
	for _, d := range benchDims {
		m, q := benchMatrix(n, d)
		out := make([]float64, n)
		b.Run(fmt.Sprintf("kernel/d=%d", d), func(b *testing.B) {
			b.SetBytes(int64(n * d * 8))
			for i := 0; i < b.N; i++ {
				SqDistsToAll(m, q, out)
			}
		})
		b.Run(fmt.Sprintf("naive/d=%d", d), func(b *testing.B) {
			b.SetBytes(int64(n * d * 8))
			for i := 0; i < b.N; i++ {
				for j := 0; j < n; j++ {
					out[j] = naiveSqDist(m.Row(j), q)
				}
			}
		})
	}
}

func BenchmarkFilterWithin(b *testing.B) {
	const n = 1024
	for _, d := range benchDims {
		m, q := benchMatrix(n, d)
		// Radius chosen so roughly half the points pass.
		dists := make([]float64, n)
		SqDistsToAll(m, q, dists)
		eps2 := dists[0]
		for _, v := range dists {
			eps2 += v
		}
		eps2 /= float64(n)
		b.Run(fmt.Sprintf("fused/d=%d", d), func(b *testing.B) {
			b.SetBytes(int64(n * d * 8))
			var buf []int32
			for i := 0; i < b.N; i++ {
				buf = FilterWithin(m, q, eps2, buf[:0])
			}
			sinkS = buf
		})
		b.Run(fmt.Sprintf("naive/d=%d", d), func(b *testing.B) {
			b.SetBytes(int64(n * d * 8))
			var buf []int32
			for i := 0; i < b.N; i++ {
				buf = buf[:0]
				for j := 0; j < n; j++ {
					if naiveSqDist(m.Row(j), q) <= eps2 {
						buf = append(buf, int32(j))
					}
				}
			}
			sinkS = buf
		})
	}
}

func BenchmarkCountWithin(b *testing.B) {
	const n = 1024
	for _, d := range benchDims {
		m, q := benchMatrix(n, d)
		dists := make([]float64, n)
		SqDistsToAll(m, q, dists)
		var eps2 float64
		for _, v := range dists {
			eps2 += v
		}
		eps2 /= float64(n)
		b.Run(fmt.Sprintf("fused/d=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkI += CountWithin(m, q, eps2, 0)
			}
		})
	}
}

// BenchmarkFilterWithinPrecision compares float64 and float32 storage on the
// large-n batch range scan that motivates the mixed-precision layer: n is far
// past any cache level, d is the embedding-style width. The f32 path streams
// half the bytes and (on amd64) runs the AVX widening kernel; results are
// bit-identical to the f64 scan over the widened master, so the entire delta
// is bandwidth plus instruction count. BENCH_index.json records the same
// shape via benchall.
func BenchmarkFilterWithinPrecision(b *testing.B) {
	const n, d = 100_000, 32
	m, q := benchMatrix(n, d)
	m32 := Matrix{Coords: m.Coords, Coords32: make([]float32, len(m.Coords)), Dim: d}
	for i, v := range m.Coords {
		m32.Coords32[i] = float32(v)
		m.Coords[i] = float64(m32.Coords32[i]) // widened master: both scans see identical points
	}
	dists := make([]float64, n)
	SqDistsToAll(m, q, dists)
	var eps2 float64
	for _, v := range dists {
		eps2 += v
	}
	eps2 /= float64(n)
	b.Run("f64", func(b *testing.B) {
		b.SetBytes(int64(n * d * 8))
		var buf []int32
		for i := 0; i < b.N; i++ {
			buf = FilterWithin(m, q, eps2, buf[:0])
		}
		sinkS = buf
	})
	b.Run("f32", func(b *testing.B) {
		b.SetBytes(int64(n * d * 4))
		var buf []int32
		for i := 0; i < b.N; i++ {
			buf = FilterWithin(m32, q, eps2, buf[:0])
		}
		sinkS = buf
	})
}

// BenchmarkSqDistsToCached compares the cached-norms identity against the
// plain kernel on the id-subset path; the crossover motivating
// normCachedMinDim is visible in the d sweep.
func BenchmarkSqDistsToCached(b *testing.B) {
	const n = 1024
	for _, d := range benchDims {
		m, q := benchMatrix(n, d)
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32(i)
		}
		norms := NormsIDs(m, ids)
		qn := Norm2(q)
		out := make([]float64, n)
		b.Run(fmt.Sprintf("cached/d=%d", d), func(b *testing.B) {
			b.SetBytes(int64(n * d * 8))
			for i := 0; i < b.N; i++ {
				SqDistsToCached(m, q, qn, ids, norms, out)
			}
		})
		b.Run(fmt.Sprintf("plain/d=%d", d), func(b *testing.B) {
			b.SetBytes(int64(n * d * 8))
			for i := 0; i < b.N; i++ {
				SqDistsTo(m, q, ids, out)
			}
		})
	}
}
