package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// pureGo returns f's result computed with the assembly dispatch switched
// off, so every kernel f calls runs the pure-Go reference loops.
func pureGo[T any](f func() T) T {
	saved := hasAVX
	hasAVX = false
	defer func() { hasAVX = saved }()
	return f()
}

// setAVX sets the assembly dispatch for the rest of t (it never turns AVX on
// where the CPU lacks it) and restores it when t ends.
func setAVX(t testing.TB, on bool) {
	saved := hasAVX
	hasAVX = on && saved
	t.Cleanup(func() { hasAVX = saved })
}

// sameBits reports whether two distance slices agree bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// awkwardMatrix is randMatrix with the values that stress a reordered
// kernel sprinkled in: −0, subnormals, large finite magnitudes and rows
// equal to q (distance exactly 0).
func awkwardMatrix(rng *rand.Rand, n, d int, q []float64) Matrix {
	m := randMatrix(rng, n, d)
	special := []float64{math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, -5e-324 * 7, 2.2e-308, 1e150, -3e149}
	for i := range m.Coords {
		if rng.Intn(8) == 0 {
			m.Coords[i] = special[rng.Intn(len(special))]
		}
	}
	for i := 0; i < n; i += 17 {
		copy(m.Row(i), q)
	}
	return m
}

// TestRangeKernelsMatchGoOracle is the differential test of the float64
// AVX range kernels: with the dispatch on, every contiguous-row kernel must
// equal the pure-Go loop bit for bit, across dims on both sides of every
// multiple of four, ranges whose ends sit off the four-row quads and the
// 64-row blocks, ranges on both sides of the 16-row leaf block, and count
// limits that stop inside a quad.
func TestRangeKernelsMatchGoOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, d := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 16, 32, 64} {
		const n = 203 // three full 64-row blocks plus a ragged one
		q := randVec(rng, d)
		m := awkwardMatrix(rng, n, d, q)

		all := make([]float64, n)
		SqDistsToAll(m, q, all)
		if want := pureGo(func() []float64 { o := make([]float64, n); SqDistsToAll(m, q, o); return o }); !sameBits(all, want) {
			t.Fatalf("d=%d: SqDistsToAll differs from the Go loop", d)
		}
		for i := range all {
			if math.Float64bits(all[i]) != math.Float64bits(SqDist(m.Row(i), q)) {
				t.Fatalf("d=%d: SqDistsToAll[%d] = %v, SqDist = %v", d, i, all[i], SqDist(m.Row(i), q))
			}
		}

		cur := make([]float64, n)
		for i := range cur {
			cur[i] = all[rng.Intn(n)]
		}
		want := pureGo(func() []float64 { c := append([]float64(nil), cur...); MinSqDistsToAll(m, q, c); return c })
		if MinSqDistsToAll(m, q, cur); !sameBits(cur, want) {
			t.Fatalf("d=%d: MinSqDistsToAll differs from the Go loop", d)
		}

		eps2 := all[n/3]
		for _, r := range [][2]int{{0, n}, {1, n}, {3, 70}, {5, 6}, {2, 5}, {63, 129}, {65, 67}, {7, 7}, {n - 3, n}, {61, 203}, {10, 26}, {10, 27}} {
			lo, hi := r[0], r[1]
			out := make([]float64, hi-lo)
			sqDistsRange(m.Coords, d, q, lo, hi, out)
			ref := pureGo(func() []float64 { o := make([]float64, hi-lo); sqDistsRange(m.Coords, d, q, lo, hi, o); return o })
			if !sameBits(out, ref) {
				t.Fatalf("d=%d [%d,%d): sqDistsRange differs from the Go loop", d, lo, hi)
			}
			got := FilterWithinRange(m, q, eps2, lo, hi, nil)
			if want := pureGo(func() []int32 { return FilterWithinRange(m, q, eps2, lo, hi, nil) }); !int32Equal(got, want) {
				t.Fatalf("d=%d [%d,%d): FilterWithinRange = %v, Go loop = %v", d, lo, hi, got, want)
			}
			// Every limit up to the full count stops at a different offset
			// within a quad; 0 counts exhaustively.
			for limit := 0; limit <= len(got)+1; limit++ {
				got := CountWithinRange(m, q, eps2, lo, hi, limit)
				if want := pureGo(func() int { return CountWithinRange(m, q, eps2, lo, hi, limit) }); got != want {
					t.Fatalf("d=%d [%d,%d) limit %d: CountWithinRange = %d, Go loop = %d", d, lo, hi, limit, got, want)
				}
			}
		}
		if got, want := FilterWithin(m, q, eps2, nil), pureGo(func() []int32 { return FilterWithin(m, q, eps2, nil) }); !int32Equal(got, want) {
			t.Fatalf("d=%d: FilterWithin differs from the Go loop", d)
		}
		if got, want := CountWithin(m, q, eps2, 0), pureGo(func() int { return CountWithin(m, q, eps2, 0) }); got != want {
			t.Fatalf("d=%d: CountWithin = %d, Go loop = %d", d, got, want)
		}
	}
}

// TestFusedScanMatchesPerRow is the differential test of the mask kernels
// behind FilterWithinRange and CountWithinRange at d % 4 == 0: with AVX on
// and off, at both storage precisions, every range starting off the
// four-row quads, of every length from 0 to one mask call plus nine rows,
// must return exactly the rows whose SqDist is <= eps2, and every count
// the limit-clamped number of them. The rows hold ±0 coordinates and
// copies of one row whose distance is eps2 exactly (they must be in); in
// float64 some rows overflow to +Inf, and a far query makes every distance
// +Inf, tested against eps2 = +Inf (all in) and MaxFloat64 (none).
func TestFusedScanMatchesPerRow(t *testing.T) {
	const n = maskRows + 16
	rng := rand.New(rand.NewSource(27))
	negZero := math.Copysign(0, -1)
	for _, d := range []int{4, 8, 12, 16, 32} {
		mirror, _ := randMatrix32(rng, n, d)
		for i, v := range mirror.Coords32 {
			switch rng.Intn(8) {
			case 0:
				v = 0
			case 1:
				v = float32(negZero)
			}
			mirror.Coords32[i], mirror.Coords[i] = v, float64(v)
		}
		q := mirror.Row(0)
		const exact = 40 // its copies sit at distance eps2 exactly
		for i := 1; i < n; i++ {
			if i < 4 || i%37 == 1 {
				copy(mirror.Coords32[i*d:(i+1)*d], mirror.Coords32[exact*d:(exact+1)*d])
				copy(mirror.Row(i), mirror.Row(exact))
			}
		}
		master := Matrix{Coords: append([]float64(nil), mirror.Coords...), Dim: d}
		for _, i := range []int{6, 133, n - 2} {
			master.Row(i)[d-1] = 1e200
		}
		far := make([]float64, d)
		far[0] = 1e300
		for _, s := range []struct {
			name string
			m    Matrix
		}{{"f64", master}, {"f32", mirror}} {
			for _, c := range []struct {
				q    []float64
				eps2 float64
			}{{q, SqDist(mirror.Row(exact), q)}, {far, math.Inf(1)}, {far, math.MaxFloat64}} {
				per := make([]float64, n)
				for i := range per {
					per[i] = SqDist(s.m.Row(i), c.q)
				}
				for _, avx := range []bool{true, false} {
					t.Run(fmt.Sprintf("d=%d/%s/eps2=%g/avx=%v", d, s.name, c.eps2, avx && hasAVX), func(t *testing.T) {
						setAVX(t, avx)
						checkFusedRanges(t, s.m, c.q, c.eps2, per)
					})
				}
			}
		}
	}
}

// checkFusedRanges runs the filter and count over rows [lo, lo+k) for lo
// off the quads and every k up to maskRows+9, against per-row distances.
func checkFusedRanges(t *testing.T, m Matrix, q []float64, eps2 float64, per []float64) {
	for _, lo := range []int{1, 2, 3, 5} {
		for hi := lo; hi <= lo+maskRows+9; hi++ {
			var want []int32
			for i := lo; i < hi; i++ {
				if per[i] <= eps2 {
					want = append(want, int32(i))
				}
			}
			if got := FilterWithinRange(m, q, eps2, lo, hi, nil); !int32Equal(got, want) {
				t.Fatalf("[%d,%d): FilterWithinRange = %v, per-row = %v", lo, hi, got, want)
			}
			total := len(want)
			for _, limit := range []int{0, 1, total, total + 1} {
				wantN := total
				if limit > 0 {
					wantN = min(total, limit)
				}
				if got := CountWithinRange(m, q, eps2, lo, hi, limit); got != wantN {
					t.Fatalf("[%d,%d) limit %d: CountWithinRange = %d, want %d", lo, hi, limit, got, wantN)
				}
			}
		}
	}
}

// TestScanKernelsDoNotAllocate pins the stack-resident 64-row block of the
// fused scans: with a pre-sized result buffer, no range kernel at either
// storage precision may touch the heap. An assembly declaration without
// //go:noescape makes the block escape and fails this test.
func TestScanKernelsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, d := range []int{2, 5, 8, 32} {
		const n = 300
		mirror, master := randMatrix32(rng, n, d)
		q := randVec(rng, d)
		out := make([]float64, n)
		buf := make([]int32, 0, n)
		eps2 := 1e9 // every row passes: the buffer is filled to its capacity
		for _, s := range []struct {
			name string
			m    Matrix
		}{{"f64", master}, {"f32", mirror}} {
			m := s.m
			kernels := map[string]func(){
				"FilterWithin":      func() { buf = FilterWithin(m, q, eps2, buf[:0]) },
				"FilterWithinRange": func() { buf = FilterWithinRange(m, q, eps2, 3, n-1, buf[:0]) },
				"CountWithin":       func() { sinkI += CountWithin(m, q, eps2, 0) },
				"CountWithinRange":  func() { sinkI += CountWithinRange(m, q, eps2, 3, n-1, 0) },
				"SqDistsToAll":      func() { SqDistsToAll(m, q, out) },
				"MinSqDistsToAll":   func() { MinSqDistsToAll(m, q, out) },
			}
			for name, run := range kernels {
				if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
					t.Errorf("d=%d %s: %s allocates %v times per call, want 0", d, s.name, name, allocs)
				}
			}
		}
	}
}

// FuzzSqDistsRange64 drives the range kernels with fuzzer-chosen bits —
// subnormals, −0 and large finite values included — and a fuzzer-chosen row
// range, at both storage precisions: the float64 rows as given, and their
// float32 mirror (values beyond the float32 range zeroed, as the vec layer
// never admits them) next to its widened master. The batch (AVX where the
// CPU has it) must equal the per-row SqDist of the master bit for bit, and
// the fused filter and count must agree with thresholding those per-row
// distances.
func FuzzSqDistsRange64(f *testing.F) {
	word := func(vs ...float64) []byte {
		b := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	negZero := math.Copysign(0, -1)
	f.Add(uint8(4), uint8(0), uint8(255), uint8(3), word(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20))
	f.Add(uint8(5), uint8(1), uint8(5), uint8(2), word(negZero, 0, 5e-324, -2.2e-308, 1e300,
		0, negZero, -5e-324, 2.2e-308, -1e300, 1, 2, 3, 4, 5, negZero, 4.9e-324, 1e-310, 7, 8,
		9, 10, 11, 12, 13, 1e200, -1e200, 3, 4, 5))
	f.Add(uint8(7), uint8(2), uint8(9), uint8(0), word(math.MaxFloat64, -math.MaxFloat64, 1, 2, 3, 4, 5,
		-math.MaxFloat64, math.MaxFloat64, 1, 2, 3, 4, 5, 0, 0, 0, 0, 0, 0, 0, 1e-320, 1e-320, 1, 1, 1, 1, 1))
	f.Fuzz(func(t *testing.T, dim, lo8, span8, limit8 uint8, raw []byte) {
		d := int(dim)%20 + 1
		vals := make([]float64, len(raw)/8)
		for i := range vals {
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0 // the vec layer admits finite coordinates only
			}
			vals[i] = v
		}
		if len(vals) < 2*d {
			return
		}
		q := vals[:d]
		n := (len(vals) - d) / d
		lo := int(lo8) % (n + 1)
		hi := lo + int(span8)%(n-lo+1)
		mirror := Matrix{Coords: make([]float64, n*d), Coords32: make([]float32, n*d), Dim: d}
		for i, v := range vals[d : d+n*d] {
			if math.Abs(v) > math.MaxFloat32 {
				v = 0
			}
			mirror.Coords32[i] = float32(v)
			mirror.Coords[i] = float64(mirror.Coords32[i])
		}
		checkRange64(t, Matrix{Coords: vals[d : d+n*d], Dim: d}, q, lo, hi, int(limit8)%8)
		checkRange64(t, mirror, q, lo, hi, int(limit8)%8)
	})
}

// checkRange64 is FuzzSqDistsRange64's property on one storage of rows.
func checkRange64(t *testing.T, m Matrix, q []float64, lo, hi, limit int) {
	d := m.Dim
	// The batch over rows [lo, hi) is SqDistsToAll on those rows alone.
	rows := Matrix{Coords: m.Coords[lo*d : hi*d], Dim: d}
	if m.Coords32 != nil {
		rows.Coords32 = m.Coords32[lo*d : hi*d]
	}
	out := make([]float64, hi-lo)
	SqDistsToAll(rows, q, out)
	for k := range out {
		if want := SqDist(m.Row(lo+k), q); math.Float64bits(out[k]) != math.Float64bits(want) {
			t.Fatalf("d=%d row %d: batch %v (%#x), SqDist %v (%#x)", d, lo+k, out[k], math.Float64bits(out[k]), want, math.Float64bits(want))
		}
	}
	eps2 := q[0] * q[0]
	var want []int32
	for k, v := range out {
		if v <= eps2 {
			want = append(want, int32(lo+k))
		}
	}
	if got := FilterWithinRange(m, q, eps2, lo, hi, nil); !int32Equal(got, want) {
		t.Fatalf("d=%d: FilterWithinRange = %v, per-row = %v", d, got, want)
	}
	wantCount := len(want)
	if limit > 0 && wantCount > limit {
		wantCount = limit
	}
	if got := CountWithinRange(m, q, eps2, lo, hi, limit); got != wantCount {
		t.Fatalf("d=%d limit %d: CountWithinRange = %d, per-row = %d", d, limit, got, wantCount)
	}
}

// BenchmarkRangeScan64 is the float64 linear scan of the default index at
// the shape the README's AVX table records: n=40k, d=8, one FilterWithin
// per op, the AVX kernel against the pure-Go loop. Queries run on
// GOMAXPROCS goroutines, so -cpu 1,2 gives the one- and two-worker rows.
func BenchmarkRangeScan64(b *testing.B) {
	const n, d = 40_000, 8
	m, q := benchMatrix(n, d)
	dists := make([]float64, n)
	SqDistsToAll(m, q, dists)
	eps2 := dists[n/100] // a selective radius, like an ε-query
	for _, avx := range []bool{true, false} {
		b.Run(fmt.Sprintf("avx=%v", avx && hasAVX), func(b *testing.B) {
			setAVX(b, avx)
			b.SetBytes(int64(n * d * 8))
			b.RunParallel(func(pb *testing.PB) {
				buf := make([]int32, 0, n)
				for pb.Next() {
					buf = FilterWithin(m, q, eps2, buf[:0])
				}
			})
		})
	}
}
