//go:build !amd64

package dist

// hasAVX is false off amd64: every kernel takes the pure-Go loops, which
// define the reference semantics. It is a variable (never set to true here)
// so the tests that toggle it compile on every architecture, and the stubs
// below exist only so the dispatch code compiles.
var hasAVX = false

// hasExpAVX is false off amd64: ExpInPlace calls math.Exp per value.
var hasExpAVX = false

func sqDistGroups64AVX(a, q *float64, groups int) float64 { panic(noAVX) }

func sqDistGroups32AVX(a *float32, q *float64, groups int) float64 { panic(noAVX) }

func sqDistsRows4x64AVX(a, q *float64, groups, stride, quads int, out *float64) { panic(noAVX) }

func sqDistsRows4x32AVX(a *float32, q *float64, groups, stride, quads int, out *float64) {
	panic(noAVX)
}

func sqDistsMask4x64AVX(a, q *float64, groups, stride, quads int, eps2 float64, mask *uint8) {
	panic(noAVX)
}

func sqDistsMask4x32AVX(a *float32, q *float64, groups, stride, quads int, eps2 float64, mask *uint8) {
	panic(noAVX)
}

func dotGroups64AVX(a, q *float64, groups int) float64 { panic(noAVX) }

func dotGroups32AVX(a *float32, q *float64, groups int) float64 { panic(noAVX) }

func dotsRows4x64AVX(a, q *float64, groups, stride, quads int, out *float64) { panic(noAVX) }

func dotsRows4x32AVX(a *float32, q *float64, groups, stride, quads int, out *float64) { panic(noAVX) }

func cpuHasAVX2FMA() bool { return false }

func expQuadsAVX(x *float64, quads int) int { panic(noAVX) }

const noAVX = "dist: AVX kernel called without amd64 support"
