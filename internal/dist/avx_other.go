//go:build !amd64

package dist

// hasAVX is false off amd64: every kernel takes the pure-Go loops, which
// define the reference semantics. It is a variable (never set to true here)
// so the tests that toggle it compile on every architecture.
var hasAVX = false

func sqDistGroups64AVX(a, q *float64, groups int) float64 {
	panic("dist: sqDistGroups64AVX called without amd64 support")
}

func sqDistsRows4x64AVX(a, q *float64, groups, stride, quads int, out *float64) {
	panic("dist: sqDistsRows4x64AVX called without amd64 support")
}

func sqDistGroups32AVX(a *float32, q *float64, groups int) float64 {
	panic("dist: sqDistGroups32AVX called without amd64 support")
}

func sqDistsRows4x32AVX(a *float32, q *float64, groups, quads int, out *float64) {
	panic("dist: sqDistsRows4x32AVX called without amd64 support")
}

func dotGroups32AVX(a *float32, q *float64, groups int) float64 {
	panic("dist: dotGroups32AVX called without amd64 support")
}

func dotsRows4x32AVX(a *float32, q *float64, groups, quads int, out *float64) {
	panic("dist: dotsRows4x32AVX called without amd64 support")
}
