package experiments

import (
	"fmt"
	"io"
	"math"

	"dbsvec/internal/core"
	"dbsvec/internal/data"
)

// Table2 validates the complexity claims of Table II and Section III-D
// empirically: it runs DBSVEC over growing cardinalities and reports every
// term of θ = s + 1 + k + m + MinPts·l together with θ/n, which must stay
// far below 1 and shrink as n grows for the O(θn) analysis to hold. Next to
// θ it reports the range queries and counting queries the run really
// issued, whose sum over n is the work θ/n models. It also reports the
// growth exponent of DBSVEC's wall time between consecutive sizes (≈1 for
// the claimed near-linear behaviour, vs ≈2 for DBSCAN).
func Table2(w io.Writer, cfg Config) error {
	header(w, "Table II / Section III-D: empirical validation of the O(θn) cost model")
	sizes := []int{25000, 50000, 100000, 200000}
	if cfg.Quick {
		sizes = []int{5000, 10000, 20000, 40000}
	}
	fmt.Fprintf(w, "%-10s %8s %8s %8s %8s %10s %10s %8s %8s %10s %10s %10s\n",
		"n", "s", "k", "m", "l", "theta", "theta/n", "queries", "counts", "real/n", "time", "exponent")
	var prevTime float64
	var prevN int
	for _, n := range sizes {
		ds := cfg.dataset(data.SeedSpreader{N: n, D: 8, Seed: cfg.Seed}.Generate())
		var st core.Stats
		run, err := timed(func() (*clusterResult, error) {
			res, s, err := core.Run(ds, core.Options{Eps: effEps, MinPts: effMinPts, Seed: cfg.Seed, Workers: cfg.Workers})
			st = s
			return res, err
		})
		if err != nil {
			return err
		}
		theta := st.Theta(effMinPts)
		expStr := "-"
		secs := run.elapsed.Seconds()
		if prevN > 0 && prevTime > 0 {
			exp := math.Log(secs/prevTime) / math.Log(float64(n)/float64(prevN))
			expStr = fmt.Sprintf("%.2f", exp)
		}
		fmt.Fprintf(w, "%-10d %8d %8d %8d %8d %10.0f %10.4f %8d %8d %10.4f %9.3fs %10s\n",
			n, st.Seeds, st.SupportVectors, st.Merges, st.NoiseList, theta, theta/float64(n),
			st.RangeQueries, st.RangeCounts, float64(st.RangeQueries+st.RangeCounts)/float64(n),
			secs, expStr)
		prevTime, prevN = secs, n
	}
	fmt.Fprintln(w, "(theta/n is the paper's modelled query share, real/n = (queries+counts)/n the share issued; both must be << 1)")
	return nil
}
