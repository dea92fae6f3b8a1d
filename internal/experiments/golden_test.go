package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"strings"
	"testing"

	"dbsvec/internal/cluster"
	"dbsvec/internal/core"
	"dbsvec/internal/data"
	"dbsvec/internal/dbscan"
	"dbsvec/internal/index/backend"
	"dbsvec/internal/lsh"
	"dbsvec/internal/lshdbscan"
	"dbsvec/internal/nqdbscan"
	"dbsvec/internal/rhodbscan"
	"dbsvec/internal/vec"
)

// TestBaselineLabelsGolden pins the labels of the paper's DBSCAN baselines
// over the whole open suite: one SHA-256 per algorithm over every label of
// every entry (built with seed 1 at the entry's Eps and MinPts), written as
// little-endian int32 in suite order. A digest change means a baseline's
// output changed, which shifts every accuracy column it feeds.
func TestBaselineLabelsGolden(t *testing.T) {
	if vec.DefaultPrecision() != vec.F64 {
		t.Skip("golden labels are pinned for float64 storage")
	}
	build, err := backend.KDTree.Builder(1)
	if err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		name string
		want string
		run  func(ds *vec.Dataset, e data.SuiteEntry) (*cluster.Result, error)
	}{
		{"dbscan", "f06e1ecfc2cb922b", func(ds *vec.Dataset, e data.SuiteEntry) (*cluster.Result, error) {
			res, _, err := dbscan.Run(ds, dbscan.Params{Eps: e.Eps, MinPts: e.MinPts}, build)
			return res, err
		}},
		{"nqdbscan", "f06e1ecfc2cb922b", func(ds *vec.Dataset, e data.SuiteEntry) (*cluster.Result, error) {
			res, _, err := nqdbscan.Run(ds, nqdbscan.Params{Eps: e.Eps, MinPts: e.MinPts})
			return res, err
		}},
		{"rhodbscan", "6b900e9634e116be", func(ds *vec.Dataset, e data.SuiteEntry) (*cluster.Result, error) {
			res, _, err := rhodbscan.Run(ds, rhodbscan.Params{Eps: e.Eps, MinPts: e.MinPts, Rho: 0.001})
			return res, err
		}},
		{"lshdbscan", "79a69a6ba1be9e03", func(ds *vec.Dataset, e data.SuiteEntry) (*cluster.Result, error) {
			res, _, err := lshdbscan.Run(ds, lshdbscan.Params{Eps: e.Eps, MinPts: e.MinPts, Hash: lsh.Params{Seed: 1}})
			return res, err
		}},
	}
	digests := make([]hash.Hash, len(runs))
	for i := range digests {
		digests[i] = sha256.New()
	}
	for _, e := range data.OpenSuite() {
		ds := e.Gen(1)
		for i, r := range runs {
			res, err := r.run(ds, e)
			if err != nil {
				t.Fatalf("%s on %s: %v", r.name, e.Name, err)
			}
			for _, l := range res.Labels {
				digests[i].Write(binary.LittleEndian.AppendUint32(nil, uint32(l)))
			}
		}
	}
	for i, r := range runs {
		if got := hex.EncodeToString(digests[i].Sum(nil)[:8]); got != r.want {
			t.Errorf("%s: labels digest %s, want %s", r.name, got, r.want)
		}
	}
}

// TestDBSVECGolden pins DBSVEC's output over the whole open suite: one
// SHA-256 over every label of every entry (little-endian uint32, suite
// order) and one over the run counters (Seeds, SupportVectors, Merges,
// NoiseList, RangeQueries, RangeCounts, SVDDTrainings, SVDDIterations and
// Degraded, little-endian uint64 each, per entry). Every backend and worker
// count gives the same digests, so two configurations stand in for all of
// them. The digests differ per storage precision: float32 storage rounds
// the coordinates once, which moves borderline neighbourhoods. They differ
// per math.Exp branch too: amd64's FMA branch and its non-FMA branch (a CPU
// without FMA, or GODEBUG=cpu.fma=off) round some SVDD kernel values one
// ulp apart, which moves the solver's iterations. On a mismatch the test
// logs every entry's own label digest and counters, so a re-pin can name
// the datasets and counters that moved.
func TestDBSVECGolden(t *testing.T) {
	type key struct {
		prec vec.Precision
		fma  bool
	}
	want := map[key][2]string{
		{vec.F64, true}:  {"f1c7b13e7ea79105", "11dcfc9284a22250"},
		{vec.F32, true}:  {"55a6b56271fb9e1c", "5df98fd6d775a4d1"},
		{vec.F64, false}: {"55a6b56271fb9e1c", "7127b6009bb23995"},
		{vec.F32, false}: {"f1c7b13e7ea79105", "fc579c3e57da1ad5"},
	}[key{vec.DefaultPrecision(), expFMABranch()}]
	for _, c := range []struct {
		kind    backend.Kind
		workers int
	}{{backend.Linear, 2}, {backend.KDTree, 1}} {
		build, err := c.kind.Builder(c.workers)
		if err != nil {
			t.Fatal(err)
		}
		labels, counters := sha256.New(), sha256.New()
		var entries []string
		for _, e := range data.OpenSuite() {
			res, st, err := core.Run(e.Gen(1), core.Options{
				Eps: e.Eps, MinPts: e.MinPts, IndexBuilderCtx: build, Workers: c.workers,
			})
			if err != nil {
				t.Fatalf("%s/%d on %s: %v", c.kind, c.workers, e.Name, err)
			}
			entry := sha256.New()
			for _, l := range res.Labels {
				b := binary.LittleEndian.AppendUint32(nil, uint32(l))
				labels.Write(b)
				entry.Write(b)
			}
			vals := []int64{
				int64(st.Seeds), st.SupportVectors, int64(st.Merges), int64(st.NoiseList),
				st.RangeQueries, st.RangeCounts, int64(st.SVDDTrainings), st.SVDDIterations,
				int64(st.Degraded),
			}
			for _, v := range vals {
				counters.Write(binary.LittleEndian.AppendUint64(nil, uint64(v)))
			}
			entries = append(entries, fmt.Sprintf("%s: labels %s, seeds=%d svs=%d merges=%d noise=%d range_queries=%d range_counts=%d trainings=%d iterations=%d degraded=%d",
				e.Name, hex.EncodeToString(entry.Sum(nil)[:8]),
				vals[0], vals[1], vals[2], vals[3], vals[4], vals[5], vals[6], vals[7], vals[8]))
		}
		got := [2]string{hex.EncodeToString(labels.Sum(nil)[:8]), hex.EncodeToString(counters.Sum(nil)[:8])}
		if got != want {
			t.Errorf("%s/%d: labels, counters digests = %v, want %v; per entry:\n%s", c.kind, c.workers, got, want, strings.Join(entries, "\n"))
		}
	}
}

// expFMABranch reports whether math.Exp takes amd64's FMA branch, from a
// probe argument on which the two branches differ in the last bit.
func expFMABranch() bool {
	return math.Float64bits(math.Exp(math.Float64frombits(0xbfca9e7e1c3efd70))) == 0x3fe9fddaa93bfd21
}

// TestDBSVECGoldenBenchmarkScale pins DBSVEC at the scale perfbench's
// cluster-default and cluster-kdtree workloads run it: SeedSpreader
// n=40000, d=8, seed 64 (their first dataset), ε=2000, MinPts 100, on the
// linear index, whose zone map prunes most rows there, and on the kd-tree,
// each built and queried on 1 and 2 workers. Every case must give the same
// two digests, one SHA-256 over the labels and one over the nine run
// counters, as TestDBSVECGolden hashes an entry, picked by storage
// precision and math.Exp branch; a mismatch logs the counters.
func TestDBSVECGoldenBenchmarkScale(t *testing.T) {
	type key struct {
		prec vec.Precision
		fma  bool
	}
	want := map[key][2]string{
		{vec.F64, true}:  {"50d486e1016324f3", "fe0c38ec73652923"},
		{vec.F32, true}:  {"50d486e1016324f3", "5f5cd497a480c965"},
		{vec.F64, false}: {"50d486e1016324f3", "d9d03111447471f9"},
		{vec.F32, false}: {"50d486e1016324f3", "97b70787f116d84e"},
	}[key{vec.DefaultPrecision(), expFMABranch()}]
	ds := data.SeedSpreader{N: 40000, D: 8, Seed: 64}.Generate()
	for _, kind := range []backend.Kind{backend.Linear, backend.KDTree} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%v/workers=%d", kind, workers), func(t *testing.T) {
				build, err := kind.Builder(workers)
				if err != nil {
					t.Fatal(err)
				}
				res, st, err := core.Run(ds, core.Options{Eps: 2000, MinPts: 100, IndexBuilderCtx: build, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				checkScaleDigests(t, res, st, want)
			})
		}
	}
}

// checkScaleDigests fails t unless the labels and counters of a run hash
// to want.
func checkScaleDigests(t *testing.T, res *cluster.Result, st core.Stats, want [2]string) {
	t.Helper()
	labels, counters := sha256.New(), sha256.New()
	for _, l := range res.Labels {
		labels.Write(binary.LittleEndian.AppendUint32(nil, uint32(l)))
	}
	vals := []int64{
		int64(st.Seeds), st.SupportVectors, int64(st.Merges), int64(st.NoiseList),
		st.RangeQueries, st.RangeCounts, int64(st.SVDDTrainings), st.SVDDIterations,
		int64(st.Degraded),
	}
	for _, v := range vals {
		counters.Write(binary.LittleEndian.AppendUint64(nil, uint64(v)))
	}
	got := [2]string{hex.EncodeToString(labels.Sum(nil)[:8]), hex.EncodeToString(counters.Sum(nil)[:8])}
	if got != want {
		t.Errorf("labels, counters digests = %v, want %v; %d clusters, seeds=%d svs=%d merges=%d noise=%d range_queries=%d range_counts=%d trainings=%d iterations=%d degraded=%d",
			got, want, res.Clusters, vals[0], vals[1], vals[2], vals[3], vals[4], vals[5], vals[6], vals[7], vals[8])
	}
}
