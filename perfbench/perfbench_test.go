package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"dbsvec"
)

// tinyCluster is a cluster workload small enough for a unit test. At ε=5000
// every SeedSpreader region is one cluster, and 12000 points are enough for
// the generator to scatter a noise point.
func tinyCluster(kind dbsvec.IndexKind) clusterSpec {
	return clusterSpec{N: 12000, D: 8, Eps: 5000, MinPts: 20, Datasets: 2, Index: kind,
		MinARI: 0.9, IngestsPerCall: 2, serve: tinyServe()}
}

func tinyServe() serveSpec {
	return serveSpec{TrainN: 3000, D: 8, Eps: 5000, MinPts: 20, Queries: 512,
		Ladder: []float64{200, 400}, DesignRate: 200, DesignShare: 0.6,
		Warmup: 50 * time.Millisecond, BatchSize: 64, BatchEvery: 100 * time.Millisecond,
		SwapEvery: 200 * time.Millisecond, Limit: 10 * time.Millisecond,
		Duration: 600 * time.Millisecond, SetupReps: 2, Conns: 2}
}

// runTiny runs one workload at test size and returns its report.
func runTiny(t *testing.T, workload string, seed int64, trace bool) *report {
	t.Helper()
	cfg := runConfig{seed: seed, duration: time.Millisecond, trace: trace}
	if trace {
		cfg.spans = newSpanLog()
	}
	rep := newReport()
	var err error
	switch workload {
	case "cluster-default":
		err = runCluster(cfg, tinyCluster(dbsvec.IndexLinear), rep)
	case "cluster-kdtree":
		err = runCluster(cfg, tinyCluster(dbsvec.IndexKDTree), rep)
	case "serve":
		err = runServe(cfg, tinyServe(), rep)
	}
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", workload, seed, trace, err)
	}
	if rep.failed != 0 || rep.attempted == 0 {
		t.Fatalf("%s seed %d trace %v: %d of %d operations failed: %v", workload, seed, trace, rep.failed, rep.attempted, rep.problems)
	}
	return rep
}

// resultLine prints rep and decodes the result line.
func resultLine(t *testing.T, workload string, rep *report, names []string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := printResult(&out, &errOut, workload, rep, names); code != 0 {
		t.Fatalf("%s: exit code %d: %s", workload, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	return res
}

func TestEveryMetricHasItsUnit(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			names := endToEnd
			if trace {
				names = perLayer
			}
			res := resultLine(t, name, runTiny(t, name, 1, trace), names)
			if !res.Correct || len(res.Metrics) != len(names) {
				t.Fatalf("%s trace %v: correct %v with %d metrics, want %d", name, trace, res.Correct, len(res.Metrics), len(names))
			}
			for _, n := range names {
				if m, ok := res.Metrics[n]; !ok || m.Unit == "" {
					t.Errorf("%s trace %v: metric %s missing or without unit", name, trace, n)
				}
			}
		}
	}
}

func TestSeedsPassAndReportTheSameMetrics(t *testing.T) {
	for name := range workloads {
		a, b := runTiny(t, name, 1, false), runTiny(t, name, 2, false)
		if !slices.Equal(a.order, b.order) {
			t.Errorf("%s: seed 1 reports %v, seed 2 reports %v", name, a.order, b.order)
		}
	}
}

func TestCorruptLabelsFailTheClusterCheck(t *testing.T) {
	s := tinyCluster(dbsvec.IndexLinear)
	fam, err := newFamily(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fam.ingest(s.D); err != nil {
		t.Fatal(err)
	}
	res, err := dbsvec.Cluster(fam.pub[0], s.options())
	if err != nil {
		t.Fatal(err)
	}
	ref := fam.ref[0]
	if _, err := checkClustering(ref, res.Labels, res.Clusters); err != nil {
		t.Fatalf("uncorrupted labels fail the check: %v", err)
	}
	noise := slices.Index(res.Labels, dbsvec.Noise)
	clustered := slices.IndexFunc(res.Labels, func(l int32) bool { return l >= 0 })
	if noise < 0 || clustered < 0 || res.Clusters < 2 {
		t.Fatalf("test data needs noise and two clusters: %d clusters, noise at %d", res.Clusters, noise)
	}
	corruptions := map[string]func([]int32) []int32{
		"label out of range":          func(l []int32) []int32 { l[clustered] = int32(res.Clusters); return l },
		"noise made a cluster member": func(l []int32) []int32 { l[noise] = 0; return l },
		"clustered point made noise":  func(l []int32) []int32 { l[clustered] = dbsvec.Noise; return l },
		"truncated":                   func(l []int32) []int32 { return l[:len(l)-1] },
		"empty cluster": func(l []int32) []int32 {
			for i := range l {
				if l[i] == 1 {
					l[i] = 0
				}
			}
			return l
		},
	}
	for what, corrupt := range corruptions {
		if _, err := checkClustering(ref, corrupt(slices.Clone(res.Labels)), res.Clusters); err == nil {
			t.Errorf("%s: check passed", what)
		}
	}
	// Merging two clusters keeps the invariants but must show in the ARI.
	merged := slices.Clone(res.Labels)
	for i, l := range merged {
		if l >= 1 {
			merged[i] = l - 1
		}
	}
	ari, err := checkClustering(ref, merged, res.Clusters-1)
	if err != nil {
		t.Fatalf("merged labels: %v", err)
	}
	if ari >= 0.99 {
		t.Errorf("merging two clusters leaves ARI %.4f", ari)
	}
}

func TestWrongServedLabelFailsTheServeCheck(t *testing.T) {
	exp := expected{assign: []int32{0, 1, -1, 1}, nearest: []int32{0, -1, -1, 1}}
	reply := func(labels []int32, degraded bool) []byte {
		b, _ := json.Marshal(assignReply{Labels: labels, Degraded: degraded})
		return b
	}
	cases := []struct {
		name string
		r    request
		ok   bool
	}{
		{"right single", request{kind: kindSingle, item: 1, status: http.StatusOK, body: reply([]int32{1}, false)}, true},
		{"wrong single", request{kind: kindSingle, item: 1, status: http.StatusOK, body: reply([]int32{0}, false)}, false},
		{"degraded single", request{kind: kindSingle, item: 1, status: http.StatusOK, body: reply([]int32{-1}, true)}, true},
		{"right batch", request{kind: kindBatch, item: 1, status: http.StatusOK, body: reply([]int32{-1, 1}, false)}, true},
		{"wrong batch", request{kind: kindBatch, item: 1, status: http.StatusOK, body: reply([]int32{1, 1}, false)}, false},
		{"short batch", request{kind: kindBatch, item: 0, status: http.StatusOK, body: reply([]int32{0}, false)}, false},
		{"shed", request{kind: kindSingle, status: http.StatusTooManyRequests, body: []byte("{}")}, false},
		{"swap", request{kind: kindSwap, status: http.StatusOK}, true},
	}
	for _, c := range cases {
		if _, err := exp.check(&c.r, 2, len(exp.assign)); (err == nil) != c.ok {
			t.Errorf("%s: check error %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// The traced path must be the untraced one: same labels, same core counts,
// the timing index seeing every query core counts, and layers that add up
// to the call.
func TestTracedRunRepeatsTheUntracedRun(t *testing.T) {
	for _, kind := range []dbsvec.IndexKind{dbsvec.IndexLinear, dbsvec.IndexKDTree} {
		s := tinyCluster(kind)
		fam, err := newFamily(s, 3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fam.ingest(s.D); err != nil {
			t.Fatal(err)
		}
		for k := range fam.raw {
			want, err := dbsvec.Cluster(fam.pub[k], s.options())
			if err != nil {
				t.Fatal(err)
			}
			res, st, tr, wall, err := tracedCall(s, fam.raw[k], newSpanLog())
			if err != nil {
				t.Fatal(err)
			}
			if err := sameRun(res, st, tr, want); err != nil {
				t.Errorf("index %d dataset %d: %v", kind, k, err)
			}
			var sums layerSums
			sums.add(tr, st, wall, s.MinPts, true)
			var total time.Duration
			for _, d := range sums.times {
				total += d
			}
			if total != wall {
				t.Errorf("index %d dataset %d: layers add up to %v of a %v call", kind, k, total, wall)
			}
		}
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "serve", "-seconds", "0"},
		{"-workload", "serve", "-trace", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
