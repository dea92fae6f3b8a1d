package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"dbsvec/internal/vec"
)

// tinyCfg keeps experiment smoke tests fast.
func tinyCfg() Config {
	return Config{Quick: true, Seed: 1, Budget: 5 * time.Second}
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 14 {
		t.Fatalf("expected 14 experiments, got %d", len(all))
	}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		got, err := ByID(e.ID)
		if err != nil || got.ID != e.ID {
			t.Errorf("ByID(%s) = %+v, %v", e.ID, got, err)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("want error for unknown id")
	}
}

func TestFig1Smoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig1(&buf, tinyCfg()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"DBSCAN", "DBSVEC", "pair recall"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig8Smoke(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyCfg()
	if err := Fig8(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "nu*") {
		t.Errorf("fig8 output unexpected:\n%s", buf.String())
	}
}

func TestTable2Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("table2 runs several clusterings")
	}
	var buf bytes.Buffer
	if err := Table2(&buf, tinyCfg()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"theta/n", "queries", "real/n"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 output missing %q column:\n%s", want, out)
		}
	}
}

func TestIndexPerfSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("index bench builds several large structures")
	}
	var buf bytes.Buffer
	if err := IndexPerf(&buf, tinyCfg()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"kdtree", "rtree", "build_ns", "results", "scan"} {
		if !strings.Contains(out, want) {
			t.Errorf("index bench output missing %q:\n%s", want, out)
		}
	}
}

func TestHighdimSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("highdim bench builds several large structures")
	}
	var buf bytes.Buffer
	cfg := tinyCfg()
	cfg.Reports = map[string]string{"highdim": t.TempDir() + "/BENCH_highdim.json"}
	if err := Highdim(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"rproj", "linear", "max_cell", "ari_vs_linear"} {
		if !strings.Contains(out, want) {
			t.Errorf("highdim output missing %q:\n%s", want, out)
		}
	}
	rows, err := readReport(cfg.Reports["highdim"])
	if err != nil {
		t.Fatal(err)
	}
	// rproj is exact: every batch returns the linear oracle's result total
	// and the clustering agrees with the linear one perfectly.
	results := map[string]float64{}
	for _, r := range rows {
		switch r.Params["section"] {
		case "query":
			k := fmt.Sprint(r.Params["precision"], r.Params["dim"])
			if prev, ok := results[k]; ok && prev != r.Counts["results"] {
				t.Errorf("%s: results %v, linear %v", r.Key(), r.Counts["results"], prev)
			}
			results[k] = r.Counts["results"]
		case "ari":
			if r.Counts["ari_vs_linear"] != 1 {
				t.Errorf("%s: ARI vs linear = %v, want 1", r.Key(), r.Counts["ari_vs_linear"])
			}
		}
	}
	if len(results) != 8 {
		t.Errorf("query rows cover %d dim x precision cells, want 8", len(results))
	}
}

func TestSampleForMetrics(t *testing.T) {
	ids := sampleForMetrics(10, 20, 1)
	if len(ids) != 10 {
		t.Errorf("small n should return all ids, got %d", len(ids))
	}
	ids = sampleForMetrics(100, 20, 1)
	if len(ids) != 20 {
		t.Errorf("capped sample size = %d", len(ids))
	}
	seen := map[int32]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatal("duplicate id in sample")
		}
		if id < 0 || id >= 100 {
			t.Fatalf("id %d out of range", id)
		}
		seen[id] = true
	}
}

func TestSubResult(t *testing.T) {
	res := &clusterResult{Labels: []int32{5, 5, -1, 7}}
	sub := subResult(res, []int32{0, 3, 2})
	if sub.Labels[0] != 0 || sub.Labels[1] != 1 || sub.Labels[2] != -1 {
		t.Errorf("subResult labels = %v", sub.Labels)
	}
	if sub.Clusters != 2 {
		t.Errorf("subResult clusters = %d", sub.Clusters)
	}
}

func TestShardBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("shard bench runs several clusterings")
	}
	rows, err := runShardBenchPoint(tinyCfg(), 4000, []int{2}, vec.F64)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("expected single+sharded+outofcore rows, got %d", len(rows))
	}
	modes := []string{"single", "sharded", "outofcore"}
	for i, r := range rows {
		if r.Params["section"] != modes[i] {
			t.Errorf("row %d section = %v, want %q", i, r.Params["section"], modes[i])
		}
		if r.Measured["elapsed_ns"] <= 0 || r.Counts["clusters"] == 0 {
			t.Errorf("%s row not populated: %+v", modes[i], r)
		}
		if r.Counts["ari_vs_single"] < 0.99 {
			t.Errorf("%s ARI vs single = %v, want ~1", modes[i], r.Counts["ari_vs_single"])
		}
		if r.Counts["dataset_bytes"] != 4000*shardBenchDim*8 {
			t.Errorf("%s dataset bytes = %v", modes[i], r.Counts["dataset_bytes"])
		}
	}

	// A report of these rows passes the baseline check against itself and
	// fails it once a counter moves.
	dir := t.TempDir()
	path := dir + "/BENCH_shard.json"
	if err := writeReport(path, rows); err != nil {
		t.Fatal(err)
	}
	if n, err := CheckBaseline(path, path); err != nil || n != 3 {
		t.Errorf("report against itself: %d rows, %v", n, err)
	}
	rows[1].Counts["cross_merges"]++
	moved := dir + "/moved.json"
	if err := writeReport(moved, rows); err != nil {
		t.Fatal(err)
	}
	if _, err := CheckBaseline(moved, path); err == nil || !strings.Contains(err.Error(), "cross_merges") {
		t.Errorf("moved counter: err = %v", err)
	}
}
