package experiments

import (
	"bytes"
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
	if !strings.Contains(out, "theta/n") {
		t.Errorf("table2 output missing theta column:\n%s", out)
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
	for _, want := range []string{"kdtree", "rtree", "vptree", "speedup", "queries/s"} {
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
	if err := Highdim(&buf, tinyCfg()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"rproj", "linear", "speedup", "ARI vs linear", "1.0000"} {
		if !strings.Contains(out, want) {
			t.Errorf("highdim output missing %q:\n%s", want, out)
		}
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
	rep := &ShardReport{
		Seed: 1, Eps: shardBenchEps, MinPts: shardBenchMinPts, Dim: shardBenchDim,
		Ns: []int{4000}, Shards: []int{2},
	}
	if err := runShardBenchPoint(tinyCfg(), rep, 4000, vec.F64); err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) != 3 {
		t.Fatalf("expected single+sharded+outofcore entries, got %d", len(rep.Entries))
	}
	modes := []string{"single", "sharded", "outofcore"}
	for i, e := range rep.Entries {
		if e.Mode != modes[i] {
			t.Errorf("entry %d mode = %q, want %q", i, e.Mode, modes[i])
		}
		if e.ElapsedNs <= 0 || e.Clusters == 0 {
			t.Errorf("%s entry not populated: %+v", e.Mode, e)
		}
		if e.ARIVsSingle < 0.99 {
			t.Errorf("%s ARI vs single = %v, want ~1", e.Mode, e.ARIVsSingle)
		}
		if e.DatasetBytes != 4000*shardBenchDim*8 {
			t.Errorf("%s dataset bytes = %d", e.Mode, e.DatasetBytes)
		}
	}

	path := t.TempDir() + "/shard.json"
	if err := WriteShardJSON(path, rep); err != nil {
		t.Fatal(err)
	}
	if err := CheckBaseline(path, path); err != nil {
		t.Errorf("report does not match its own schema: %v", err)
	}
}
