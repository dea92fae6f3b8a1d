package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"dbsvec/internal/cluster"
	"dbsvec/internal/vec"
)

// tinyCfg keeps experiment smoke tests fast.
func tinyCfg() Config {
	return Config{Quick: true, Seed: 1, Budget: 5 * time.Second}
}

// collect runs an experiment body and returns every row it emitted.
func collect(t *testing.T, run func(Config, func(Row)) error, cfg Config) []Row {
	t.Helper()
	var rows []Row
	if err := run(cfg, func(r Row) { rows = append(rows, r) }); err != nil {
		t.Fatal(err)
	}
	return rows
}

// stopAfterFirst is the panic value firstRow's emit stops an experiment
// with.
type stopAfterFirst struct{}

// firstRow runs e until it emits its first row and returns that row: the
// emit panics with stopAfterFirst, which firstRow recovers, so every
// experiment of the registry can be checked without running it whole.
func firstRow(t *testing.T, e Experiment, cfg Config) (row Row) {
	t.Helper()
	defer func() {
		if v := recover(); v != nil {
			if _, ok := v.(stopAfterFirst); !ok {
				panic(v)
			}
		}
	}()
	err := e.Run(cfg, func(r Row) {
		row = r
		panic(stopAfterFirst{})
	})
	t.Fatalf("%s returned %v without emitting a row", e.ID, err)
	return row
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
	if testing.Short() {
		t.Skip("the first row of every experiment runs a clustering or benchmark")
	}
	for _, e := range all {
		r := firstRow(t, e, tinyCfg())
		if r.Exp != e.ID {
			t.Errorf("%s emitted a row with exp %q", e.ID, r.Exp)
		}
		if len(r.Params) == 0 || len(r.Counts)+len(r.Measured) == 0 {
			t.Errorf("%s emitted an empty row %+v", e.ID, r)
		}
	}
}

// Execute prints the banner and every row, and merges the rows into the
// report its config names.
func TestExecutePrintsAndWrites(t *testing.T) {
	path := t.TempDir() + "/BENCH_x.json"
	e := Experiment{ID: "x", Title: "banner title", Run: func(_ Config, emit func(Row)) error {
		for n := 1; n <= 3; n++ {
			emit(Row{Exp: "x", Params: map[string]any{"n": n}, Counts: map[string]float64{"clusters": 2},
				Measured: map[string]float64{"elapsed_ns": 1.5e6}})
		}
		return nil
	}}
	var buf bytes.Buffer
	if err := e.Execute(&buf, Config{Reports: map[string]string{"x": path}}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"=== banner title ===", "elapsed_ns", "1.500ms", "wrote 3 rows to " + path} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if c := strings.Count(out, "clusters"); c != 1 {
		t.Errorf("one column set printed %d headers:\n%s", c, out)
	}
	if n, err := CheckBaseline(path, path); err != nil || n != 3 {
		t.Errorf("report has %d rows, %v", n, err)
	}
}

func TestFig1Smoke(t *testing.T) {
	rows := collect(t, Fig1, tinyCfg())
	if len(rows) != 2 || rows[0].Params["algo"] != "DBSCAN" || rows[1].Params["algo"] != "DBSVEC" {
		t.Fatalf("fig1 rows = %+v", rows)
	}
	for _, r := range rows {
		if r.Counts["clusters"] == 0 || r.Params["n"] != 8000 || r.Measured["elapsed_ns"] <= 0 {
			t.Errorf("row not populated: %+v", r)
		}
	}
	if rows[0].Counts["recall"] != 1 {
		t.Errorf("DBSCAN recall against itself = %v", rows[0].Counts["recall"])
	}
	if rec := rows[1].Counts["recall"]; rec < 0.9 || rec > 1 {
		t.Errorf("DBSVEC pair recall = %v, want ~1 (paper: identical clusters)", rec)
	}
}

func TestFig8Smoke(t *testing.T) {
	rows := collect(t, Fig8, tinyCfg())
	if len(rows) != 5 {
		t.Fatalf("fig8 emitted %d rows, want one per nu multiple", len(rows))
	}
	prev := 0.0
	for _, r := range rows {
		nu := r.Counts["nu"]
		if !(nu > prev && nu <= 1) || r.Counts["clusters"] == 0 {
			t.Errorf("row %+v: nu %v after %v", r.Params, nu, prev)
		}
		prev = nu
	}
}

// Rows carry the precision the points were quantized to: data the process
// default already quantized stays F32 under the default -precision f64 and
// is labelled f32, not f64.
func TestMeasureLabelsDataPrecision(t *testing.T) {
	ds, err := vec.NewDataset([]float64{0.1, 0.2, 0.3, 0.4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	ds64, err := ds.ToPrecision(vec.F64)
	if err != nil {
		t.Fatal(err)
	}
	ds32, err := ds.ToPrecision(vec.F32)
	if err != nil {
		t.Fatal(err)
	}
	none := func(_ Config, ds *vec.Dataset, _ float64, _ int) (*cluster.Result, error) {
		return &cluster.Result{Labels: make([]int32, ds.Len())}, nil
	}
	for _, tc := range []struct {
		cfg  vec.Precision
		ds   *vec.Dataset
		want string
	}{
		{vec.F64, ds64, "f64"},
		{vec.F32, ds64, "f32"},
		{vec.F64, ds32, "f32"},
	} {
		cfg := tinyCfg()
		cfg.Precision = tc.cfg
		row, _, err := measure(cfg, "x", map[string]any{}, none, cfg.dataset(tc.ds), 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := row.Params["precision"]; got != tc.want {
			t.Errorf("-precision %v over %v data: row labelled %v, want %s", tc.cfg, tc.ds.Precision(), got, tc.want)
		}
	}
}

func TestTable2Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("table2 runs several clusterings")
	}
	rows := collect(t, Table2, tinyCfg())
	if len(rows) != 4 {
		t.Fatalf("table2 emitted %d rows, want 4 sizes", len(rows))
	}
	for _, r := range rows {
		c := r.Counts
		theta := c["seeds"] + 1 + c["support_vectors"] + c["merges"] + effMinPts*c["noise_list"]
		if c["theta"] != theta {
			t.Errorf("%s: theta %v, terms sum to %v", r.Key(), c["theta"], theta)
		}
		n := float64(r.Params["n"].(int))
		if !(c["theta"] < n) || c["range_queries"] == 0 || c["svdd_trainings"] == 0 || c["svdd_iterations"] == 0 {
			t.Errorf("%s: counts %v", r.Key(), c)
		}
	}
}

func TestIndexPerfSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("index bench builds several large structures")
	}
	e, err := ByID("index")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Execute(&buf, tinyCfg()); err != nil {
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
	e, err := ByID("highdim")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cfg := tinyCfg()
	cfg.Reports = map[string]string{"highdim": t.TempDir() + "/BENCH_highdim.json"}
	if err := e.Execute(&buf, cfg); err != nil {
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
	res := &cluster.Result{Labels: []int32{5, 5, -1, 7}}
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
	rows := collect(t, func(cfg Config, emit func(Row)) error {
		return runShardBenchPoint(cfg, 4000, []int{2}, vec.F64, emit)
	}, tinyCfg())
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
