package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dbsvec"
)

func writeInput(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "in.csv")
	var sb strings.Builder
	// Two tight clumps of 10 points each plus one outlier.
	for i := 0; i < 10; i++ {
		sb.WriteString("0.1,0.1\n")
		sb.WriteString("50.0,50.0\n")
	}
	sb.WriteString("500,500\n")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAllAlgorithms(t *testing.T) {
	in := writeInput(t)
	for _, algo := range []string{"dbsvec", "dbscan", "pdbscan", "rho", "lsh", "nq"} {
		out := filepath.Join(t.TempDir(), "out.csv")
		if err := run(algo, 5, 5, 0, 0, in, out, 0, "linear", "f64", 1, 0, false, budgetFlags{}, modelFlags{}, shardFlags{}); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) != 21 {
			t.Fatalf("%s: wrote %d lines, want 21", algo, len(lines))
		}
		// Outlier must be noise for the density algorithms.
		if !strings.HasSuffix(lines[20], ",-1") {
			t.Errorf("%s: outlier line %q not labeled noise", algo, lines[20])
		}
	}
}

// TestRunPrecisionF32 drives the -precision flag end to end: an f32-mode
// run must label this unambiguous input identically to the f64 run, and an
// unknown precision must error.
func TestRunPrecisionF32(t *testing.T) {
	in := writeInput(t)
	dir := t.TempDir()
	out64 := filepath.Join(dir, "out64.csv")
	out32 := filepath.Join(dir, "out32.csv")
	if err := run("dbsvec", 5, 5, 0, 0, in, out64, 0, "linear", "f64", 1, 0, false, budgetFlags{}, modelFlags{}, shardFlags{}); err != nil {
		t.Fatal(err)
	}
	if err := run("dbsvec", 5, 5, 0, 0, in, out32, 0, "linear", "f32", 1, 0, false, budgetFlags{}, modelFlags{}, shardFlags{}); err != nil {
		t.Fatal(err)
	}
	// The f32 run echoes quantized coordinates into the CSV, so only the
	// label column is expected to match.
	a, err := os.ReadFile(out64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out32)
	if err != nil {
		t.Fatal(err)
	}
	aLines := strings.Split(strings.TrimSpace(string(a)), "\n")
	bLines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(aLines) != len(bLines) {
		t.Fatalf("line counts differ: %d vs %d", len(aLines), len(bLines))
	}
	for i := range aLines {
		al := aLines[i][strings.LastIndexByte(aLines[i], ',')+1:]
		bl := bLines[i][strings.LastIndexByte(bLines[i], ',')+1:]
		if al != bl {
			t.Errorf("line %d: f32 label %q != f64 label %q", i, bl, al)
		}
	}
	if err := run("dbsvec", 5, 5, 0, 0, in, "", 0, "linear", "f16", 1, 0, false, budgetFlags{}, modelFlags{}, shardFlags{}); err == nil {
		t.Error("unknown precision should error")
	}
}

func TestRunKMeans(t *testing.T) {
	in := writeInput(t)
	out := filepath.Join(t.TempDir(), "out.csv")
	if err := run("kmeans", 0, 0, 2, 0, in, out, 0, "linear", "f64", 1, 0, false, budgetFlags{}, modelFlags{}, shardFlags{}); err != nil {
		t.Fatal(err)
	}
}

func TestRunIndexKinds(t *testing.T) {
	in := writeInput(t)
	for _, idx := range []string{"linear", "kdtree", "rtree", "grid", "parallel", "pyramid", "vptree", "rproj"} {
		out := filepath.Join(t.TempDir(), "out.csv")
		if err := run("dbscan", 5, 5, 0, 0, in, out, 0, idx, "f64", 1, 0, false, budgetFlags{}, modelFlags{}, shardFlags{}); err != nil {
			t.Fatalf("index %s: %v", idx, err)
		}
	}
}

func TestRunNormalize(t *testing.T) {
	in := writeInput(t)
	out := filepath.Join(t.TempDir(), "out.csv")
	// After normalization to [0,1000], eps must be rescaled accordingly;
	// eps=20 separates clumps at 0 and ~100 (of 1000).
	if err := run("dbsvec", 20, 5, 0, 0, in, out, 1000, "linear", "f64", 1, 0, true, budgetFlags{}, modelFlags{}, shardFlags{}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBudgetPartialOutput(t *testing.T) {
	in := writeInput(t)
	out := filepath.Join(t.TempDir(), "out.csv")
	// A tiny range-query budget trips mid-run; the CLI must still succeed
	// and write a full-length labeled file (best-effort partial clustering).
	if err := run("dbsvec", 5, 5, 0, 0, in, out, 0, "linear", "f64", 1, 0, true, budgetFlags{maxQueries: 1}, modelFlags{}, shardFlags{}); err != nil {
		t.Fatalf("budget trip must not fail the command: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(string(data)), "\n"); len(lines) != 21 {
		t.Fatalf("wrote %d lines, want 21", len(lines))
	}
}

func TestRunErrors(t *testing.T) {
	in := writeInput(t)
	if err := run("bogus", 5, 5, 0, 0, in, "", 0, "linear", "f64", 1, 0, false, budgetFlags{}, modelFlags{}, shardFlags{}); err == nil {
		t.Error("unknown algorithm should error")
	}
	if err := run("dbscan", 5, 5, 0, 0, in, "", 0, "bogus", "f64", 1, 0, false, budgetFlags{}, modelFlags{}, shardFlags{}); err == nil {
		t.Error("unknown index should error")
	}
	if err := run("dbscan", 5, 5, 0, 0, "/nonexistent/file.csv", "", 0, "linear", "f64", 1, 0, false, budgetFlags{}, modelFlags{}, shardFlags{}); err == nil {
		t.Error("missing input file should error")
	}
	if err := run("dbscan", -5, 5, 0, 0, in, "", 0, "linear", "f64", 1, 0, false, budgetFlags{}, modelFlags{}, shardFlags{}); err == nil {
		t.Error("invalid eps should error")
	}
}

// writeJitterInput writes two well-separated jittered clumps plus an
// outlier — unlike writeInput's coincident points, these give SVDD a
// non-degenerate kernel width, so the run retains usable snapshots.
func writeJitterInput(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "in.csv")
	var sb strings.Builder
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&sb, "%.3f,%.3f\n", 0.1*float64(i), 0.13*float64(i%5))
		fmt.Fprintf(&sb, "%.3f,%.3f\n", 50+0.1*float64(i), 50+0.13*float64(i%5))
	}
	sb.WriteString("500,500\n")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunSaveLoadAssign drives the model-artifact lifecycle through the CLI:
// cluster + -savemodel, then -loadmodel -assign on the same input must
// reproduce the clustering's labels, and -loadmodel without -assign must
// warm-restart a fresh run to the same labeling.
func TestRunSaveLoadAssign(t *testing.T) {
	in := writeJitterInput(t)
	dir := t.TempDir()
	clusterOut := filepath.Join(dir, "cluster.csv")
	modelPath := filepath.Join(dir, "model.bin")
	if err := run("dbsvec", 5, 5, 0, 0, in, clusterOut, 0, "linear", "f64", 1, 0, false,
		budgetFlags{}, modelFlags{save: modelPath}, shardFlags{}); err != nil {
		t.Fatalf("cluster+save: %v", err)
	}
	if fi, err := os.Stat(modelPath); err != nil || fi.Size() == 0 {
		t.Fatalf("model file not written: %v", err)
	}

	assignOut := filepath.Join(dir, "assign.csv")
	if err := run("dbsvec", 0, 0, 0, 0, in, assignOut, 0, "linear", "f64", 1, 0, false,
		budgetFlags{}, modelFlags{load: modelPath, assign: true}, shardFlags{}); err != nil {
		t.Fatalf("load+assign: %v", err)
	}
	want, err := os.ReadFile(clusterOut)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(assignOut)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	gotLines := strings.Split(strings.TrimSpace(string(got)), "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("assign wrote %d lines, clustering %d", len(gotLines), len(wantLines))
	}
	for i := range wantLines {
		// The tight clumps and the far outlier are unambiguous, so assign
		// must reproduce the clustering's labels exactly here.
		if wantLines[i] != gotLines[i] {
			t.Errorf("line %d: assign %q != cluster %q", i, gotLines[i], wantLines[i])
		}
	}

	warmOut := filepath.Join(dir, "warm.csv")
	if err := run("dbsvec", 5, 5, 0, 0, in, warmOut, 0, "linear", "f64", 1, 0, false,
		budgetFlags{}, modelFlags{load: modelPath}, shardFlags{}); err != nil {
		t.Fatalf("warm restart: %v", err)
	}
	warm, err := os.ReadFile(warmOut)
	if err != nil {
		t.Fatal(err)
	}
	if string(warm) != string(want) {
		t.Error("warm-restarted run labeled the input differently from the cold run")
	}
}

// TestRunStatsCounterLine: -stats prints the DBSVEC counter line on stderr
// with every θ-model and SVDD counter, SMO iterations included.
func TestRunStatsCounterLine(t *testing.T) {
	in := writeJitterInput(t)
	dir := t.TempDir()
	errPath := filepath.Join(dir, "stderr.txt")
	f, err := os.Create(errPath)
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = f
	err = run("dbsvec", 5, 5, 0, 0, in, filepath.Join(dir, "out.csv"), 0, "linear", "f64", 1, 0, true,
		budgetFlags{}, modelFlags{}, shardFlags{})
	os.Stderr = stderr
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(errPath)
	if err != nil {
		t.Fatal(err)
	}
	var counters map[string]string
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "seeds=") {
			counters = make(map[string]string)
			for _, kv := range strings.Fields(line) {
				k, v, _ := strings.Cut(kv, "=")
				counters[k] = v
			}
		}
	}
	if counters == nil {
		t.Fatalf("no counter line in -stats output:\n%s", out)
	}
	for _, k := range []string{"seeds", "supportVectors", "merges", "noiseList", "rangeQueries", "rangeCounts",
		"svddTrainings", "svddIterations", "degraded", "retainedModels", "warmRestarts"} {
		if _, ok := counters[k]; !ok {
			t.Errorf("counter line lacks %s=:\n%s", k, out)
		}
	}
	if n, err := strconv.Atoi(counters["svddIterations"]); err != nil || n <= 0 {
		t.Errorf("svddIterations=%q, want a positive count", counters["svddIterations"])
	}
}

// TestRunModelFlagErrors covers the flag-validation and decode failures.
func TestRunModelFlagErrors(t *testing.T) {
	in := writeInput(t)
	if err := run("dbsvec", 5, 5, 0, 0, in, "", 0, "linear", "f64", 1, 0, false,
		budgetFlags{}, modelFlags{assign: true}, shardFlags{}); err == nil {
		t.Error("-assign without -loadmodel should error")
	}
	if err := run("dbscan", 5, 5, 0, 0, in, "", 0, "linear", "f64", 1, 0, false,
		budgetFlags{}, modelFlags{save: filepath.Join(t.TempDir(), "m.bin")}, shardFlags{}); err == nil {
		t.Error("-savemodel with a non-dbsvec algorithm should error")
	}
	if err := run("dbsvec", 5, 5, 0, 0, in, "", 0, "linear", "f64", 1, 0, false,
		budgetFlags{}, modelFlags{load: "/nonexistent/model.bin", assign: true}, shardFlags{}); err == nil {
		t.Error("missing model file should error")
	}
	bogus := filepath.Join(t.TempDir(), "bogus.bin")
	if err := os.WriteFile(bogus, []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("dbsvec", 5, 5, 0, 0, in, "", 0, "linear", "f64", 1, 0, false,
		budgetFlags{}, modelFlags{load: bogus, assign: true}, shardFlags{}); err == nil {
		t.Error("corrupt model file should error")
	}
}

// writeShardInput writes line clusters spanning the full extent of axis 0 —
// the DBSCAN-exact regime the sharded merge is proven for, shaped so every
// slab cut slices every cluster (see internal/shard tests) — and returns the
// CSV path plus the rows themselves.
func writeShardInput(t *testing.T, nStrips, perStrip int, seed int64) (string, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, 0, nStrips*perStrip)
	var sb strings.Builder
	for s := 0; s < nStrips; s++ {
		for i := 0; i < perStrip; i++ {
			x := (float64(i)+0.5)*0.2 + (rng.Float64()-0.5)*0.1
			y := float64(s)*8 + rng.Float64()*0.5
			rows = append(rows, []float64{x, y})
			fmt.Fprintf(&sb, "%s,%s\n",
				strconv.FormatFloat(x, 'g', -1, 64), strconv.FormatFloat(y, 'g', -1, 64))
		}
	}
	path := filepath.Join(t.TempDir(), "in.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, rows
}

// TestRunSharded: -shards k must reproduce the single-shot CLI output byte
// for byte on unambiguous input.
func TestRunSharded(t *testing.T) {
	in, _ := writeShardInput(t, 4, 150, 11)
	dir := t.TempDir()
	single := filepath.Join(dir, "single.csv")
	if err := run("dbsvec", 3, 10, 0, 0, in, single, 0, "linear", "f64", 1, 0, false,
		budgetFlags{}, modelFlags{}, shardFlags{}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(single)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3} {
		out := filepath.Join(dir, fmt.Sprintf("sharded%d.csv", shards))
		if err := run("dbsvec", 3, 10, 0, 0, in, out, 0, "linear", "f64", 1, 0, true,
			budgetFlags{}, modelFlags{}, shardFlags{shards: shards, par: 2}); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("shards=%d output differs from single-shot run", shards)
		}
	}
}

// TestRunShardMem drives the out-of-core path end to end for both binary
// precisions: the streamed labeled CSV must equal WriteCSV of the in-memory
// sharded run, and -savemodel must produce a loadable artifact.
func TestRunShardMem(t *testing.T) {
	_, rows := writeShardInput(t, 4, 150, 12)
	for _, prec := range []dbsvec.Precision{dbsvec.PrecisionF64, dbsvec.PrecisionF32} {
		ds, err := dbsvec.NewDataset(rows)
		if err != nil {
			t.Fatal(err)
		}
		if ds, err = ds.ToPrecision(prec); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		bin := filepath.Join(dir, "in.bin")
		f, err := os.Create(bin)
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.WriteBinary(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}

		res, err := dbsvec.RunSharded(ds, dbsvec.Options{Eps: 3, MinPts: 10, Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := ds.WriteCSV(&want, res); err != nil {
			t.Fatal(err)
		}

		out := filepath.Join(dir, "out.csv")
		modelPath := filepath.Join(dir, "model.bin")
		if err := run("dbsvec", 3, 10, 0, 0, bin, out, 0, "linear", "f64", 1, 0, true,
			budgetFlags{}, modelFlags{save: modelPath}, shardFlags{shards: 3, mem: true}); err != nil {
			t.Fatalf("%v: %v", prec, err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want.String() {
			t.Fatalf("%v: streamed CSV differs from in-memory sharded run", prec)
		}
		mf, err := os.Open(modelPath)
		if err != nil {
			t.Fatal(err)
		}
		m, err := dbsvec.LoadModel(mf)
		mf.Close()
		if err != nil {
			t.Fatal(err)
		}
		if m.Precision() != prec || m.Clusters() != res.Clusters {
			t.Fatalf("%v: saved model precision=%v clusters=%d, want %v/%d",
				prec, m.Precision(), m.Clusters(), prec, res.Clusters)
		}
	}
}

// TestRunShardErrors covers the sharded-mode flag validation.
func TestRunShardErrors(t *testing.T) {
	in := writeInput(t)
	if err := run("dbscan", 5, 5, 0, 0, in, "", 0, "linear", "f64", 1, 0, false,
		budgetFlags{}, modelFlags{}, shardFlags{shards: 2}); err == nil {
		t.Error("-shards with a non-dbsvec algorithm should error")
	}
	if err := run("dbsvec", 5, 5, 0, 0, in, "", 0, "linear", "f64", 1, 0, false,
		budgetFlags{}, modelFlags{load: "m.bin"}, shardFlags{shards: 2}); err == nil {
		t.Error("-loadmodel in sharded mode should error")
	}
	if err := run("dbsvec", 5, 5, 0, 0, in, "", 0, "linear", "f64", 1, 0, false,
		budgetFlags{}, modelFlags{}, shardFlags{mem: true}); err == nil {
		t.Error("-shardmem without -shards should error")
	}
	if err := run("dbsvec", 5, 5, 0, 0, "", "", 0, "linear", "f64", 1, 0, false,
		budgetFlags{}, modelFlags{}, shardFlags{shards: 2, mem: true}); err == nil {
		t.Error("-shardmem without -in should error")
	}
	if err := run("dbsvec", 5, 5, 0, 0, in, "", 100, "linear", "f64", 1, 0, false,
		budgetFlags{}, modelFlags{}, shardFlags{shards: 2, mem: true}); err == nil {
		t.Error("-shardmem with -normalize should error")
	}
	if err := run("dbsvec", 5, 5, 0, 0, in, "", 0, "linear", "f32", 1, 0, false,
		budgetFlags{}, modelFlags{}, shardFlags{shards: 2, mem: true}); err == nil {
		t.Error("-shardmem with -precision f32 should error")
	}
	// A CSV file is not a binary dataset.
	if err := run("dbsvec", 5, 5, 0, 0, in, "", 0, "linear", "f64", 1, 0, false,
		budgetFlags{}, modelFlags{}, shardFlags{shards: 2, mem: true}); err == nil {
		t.Error("-shardmem on a CSV file should error")
	}
}

// TestRunAssignValidatesModelShape: -assign inputs that do not match the
// loaded model's dimensionality or storage precision are rejected up front
// with a typed ErrInvalidParams — before any assignment work, and with the
// mismatch spelled out — instead of producing garbage labels.
func TestRunAssignValidatesModelShape(t *testing.T) {
	in := writeInput(t)
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "m.bin")
	if err := run("dbsvec", 5, 5, 0, 0, in, filepath.Join(dir, "out.csv"), 0, "linear", "f64", 1, 0, false,
		budgetFlags{}, modelFlags{save: modelPath}, shardFlags{}); err != nil {
		t.Fatal(err)
	}

	// 3-d input against the 2-d model.
	in3 := filepath.Join(dir, "in3.csv")
	if err := os.WriteFile(in3, []byte("1,2,3\n4,5,6\n7,8,9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run("dbsvec", 5, 5, 0, 0, in3, filepath.Join(dir, "out3.csv"), 0, "linear", "f64", 1, 0, false,
		budgetFlags{}, modelFlags{load: modelPath, assign: true}, shardFlags{})
	if !errors.Is(err, dbsvec.ErrInvalidParams) {
		t.Fatalf("3-d assign against 2-d model: err = %v, want ErrInvalidParams", err)
	}
	if err == nil || !strings.Contains(err.Error(), "dimension") {
		t.Fatalf("dim mismatch error does not name the mismatch: %v", err)
	}

	// f32 input against the f64-trained model.
	err = run("dbsvec", 5, 5, 0, 0, in, filepath.Join(dir, "out32.csv"), 0, "linear", "f32", 1, 0, false,
		budgetFlags{}, modelFlags{load: modelPath, assign: true}, shardFlags{})
	if !errors.Is(err, dbsvec.ErrInvalidParams) {
		t.Fatalf("f32 assign against f64 model: err = %v, want ErrInvalidParams", err)
	}
	if err == nil || !strings.Contains(err.Error(), "precision") {
		t.Fatalf("precision mismatch error does not name the mismatch: %v", err)
	}
}
