package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeFile writes a raw report document for the baseline tests.
func writeFile(t *testing.T, dir, name, body string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const baselineDoc = `{"rows": [
  {"exp":"svdd","params":{"section":"variant","precision":"f64","workers":1,"n":512},"counts":{"rounds":5,"smo_iterations":760},"measured":{"total_ns":1000}},
  {"exp":"svdd","params":{"section":"size","precision":"f64","workers":2,"n":1024},"counts":{"rounds":5,"smo_iterations":1775},"measured":{"total_ns":5000}},
  {"exp":"shard","params":{"section":"sharded","n":10000,"shards":2},"counts":{"ari_vs_single":0.9987654321},"measured":{"elapsed_ns":7}}
]}`

func TestCheckBaselineAccepts(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.json", baselineDoc)
	cases := []struct{ name, report string }{
		{"identical", baselineDoc},
		{"timing drift", `{"rows": [
  {"exp":"svdd","params":{"section":"variant","precision":"f64","workers":1,"n":512},"counts":{"rounds":5,"smo_iterations":760},"measured":{"total_ns":987654321}}
]}`},
		{"params in another key order", `{"rows": [
  {"exp":"svdd","params":{"n":1024,"workers":2,"precision":"f64","section":"size"},"counts":{"smo_iterations":1775,"rounds":5},"measured":{}},
  {"exp":"shard","params":{"shards":2,"n":10000,"section":"sharded"},"counts":{"ari_vs_single":0.9987654321},"measured":{}}
]}`},
	}
	for _, tc := range cases {
		report := writeFile(t, dir, "report.json", tc.report)
		n, err := CheckBaseline(report, base)
		if err != nil {
			t.Errorf("%s: unexpected mismatch: %v", tc.name, err)
		}
		if want := strings.Count(tc.report, `"exp"`); n != want {
			t.Errorf("%s: matched %d rows, want %d", tc.name, n, want)
		}
	}
}

func TestCheckBaselineRejects(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.json", baselineDoc)
	cases := []struct{ name, report, wantIn string }{
		{"changed counter", `{"rows": [
  {"exp":"svdd","params":{"section":"variant","precision":"f64","workers":1,"n":512},"counts":{"rounds":5,"smo_iterations":761},"measured":{}}
]}`, `"svdd n=512 precision=f64 section=variant workers=1": counter smo_iterations = 761`},
		{"changed ARI", `{"rows": [
  {"exp":"shard","params":{"section":"sharded","n":10000,"shards":2},"counts":{"ari_vs_single":1},"measured":{}}
]}`, "counter ari_vs_single = 1,"},
		{"dropped counter", `{"rows": [
  {"exp":"svdd","params":{"section":"variant","precision":"f64","workers":1,"n":512},"counts":{"rounds":5},"measured":{}}
]}`, "counter smo_iterations = (absent)"},
		{"row missing from baseline", `{"rows": [
  {"exp":"svdd","params":{"section":"variant","precision":"f64","workers":4,"n":512},"counts":{"rounds":5,"smo_iterations":760},"measured":{}}
]}`, "has no baseline row"},
		{"zero rows", `{"rows": []}`, "has no rows"},
		{"invalid report", `{"rows": [`, "not valid JSON"},
	}
	for _, tc := range cases {
		report := writeFile(t, dir, "report.json", tc.report)
		_, err := CheckBaseline(report, base)
		if err == nil {
			t.Errorf("%s: mismatch not detected", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantIn) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantIn)
		}
	}

	report := writeFile(t, dir, "report.json", baselineDoc)
	if _, err := CheckBaseline(report, writeFile(t, dir, "bad.json", "{")); err == nil || !strings.Contains(err.Error(), "not valid JSON") {
		t.Errorf("invalid baseline: err = %v", err)
	}
}

func TestWriteReportMerges(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	row := func(n int, iters float64) Row {
		return Row{
			Exp:      "x",
			Params:   map[string]any{"section": "size", "n": n},
			Counts:   map[string]float64{"smo_iterations": iters},
			Measured: map[string]float64{"total_ns": 1},
		}
	}
	quick := []Row{row(256, 1), row(512, 2)}
	if err := writeReport(path, quick); err != nil {
		t.Fatal(err)
	}
	// A rerun with the same keys replaces its rows in place.
	if err := writeReport(path, []Row{row(256, 10), row(512, 20)}); err != nil {
		t.Fatal(err)
	}
	// A run with other keys keeps both sets.
	if err := writeReport(path, []Row{row(1024, 30)}); err != nil {
		t.Fatal(err)
	}
	got, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []Row{row(256, 10), row(512, 20), row(1024, 30)}
	if len(got) != len(want) {
		t.Fatalf("report has %d rows, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i].Key() != want[i].Key() || got[i].Counts["smo_iterations"] != want[i].Counts["smo_iterations"] {
			t.Errorf("row %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	// The merged file gates a run of its own rows.
	if n, err := CheckBaseline(path, path); err != nil || n != 3 {
		t.Errorf("CheckBaseline against itself = %d, %v", n, err)
	}

	if err := writeReport(path, []Row{row(1, 1), row(1, 2)}); err == nil {
		t.Error("two rows with one key were written")
	}
}
