// Command benchall regenerates the paper's evaluation tables and figures
// (Section V) against this repository's implementations.
//
// Usage:
//
//	benchall [-exp fig6a] [-full] [-seed 1] [-budget 30s] [-runtimeout 0]
//	         [-workers 0] [-precision f64|f32]
//	         [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	         [-json exp=path]... [-baseline dir] [-list]
//
// By default every experiment runs in quick mode (reduced cardinalities so
// the suite finishes in minutes). -full approaches the paper's scales and
// can run for hours. -exp selects a single experiment by id. -workers sets
// the query-engine worker count used by DBSVEC runs (0 = all CPUs).
// -precision switches dataset generation to float32 point storage (f32);
// the svdd and index experiments additionally measure both storage modes
// regardless of the flag.
// -json redirects one experiment's machine-readable report: it is
// repeatable, takes exp=path pairs (exp ∈ svdd, index, highdim, shard), and
// an empty path skips the report. Unredirected reports go to their default
// BENCH_<exp>.json. A report's rows are merged into the file by key (the
// experiment id and params), so rows of other runs, such as -full ones,
// stay.
// -budget skips runs predicted (from prior samples) to be too slow, while
// -runtimeout arms a hard in-flight wall-clock budget on each DBSVEC run:
// a run that trips it contributes its best-effort partial clustering.
// -cpuprofile and -memprofile write pprof profiles covering the whole
// harness run, for feeding into `go tool pprof`.
// -baseline points at a directory holding committed BENCH_*.json snapshots;
// every row of every report written by the run must have a committed row
// with the same params and exactly equal counts (wall clocks and heap are
// never compared).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"dbsvec/internal/experiments"
	"dbsvec/internal/vec"
)

// reportExps lists the experiments with machine-readable reports, in the
// order the baseline check walks them.
var reportExps = []string{"svdd", "index", "highdim", "shard"}

// jsonFlag accumulates repeatable -json exp=path overrides.
type jsonFlag map[string]string

func (j jsonFlag) String() string {
	var parts []string
	for k, v := range j {
		parts = append(parts, k+"="+v)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func (j jsonFlag) Set(v string) error {
	k, path, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want exp=path, got %q", v)
	}
	for _, e := range reportExps {
		if e == k {
			j[k] = path
			return nil
		}
	}
	return fmt.Errorf("unknown report experiment %q (have %v)", k, reportExps)
}

func main() {
	var (
		exp        = flag.String("exp", "", "run a single experiment id (default: all)")
		full       = flag.Bool("full", false, "use paper-scale cardinalities (slow)")
		seed       = flag.Int64("seed", 1, "random seed for data generation and algorithms")
		budget     = flag.Duration("budget", 0, "per-run time budget before an algorithm is dropped from a sweep (0 = default)")
		runTimeout = flag.Duration("runtimeout", 0, "hard wall-clock budget per DBSVEC run; tripped runs report their partial clustering (0 = off)")
		workers    = flag.Int("workers", 0, "query-engine worker goroutines for DBSVEC runs (0 = all CPUs)")
		precision  = flag.String("precision", "f64", "point-storage precision for experiment datasets: f64 | f32")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the harness run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile at harness exit to this file")
		baseline   = flag.String("baseline", "", "directory holding committed BENCH_*.json baselines; written rows must match their counts exactly")
		list       = flag.Bool("list", false, "list experiment ids and exit")
	)
	jsonOverrides := jsonFlag{}
	flag.Var(jsonOverrides, "json", "redirect one report: exp=path with exp in svdd|index|highdim|shard (repeatable, empty path = skip)")
	flag.Parse()

	// Report paths: the default BENCH_<exp>.json, then any -json overrides.
	reports := make(map[string]string, len(reportExps))
	for _, e := range reportExps {
		reports[e] = "BENCH_" + e + ".json"
	}
	for k, v := range jsonOverrides {
		reports[k] = v
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchall: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "benchall: start CPU profile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	prec, err := vec.ParsePrecision(*precision)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchall: %v\n", err)
		os.Exit(1)
	}

	cfg := experiments.Config{
		Quick: !*full, Seed: *seed, Budget: *budget, RunTimeout: *runTimeout,
		Workers: *workers, Precision: prec, Reports: reports,
	}
	start := time.Now()
	if *exp == "" {
		err = experiments.RunAll(os.Stdout, cfg)
	} else {
		var e experiments.Experiment
		e, err = experiments.ByID(*exp)
		if err == nil {
			err = e.Run(os.Stdout, cfg)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchall: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\ntotal harness time: %s\n", time.Since(start).Round(time.Millisecond))

	if *baseline != "" {
		// A single-experiment run writes at most its own report; the other
		// default report paths may still name files that exist (the committed
		// baselines themselves when running from the repo root), so restrict
		// the check to reports this run could actually have produced.
		if *exp != "" {
			for _, e := range reportExps {
				if e != *exp {
					reports[e] = ""
				}
			}
		}
		if err := checkBaselines(*baseline, reports); err != nil {
			fmt.Fprintf(os.Stderr, "benchall: %v\n", err)
			os.Exit(1)
		}
	}

	if *memprofile != "" {
		writeMemProfile(*memprofile)
	}
}

// checkBaselines gates each report the run actually wrote against its
// committed counterpart in dir. A report path that was skipped (empty) or
// not produced by the selected experiment is ignored, so `-exp index
// -baseline .` checks only the index report.
func checkBaselines(dir string, reports map[string]string) error {
	checked, rows := 0, 0
	for _, exp := range reportExps {
		report := reports[exp]
		if report == "" {
			continue
		}
		if _, err := os.Stat(report); err != nil {
			continue // experiment not selected this run
		}
		name := "BENCH_" + exp + ".json"
		basePath := filepath.Join(dir, name)
		if same, err := sameFile(report, basePath); err == nil && same {
			return fmt.Errorf("-baseline %s: report %s IS the baseline; write the report elsewhere (e.g. -json %s=/tmp/%s)", dir, report, exp, name)
		}
		n, err := experiments.CheckBaseline(report, basePath)
		if err != nil {
			return err
		}
		checked++
		rows += n
	}
	if checked == 0 {
		return fmt.Errorf("-baseline %s: no reports were written to check", dir)
	}
	fmt.Printf("baseline check: %d row(s) in %d report(s) match the counts in %s\n", rows, checked, dir)
	return nil
}

// sameFile reports whether two paths name the same underlying file, so the
// baseline check can refuse the degenerate self-comparison.
func sameFile(a, b string) (bool, error) {
	fa, err := os.Stat(a)
	if err != nil {
		return false, err
	}
	fb, err := os.Stat(b)
	if err != nil {
		return false, err
	}
	return os.SameFile(fa, fb), nil
}

func writeMemProfile(memprofile string) {
	f, err := os.Create(memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchall: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	runtime.GC() // materialize up-to-date allocation stats
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "benchall: write heap profile: %v\n", err)
		os.Exit(1)
	}
}
