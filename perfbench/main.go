// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed time, checks every output it produced against a
// reference, prints every metric by name and unit, and ends with a one-line
// JSON result. With -trace 1 it runs the traced variant of the workload and
// reports per-layer metrics instead of end-to-end ones. README.md describes
// the workloads, the metrics and the sizing probes behind them.
//
//	bash perfbench/run.sh --workload cluster-default --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// endToEnd and perLayer are the metrics of the result line, by name, in the
// order BENCHMARK.json lists them. Every workload reports every one of them.
// index.count_s and index.batch_count_s are printed but left out of the
// result line: the serve workload's training issues no counting queries, so
// on it they would be a time that always reads 0.
var endToEnd = []string{"setup_s", "op_p50_ms", "ari", "peak_heap_mb"}

var perLayer = []string{
	"index.build_s", "index.query_calls", "index.query_s", "index.count_calls",
	"index.batch_query_calls", "index.batch_query_points", "index.batch_query_s",
	"index.batch_count_points", "index.us_per_query",
	"svdd.trainings", "svdd.iterations", "svdd.not_converged", "svdd.fill_s", "svdd.solve_s", "svdd.finish_s",
	"core.seeds", "core.support_vectors", "core.merges", "core.noise_list", "core.theta",
	"core.range_queries", "core.range_counts", "core.degraded",
	"core.init_self_s", "core.expand_self_s", "core.verify_self_s", "core.other_self_s",
	"model.support_vectors", "model.plan_build_ms", "model.assign_us_per_point",
	"data.model_bytes", "data.load_model_ms",
	"server.handler_p50_ms", "server.handler_p99_ms", "server.handler_self_ms",
	"server.queue_depth_max", "server.shed_total", "server.deadline_total", "server.degraded_total",
	"http.client_overhead_ms",
	"loadgen.sent", "loadgen.lag_p99_ms",
	"runtime.gc_cycles", "runtime.gc_pause_ms",
	"trace.cluster_s", "trace.overhead_s",
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed     int64
	duration time.Duration
	trace    bool
	spans    *spanLog // nil unless tracing
}

// workloads maps each workload name to its runner at full size.
var workloads = map[string]func(runConfig, *report) error{
	"cluster-default": func(c runConfig, r *report) error { return runCluster(c, clusterDefault(), r) },
	"cluster-kdtree":  func(c runConfig, r *report) error { return runCluster(c, clusterKDTree(), r) },
	"serve":           func(c runConfig, r *report) error { return runServe(c, serveDefault(), r) },
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics and the outcome of its checks.
type report struct {
	attempted, failed int64
	problems          []string
	order             []string
	metrics           map[string]metric
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// set records a metric; setting a name again replaces its value.
func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// op counts one attempted operation and, when err is non-nil, its failure.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, err.Error())
		}
	}
}

// merge adds other's operations and failed checks to r, and copies the
// metrics whose names start with one of prefixes (all when none are given).
func (r *report) merge(other *report, prefixes ...string) {
	r.attempted += other.attempted
	r.failed += other.failed
	r.problems = append(r.problems, other.problems...)
	for _, n := range other.order {
		if len(prefixes) == 0 || slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(n, p) }) {
			m := other.metrics[n]
			r.set(n, m.Value, m.Unit)
		}
	}
}

// errorRate is failed over attempted operations.
func (r *report) errorRate() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes the command and returns its exit code: 0 when the workload
// ran and every check passed, 1 when a check failed, 2 on a usage or set-up
// error (no result line is printed then).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cluster-default, cluster-kdtree or serve")
	seed := fs.Int64("seed", 1, "workload seed; every input is generated from it")
	secs := fs.Float64("seconds", 20, "how long the measured phase runs")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	spansDir := fs.String("spans-dir", "", "directory the traced run writes its spans to (none if empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*name]
	if !ok || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments: -workload %q -seconds %g -trace %d\n", *name, *secs, *trace)
		return 2
	}
	cfg := runConfig{seed: *seed, duration: time.Duration(*secs * float64(time.Second)), trace: *trace == 1}
	if cfg.trace {
		cfg.spans = newSpanLog()
	}
	rep := newReport()
	if err := runner(cfg, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 2
	}
	if cfg.trace && *spansDir != "" {
		path := filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := writeSpans(path, cfg.spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	return printResult(stdout, stderr, *name, rep, names)
}

// printResult prints every metric the run recorded, the failed checks, and
// the result line restricted to names. It returns the exit code.
func printResult(stdout, stderr io.Writer, workload string, rep *report, names []string) int {
	fmt.Fprintf(stdout, "workload %s: %d operations, %d failed\n", workload, rep.attempted, rep.failed)
	for _, n := range rep.order {
		m := rep.metrics[n]
		fmt.Fprintf(stdout, "  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stdout, "  FAILED CHECK: %s\n", p)
	}
	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	for _, n := range names {
		m, ok := rep.metrics[n]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s was not measured\n", workload, n)
			return 2
		}
		res.Metrics[n] = m
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct || rep.attempted == 0 {
		return 1
	}
	return 0
}

// writeSpans writes the traced run's spans as JSON lines.
func writeSpans(path string, l *spanLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	enc := json.NewEncoder(f)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
