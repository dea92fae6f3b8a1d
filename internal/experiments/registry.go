package experiments

import (
	"fmt"
	"io"
	"sort"
)

// Experiment is one regenerable table, figure or benchmark report.
type Experiment struct {
	// ID is the harness name (e.g. "fig6a"), and the Exp of every row the
	// experiment emits.
	ID string
	// Title describes the paper artifact.
	Title string
	// Run regenerates it, handing each row to emit as soon as it is
	// measured.
	Run func(cfg Config, emit func(Row)) error
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"fig1", "Figure 1: DBSCAN vs DBSVEC on t4.8k (MinPts=20, eps=8.5)", Fig1},
		{"table2", "Table II / Sec III-D: O(theta*n) cost model validation (d=8, MinPts=100, eps=5000)", Table2},
		{"table3", "Table III: clustering accuracy (pair recall vs exact DBSCAN)", Table3},
		{"table4", "Table IV: clustering validation vs k-MEANS (C=silhouette higher better, S=Davies-Bouldin lower better)", Table4},
		{"fig6a", "Figure 6a: runtime vs cardinality n (d=8, MinPts=100, eps=5000)", Fig6a},
		{"fig6b", "Figure 6b: runtime vs dimensionality d (MinPts=100, eps=5000)", Fig6b},
		{"fig7", "Figure 7: runtime vs radius eps (synthetic d=8 + real stand-ins, MinPts=100)", Fig7},
		{"fig8", "Figure 8: runtime vs penalty factor nu (multiples of nu*)", Fig8},
		{"fig9a", "Figure 9a: SVDD improvements, recall", Fig9a},
		{"fig9b", "Figure 9b: SVDD improvements, efficiency", Fig9b},
		{"svdd", "SVDD training (n=512, d=8): serial, parallel and float32 storage; target-size sweep", RunSVDDBench},
		{"index", "Index construction: parallel bulk loads + packed leaf blocks", RunIndexBench},
		{"highdim", fmt.Sprintf("High-dimensional neighborhoods: rproj vs linear on embeddings (eps=%g, minPts=%d)",
			highdimEps, highdimMinPts), RunHighdim},
		{"shard", fmt.Sprintf("Sharded out-of-core execution: slabs vs single-shot (SeedSpreader, eps=%d, minPts=%d)",
			shardBenchEps, shardBenchMinPts), RunShardBench},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, ids)
}

// Execute runs e and handles every row it emits: it prints the title
// banner, then each row as it arrives, and once the run succeeds merges the
// rows into the report cfg.Reports names for e.ID (none when the path is
// empty).
func (e Experiment) Execute(w io.Writer, cfg Config) error {
	p := printer{w: w}
	p.banner(e.Title)
	var rows []Row
	if err := e.Run(cfg, func(r Row) {
		p.row(r)
		rows = append(rows, r)
	}); err != nil {
		return err
	}
	path := cfg.Reports[e.ID]
	if path == "" {
		return nil
	}
	if err := writeReport(path, rows); err != nil {
		return err
	}
	p.wrote(len(rows), path)
	return nil
}

// RunAll executes every experiment against w.
func RunAll(w io.Writer, cfg Config) error {
	for _, e := range All() {
		if err := e.Execute(w, cfg); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return nil
}
