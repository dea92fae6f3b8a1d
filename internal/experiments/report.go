package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Row is one measurement of an experiment: one line of its printed table and
// of its machine-readable report (BENCH_<exp>.json). Every experiment emits
// rows of this one shape.
type Row struct {
	// Exp is the id of the experiment that emitted the row.
	Exp string `json:"exp"`
	// Params identify the row within its experiment: the dataset, algorithm
	// or section, backend, precision, sweep value, sizes, worker count,
	// repeats and seed. Values are strings or numbers.
	Params map[string]any `json:"params"`
	// Counts are deterministic quantities (SMO iterations, result totals,
	// clusters, noise, recall, ARI, θ terms, ...). The baseline check
	// compares them exactly.
	Counts map[string]float64 `json:"counts"`
	// Measured are machine-dependent values: wall clocks (*_ns) and peak
	// heap (*_bytes). No check compares them.
	Measured map[string]float64 `json:"measured"`
}

// Key names the row: the experiment id followed by its params in sorted
// name order. Two rows with one key describe the same measurement, whatever
// order their params were written in.
func (r Row) Key() string {
	var b strings.Builder
	b.WriteString(r.Exp)
	for _, name := range sortedKeys(r.Params) {
		b.WriteString(" " + name + "=" + paramString(r.Params[name]))
	}
	return b.String()
}

// paramString renders a param value: strings verbatim, numbers in their
// JSON form, so an int written by a run and the float64 it decodes to
// print alike.
func paramString(v any) string {
	if s, ok := v.(string); ok {
		return s
	}
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprint(v)
	}
	return string(b)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// reportFile is the on-disk form of a report.
type reportFile struct {
	Rows []Row `json:"rows"`
}

// readReport returns the rows of the report file at path.
func readReport(path string) ([]Row, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f reportFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("experiments: report %s is not valid JSON: %w", path, err)
	}
	return f.Rows, nil
}

// writeReport merges rows into the report file at path: a row replaces the
// stored row with the same key in place, rows with new keys are appended,
// and stored rows with other keys are kept. One file so holds both the
// full-scale and the quick rows of an experiment.
func writeReport(path string, rows []Row) error {
	fresh := make(map[string]int, len(rows))
	for i, r := range rows {
		k := r.Key()
		if _, dup := fresh[k]; dup {
			return fmt.Errorf("experiments: two rows share the key %q", k)
		}
		fresh[k] = i
	}
	stored, err := readReport(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	used := make([]bool, len(rows))
	merged := make([]Row, 0, len(stored)+len(rows))
	for _, r := range stored {
		if i, ok := fresh[r.Key()]; ok {
			r, used[i] = rows[i], true
		}
		merged = append(merged, r)
	}
	for i, r := range rows {
		if !used[i] {
			merged = append(merged, r)
		}
	}

	// One row per line keeps the file diffable and each counter editable.
	var buf bytes.Buffer
	buf.WriteString("{\"rows\": [\n")
	for i, r := range merged {
		b, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("experiments: encoding row %q: %w", r.Key(), err)
		}
		buf.WriteString("  ")
		buf.Write(b)
		if i < len(merged)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// CheckBaseline gates the report at reportPath against the committed
// baseline: every row of the report must have a baseline row with the same
// key and equal counts. Measured values are never compared, and baseline
// rows the report lacks are ignored. It returns the number of rows matched
// and fails when the report has no rows.
func CheckBaseline(reportPath, baselinePath string) (int, error) {
	rows, err := readReport(reportPath)
	if err != nil {
		return 0, err
	}
	if len(rows) == 0 {
		return 0, fmt.Errorf("experiments: report %s has no rows", reportPath)
	}
	baseRows, err := readReport(baselinePath)
	if err != nil {
		return 0, err
	}
	base := make(map[string]Row, len(baseRows))
	for _, r := range baseRows {
		base[r.Key()] = r
	}
	for _, r := range rows {
		b, ok := base[r.Key()]
		if !ok {
			return 0, fmt.Errorf("experiments: row %q has no baseline row in %s", r.Key(), baselinePath)
		}
		names := sortedKeys(r.Counts)
		for _, name := range sortedKeys(b.Counts) {
			if _, ok := r.Counts[name]; !ok {
				names = append(names, name)
			}
		}
		for _, name := range names {
			got, gotOK := r.Counts[name]
			want, wantOK := b.Counts[name]
			if got != want || gotOK != wantOK {
				return 0, fmt.Errorf("experiments: row %q: counter %s = %s, baseline %s has %s",
					r.Key(), name, countString(got, gotOK), baselinePath, countString(want, wantOK))
			}
		}
	}
	return len(rows), nil
}

func countString(v float64, ok bool) string {
	if !ok {
		return "(absent)"
	}
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// colWidth is the narrowest column of a printed table.
const colWidth = 10

// printer prints what an experiment emits: its banner, then each row as it
// arrives as one line of a table, so a long sweep shows its progress. A
// header line opens a new table whenever the set of columns changes: params,
// then counts, then measured values, each in name order.
type printer struct {
	w    io.Writer
	cols []string
}

func (p *printer) banner(title string) {
	fmt.Fprintf(p.w, "\n=== %s ===\n", title)
}

func (p *printer) row(r Row) {
	cols := append(append(sortedKeys(r.Params), sortedKeys(r.Counts)...), sortedKeys(r.Measured)...)
	if !slices.Equal(cols, p.cols) {
		p.cols = cols
		fmt.Fprintln(p.w)
		p.line(cols)
	}
	cells := make([]string, len(cols))
	for i, name := range cols {
		cells[i] = cell(r, name)
	}
	p.line(cells)
}

// line prints cells right-aligned, each to the wider of its column name and
// colWidth; a longer cell shifts the rest of its line.
func (p *printer) line(cells []string) {
	for i, c := range cells {
		fmt.Fprintf(p.w, " %*s", max(len(p.cols[i]), colWidth), c)
	}
	fmt.Fprintln(p.w)
}

func (p *printer) wrote(n int, path string) {
	fmt.Fprintf(p.w, "wrote %d rows to %s\n", n, path)
}

// cell renders one value of r for the table: wall clocks in ms, heap in MB.
func cell(r Row, name string) string {
	if v, ok := r.Params[name]; ok {
		return paramString(v)
	}
	if v, ok := r.Counts[name]; ok {
		if v == math.Trunc(v) {
			return strconv.FormatFloat(v, 'f', -1, 64)
		}
		return strconv.FormatFloat(v, 'f', 4, 64)
	}
	v := r.Measured[name]
	switch {
	case strings.HasSuffix(name, "_ns"):
		return strconv.FormatFloat(v/1e6, 'f', 3, 64) + "ms"
	case strings.HasSuffix(name, "_bytes"):
		return strconv.FormatFloat(v/1e6, 'f', 1, 64) + "MB"
	}
	return strconv.FormatFloat(v, 'f', -1, 64)
}
