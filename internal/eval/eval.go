// Package eval is the experiment harness: it measures mean squared error per
// query (Def 2.4) for lists of algorithms over datasets and renders the
// rows/series of every table and figure in the paper's evaluation
// (Section 6, Figure 3, Figure 10, Table 1). The cmd/blowfishbench binary
// and the repository's benchmarks are thin wrappers over this package.
package eval

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"github.com/privacylab/blowfish/internal/noise"
	"github.com/privacylab/blowfish/internal/par"
	"github.com/privacylab/blowfish/internal/strategy"
	"github.com/privacylab/blowfish/internal/workload"
)

// Options controls experiment size so the same runners serve quick tests,
// benchmarks and full paper-scale reproductions.
type Options struct {
	// Runs is the number of repetitions averaged per measurement (the paper
	// uses 5).
	Runs int
	// Queries is the number of random range queries (the paper uses 10000).
	Queries int
	// Seed makes the whole experiment deterministic.
	Seed int64
	// DomainScale divides 1-D domain sizes (4096 in the paper) to keep test
	// and benchmark runtime sane; 1 reproduces the paper's sizes.
	DomainScale int
	// Parallelism caps the experiment worker pool: 1 runs serially on the
	// calling goroutine, n > 1 uses n workers, and <= 0 (the default) uses
	// one worker per available CPU. Tables are bitwise identical at every
	// setting — all noise streams are pre-split in a fixed serial order.
	Parallelism int
	// Pool is the worker pool the measurement grid schedules on (the
	// Figure 10 bound sweeps always use the shared pool); nil (the
	// default) uses the process-wide par.Shared() pool, which the linalg
	// and sparse kernels also draw from, so grid×kernel goroutines cannot
	// multiply on large hosts.
	Pool *par.Pool
}

// pool resolves the scheduling pool, defaulting to the shared one. An
// explicit Parallelism above the shared pool's size gets a dedicated pool of
// that size, preserving the documented "n > 1 uses n workers" contract
// (deliberate oversubscription experiments) that the shared pool's clamp
// would otherwise silently cap at the CPU count.
func (o Options) pool() *par.Pool {
	if o.Pool != nil {
		return o.Pool
	}
	if o.Parallelism > par.Shared().Size() {
		return par.NewPool(o.Parallelism)
	}
	return par.Shared()
}

// Defaults returns paper-scale options.
func Defaults() Options {
	return Options{Runs: 5, Queries: 10000, Seed: 1, DomainScale: 1}
}

// Quick returns reduced-size options for tests and benchmarks.
func Quick() Options {
	return Options{Runs: 3, Queries: 1000, Seed: 1, DomainScale: 8}
}

func (o Options) normalize() Options {
	if o.Runs < 1 {
		o.Runs = 1
	}
	if o.Queries < 1 {
		o.Queries = 1
	}
	if o.DomainScale < 1 {
		o.DomainScale = 1
	}
	if o.Parallelism < 0 {
		o.Parallelism = 0
	}
	return o
}

// MeasureMSE compiles the algorithm once, releases it `runs` times and
// returns the average mean squared error per query against the exact
// answers.
func MeasureMSE(alg strategy.Algorithm, w *workload.Workload, x []float64, eps float64, runs int, src *noise.Source) (float64, error) {
	prep, err := alg.Prepare(w)
	if err != nil {
		return 0, fmt.Errorf("eval: %s: %w", alg.Name, err)
	}
	truth := w.Answers(x)
	var total float64
	for r := 0; r < runs; r++ {
		got, err := prep.Answer(x, eps, src.Split())
		if err != nil {
			return 0, fmt.Errorf("eval: %s: %w", alg.Name, err)
		}
		var sq float64
		for i, v := range got {
			d := v - truth[i]
			sq += d * d
		}
		total += sq / float64(len(truth))
	}
	return total / float64(runs), nil
}

// Table is a rendered experiment: one column per algorithm (or series), one
// row per dataset/domain size, cells holding average squared error per query
// (or whatever the experiment's Metric says).
type Table struct {
	Title   string
	Metric  string
	Columns []string
	Rows    []string
	Cells   [][]float64 // Cells[row][col]; NaN marks "not applicable"
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s\n", t.Title)
	if t.Metric != "" {
		fmt.Fprintf(w, "metric: %s\n", t.Metric)
	}
	width := 12
	for _, c := range t.Columns {
		if len(c)+2 > width {
			width = len(c) + 2
		}
	}
	fmt.Fprintf(w, "%-14s", "")
	for _, c := range t.Columns {
		fmt.Fprintf(w, "%*s", width, c)
	}
	fmt.Fprintln(w)
	for i, r := range t.Rows {
		fmt.Fprintf(w, "%-14s", r)
		for _, v := range t.Cells[i] {
			if math.IsNaN(v) {
				fmt.Fprintf(w, "%*s", width, "-")
			} else {
				fmt.Fprintf(w, "%*s", width, formatCell(v))
			}
		}
		fmt.Fprintln(w)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

func formatCell(v float64) string {
	av := math.Abs(v)
	switch {
	case av == 0:
		return "0"
	case av >= 1e5 || av < 1e-3:
		return fmt.Sprintf("%.3e", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// Cell returns the value at (rowLabel, colLabel), used by tests to assert
// orderings between algorithms.
func (t *Table) Cell(row, col string) (float64, error) {
	ri, ci := -1, -1
	for i, r := range t.Rows {
		if r == row {
			ri = i
		}
	}
	for j, c := range t.Columns {
		if c == col {
			ci = j
		}
	}
	if ri < 0 || ci < 0 {
		return 0, fmt.Errorf("eval: no cell (%q, %q)", row, col)
	}
	return t.Cells[ri][ci], nil
}

// tableJSON is the wire form of a Table: one labelled row of cells each,
// null where a cell is not applicable.
type tableJSON struct {
	Title   string         `json:"title"`
	Metric  string         `json:"metric"`
	Columns []string       `json:"columns"`
	Rows    []tableRowJSON `json:"rows"`
}

type tableRowJSON struct {
	Label string     `json:"label"`
	Cells []*float64 `json:"cells"`
}

// MarshalJSON encodes the table for machine consumption (cells as nulls when
// not applicable).
func (t *Table) MarshalJSON() ([]byte, error) {
	out := tableJSON{Title: t.Title, Metric: t.Metric, Columns: t.Columns}
	for i, label := range t.Rows {
		row := tableRowJSON{Label: label, Cells: make([]*float64, len(t.Cells[i]))}
		for j, v := range t.Cells[i] {
			if !math.IsNaN(v) {
				row.Cells[j] = &v
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes what MarshalJSON writes; a null cell decodes to NaN,
// and a row must have one cell per column.
func (t *Table) UnmarshalJSON(raw []byte) error {
	var in tableJSON
	if err := json.Unmarshal(raw, &in); err != nil {
		return err
	}
	*t = Table{Title: in.Title, Metric: in.Metric, Columns: in.Columns}
	for _, r := range in.Rows {
		if len(r.Cells) != len(in.Columns) {
			return fmt.Errorf("eval: table %q row %q: %d cells for %d columns", in.Title, r.Label, len(r.Cells), len(in.Columns))
		}
		cells := make([]float64, len(r.Cells))
		for j, c := range r.Cells {
			cells[j] = math.NaN()
			if c != nil {
				cells[j] = *c
			}
		}
		t.Rows = append(t.Rows, r.Label)
		t.Cells = append(t.Cells, cells)
	}
	return nil
}
