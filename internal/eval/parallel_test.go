package eval

import (
	"errors"
	"strings"
	"testing"

	"github.com/privacylab/blowfish/internal/strategy"
	"github.com/privacylab/blowfish/internal/workload"
)

// tablesEqual requires bitwise-identical cells (NaN-free experiments here).
func tablesEqual(t *testing.T, name string, a, b *Table) {
	t.Helper()
	if len(a.Rows) != len(b.Rows) || len(a.Columns) != len(b.Columns) {
		t.Fatalf("%s: shape %dx%d vs %dx%d", name, len(a.Rows), len(a.Columns), len(b.Rows), len(b.Columns))
	}
	for i := range a.Cells {
		for j := range a.Cells[i] {
			if a.Cells[i][j] != b.Cells[i][j] {
				t.Fatalf("%s cell (%s, %s): %g vs %g — parallel schedule changed the result",
					name, a.Rows[i], a.Columns[j], a.Cells[i][j], b.Cells[i][j])
			}
		}
	}
}

// TestExperimentsDeterministicUnderParallelism is the acceptance check for
// the scheduler: every experiment must render bitwise-identical tables at
// Parallelism 1 (serial) and at a worker count above the cell count, because
// all noise streams are pre-split in serial order. Run with -race, this is
// also the regression test for shared-source misuse inside workers.
func TestExperimentsDeterministicUnderParallelism(t *testing.T) {
	base := Options{Runs: 2, Queries: 150, Seed: 9, DomainScale: 32}
	type exp struct {
		name string
		run  func(Options) (*Table, error)
	}
	experiments := []exp{
		{"Hist", func(o Options) (*Table, error) { return HistExperiment(0.1, o) }},
		{"Range1DG1", func(o Options) (*Table, error) { return Range1DG1Experiment(0.1, o) }},
		{"Range1DG4", func(o Options) (*Table, error) { return Range1DG4Experiment(1, o) }},
		{"Range2D", func(o Options) (*Table, error) { o.Queries = 80; return Range2DExperiment(0.1, o) }},
	}
	for _, e := range experiments {
		serialOpts := base
		serialOpts.Parallelism = 1
		serial, err := e.run(serialOpts)
		if err != nil {
			t.Fatalf("%s serial: %v", e.name, err)
		}
		parOpts := base
		parOpts.Parallelism = 8
		parallel, err := e.run(parOpts)
		if err != nil {
			t.Fatalf("%s parallel: %v", e.name, err)
		}
		tablesEqual(t, e.name, serial, parallel)
	}
}

func TestFig3DeterministicUnderParallelism(t *testing.T) {
	o := Fig3Options{Eps: 1, Runs: 2, Queries: 80, Seed: 7,
		Ks1D: []int{32, 64}, Ks2D: []int{8}, Theta1D: 4, Theta2D: 4}
	o.Parallelism = 1
	serial, err := Fig3Experiment(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Parallelism = 6
	parallel, err := Fig3Experiment(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("table count %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		tablesEqual(t, serial[i].Title, serial[i], parallel[i])
	}
}

func TestFig10DeterministicUnderParallelism(t *testing.T) {
	o := QuickFig10()
	o.Parallelism = 1
	s1, err := SVD1DExperiment(o)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := SVD2DExperiment(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Parallelism = 8
	p1, err := SVD1DExperiment(o)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := SVD2DExperiment(o)
	if err != nil {
		t.Fatal(err)
	}
	// Fig 10a has NaN cells where θ ≥ k; compare those by position.
	for i := range s1.Cells {
		for j := range s1.Cells[i] {
			a, b := s1.Cells[i][j], p1.Cells[i][j]
			if a != b && !(a != a && b != b) {
				t.Fatalf("fig10a cell (%d,%d): %g vs %g", i, j, a, b)
			}
		}
	}
	tablesEqual(t, "fig10b", s2, p2)
}

// TestGridPropagatesAlgorithmErrors ensures a failing cell surfaces its
// error (wrapped with the algorithm name) instead of a partial table.
func TestGridPropagatesAlgorithmErrors(t *testing.T) {
	opts := Options{Runs: 2, Queries: 20, Seed: 1, Parallelism: 4}
	w := workload.Identity(8)
	x := make([]float64, 8)
	boom := contender{alg: strategy.Algorithm{
		Name: "exploder",
		Prepare: func(*workload.Workload) (*strategy.Prepared, error) {
			return nil, errors.New("kaboom")
		},
	}}
	_, err := runContenders("t", "m", []contender{boom}, []string{"r0"},
		func(int) (*workload.Workload, []float64, error) { return w, x, nil }, 1, opts)
	if err == nil || !strings.Contains(err.Error(), "exploder") || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("error %v should name the failing algorithm and cause", err)
	}
}
