package eval

import (
	"fmt"

	"github.com/privacylab/blowfish/internal/mech"
	"github.com/privacylab/blowfish/internal/noise"
	"github.com/privacylab/blowfish/internal/strategy"
	"github.com/privacylab/blowfish/internal/workload"
)

// Fig3Options sizes the data-independent error-bound sweeps.
type Fig3Options struct {
	Eps     float64
	Runs    int
	Queries int
	Seed    int64
	// Ks1D is the domain sweep for the 1-D rows, Ks2D the per-side sweep
	// for the 2-D rows.
	Ks1D, Ks2D []int
	Theta1D    int
	Theta2D    int
	// Parallelism caps the measurement worker pool (see Options.Parallelism).
	Parallelism int
}

// DefaultFig3 returns the standard sweep.
func DefaultFig3() Fig3Options {
	return Fig3Options{Eps: 1, Runs: 5, Queries: 2000, Seed: 7,
		Ks1D: []int{64, 128, 256, 512, 1024}, Ks2D: []int{8, 16, 32, 64},
		Theta1D: 8, Theta2D: 4}
}

// QuickFig3 returns a reduced sweep for tests.
func QuickFig3() Fig3Options {
	return Fig3Options{Eps: 1, Runs: 3, Queries: 300, Seed: 7,
		Ks1D: []int{32, 64, 128}, Ks2D: []int{8, 16},
		Theta1D: 4, Theta2D: 4}
}

// gridOpts adapts the figure options to the scheduler's option set.
func (o Fig3Options) gridOpts() Options {
	return Options{Runs: o.Runs, Queries: o.Queries, Seed: o.Seed,
		Parallelism: o.Parallelism}.normalize()
}

// fig3Row is one sweep point of one Figure 3 table, assembled during the
// serial build phase: the Blowfish strategy and its DP counterpart on the
// same workload, with their noise streams already split in the serial order.
type fig3Row struct {
	label      string
	blow, dp   strategy.Algorithm
	w          *workload.Workload
	x          []float64
	bSrc, pSrc *noise.Source
}

// fig3Table measures a list of rows on the worker pool. Both columns run at
// the same ε: Figure 3 compares against the DP mechanism at full budget.
func fig3Table(title string, rows []fig3Row, eps float64, opts Options) (*Table, error) {
	t := &Table{Title: title, Metric: "per-query error",
		Columns: []string{"Blowfish", "Privelet (DP)"}}
	g := newGrid(len(rows), 2, opts)
	for ri, r := range rows {
		truth := r.w.Answers(r.x)
		g.add(ri, 0, r.blow, r.w, r.x, truth, eps, r.bSrc)
		g.add(ri, 1, r.dp, r.w, r.x, truth, eps, r.pSrc)
		t.Rows = append(t.Rows, r.label)
	}
	cells, err := g.run()
	if err != nil {
		return nil, err
	}
	t.Cells = cells
	return t, nil
}

// Fig3Experiment empirically reproduces the error-bound summary of
// Figure 3: for each workload/policy row it measures the per-query error of
// the Blowfish strategy and its differentially private counterpart
// (Privelet) across a domain-size sweep, on an empty database (the
// strategies are data independent, so the measured error is *the* error).
// The expected shapes: row 1 is flat in k (Θ(1/ε²)) while Privelet grows as
// log³k; row 2 is flat at O(log³θ); rows 3–4 grow as log^{3(d−1)}k versus
// Privelet's log^{3d}k.
func Fig3Experiment(o Fig3Options) ([]*Table, error) {
	if o.Runs < 1 {
		o.Runs = 1
	}
	opts := o.gridOpts()
	src := noise.NewSource(o.Seed)
	var tables []*Table

	// Row 1: R_k under G¹_k.
	var rows []fig3Row
	for _, k := range o.Ks1D {
		blow, err := strategy.LinePolicyAlgorithms(k)
		if err != nil {
			return nil, err
		}
		w := workload.RandomRanges1D(k, o.Queries, src.Split())
		rows = append(rows, fig3Row{label: fmt.Sprintf("k=%d", k),
			blow: blow[0], dp: strategy.DPPriveletRange1D(),
			w: w, x: make([]float64, k), bSrc: src.Split(), pSrc: src.Split()})
	}
	t1, err := fig3Table(fmt.Sprintf("Figure 3 row 1: R_k under G^1_k (eps=%g)", o.Eps), rows, o.Eps, opts)
	if err != nil {
		return nil, err
	}
	tables = append(tables, t1)

	// Row 2: R_k under G^θ_k via the Theorem 5.5 grouped strategy.
	rows = nil
	for _, k := range o.Ks1D {
		if o.Theta1D >= k {
			continue
		}
		w := workload.RandomRanges1D(k, o.Queries, src.Split())
		rows = append(rows, fig3Row{label: fmt.Sprintf("k=%d", k),
			blow: strategy.ThetaLineGrouped(k, o.Theta1D, mech.PriveletKind),
			dp:   strategy.DPPriveletRange1D(),
			w:    w, x: make([]float64, k), bSrc: src.Split(), pSrc: src.Split()})
	}
	t2, err := fig3Table(fmt.Sprintf("Figure 3 row 2: R_k under G^%d_k (eps=%g)", o.Theta1D, o.Eps), rows, o.Eps, opts)
	if err != nil {
		return nil, err
	}
	tables = append(tables, t2)

	// Row 3: R_{k²} under G¹_{k²}.
	rows = nil
	for _, g := range o.Ks2D {
		dims := []int{g, g}
		w := workload.RandomRangesKd(dims, o.Queries, src.Split())
		rows = append(rows, fig3Row{label: fmt.Sprintf("k=%d", g),
			blow: strategy.GridPolicyRangeKd(dims, mech.PriveletKind, strategy.Config{}),
			dp:   strategy.DPPriveletRangeKd(dims),
			w:    w, x: make([]float64, g*g), bSrc: src.Split(), pSrc: src.Split()})
	}
	t3, err := fig3Table(fmt.Sprintf("Figure 3 row 3: R_{k^2} under G^1_{k^2} (eps=%g)", o.Eps), rows, o.Eps, opts)
	if err != nil {
		return nil, err
	}
	tables = append(tables, t3)

	// Row 4: R_{k²} under G^θ_{k²} via the Theorem 5.6 strategy.
	rows = nil
	for _, g := range o.Ks2D {
		if o.Theta2D >= g {
			continue
		}
		dims := []int{g, g}
		w := workload.RandomRangesKd(dims, o.Queries, src.Split())
		rows = append(rows, fig3Row{label: fmt.Sprintf("k=%d", g),
			blow: strategy.ThetaGridRange2D(dims, o.Theta2D, strategy.Config{}),
			dp:   strategy.DPPriveletRangeKd(dims),
			w:    w, x: make([]float64, g*g), bSrc: src.Split(), pSrc: src.Split()})
	}
	t4, err := fig3Table(fmt.Sprintf("Figure 3 row 4: R_{k^2} under G^%d_{k^2} (eps=%g)", o.Theta2D, o.Eps), rows, o.Eps, opts)
	if err != nil {
		return nil, err
	}
	tables = append(tables, t4)
	return tables, nil
}
