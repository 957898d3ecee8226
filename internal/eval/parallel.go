package eval

import (
	"fmt"
	"sync"

	"github.com/privacylab/blowfish/internal/noise"
	"github.com/privacylab/blowfish/internal/par"
	"github.com/privacylab/blowfish/internal/strategy"
	"github.com/privacylab/blowfish/internal/workload"
)

// This file is the parallel experiment scheduler. Every experiment is a grid
// of measurement cells — one (dataset row × algorithm column) pair, averaged
// over opts.Runs repetitions — and the grid fans the individual (cell × run)
// units out over a worker pool.
//
// Determinism: all noise streams are derived by Source.Split in a fixed
// serial order *before* any work is scheduled (the build phase below), and
// per-run errors are reduced in run order afterwards. A unit touches only its
// own pre-assigned stream and output slot, so the rendered table is bitwise
// identical for every Parallelism setting, including 1.

// cell is one measurement: algorithm alg answering workload w on database x
// at budget eps, with one pre-split noise stream per repetition.
//
// The algorithm is compiled once per cell (guarded by prepOnce — whichever
// run unit arrives first pays for it) and every repetition reuses the
// Prepared. Compilation does not touch the noise streams, so outputs do not
// depend on which unit compiles.
type cell struct {
	ri, ci  int
	alg     strategy.Algorithm
	w       *workload.Workload
	x       []float64
	truth   []float64
	eps     float64
	runSrcs []*noise.Source

	prepOnce sync.Once
	prep     *strategy.Prepared
	prepErr  error
}

// prepared compiles the cell's algorithm for its workload once.
func (c *cell) prepared() (*strategy.Prepared, error) {
	c.prepOnce.Do(func() {
		c.prep, c.prepErr = c.alg.Prepare(c.w)
	})
	return c.prep, c.prepErr
}

// grid accumulates cells during an experiment's serial build phase and then
// executes them on a worker pool.
type grid struct {
	rows, cols int
	runs       int
	workers    int
	pool       *par.Pool
	cells      []*cell
}

// newGrid sizes a grid from the experiment options. rows and cols are hints;
// add grows the output shape to cover every registered cell, so experiments
// that assemble their column set while iterating cannot drift out of sync
// with the grid's dimensions.
func newGrid(rows, cols int, opts Options) *grid {
	return &grid{rows: rows, cols: cols, runs: opts.Runs,
		workers: par.Workers(opts.Parallelism), pool: opts.pool()}
}

// add registers the cell at (ri, ci). cellSrc is the cell's own stream (the
// caller splits it off the experiment source in serial order); the per-run
// streams are derived from it immediately, exactly as the serial MeasureMSE
// would.
func (g *grid) add(ri, ci int, alg strategy.Algorithm, w *workload.Workload, x, truth []float64, eps float64, cellSrc *noise.Source) {
	if ri >= g.rows {
		g.rows = ri + 1
	}
	if ci >= g.cols {
		g.cols = ci + 1
	}
	g.cells = append(g.cells, &cell{
		ri: ri, ci: ci, alg: alg, w: w, x: x, truth: truth, eps: eps,
		runSrcs: cellSrc.SplitN(g.runs),
	})
}

// addContender is add with the ε/2 halving convention applied.
func (g *grid) addContender(ri, ci int, c contender, w *workload.Workload, x, truth []float64, eps float64, cellSrc *noise.Source) {
	if c.half {
		eps = eps / 2
	}
	g.add(ri, ci, c.alg, w, x, truth, eps, cellSrc)
}

// run executes every (cell × run) unit on the worker pool and returns the
// reduced rows×cols table of average squared error per query.
//
// Units may themselves hit the parallel linalg/sparse kernels, but both
// layers now draw from the same par.Pool goroutine budget: a kernel invoked
// from a grid unit that already holds the pool's tokens simply runs serially
// on that unit's goroutine, so the worst-case goroutine count is the pool
// size, not grid workers × kernel workers.
func (g *grid) run() ([][]float64, error) {
	perRun := make([][]float64, len(g.cells))
	for i := range perRun {
		perRun[i] = make([]float64, g.runs)
	}
	units := len(g.cells) * g.runs
	err := g.pool.DoErr(g.workers, units, func(u int) error {
		c := g.cells[u/g.runs]
		r := u % g.runs
		var got []float64
		prep, err := c.prepared()
		if err == nil {
			got, err = prep.Answer(c.x, c.eps, c.runSrcs[r])
		}
		if err != nil {
			return fmt.Errorf("eval: %s: %w", c.alg.Name, err)
		}
		var sq float64
		for i, v := range got {
			d := v - c.truth[i]
			sq += d * d
		}
		perRun[u/g.runs][r] = sq / float64(len(c.truth))
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][]float64, g.rows)
	for i := range out {
		out[i] = make([]float64, g.cols)
	}
	for i, c := range g.cells {
		var total float64
		for _, v := range perRun[i] {
			total += v
		}
		out[c.ri][c.ci] = total / float64(g.runs)
	}
	return out, nil
}
