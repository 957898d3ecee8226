package strategy

import (
	"fmt"
	"sync/atomic"

	"github.com/privacylab/blowfish/internal/noise"
	"github.com/privacylab/blowfish/internal/par"
	"github.com/privacylab/blowfish/internal/sparse"
	"github.com/privacylab/blowfish/internal/workload"
)

// This file holds Prepared, the one build product every strategy compiles
// to. The transformational equivalence makes strategy construction a
// one-time step: spanners, transforms, layouts and per-query support sets
// depend only on the (policy, workload) pair, never on the database or the
// noise. A Prepared captures all of that once; its Answer runs only the
// noise-and-reconstruct hot path. It also holds the unpack helpers that
// check a workload's query shape at compile time and the two Prepared
// assemblers: release, and maintainedPrepared for the strategies whose
// release is one answer off a freshly built maintained state (stream.go),
// which is also what their streams patch.

// Prepared is a compiled, workload-bound strategy. It is immutable after
// compilation: Answer is safe for concurrent use as long as each caller
// supplies its own noise Source.
type Prepared struct {
	// Name matches the Algorithm the strategy was compiled from.
	Name string
	// answer is the hot path: noise the precompiled strategy at eps and
	// reconstruct every workload query for database x.
	answer func(x []float64, eps float64, src *noise.Source) ([]float64, error)
	// op is the compiled query-reconstruction matrix of a tree strategy
	// (CSR when its density is below sparse.DefaultMaxDensity, dense
	// above); nil for every other strategy.
	op sparse.Operator
	// refresh builds the incremental per-stream State for one histogram
	// (see stream.go); nil when the strategy has no incremental form.
	refresh func(x []float64) (*State, error)
}

// Answer releases the compiled workload over database x under budget eps.
func (p *Prepared) Answer(x []float64, eps float64, src *noise.Source) ([]float64, error) {
	return p.answer(x, eps, src)
}

// Operator exposes a tree strategy's compiled reconstruction operator for
// inspection, tests and benchmarks; it is immutable and safe for concurrent
// Apply. Strategies without a single such operator return nil.
func (p *Prepared) Operator() sparse.Operator { return p.op }

// AnswerBatch is the hook behind Plan.AnswerBatch: it releases the
// compiled workload over every database in xs at budget eps, drawing
// release i's noise from srcs[i] and fanning the releases out over pool
// (nil runs serially). Because srcs are pre-split by the caller in serial
// order, results are identical to len(xs) sequential Answer calls at any
// pool size.
//
// stop, when non-nil, is polled before each release; the first non-nil
// error it returns aborts the remaining releases and is returned. Plan's
// context-aware batch entry points pass ctx.Err, which is what bounds a
// batch by a deadline between releases.
func (p *Prepared) AnswerBatch(xs [][]float64, eps float64, srcs []*noise.Source, pool *par.Pool, stop func() error) ([][]float64, error) {
	if len(xs) != len(srcs) {
		return nil, fmt.Errorf("strategy: %s: %d databases with %d noise sources", p.Name, len(xs), len(srcs))
	}
	out := make([][]float64, len(xs))
	err := pool.DoErr(0, len(xs), func(i int) error {
		if stop != nil {
			if err := stop(); err != nil {
				return err
			}
		}
		got, err := p.answer(xs[i], eps, srcs[i])
		if err != nil {
			return err
		}
		out[i] = got
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// compilations counts strategy compilations process-wide; plan-reuse tests
// assert repeated Prepared.Answer calls leave it flat while the one-shot
// Algorithm.Run bumps it on every release.
var compilations atomic.Int64

// Compilations returns the number of strategy compilations so far.
func Compilations() int64 { return compilations.Load() }

// release assembles a Prepared from a strategy's per-release body, which
// runs once the database is checked against the workload's domain.
func release(name string, w *workload.Workload, op sparse.Operator, body func(x []float64, eps float64, src *noise.Source) []float64) *Prepared {
	answer := func(x []float64, eps float64, src *noise.Source) ([]float64, error) {
		if err := checkDomain(w, x); err != nil {
			return nil, err
		}
		return body(x, eps, src), nil
	}
	return &Prepared{Name: name, answer: answer, op: op}
}

// maintainedPrepared assembles the Prepared of a strategy with a maintained
// form: fresh(x) builds the strategy's maintained state over x (the x_G
// transform for trees, the summed-area table for the range strategies). A
// static release is one answer off a fresh state, and Refresh wraps a fresh
// state in a State, so the static and streaming releases share one path.
func maintainedPrepared(name string, w *workload.Workload, op sparse.Operator, fresh func(x []float64) (maintained, error)) *Prepared {
	build := func(x []float64) (maintained, error) {
		if err := checkDomain(w, x); err != nil {
			return nil, err
		}
		return fresh(x)
	}
	answer := func(x []float64, eps float64, src *noise.Source) ([]float64, error) {
		m, err := build(x)
		if err != nil {
			return nil, err
		}
		return m.answer(eps, src)
	}
	refresh := func(x []float64) (*State, error) {
		m, err := build(x)
		if err != nil {
			return nil, err
		}
		return newState(name, x, m, w.K), nil
	}
	return &Prepared{Name: name, answer: answer, op: op, refresh: refresh}
}

// points, ranges1D and rangesKd unpack a workload's queries into the one
// query shape a strategy answers, or report the strategy (name) whose shape
// the workload violates. rangesKd also requires d-dimensional rectangles.

func points(name string, w *workload.Workload) ([]int, error) {
	cells := make([]int, w.Len())
	for i, q := range w.Queries {
		p, ok := q.(workload.Point)
		if !ok {
			return nil, fmt.Errorf("strategy: %s wants point queries, got %T", name, q)
		}
		cells[i] = int(p)
	}
	return cells, nil
}

func ranges1D(name string, w *workload.Workload) ([]workload.Range1D, error) {
	ranges := make([]workload.Range1D, w.Len())
	for i, q := range w.Queries {
		r, ok := q.(workload.Range1D)
		if !ok {
			return nil, fmt.Errorf("strategy: %s wants Range1D queries, got %T", name, q)
		}
		ranges[i] = r
	}
	return ranges, nil
}

func rangesKd(name string, w *workload.Workload, d int) ([]workload.RangeKd, error) {
	rects := make([]workload.RangeKd, w.Len())
	for i, q := range w.Queries {
		r, ok := q.(workload.RangeKd)
		if !ok || len(r.Lo) != d {
			return nil, fmt.Errorf("strategy: %s wants %d-D RangeKd queries, got %T", name, d, q)
		}
		rects[i] = r
	}
	return rects, nil
}
