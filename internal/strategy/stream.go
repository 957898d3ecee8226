package strategy

import (
	"fmt"

	"github.com/privacylab/blowfish/internal/core"
	"github.com/privacylab/blowfish/internal/noise"
	"github.com/privacylab/blowfish/internal/par"
	"github.com/privacylab/blowfish/internal/sparse"
	"github.com/privacylab/blowfish/internal/workload"
)

// This file is the incremental-maintenance side of the compile/run split: a
// State binds a compiled strategy to one mutable histogram and keeps the
// strategy's data-side artifacts (the subtree-sum vector x_G for tree
// strategies, the summed-area / prefix table for range strategies) patched
// under single-cell deltas instead of rebuilding them per release. A static
// release is one answer off a freshly built state (maintainedPrepared), so
// the two release paths are one.
//
// Correctness never depends on the fast path: Recompute rebuilds every
// maintained artifact densely with exactly the float operations of a fresh
// build, so a recomputed State answers bitwise identically to
// Prepared.Answer on the same histogram, and Apply falls back to it
// whenever the summed patch cost would exceed a dense rebuild.

// maintained is a strategy's incrementally patchable data-side state.
// update folds one cell delta in, updateCost prices that patch in touched
// entries (so State can fall back to recompute), recompute rebuilds
// densely from the histogram (bitwise identical to a fresh build), and
// answer runs the noise-and-reconstruct hot path off the
// maintained artifacts. answer must not mutate the maintained state:
// State serializes update/recompute against answer but allows concurrent
// answers.
//
// exportState flattens the maintained artifacts into one float slice and
// importState overwrites them with a previously exported one; together with
// State.Export/Prepared.Restore they give the durability layer bitwise
// round-trips — the restored artifacts carry the exact values the patch
// path accumulated, incremental float drift included, which a recompute
// from the histogram alone would not reproduce.
type maintained interface {
	update(cell int, delta float64)
	updateCost(cell int) int
	recompute(x []float64)
	answer(eps float64, src *noise.Source) ([]float64, error)
	exportState() []float64
	importState(artifacts []float64) error
}

// State is a compiled strategy bound to one mutable histogram, created by
// Prepared.Refresh. It is not internally synchronized: callers must
// serialize Apply/Recompute against Answer (the public Stream API holds a
// RWMutex — concurrent Answers are safe with each other).
type State struct {
	name       string
	k          int
	x          []float64
	m          maintained
	denseCost  int
	recomputes int64
	patches    int64
}

// newState wraps m, freshly built over x, so it is not rebuilt here.
func newState(name string, x []float64, m maintained, denseCost int) *State {
	return &State{name: name, k: len(x), x: append([]float64(nil), x...), m: m, denseCost: denseCost}
}

// K returns the domain size.
func (s *State) K() int { return s.k }

// Database returns a copy of the maintained histogram.
func (s *State) Database() []float64 { return append([]float64(nil), s.x...) }

// Recomputes returns how many dense rebuilds have run (including fallbacks).
func (s *State) Recomputes() int64 { return s.recomputes }

// Patches returns how many single-cell incremental patches have run.
func (s *State) Patches() int64 { return s.patches }

// Apply folds a batch of single-cell deltas into the histogram and the
// maintained strategy state. Cells are validated before anything mutates,
// so a failed Apply leaves the State unchanged. When the summed incremental
// patch cost would exceed a dense rebuild, the whole batch is applied to
// the histogram and the state recomputed instead — the bitwise anchor path.
func (s *State) Apply(cells []int, deltas []float64) error {
	if len(cells) != len(deltas) {
		return fmt.Errorf("strategy: %s: %d cells with %d deltas", s.name, len(cells), len(deltas))
	}
	cost := 0
	for _, c := range cells {
		if c < 0 || c >= s.k {
			return fmt.Errorf("strategy: %s: cell %d outside domain [0, %d)", s.name, c, s.k)
		}
		cost += s.m.updateCost(c)
	}
	if cost >= s.denseCost {
		for i, c := range cells {
			s.x[c] += deltas[i]
		}
		s.m.recompute(s.x)
		s.recomputes++
		return nil
	}
	for i, c := range cells {
		s.x[c] += deltas[i]
		s.m.update(c, deltas[i])
	}
	s.patches += int64(len(cells))
	return nil
}

// Recompute forces the dense rebuild of every maintained artifact from the
// current histogram. Afterwards Answer is bitwise identical to
// Prepared.Answer over the same histogram and Source state.
func (s *State) Recompute() {
	s.m.recompute(s.x)
	s.recomputes++
}

// Answer releases the compiled workload off the maintained state at budget
// eps — the same noise-and-reconstruct hot path as Prepared.Answer minus
// the per-release x_G / summed-area rebuild.
func (s *State) Answer(eps float64, src *noise.Source) ([]float64, error) {
	return s.m.answer(eps, src)
}

// StateSnapshot is the serializable image of a State: the histogram plus
// the flattened maintained artifacts, both carrying the exact float values
// at export time.
type StateSnapshot struct {
	X         []float64 `json:"x"`
	Artifacts []float64 `json:"artifacts"`
}

// Export snapshots the State for serialization.
func (s *State) Export() StateSnapshot {
	return StateSnapshot{X: append([]float64(nil), s.x...), Artifacts: s.m.exportState()}
}

// Refresh builds the incremental per-stream State for histogram x, or an
// error when the strategy was compiled without an incremental form.
func (p *Prepared) Refresh(x []float64) (*State, error) {
	if p.refresh == nil {
		return nil, fmt.Errorf("strategy: %s has no incremental state", p.Name)
	}
	return p.refresh(x)
}

// Restore rebuilds a State from a snapshot taken by Export on a State of
// the same compiled strategy. Refresh recomputes the artifacts from the
// histogram first (validating shape), then the exported artifacts overwrite
// them so the restored State answers bitwise identically to the exported
// one — including any incremental-patch drift the recompute would erase. A
// shape mismatch in the artifacts is a corruption signal and fails without
// partial state.
func (p *Prepared) Restore(snap StateSnapshot) (*State, error) {
	st, err := p.Refresh(snap.X)
	if err != nil {
		return nil, err
	}
	if err := st.m.importState(snap.Artifacts); err != nil {
		return nil, fmt.Errorf("strategy: %s: restore: %w", p.Name, err)
	}
	return st, nil
}

// treeState maintains the Theorem 4.3 artifacts: the transformed vector
// x_G (patched along the dirty root-to-leaf path, O(depth) per cell) and
// the running total n behind the Lemma 4.10 alias correction.
type treeState struct {
	tr          *core.Transform
	stretch     int
	est         Estimator
	aliasCoeffs []float64
	recon       sparse.Operator
	queries     int
	xg          []float64
	n           float64
}

func (t *treeState) update(cell int, delta float64) {
	t.tr.UpdateTransform(t.xg, cell, delta)
	t.n += delta
}

func (t *treeState) updateCost(cell int) int { return t.tr.PathDepth(cell) }

func (t *treeState) recompute(x []float64) {
	t.tr.TransformInto(t.xg, x)
	t.n = sum(x)
}

// exportState flattens the Theorem 4.3 artifacts as [n, x_G...].
func (t *treeState) exportState() []float64 {
	out := make([]float64, 1+len(t.xg))
	out[0] = t.n
	copy(out[1:], t.xg)
	return out
}

func (t *treeState) importState(artifacts []float64) error {
	if len(artifacts) != 1+len(t.xg) {
		return fmt.Errorf("tree artifacts have %d entries, want %d", len(artifacts), 1+len(t.xg))
	}
	t.n = artifacts[0]
	copy(t.xg, artifacts[1:])
	return nil
}

func (t *treeState) answer(eps float64, src *noise.Source) ([]float64, error) {
	effEps := eps
	if eps > 0 {
		effEps = core.EffectiveEpsilon(eps, t.stretch)
	}
	// Estimators never write their input (see Estimator), so concurrent
	// answers share x_G.
	xge := t.est(t.xg, effEps, src)
	out := make([]float64, t.queries)
	if t.aliasCoeffs != nil {
		for i, c := range t.aliasCoeffs {
			out[i] = c * t.n
		}
	}
	t.recon.AddApply(out, xge)
	return out, nil
}

// satState maintains the exact-truth side of the range strategies: the
// inclusive prefix-sum (summed-area) table the range evaluators read.
// eval answers every workload query off the maintained table; noise is the
// strategy's per-release oracle pass.
type satState struct {
	sat   *sparse.SATState
	eval  func(table []float64) []float64
	noise func(out []float64, eps float64, src *noise.Source)
}

func (g *satState) update(cell int, delta float64) { g.sat.PointAdd(cell, delta) }

func (g *satState) updateCost(cell int) int { return g.sat.PointAddCost(cell) }

func (g *satState) recompute(x []float64) { g.sat.Recompute(x) }

func (g *satState) exportState() []float64 { return g.sat.Export() }

func (g *satState) importState(artifacts []float64) error { return g.sat.Restore(artifacts) }

// answer skips the noise pass at eps <= 0: every noise pass builds oracles
// that draw nothing and add zero there, so a noiseless release is W·x
// without building them.
func (g *satState) answer(eps float64, src *noise.Source) ([]float64, error) {
	out := g.eval(g.sat.Table())
	if eps > 0 {
		g.noise(out, eps, src)
	}
	return out, nil
}

// satPrepared assembles every summed-area-backed strategy (the grids, the
// θ-grid, the θ-line and the DP Privelet range baselines; with dims = {k}
// the table accumulation is bitwise identical to workload.PrefixSums): its
// fresh state is a sparse.SATState over x. blockRows > 0 selects the
// blocked per-slab table layout of a sharded compile (see shard.go): eval
// must then read slab tables, and PointAdd patches stop at slab boundaries
// so Stream.Apply stays o(k) per delta. blockRows = 0 is the global table.
func satPrepared(name string, w *workload.Workload, dims []int, blockRows int, pool *par.Pool,
	eval func(table []float64) []float64,
	noiseInto func(out []float64, eps float64, src *noise.Source)) *Prepared {
	return maintainedPrepared(name, w, nil, func(x []float64) (maintained, error) {
		sat, err := sparse.NewSATStateBlocked(dims, x, blockRows, pool)
		if err != nil {
			return nil, err
		}
		return &satState{sat: sat, eval: eval, noise: noiseInto}, nil
	})
}

// evalRects answers a fixed rectangle workload off a global table.
func evalRects(dims []int, rects []workload.RangeKd) func(table []float64) []float64 {
	return func(table []float64) []float64 {
		out := make([]float64, len(rects))
		for i, rq := range rects {
			out[i] = workload.EvalRangeKd(dims, table, rq)
		}
		return out
	}
}

// evalRanges is the 1-D specialization reading prefix sums.
func evalRanges(ranges []workload.Range1D) func(table []float64) []float64 {
	return func(table []float64) []float64 {
		out := make([]float64, len(ranges))
		for i, r := range ranges {
			out[i] = workload.EvalRange1D(table, r)
		}
		return out
	}
}
