package blowfish

import (
	"context"
	"fmt"
	"math"
	"sync"

	"github.com/privacylab/blowfish/internal/core"
	"github.com/privacylab/blowfish/internal/mech"
	"github.com/privacylab/blowfish/internal/par"
	"github.com/privacylab/blowfish/internal/policy"
	"github.com/privacylab/blowfish/internal/strategy"
)

// EngineOptions configures a long-lived Engine.
type EngineOptions struct {
	// Budget caps the cumulative (ε, δ) spend across every release made
	// through the Engine's default Accountant (basic sequential
	// composition). The zero value means unlimited: spend is tracked but
	// never enforced. Per-tenant budgets are independent of this knob:
	// create accountants with NewAccountant and pass them to
	// Plan.AnswerWith.
	Budget Budget

	// Parallelism caps the worker fan-out of AnswerBatch calls on this
	// Engine's plans: <= 0 (the default) draws from the process-wide
	// shared pool (one worker per CPU, shared with the kernels so nested
	// fan-outs cannot multiply goroutines); n >= 1 gives the Engine a
	// dedicated pool of n workers.
	Parallelism int

	// ShardBlock controls domain sharding of strategy compiles and
	// reconstructions (ROADMAP "Domain sharding past 10⁶ cells"). 0 (the
	// default) is automatic: domains larger than 65536 cells shard into
	// contiguous blocks of that size, compiled as parallel work items and
	// reduced in fixed block order so answers are bitwise independent of
	// worker count; smaller domains keep the exact pre-sharding path. A
	// value n >= 1 forces blocks of at most n cells (grid domains round to
	// whole dim-0 slices); n < 0 disables sharding entirely. Streams opened
	// from a sharded plan maintain per-block summed-area tables, capping
	// Stream.Apply patch cost at the block size instead of the domain size.
	ShardBlock int
}

func (o EngineOptions) validate() error {
	// Negative, NaN and infinite budgets are all rejected (NaN fails every
	// comparison, which would silently disable enforcement); use the zero
	// value for an unlimited budget.
	return o.Budget.validate()
}

// validate is the single validation point for per-plan Options, shared by
// Answer, SelectAlgorithm and Engine.Prepare.
func (o Options) validate() error {
	if o.Theta < 0 {
		return fmt.Errorf("blowfish: negative theta %d: %w", o.Theta, ErrInvalidOptions)
	}
	if !(o.Delta >= 0) || math.IsInf(o.Delta, 1) { // also rejects NaN
		return fmt.Errorf("blowfish: non-finite or negative delta %g: %w", o.Delta, ErrInvalidOptions)
	}
	if o.Estimator == EstimatorGaussian && o.Delta <= 0 {
		return fmt.Errorf("blowfish: EstimatorGaussian requires Delta > 0 (Appendix A): %w", ErrInvalidOptions)
	}
	return nil
}

// Engine is the compile-once, serve-many entry point: Open validates a
// policy and caches its transform/spanner artifacts; Prepare binds a
// workload to the selected strategy, returning a Plan whose Answer runs
// only the noise-and-reconstruct hot path. An Engine and its Plans are safe
// for concurrent use (each concurrent caller needs its own noise Source).
type Engine struct {
	p    *policy.Policy
	acct *Accountant
	pool *par.Pool
	cfg  strategy.Config // sharding knobs threaded into every compile

	// mu guards trees, the per-(branch, theta) transform artifact cache.
	// Artifacts are immutable once stored, so Plans use them lock-free.
	mu    sync.Mutex
	trees map[treeKey]*treeArtifact
}

// treeKey identifies one cached transform artifact.
type treeKey struct {
	branch string // "tree", "theta-line", "bfs"
	theta  int
}

// treeArtifact is a compiled policy transform with its Lemma 4.5 stretch.
type treeArtifact struct {
	name    string
	tr      *core.Transform
	stretch int
}

// Open compiles and caches the policy-level artifacts once and returns a
// long-lived Engine. For tree policies the P_G transform is built eagerly;
// for 1-D distance-threshold policies the stretch-3 spanner H^θ_k and its
// transform are; grid policies compile per-workload in Prepare. The
// returned Engine tracks cumulative privacy spend in its Accountant.
func Open(p *Policy, opts EngineOptions) (*Engine, error) {
	if p == nil {
		return nil, fmt.Errorf("blowfish: nil policy: %w", ErrInvalidOptions)
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		// An inconsistent policy is an invalid input like any other: callers
		// branch on ErrInvalidOptions, with the policy's own diagnosis kept
		// in the chain.
		return nil, fmt.Errorf("blowfish: %w (%w)", err, ErrInvalidOptions)
	}
	pool := par.Shared()
	if opts.Parallelism >= 1 {
		pool = par.NewPool(opts.Parallelism)
	}
	e := &Engine{
		p:     p,
		acct:  newAccountant(opts.Budget),
		pool:  pool,
		cfg:   strategy.Config{MaxBlockCells: opts.ShardBlock, Pool: pool},
		trees: map[treeKey]*treeArtifact{},
	}
	// Eagerly compile the default-branch artifact so the first Prepare (and
	// every later one) reuses it.
	switch {
	case p.G.IsTree():
		if _, err := e.treeArtifact(treeKey{branch: "tree"}); err != nil {
			return nil, err
		}
	case len(p.Dims) == 1 && p.Theta >= 1:
		if _, err := e.treeArtifact(treeKey{branch: "theta-line", theta: p.Theta}); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Policy returns the policy the Engine was opened with.
func (e *Engine) Policy() *Policy { return e.p }

// Accountant returns the Engine's budget accountant.
func (e *Engine) Accountant() *Accountant { return e.acct }

// treeArtifact returns the cached transform artifact for key, compiling it
// on first use.
func (e *Engine) treeArtifact(key treeKey) (*treeArtifact, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if art, ok := e.trees[key]; ok {
		return art, nil
	}
	var art *treeArtifact
	switch key.branch {
	case "tree":
		tr, err := core.New(e.p)
		if err != nil {
			return nil, err
		}
		art = &treeArtifact{name: "blowfish(tree)", tr: tr, stretch: 1}
	case "theta-line":
		sp, err := policy.LineSpanner(e.p.K, key.theta)
		if err != nil {
			return nil, err
		}
		tr, err := core.New(sp.H)
		if err != nil {
			return nil, err
		}
		art = &treeArtifact{name: "blowfish(theta-line)", tr: tr, stretch: sp.Stretch}
	case "bfs":
		sp, err := policy.BFSSpanner(e.p, 0)
		if err != nil {
			return nil, err
		}
		tr, err := core.New(sp.H)
		if err != nil {
			return nil, err
		}
		art = &treeArtifact{name: "blowfish(bfs-tree)", tr: tr, stretch: sp.Stretch}
	default:
		return nil, fmt.Errorf("blowfish: unknown artifact branch %q", key.branch)
	}
	e.trees[key] = art
	return art, nil
}

// algorithm resolves the strategy branch for (w, opts), with
// transform/spanner artifacts served from the Engine cache.
func (e *Engine) algorithm(w *Workload, opts Options) (Algorithm, error) {
	if err := opts.validate(); err != nil {
		return Algorithm{}, err
	}
	p := e.p
	theta := opts.Theta
	if theta == 0 {
		theta = p.Theta
	}
	switch {
	case p.G.IsTree():
		art, err := e.treeArtifact(treeKey{branch: "tree"})
		if err != nil {
			return Algorithm{}, err
		}
		return strategy.TreePolicy(art.name, art.tr, art.stretch, estimatorFunc(opts), e.cfg), nil
	case len(p.Dims) == 1 && theta >= 1:
		art, err := e.treeArtifact(treeKey{branch: "theta-line", theta: theta})
		if err != nil {
			return Algorithm{}, err
		}
		return strategy.TreePolicy(art.name, art.tr, art.stretch, estimatorFunc(opts), e.cfg), nil
	case len(p.Dims) >= 2 && theta == 1 && rangesOnly(w):
		return strategy.GridPolicyRangeKd(p.Dims, mech.PriveletKind, e.cfg), nil
	case len(p.Dims) == 2 && theta > 1 && rangesOnly(w):
		return strategy.ThetaGridRange2D(p.Dims, theta, e.cfg), nil
	case p.Connected():
		// Generic fallback: BFS spanning tree with computed stretch.
		art, err := e.treeArtifact(treeKey{branch: "bfs"})
		if err != nil {
			return Algorithm{}, err
		}
		return strategy.TreePolicy(art.name, art.tr, art.stretch, estimatorFunc(opts), e.cfg), nil
	default:
		return Algorithm{}, fmt.Errorf("blowfish: policy %q is disconnected; split it with SplitComponents: %w",
			p.Name, ErrDisconnectedPolicy)
	}
}

// Prepare binds workload w to the strategy the Engine selects for it,
// compiling the strategy matrices, sensitivities and per-query supports
// once. The returned Plan answers repeated releases without any
// recompilation and is safe for concurrent use.
func (e *Engine) Prepare(w *Workload, opts Options) (*Plan, error) {
	if w == nil {
		return nil, fmt.Errorf("blowfish: nil workload: %w", ErrInvalidOptions)
	}
	if w.K != e.p.K {
		return nil, fmt.Errorf("blowfish: workload domain %d != policy domain %d: %w", w.K, e.p.K, ErrDomainMismatch)
	}
	alg, err := e.algorithm(w, opts)
	if err != nil {
		return nil, err
	}
	prep, err := alg.Prepare(w)
	if err != nil {
		return nil, err
	}
	var delta float64
	if opts.Estimator == EstimatorGaussian {
		delta = opts.Delta
	}
	return &Plan{eng: e, prep: prep, k: e.p.K, queries: w.Len(), delta: delta, opts: opts, w: w}, nil
}

// Plan is a workload bound to a compiled strategy. Answer and AnswerBatch
// run only the noise-and-reconstruct hot path; the Plan itself is immutable
// and safe for concurrent use from many goroutines as long as each call
// gets its own Source.
type Plan struct {
	eng     *Engine
	prep    *strategy.Prepared
	k       int
	queries int
	delta   float64 // per-release δ spend (Gaussian estimator), else 0
	opts    Options // the options the plan was prepared with
	w       *Workload
}

// Algorithm returns the name of the compiled strategy, matching the names
// SelectAlgorithm reports ("blowfish(tree)", "Transformed + Privelet", …).
func (pl *Plan) Algorithm() string { return pl.prep.Name }

// Queries returns the number of workload queries the Plan answers.
func (pl *Plan) Queries() int { return pl.queries }

// Domain returns the policy/database domain size the Plan answers over.
func (pl *Plan) Domain() int { return pl.k }

// Cost returns the (ε, δ) one release of this plan at budget eps charges an
// accountant: eps itself, plus the plan's per-release δ when it was prepared
// with the Gaussian estimator. Serving layers that keep their own ledgers
// release through AnswerWith with a nil accountant and charge Cost against
// the tenant's accountant themselves, after the release is computed and
// before it is delivered, so nothing is spent for an answer never sent.
func (pl *Plan) Cost(eps float64) Budget { return Budget{Epsilon: eps, Delta: pl.delta} }

// Answer releases the plan's workload over histogram x under
// (eps, p)-Blowfish privacy, charging the Engine's default Accountant
// first. The convention eps <= 0 disables noise (and is rejected under a
// finite budget). The output is bitwise identical to what the one-shot
// Answer produces for the same inputs and Source state. Answer is
// AnswerWith(context.Background(), engine accountant, …).
func (pl *Plan) Answer(x []float64, eps float64, src *Source) ([]float64, error) {
	return pl.AnswerWith(context.Background(), pl.eng.acct, x, eps, src)
}

// AnswerContext is Answer honoring ctx: a canceled or expired context is
// reported (with ctx.Err in the chain) before any budget is charged.
func (pl *Plan) AnswerContext(ctx context.Context, x []float64, eps float64, src *Source) ([]float64, error) {
	return pl.AnswerWith(ctx, pl.eng.acct, x, eps, src)
}

// AnswerWith is the fully general release entry point: it validates inputs,
// charges one release of Cost(eps) against acct, and runs the compiled
// noise-and-reconstruct hot path. The accountant is decoupled from the
// Engine so one compiled plan can serve many tenants: pass a per-tenant
// accountant from NewAccountant, the Engine's own via Engine.Accountant, or
// nil when the caller has already accounted for the release (for example
// through Accountant.Charge at admission time).
func (pl *Plan) AnswerWith(ctx context.Context, acct *Accountant, x []float64, eps float64, src *Source) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("blowfish: nil noise source: %w", ErrInvalidOptions)
	}
	if len(x) != pl.k {
		return nil, fmt.Errorf("blowfish: database size %d != policy domain %d: %w", len(x), pl.k, ErrDomainMismatch)
	}
	if acct != nil {
		if err := acct.charge(eps, pl.delta, 1); err != nil {
			return nil, err
		}
	}
	return pl.prep.Answer(x, eps, src)
}

// AnswerBatch releases the plan's workload over every database in xs at
// budget eps each, charging the Accountant for all of them atomically
// (all or nothing) and fanning the releases out over the Engine's worker
// pool (so batch fan-out and the kernels inside each release draw from one
// goroutine budget). Noise streams are pre-split from src in serial order,
// so the results are identical to len(xs) sequential Answer calls each
// given src.Split().
func (pl *Plan) AnswerBatch(xs [][]float64, eps float64, src *Source) ([][]float64, error) {
	return pl.AnswerBatchWith(context.Background(), pl.eng.acct, xs, eps, src)
}

// AnswerBatchContext is AnswerBatch honoring ctx. Cancellation is checked
// before the budget charge and again between the releases of the batch, so
// a deadline cuts a long batch short; releases already computed when the
// context fires are discarded, and the batch's charge — made atomically up
// front — stays spent (noise for them may already have been drawn, so
// refunding would overspend the budget).
func (pl *Plan) AnswerBatchContext(ctx context.Context, xs [][]float64, eps float64, src *Source) ([][]float64, error) {
	return pl.AnswerBatchWith(ctx, pl.eng.acct, xs, eps, src)
}

// AnswerBatchWith is AnswerBatchContext charging an arbitrary accountant:
// per-tenant ones from NewAccountant, the Engine's own, or nil when the
// caller has already accounted for the whole batch.
func (pl *Plan) AnswerBatchWith(ctx context.Context, acct *Accountant, xs [][]float64, eps float64, src *Source) ([][]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, x := range xs {
		if len(x) != pl.k {
			return nil, fmt.Errorf("blowfish: database %d size %d != policy domain %d: %w", i, len(x), pl.k, ErrDomainMismatch)
		}
	}
	if len(xs) == 0 {
		return nil, nil
	}
	if src == nil {
		return nil, fmt.Errorf("blowfish: nil noise source: %w", ErrInvalidOptions)
	}
	if acct != nil {
		if err := acct.charge(eps, pl.delta, len(xs)); err != nil {
			return nil, err
		}
	}
	srcs := src.SplitN(len(xs))
	return pl.prep.AnswerBatch(xs, eps, srcs, pl.eng.pool, ctx.Err)
}
