// Package strategy implements the Blowfish-private algorithms of Section 5
// and the standard differentially private baselines they are compared
// against in Section 6. Tree policies (the line graph G¹_k and the spanners
// H^θ) go through the exact all-mechanism equivalence of Theorem 4.3: run
// any DP estimator on the transformed database x_G and recombine. Non-tree
// policies (the grid G¹_{k^d}, G^θ_{k²}) go through matrix-mechanism-style
// strategies (Theorem 4.1): noisy interval answers over the edge domain with
// noise calibrated to per-edge participation, reconstructed per query. One
// Theorem 5.4 strategy (rangekd.go) serves the grid at every d, with line
// oracles of any mech.OracleKind at d = 2; the θ-grid strategy of
// Theorem 5.6 (range2dtheta.go) runs it on its external lattice.
//
// Every strategy is built one way: its constructor returns an Algorithm
// whose Prepare does all workload-dependent work — strategy selection,
// sensitivity calibration, query-shape checks, reconstruction operators —
// and returns a Prepared whose Answer is the noise-and-reconstruct hot
// path. Algorithm.Run is only Prepare followed by one Answer. Config carries
// the compile-time knobs: MaxBlockCells shards the compile and the resulting
// reconstruction along contiguous domain blocks (queries blocks for tree
// policies) over the shared par.Pool, emitting sparse.BlockedOperator
// reconstructions whose fixed-order block reduce keeps sharded output within
// 1e-9 of the monolithic compile (bitwise on integer histograms); 0 shards
// automatically past sparse.DefaultShardCells, < 0 disables. The noise pass
// is never sharded — draws stay serial from one noise.Source, so sharded
// and unsharded releases consume identical noise streams.
//
// stream.go is the incremental side: a compiled strategy exposes refresh
// hooks that fold Delta batches into maintained state (root-path patches on
// tree transforms, slab-capped summed-area patches via sparse.SATState)
// with a cost-capped dense rebuild fallback, which is what Engine.OpenStream
// builds on.
package strategy

import (
	"fmt"

	"github.com/privacylab/blowfish/internal/core"
	"github.com/privacylab/blowfish/internal/mech"
	"github.com/privacylab/blowfish/internal/noise"
	"github.com/privacylab/blowfish/internal/par"
	"github.com/privacylab/blowfish/internal/policy"
	"github.com/privacylab/blowfish/internal/sparse"
	"github.com/privacylab/blowfish/internal/workload"
)

// Algorithm is a named mechanism that answers a workload on a histogram
// database with privacy budget eps. Every experiment in internal/eval runs a
// list of Algorithms side by side. The convention eps <= 0 means "no noise";
// tests use it to check that every algorithm is exact modulo its noise.
//
// Prepare compiles the strategy for one workload; the returned Prepared
// answers repeated releases without recompiling, and is what the public
// Engine/Plan API and the experiment grid use.
type Algorithm struct {
	Name    string
	Prepare func(w *workload.Workload) (*Prepared, error)
}

// Run compiles the strategy for w and makes one release over x: Prepare
// followed by Prepared.Answer, with the same output.
func (a Algorithm) Run(w *workload.Workload, x []float64, eps float64, src *noise.Source) ([]float64, error) {
	p, err := a.Prepare(w)
	if err != nil {
		return nil, err
	}
	return p.Answer(x, eps, src)
}

// Estimator produces a private estimate of a transformed database vector
// under unbounded differential privacy (one coordinate changing by ±1).
type Estimator func(xg []float64, eps float64, src *noise.Source) []float64

// LaplaceEstimator estimates the vector by per-coordinate Laplace noise with
// sensitivity 1 — the "Transformed + Laplace" strategy of Section 6.
func LaplaceEstimator(xg []float64, eps float64, src *noise.Source) []float64 {
	return mech.LaplaceVector(xg, 1, eps, src)
}

// ConsistentLaplaceEstimator adds Laplace noise and projects back onto
// non-decreasing vectors ("Transformed + ConsistentEst", §5.4.2). It is only
// meaningful when x_G is non-decreasing by construction, i.e. when the tree
// is a path rooted at one end so x_G is the prefix-sum vector.
func ConsistentLaplaceEstimator(xg []float64, eps float64, src *noise.Source) []float64 {
	return mech.IsotonicNonDecreasing(mech.LaplaceVector(xg, 1, eps, src))
}

// DawaEstimator estimates the vector with the data-dependent DAWA mechanism
// ("Trans + Dawa").
func DawaEstimator(xg []float64, eps float64, src *noise.Source) []float64 {
	return mech.NewDAWA(xg, eps, mech.DefaultPartitionRatio, src).Histogram()
}

// DawaConsistentEstimator runs DAWA then the non-decreasing projection
// ("Trans + Dawa + Cons").
func DawaConsistentEstimator(xg []float64, eps float64, src *noise.Source) []float64 {
	return mech.IsotonicNonDecreasing(DawaEstimator(xg, eps, src))
}

// TreePolicy answers any linear workload under a tree policy via
// Theorem 4.3: compute x_G exactly (O(k) subtree sums), estimate it with the
// given DP estimator at budget eps/stretch (Lemma 4.5 accounting; stretch is
// 1 when the tree is the policy itself), and evaluate each transformed query
// against the estimate plus the Lemma 4.10 constant correction.
func TreePolicy(name string, tr *core.Transform, stretch int, est Estimator, cfg Config) Algorithm {
	return Algorithm{Name: name, Prepare: func(w *workload.Workload) (*Prepared, error) {
		return CompileTree(name, tr, stretch, est, w, cfg)
	}}
}

// CompileTree compiles the Theorem 4.3 tree strategy for one workload: the
// per-query transformed supports and alias corrections are computed once, so
// the hot path is only x_G (O(k) over the memoized layout), one estimator
// call, and an O(nnz) operator application. The reconstruction matrix (one
// row per query, one column per edge, entries in support-discovery order, a
// fixed float accumulation order the answer golden pins) is kept as CSR when
// its density is below sparse.DefaultMaxDensity and materialized dense
// otherwise. Past the cfg sharding threshold the rows are built as
// per-query-block compile work items on the pool and concatenated — a
// byte-identical CSR, so answers never depend on the block size.
func CompileTree(name string, tr *core.Transform, stretch int, est Estimator, w *workload.Workload, cfg Config) (*Prepared, error) {
	return compileTree(name, tr, stretch, est, w, cfg, func(c *sparse.CSR) sparse.Operator {
		if c.Density() < sparse.DefaultMaxDensity {
			return c
		}
		return sparse.Dense{M: c.ToDense()}
	})
}

// CompileTreeDense compiles the same strategy but forces the dense
// reconstruction operator — the pre-sparse hot path, kept as the comparison
// baseline for the sparse-vs-dense equivalence suite and benchmarks.
func CompileTreeDense(name string, tr *core.Transform, stretch int, est Estimator, w *workload.Workload, cfg Config) (*Prepared, error) {
	return compileTree(name, tr, stretch, est, w, cfg, func(c *sparse.CSR) sparse.Operator {
		return sparse.Dense{M: c.ToDense()}
	})
}

func compileTree(name string, tr *core.Transform, stretch int, est Estimator, w *workload.Workload, cfg Config, pick func(*sparse.CSR) sparse.Operator) (*Prepared, error) {
	if !tr.IsTree() {
		return nil, fmt.Errorf("strategy: %s: policy %q is not a tree", name, tr.Policy.Name)
	}
	if w.K != tr.Policy.K {
		return nil, fmt.Errorf("strategy: %s: workload domain %d != policy domain %d", name, w.K, tr.Policy.K)
	}
	compilations.Add(1)
	edges := tr.Policy.G.Edges
	// aliasCoeffs[i]·n is query i's Lemma 4.10 constant correction; nil for
	// Case I policies, which need none.
	var aliasCoeffs []float64
	if tr.Alias >= 0 {
		aliasCoeffs = make([]float64, w.Len())
	}
	// buildRows fills one contiguous query block's reconstruction rows and
	// alias coefficients. Support discovery is deterministic per query, so
	// per-block builds visit exactly the entries the serial build would; each
	// block clones the shared index so discovery scratch is never contended.
	baseSup := newSupportIndex(tr)
	buildRows := func(b par.Block) *sparse.CSR {
		sup := baseSup.clone()
		rb := sparse.NewBuilder(b.Hi-b.Lo, len(edges))
		for i := b.Lo; i < b.Hi; i++ {
			q := w.Queries[i]
			if aliasCoeffs != nil {
				aliasCoeffs[i] = q.Coeff(tr.Alias)
			}
			for _, j := range sup.edges(q) {
				if c := tr.QueryCoeffOnEdge(q, edges[j]); c != 0 {
					rb.Add(i-b.Lo, j, c)
				}
			}
		}
		return rb.Build()
	}
	var csr *sparse.CSR
	if blockQueries := cfg.blockCells(w.Len()); blockQueries > 0 && w.Len() > blockQueries {
		blocks := sparse.ShardBlocks(w.Len(), 1, blockQueries)
		parts := make([]*sparse.CSR, len(blocks))
		cfg.pool().Do(par.Workers(0), len(blocks), func(i int) {
			parts[i] = buildRows(blocks[i])
		})
		var err error
		if csr, err = sparse.ConcatRows(parts); err != nil {
			return nil, fmt.Errorf("strategy: %s: %w", name, err)
		}
	} else {
		csr = buildRows(par.Block{Lo: 0, Hi: w.Len()})
	}
	recon := pick(csr)
	queries := w.Len()
	refresh := func(x []float64) (*State, error) {
		if err := checkDomain(w, x); err != nil {
			return nil, err
		}
		ts := &treeState{tr: tr, stretch: stretch, est: est, aliasCoeffs: aliasCoeffs,
			recon: recon, queries: queries, xg: make([]float64, len(edges))}
		return newState(name, x, ts, w.K), nil
	}
	answer := func(x []float64, eps float64, src *noise.Source) ([]float64, error) {
		if err := checkDomain(w, x); err != nil {
			return nil, err
		}
		xg, err := tr.DatabaseTransform(x)
		if err != nil {
			return nil, err
		}
		effEps := eps
		if eps > 0 {
			effEps = core.EffectiveEpsilon(eps, stretch)
		}
		xge := est(xg, effEps, src)
		out := make([]float64, queries)
		if aliasCoeffs != nil {
			n := sum(x)
			for i, c := range aliasCoeffs {
				out[i] = c * n
			}
		}
		recon.AddApply(out, xge)
		return out, nil
	}
	return &Prepared{Name: name, answer: answer, op: recon, refresh: refresh}, nil
}

// supportIndex narrows the edges that can carry nonzero transformed
// coefficients for a query. For 1-D policies whose edges span at most Theta
// positions (the line graph and the H^θ spanners), a range query's support
// edges all touch a vertex within Theta of the range boundary; for anything
// else it falls back to scanning every edge.
type supportIndex struct {
	tr       *core.Transform
	all      []int
	incident [][]int // vertex -> incident edge indices
	theta    int
	scratch  []int
	stamp    []int
	round    int
}

func newSupportIndex(tr *core.Transform) *supportIndex {
	s := &supportIndex{tr: tr}
	p := tr.Policy
	if len(p.Dims) == 1 && p.Theta >= 1 && !p.HasBottom {
		s.theta = p.Theta
		s.incident = make([][]int, p.G.N)
		for v := 0; v < p.G.N; v++ {
			v := v
			p.G.Neighbors(v, func(_, edge int) {
				s.incident[v] = append(s.incident[v], edge)
			})
		}
		s.stamp = make([]int, len(p.G.Edges))
		for i := range s.stamp {
			s.stamp[i] = -1
		}
		return s
	}
	s.all = make([]int, len(p.G.Edges))
	for i := range s.all {
		s.all[i] = i
	}
	return s
}

// clone returns an independent discovery cursor over the same immutable
// index: the incident lists are shared read-only, while the stamp/scratch
// state each concurrent per-block compile mutates is private. Cloning is
// O(|E|) (one stamp fill) against the O(|V|+|E|) adjacency build, which is
// what keeps the sharded tree compile's per-block overhead small.
func (s *supportIndex) clone() *supportIndex {
	c := &supportIndex{tr: s.tr, all: s.all, incident: s.incident, theta: s.theta}
	if s.stamp != nil {
		c.stamp = make([]int, len(s.stamp))
		for i := range c.stamp {
			c.stamp[i] = -1
		}
	}
	return c
}

// edges returns candidate edge indices for q (a superset of the support).
func (s *supportIndex) edges(q workload.Query) []int {
	if s.incident == nil {
		return s.all
	}
	l, r, ok := queryBounds(q)
	if !ok {
		return allEdges(s)
	}
	s.round++
	s.scratch = s.scratch[:0]
	k := s.tr.Policy.K
	add := func(v int) {
		if v < 0 || v >= k {
			return
		}
		for _, e := range s.incident[v] {
			if s.stamp[e] != s.round {
				s.stamp[e] = s.round
				s.scratch = append(s.scratch, e)
			}
		}
	}
	for v := l - s.theta; v <= l+s.theta; v++ {
		add(v)
	}
	for v := r - s.theta; v <= r+s.theta; v++ {
		add(v)
	}
	return s.scratch
}

func allEdges(s *supportIndex) []int {
	if s.all == nil {
		s.all = make([]int, len(s.tr.Policy.G.Edges))
		for i := range s.all {
			s.all[i] = i
		}
	}
	return s.all
}

// queryBounds extracts inclusive 1-D range bounds from the structured query
// types.
func queryBounds(q workload.Query) (int, int, bool) {
	switch t := q.(type) {
	case workload.Point:
		return int(t), int(t), true
	case workload.Prefix:
		return 0, int(t), true
	case workload.Range1D:
		return t.L, t.R, true
	}
	return 0, 0, false
}

// LinePolicyAlgorithms returns the Blowfish algorithms compared in the
// G¹_k experiments (Figures 8–9: Hist and 1D-Range): the transformed
// database is the prefix-sum vector, which is non-decreasing, so both
// consistency variants apply.
func LinePolicyAlgorithms(k int) ([]Algorithm, error) {
	tr, err := core.New(policy.Line(k))
	if err != nil {
		return nil, err
	}
	return []Algorithm{
		TreePolicy("Transformed + Laplace", tr, 1, LaplaceEstimator, Config{}),
		TreePolicy("Transformed + ConsistentEst", tr, 1, ConsistentLaplaceEstimator, Config{}),
		TreePolicy("Trans + Dawa + Cons", tr, 1, DawaConsistentEstimator, Config{}),
	}, nil
}

// ThetaLineAlgorithms returns the Blowfish algorithms for the G^θ_k
// experiments (Figure 8d/h): the spanner H^θ_k replaces the policy at
// ε/stretch, and x_G is no longer monotone so only the plain and DAWA
// estimators apply.
func ThetaLineAlgorithms(k, theta int) ([]Algorithm, error) {
	sp, err := policy.LineSpanner(k, theta)
	if err != nil {
		return nil, err
	}
	tr, err := core.New(sp.H)
	if err != nil {
		return nil, err
	}
	return []Algorithm{
		TreePolicy("Transformed + Laplace", tr, sp.Stretch, LaplaceEstimator, Config{}),
		TreePolicy("Trans + Dawa", tr, sp.Stretch, DawaEstimator, Config{}),
	}, nil
}

// checkDomain validates that the database matches the workload's domain.
func checkDomain(w *workload.Workload, x []float64) error {
	if len(x) != w.K {
		return fmt.Errorf("strategy: database size %d != workload domain %d", len(x), w.K)
	}
	return nil
}

func sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}
