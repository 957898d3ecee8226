// Package core implements the paper's primary contribution: the
// transformational equivalence between (ε, G)-Blowfish privacy and ordinary
// ε-differential privacy (Section 4). For a policy graph G it constructs the
// matrix P_G (Section 4.4) mapping the vertex domain to the edge domain,
// transforms workloads (W_G = W·P_G) and databases (x_G = P_G⁻¹·x), handles
// the bounded case by aliasing a vertex to ⊥ (Case II, Lemma 4.10), splits
// disconnected policies into components (Case III, Appendix E), and provides
// the subgraph-approximation budget accounting of Lemma 4.5.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/privacylab/blowfish/internal/graph"
	"github.com/privacylab/blowfish/internal/linalg"
	"github.com/privacylab/blowfish/internal/par"
	"github.com/privacylab/blowfish/internal/policy"
	"github.com/privacylab/blowfish/internal/sparse"
	"github.com/privacylab/blowfish/internal/workload"
)

// transformBuilds counts Transform constructions process-wide. Plan-reuse
// tests assert it stays flat across repeated releases through a compiled
// plan; the legacy per-call path bumps it on every Answer.
var transformBuilds atomic.Int64

// TransformBuilds returns the number of Transforms constructed so far.
func TransformBuilds() int64 { return transformBuilds.Load() }

// Transform carries the transformational-equivalence data for one connected
// policy graph. Columns of P_G are the policy edges in the order of
// Policy.G.Edges, oriented +1 at Edge.U and −1 at Edge.V (a column incident
// on ⊥ keeps only its non-⊥ entry, per Case I of Section 4.4).
type Transform struct {
	// Policy is the policy graph being transformed.
	Policy *policy.Policy
	// Alias is the domain vertex rewritten to play ⊥ for bounded policies
	// (Case II); −1 when the policy has a real ⊥ (Case I). Queries touching
	// the alias are rewritten with the database size n (Lemma 4.10) — see
	// ConstantCorrection.
	Alias int
	// root is ⊥'s vertex index in the underlying graph (the alias for
	// bounded policies), used as the tree root for the O(k) x_G fast path.
	root int
	// isTree caches whether the policy graph is a tree, enabling the exact
	// all-mechanism equivalence of Theorem 4.3 and the fast x_G path.
	isTree bool
	// layout is the memoized rooted-tree layout behind the O(k) x_G fast
	// path, computed once at construction so repeated DatabaseTransform calls
	// (and concurrent ones — it is read-only afterwards) skip the BFS.
	layout *treeLayout
	// pinvOnce/pinvOp memoize the Moore–Penrose right inverse of P_G used
	// by the non-tree DatabaseTransform fallback, wrapped in the operator
	// representation sparse.Select picks for its density.
	pinvOnce sync.Once
	pinvOp   sparse.Operator
	pinvErr  error
	// spgOnce/spg memoize the CSR form of P_G (two ±1 entries per column)
	// behind ReconstructVertexDatabase and the sparse-aware consumers.
	spgOnce sync.Once
	spg     *sparse.CSR
}

// treeLayout is the rooted parent structure of a tree policy graph. depth[v]
// is the number of edges on v's path to the root — the cost of one
// incremental UpdateTransform at v.
type treeLayout struct {
	parent, parentEdge, order []int
	depth                     []int
}

// New builds the transform for a connected policy. For bounded policies
// (no ⊥) the highest-index vertex is aliased to ⊥; use NewWithAlias to pick
// a different one (the choice affects only which queries need the Lemma 4.10
// rewrite, not correctness).
func New(p *policy.Policy) (*Transform, error) {
	if p.HasBottom {
		return newTransform(p, -1)
	}
	return newTransform(p, p.K-1)
}

// NewWithAlias builds the transform for a bounded policy aliasing vertex v
// to ⊥.
func NewWithAlias(p *policy.Policy, v int) (*Transform, error) {
	if p.HasBottom {
		return nil, fmt.Errorf("core: policy %q already has ⊥; no alias needed", p.Name)
	}
	if v < 0 || v >= p.K {
		return nil, fmt.Errorf("core: alias vertex %d out of domain [0,%d)", v, p.K)
	}
	return newTransform(p, v)
}

func newTransform(p *policy.Policy, alias int) (*Transform, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !p.Connected() {
		return nil, fmt.Errorf("core: policy %q is disconnected; use SplitComponents (Appendix E)", p.Name)
	}
	root := alias
	if p.HasBottom {
		root = p.Bottom()
	}
	t := &Transform{
		Policy: p,
		Alias:  alias,
		root:   root,
		isTree: p.G.IsTree(),
	}
	if t.isTree {
		parent, parentEdge, order, err := p.G.RootedParents(root)
		if err != nil {
			return nil, fmt.Errorf("core: tree layout: %w", err)
		}
		depth := make([]int, p.G.N)
		for _, v := range order[1:] {
			depth[v] = depth[parent[v]] + 1
		}
		t.layout = &treeLayout{parent: parent, parentEdge: parentEdge, order: order, depth: depth}
	}
	transformBuilds.Add(1)
	return t, nil
}

// NumEdges returns the edge-domain dimension |E| (the number of columns of
// P_G and the length of x_G).
func (t *Transform) NumEdges() int { return len(t.Policy.G.Edges) }

// Rows returns the number of rows of P_G: |V|−1, one per domain value other
// than the alias (Case II) or one per domain value (Case I, where ⊥ has no
// row).
func (t *Transform) Rows() int {
	if t.Alias >= 0 {
		return t.Policy.K - 1
	}
	return t.Policy.K
}

// IsTree reports whether the policy graph is a tree, in which case the
// equivalence holds for every mechanism (Theorem 4.3), not just matrix
// mechanisms (Theorem 4.1).
func (t *Transform) IsTree() bool { return t.isTree }

// coeff returns the effective coefficient of query q at graph vertex v: 0 at
// a real ⊥, the query's own coefficient otherwise (the alias vertex keeps its
// coefficient — the q[v]·n correction term is reported separately).
func (t *Transform) coeff(q workload.Query, v int) float64 {
	if t.Policy.HasBottom && v == t.Policy.Bottom() {
		return 0
	}
	return q.Coeff(v)
}

// QueryCoeffOnEdge returns the transformed query's coefficient on edge e:
// (q·P_G) evaluated at e's column, which is q[U] − q[V] under the orientation
// convention. For 0/1 counting queries this is ±1 exactly when e crosses the
// query's boundary (Lemma 5.1).
func (t *Transform) QueryCoeffOnEdge(q workload.Query, e graph.Edge) float64 {
	return t.coeff(q, e.U) - t.coeff(q, e.V)
}

// TransformQuery returns the dense edge-domain vector q_G = q·P_G.
func (t *Transform) TransformQuery(q workload.Query) []float64 {
	out := make([]float64, t.NumEdges())
	for i, e := range t.Policy.G.Edges {
		out[i] = t.QueryCoeffOnEdge(q, e)
	}
	return out
}

// ConstantCorrection returns the additive constant c(q, n) of Lemma 4.10 for
// one query: q·x = q_G·x_G + c(q, n) where n is the database size. It is
// q[alias]·n for bounded policies and 0 when the policy has a real ⊥.
func (t *Transform) ConstantCorrection(q workload.Query, n float64) float64 {
	if t.Alias < 0 {
		return 0
	}
	return q.Coeff(t.Alias) * n
}

// PG materializes the dense transformation matrix P_G with Rows() rows and
// NumEdges() columns. Row r corresponds to domain value r, skipping the
// alias for bounded policies. Intended for verification and small domains;
// strategies use the sparse accessors above.
func (t *Transform) PG() *linalg.Matrix {
	m := linalg.New(t.Rows(), t.NumEdges())
	for j, e := range t.Policy.G.Edges {
		if r, ok := t.rowOf(e.U); ok {
			m.Set(r, j, 1)
		}
		if r, ok := t.rowOf(e.V); ok {
			m.Set(r, j, -1)
		}
	}
	return m
}

// SparsePG returns the memoized CSR form of P_G: Rows()×NumEdges() with two
// ±1 entries per column (one for columns incident on ⊥/alias). Each row's
// entries come out in ascending edge order — the order the dense PG holds
// them — so CSR kernels over it are bitwise compatible with the dense path.
// The result is immutable and shared; callers must not modify it.
func (t *Transform) SparsePG() *sparse.CSR {
	t.spgOnce.Do(func() {
		edges := t.Policy.G.Edges
		rows := t.Rows()
		// Count entries per row, then fill in ascending edge order per row.
		rowPtr := make([]int, rows+1)
		for _, e := range edges {
			if r, ok := t.rowOf(e.U); ok {
				rowPtr[r+1]++
			}
			if r, ok := t.rowOf(e.V); ok {
				rowPtr[r+1]++
			}
		}
		for r := 0; r < rows; r++ {
			rowPtr[r+1] += rowPtr[r]
		}
		next := make([]int, rows)
		copy(next, rowPtr[:rows])
		colIdx := make([]int, rowPtr[rows])
		val := make([]float64, rowPtr[rows])
		for j, e := range edges {
			if r, ok := t.rowOf(e.U); ok {
				colIdx[next[r]], val[next[r]] = j, 1
				next[r]++
			}
			if r, ok := t.rowOf(e.V); ok {
				colIdx[next[r]], val[next[r]] = j, -1
				next[r]++
			}
		}
		t.spg = &sparse.CSR{Rows: rows, Cols: len(edges), RowPtr: rowPtr, ColIdx: colIdx, Val: val}
	})
	return t.spg
}

// rowOf maps a graph vertex to its P_G row, reporting false for ⊥/alias.
func (t *Transform) rowOf(v int) (int, bool) {
	if t.Policy.HasBottom && v == t.Policy.Bottom() {
		return 0, false
	}
	if t.Alias >= 0 {
		if v == t.Alias {
			return 0, false
		}
		if v > t.Alias {
			return v - 1, true
		}
	}
	return v, true
}

// VertexOfRow is the inverse of rowOf: the domain value behind P_G row r.
func (t *Transform) VertexOfRow(r int) int {
	if t.Alias >= 0 && r >= t.Alias {
		return r + 1
	}
	return r
}

// ReducedDatabase returns the database vector matching P_G's rows: x itself
// for Case I, x with the alias entry dropped (x_{−v} of Lemma 4.10) for
// Case II.
func (t *Transform) ReducedDatabase(x []float64) []float64 {
	if len(x) != t.Policy.K {
		panic(fmt.Sprintf("core: database size %d != domain %d", len(x), t.Policy.K))
	}
	if t.Alias < 0 {
		out := make([]float64, len(x))
		copy(out, x)
		return out
	}
	out := make([]float64, 0, len(x)-1)
	out = append(out, x[:t.Alias]...)
	out = append(out, x[t.Alias+1:]...)
	return out
}

// TransformWorkload materializes the dense transformed workload
// W_G = W·P_G (one row per query, one column per edge). Query rows are
// independent, so they fan out over the shared worker pool under the linalg
// worker setting; the result is identical at every parallelism level.
func (t *Transform) TransformWorkload(w *workload.Workload) *linalg.Matrix {
	m := linalg.New(w.Len(), t.NumEdges())
	par.Shared().Do(par.Workers(linalg.Parallelism()), w.Len(), func(i int) {
		q := w.Queries[i]
		row := m.Row(i)
		for j, e := range t.Policy.G.Edges {
			row[j] = t.QueryCoeffOnEdge(q, e)
		}
	})
	return m
}

// SparseTransformWorkload builds W_G directly in CSR form. Transformed range
// queries are supported on their boundary edges (Lemma 5.1), so the result
// carries O(1)–O(θ) entries per row where the dense materialization holds
// |E|; each row keeps ascending edge order, matching the dense row layout.
func (t *Transform) SparseTransformWorkload(w *workload.Workload) *sparse.CSR {
	edges := t.Policy.G.Edges
	type rowbuf struct {
		cols []int
		vals []float64
	}
	rows := make([]rowbuf, w.Len())
	par.Shared().Do(par.Workers(linalg.Parallelism()), w.Len(), func(i int) {
		q := w.Queries[i]
		var rb rowbuf
		for j, e := range edges {
			if c := t.QueryCoeffOnEdge(q, e); c != 0 {
				rb.cols = append(rb.cols, j)
				rb.vals = append(rb.vals, c)
			}
		}
		rows[i] = rb
	})
	b := sparse.NewBuilder(w.Len(), len(edges))
	for i, rb := range rows {
		for p, j := range rb.cols {
			b.Add(i, j, rb.vals[p])
		}
	}
	return b.Build()
}

// DatabaseTransform computes x_G = P_G⁻¹·x(reduced). For tree policies it
// runs the O(k) subtree-sum construction (for the line graph this yields the
// prefix sums of Example 4.1); otherwise it falls back to the Moore–Penrose
// right inverse, applied through the operator representation sparse.Select
// picks for its density.
func (t *Transform) DatabaseTransform(x []float64) ([]float64, error) {
	if len(x) != t.Policy.K {
		return nil, fmt.Errorf("core: database size %d != domain %d", len(x), t.Policy.K)
	}
	if t.isTree {
		xg := make([]float64, t.NumEdges())
		t.treeDatabaseTransformInto(xg, x)
		return xg, nil
	}
	op, err := t.pinvOperator()
	if err != nil {
		return nil, fmt.Errorf("core: DatabaseTransform: %w", err)
	}
	out := make([]float64, t.NumEdges())
	op.Apply(out, t.ReducedDatabase(x))
	return out, nil
}

// pinvOperator memoizes P_G⁺ wrapped in its density-selected operator.
func (t *Transform) pinvOperator() (sparse.Operator, error) {
	t.pinvOnce.Do(func() {
		pinv, err := linalg.RightInverse(t.PG())
		if err != nil {
			t.pinvErr = err
			return
		}
		t.pinvOp = sparse.Select(pinv, 0)
	})
	return t.pinvOp, t.pinvErr
}

// treeDatabaseTransformInto computes x_G for a tree policy into xg: the
// value on each edge is ± the total count of the subtree hanging below it
// (away from ⊥/alias), signed by the edge orientation. This solves
// P_G·x_G = x exactly.
func (t *Transform) treeDatabaseTransformInto(xg, x []float64) {
	g := t.Policy.G
	if len(xg) != len(g.Edges) || len(x) != t.Policy.K {
		panic(fmt.Sprintf("core: tree transform shape mismatch %d ← %d", len(xg), len(x)))
	}
	parent, parentEdge, order := t.layout.parent, t.layout.parentEdge, t.layout.order
	down := make([]float64, g.N)
	for v := 0; v < g.N; v++ {
		if t.Policy.HasBottom && v == t.Policy.Bottom() {
			continue
		}
		if v == t.root {
			continue // alias value excluded: its row was dropped (x_{−v})
		}
		down[v] = x[v]
	}
	// Accumulate subtree sums bottom-up (reverse BFS preorder).
	for i := len(order) - 1; i >= 1; i-- {
		v := order[i]
		p := parent[v]
		e := g.Edges[parentEdge[v]]
		if e.U == v {
			xg[parentEdge[v]] = down[v]
		} else {
			xg[parentEdge[v]] = -down[v]
		}
		down[p] += down[v]
	}
}

// TransformInto is DatabaseTransform for tree policies writing into a
// caller-provided xg (len NumEdges()) — the dense-recompute path of the
// streaming state, bitwise identical to DatabaseTransform.
func (t *Transform) TransformInto(xg, x []float64) {
	if !t.isTree {
		panic("core: TransformInto requires a tree policy")
	}
	t.treeDatabaseTransformInto(xg, x)
}

// UpdateTransform folds a single-cell delta into a maintained x_G for a tree
// policy: adding delta at domain value cell changes exactly the subtree sums
// on cell's root path, so the patch walks parent pointers adjusting the
// signed edge values in O(PathDepth(cell)). A delta at ⊥/alias leaves x_G
// unchanged (its row was dropped from P_G).
func (t *Transform) UpdateTransform(xg []float64, cell int, delta float64) {
	if !t.isTree {
		panic("core: UpdateTransform requires a tree policy")
	}
	if t.Policy.HasBottom && cell == t.Policy.Bottom() {
		return
	}
	g := t.Policy.G
	parent, parentEdge := t.layout.parent, t.layout.parentEdge
	for v := cell; v != t.root; v = parent[v] {
		e := parentEdge[v]
		if g.Edges[e].U == v {
			xg[e] += delta
		} else {
			xg[e] -= delta
		}
	}
}

// PathDepth returns the number of edges on cell's root path — the cost of
// one incremental UpdateTransform there. Zero for ⊥/alias.
func (t *Transform) PathDepth(cell int) int {
	if !t.isTree {
		panic("core: PathDepth requires a tree policy")
	}
	if t.Policy.HasBottom && cell == t.Policy.Bottom() {
		return 0
	}
	return t.layout.depth[cell]
}

// ReconstructVertexDatabase inverts the tree transform: given x_G it returns
// the reduced vertex database P_G·x_G (all domain values except ⊥/alias),
// applied through the memoized CSR form of P_G in O(nnz) = O(|E|). Each
// output entry accumulates over its incident edges in ascending edge order —
// exactly the order the previous dense column scatter produced — so results
// are bitwise unchanged.
func (t *Transform) ReconstructVertexDatabase(xg []float64) []float64 {
	if len(xg) != t.NumEdges() {
		panic(fmt.Sprintf("core: xg length %d != edges %d", len(xg), t.NumEdges()))
	}
	return t.SparsePG().MulVec(xg)
}

// PolicySensitivity returns Δ_W(G), which by Lemma 4.7 equals the ordinary
// sensitivity of the transformed workload W_G.
func (t *Transform) PolicySensitivity(w *workload.Workload) float64 {
	return w.PolicySensitivity(t.Policy)
}

// EffectiveEpsilon applies Lemma 4.5 (subgraph approximation): to guarantee
// (ε, G)-Blowfish privacy via an ℓ-approximate spanner, run the spanner
// mechanism at ε/ℓ.
func EffectiveEpsilon(eps float64, stretch int) float64 {
	if stretch < 1 {
		panic("core: stretch must be >= 1")
	}
	return eps / float64(stretch)
}
