package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/privacylab/blowfish/internal/graph"
	"github.com/privacylab/blowfish/internal/linalg"
	"github.com/privacylab/blowfish/internal/policy"
	"github.com/privacylab/blowfish/internal/workload"
)

func randomHistogram(rng *rand.Rand, k int) []float64 {
	x := make([]float64, k)
	for i := range x {
		x[i] = float64(rng.Intn(20))
	}
	return x
}

func TestPGShapeAndRankUnbounded(t *testing.T) {
	// Case I: unbounded star on k values — P_G is k×k with rank k.
	p := policy.Unbounded(6)
	tr, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	pg := tr.PG()
	if pg.Rows != 6 || pg.Cols != 6 {
		t.Fatalf("P_G shape %dx%d", pg.Rows, pg.Cols)
	}
	if r := linalg.Rank(pg); r != 6 {
		t.Fatalf("rank = %d, want 6 (Lemma 4.8)", r)
	}
}

func TestPGShapeAndRankLine(t *testing.T) {
	// Case II: line on k values, alias at k−1 — P_G is (k−1)×(k−1), full rank.
	p := policy.Line(5)
	tr, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	pg := tr.PG()
	if pg.Rows != 4 || pg.Cols != 4 {
		t.Fatalf("P_G shape %dx%d", pg.Rows, pg.Cols)
	}
	if r := linalg.Rank(pg); r != 4 {
		t.Fatalf("rank = %d, want 4", r)
	}
}

func TestPGRankGeneralGraphs(t *testing.T) {
	// Lemma 4.8: P_G always has full row rank for connected policies.
	policies := []*policy.Policy{
		policy.Bounded(5),
		policy.Grid(3),
		policy.Unbounded(4),
	}
	if p, err := policy.DistanceThreshold([]int{8}, 3); err == nil {
		policies = append(policies, p)
	}
	for _, p := range policies {
		tr, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		pg := tr.PG()
		if r := linalg.Rank(pg); r != tr.Rows() {
			t.Fatalf("%s: rank %d != rows %d", p.Name, r, tr.Rows())
		}
	}
}

func TestExamplePGFromFigure2(t *testing.T) {
	// Figure 2: line graph a−b−c−⊥ (4 vertices with ⊥ at the right end).
	// P_G should be the bidiagonal matrix and P_G⁻¹ the cumulative matrix.
	g := graph.New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3) // 3 = ⊥
	p := &policy.Policy{Name: "fig2", K: 3, HasBottom: true, G: g}
	tr, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	pg := tr.PG()
	want := linalg.FromRows([][]float64{
		{1, 0, 0},
		{-1, 1, 0},
		{0, -1, 1},
	})
	if linalg.MaxAbsDiff(pg, want) > 0 {
		t.Fatalf("P_G = %v, want Figure 2 matrix", pg.Data)
	}
	// P_G · C = I where C is the cumulative (prefix-sum) matrix = P_G⁻¹.
	c := linalg.FromRows([][]float64{
		{1, 0, 0},
		{1, 1, 0},
		{1, 1, 1},
	})
	if linalg.MaxAbsDiff(linalg.Mul(pg, c), linalg.Identity(3)) > 1e-12 {
		t.Fatal("Figure 2 inverse mismatch")
	}
	// And DatabaseTransform must produce prefix sums.
	x := []float64{3, 1, 4}
	xg, err := tr.DatabaseTransform(x)
	if err != nil {
		t.Fatal(err)
	}
	wantXG := []float64{3, 4, 8}
	for i := range wantXG {
		if math.Abs(xg[i]-wantXG[i]) > 1e-12 {
			t.Fatalf("x_G = %v, want %v", xg, wantXG)
		}
	}
}

func TestTreeTransformSolvesPG(t *testing.T) {
	// For every tree policy, P_G·x_G must equal the reduced database.
	rng := rand.New(rand.NewSource(21))
	cases := []*policy.Policy{
		policy.Line(7),
		policy.Unbounded(6),
	}
	if sp, err := policy.LineSpanner(12, 3); err == nil {
		cases = append(cases, sp.H)
	}
	for _, p := range cases {
		tr, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		if !tr.IsTree() {
			t.Fatalf("%s should be a tree", p.Name)
		}
		x := randomHistogram(rng, p.K)
		xg, err := tr.DatabaseTransform(x)
		if err != nil {
			t.Fatal(err)
		}
		back := linalg.MulVec(tr.PG(), xg)
		reduced := tr.ReducedDatabase(x)
		for i := range reduced {
			if math.Abs(back[i]-reduced[i]) > 1e-9 {
				t.Fatalf("%s: P_G·x_G[%d] = %g, want %g", p.Name, i, back[i], reduced[i])
			}
		}
	}
}

func TestDenseTransformSolvesPG(t *testing.T) {
	// Non-tree policies use the dense pseudo-inverse; P_G·x_G must still
	// reproduce the reduced database.
	rng := rand.New(rand.NewSource(22))
	for _, p := range []*policy.Policy{policy.Grid(3), policy.Bounded(5)} {
		tr, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		x := randomHistogram(rng, p.K)
		xg, err := tr.DatabaseTransform(x)
		if err != nil {
			t.Fatal(err)
		}
		back := linalg.MulVec(tr.PG(), xg)
		reduced := tr.ReducedDatabase(x)
		for i := range reduced {
			if math.Abs(back[i]-reduced[i]) > 1e-7 {
				t.Fatalf("%s: P_G·x_G[%d] = %g, want %g", p.Name, i, back[i], reduced[i])
			}
		}
	}
}

// answersMatch checks the fundamental equivalence W·x = W_G·x_G + c(W, n).
func answersMatch(t *testing.T, p *policy.Policy, w *workload.Workload, x []float64) {
	t.Helper()
	tr, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	xg, err := tr.DatabaseTransform(x)
	if err != nil {
		t.Fatal(err)
	}
	var n float64
	for _, v := range x {
		n += v
	}
	truth := w.Answers(x)
	for qi, q := range w.Queries {
		got := tr.ConstantCorrection(q, n)
		qg := tr.TransformQuery(q)
		for j, c := range qg {
			got += c * xg[j]
		}
		if math.Abs(got-truth[qi]) > 1e-7*(1+math.Abs(truth[qi])) {
			t.Fatalf("%s query %d: transformed answer %g, truth %g", p.Name, qi, got, truth[qi])
		}
	}
}

func TestEquivalenceIdentityOnLine(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	k := 9
	answersMatch(t, policy.Line(k), workload.Identity(k), randomHistogram(rng, k))
}

func TestEquivalenceCumulativeOnLine(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	k := 9
	answersMatch(t, policy.Line(k), workload.Cumulative(k), randomHistogram(rng, k))
}

func TestEquivalenceRangesOnLine(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	k := 11
	answersMatch(t, policy.Line(k), workload.AllRanges1D(k), randomHistogram(rng, k))
}

func TestEquivalenceRangesOnThetaSpanner(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	k := 13
	sp, err := policy.LineSpanner(k, 4)
	if err != nil {
		t.Fatal(err)
	}
	answersMatch(t, sp.H, workload.AllRanges1D(k), randomHistogram(rng, k))
}

func TestEquivalenceRangesOnGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	answersMatch(t, policy.Grid(3), workload.AllRangesKd([]int{3, 3}), randomHistogram(rng, 9))
}

func TestEquivalenceOnUnbounded(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	k := 7
	answersMatch(t, policy.Unbounded(k), workload.AllRanges1D(k), randomHistogram(rng, k))
}

func TestQuickEquivalenceRandomTrees(t *testing.T) {
	// Property: for random tree policies and random range workloads,
	// W·x = W_G·x_G + c(W, n).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 3 + rng.Intn(10)
		g := graph.New(k)
		perm := rng.Perm(k)
		for i := 1; i < k; i++ {
			g.MustAddEdge(perm[i], perm[rng.Intn(i)])
		}
		p := &policy.Policy{Name: "random-tree", K: k, G: g}
		tr, err := New(p)
		if err != nil {
			return false
		}
		x := randomHistogram(rng, k)
		xg, err := tr.DatabaseTransform(x)
		if err != nil {
			return false
		}
		var n float64
		for _, v := range x {
			n += v
		}
		w := workload.AllRanges1D(k)
		truth := w.Answers(x)
		for qi, q := range w.Queries {
			got := tr.ConstantCorrection(q, n)
			for j, e := range p.G.Edges {
				got += tr.QueryCoeffOnEdge(q, e) * xg[j]
			}
			if math.Abs(got-truth[qi]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLemma47SensitivityEquality(t *testing.T) {
	// Δ_W(G) must equal the plain sensitivity of the dense W_G = W·P_G.
	rng := rand.New(rand.NewSource(29))
	_ = rng
	cases := []struct {
		p *policy.Policy
		w *workload.Workload
	}{
		{policy.Line(6), workload.Identity(6)},
		{policy.Line(6), workload.Cumulative(6)},
		{policy.Line(6), workload.AllRanges1D(6)},
		{policy.Unbounded(5), workload.AllRanges1D(5)},
		{policy.Grid(3), workload.AllRangesKd([]int{3, 3})},
		{policy.Bounded(5), workload.Identity(5)},
	}
	for _, tc := range cases {
		tr, err := New(tc.p)
		if err != nil {
			t.Fatal(err)
		}
		wg := tr.TransformWorkload(tc.w)
		dense := wg.MaxColAbsSum()
		viaDef := tr.PolicySensitivity(tc.w)
		if math.Abs(dense-viaDef) > 1e-9 {
			t.Fatalf("%s/%s: Δ via W_G = %g, via Def 4.1 = %g", tc.p.Name, tc.w.Name, dense, viaDef)
		}
	}
}

func TestSensitivityExamples(t *testing.T) {
	// Example 4.1 / Section 4: C_k under the line policy has Δ_W(G) = 1
	// (the transformed workload is the identity), versus Δ_W = k under DP.
	k := 8
	w := workload.Cumulative(k)
	if got := w.Sensitivity(); got != float64(k) {
		t.Fatalf("Δ(C_k) = %g, want %d", got, k)
	}
	if got := w.PolicySensitivity(policy.Line(k)); got != 1 {
		t.Fatalf("Δ_{C_k}(G^1_k) = %g, want 1", got)
	}
	// I_k: Δ = 1 under DP, 2 under the line policy (moving one tuple changes
	// two counts).
	wi := workload.Identity(k)
	if got := wi.Sensitivity(); got != 1 {
		t.Fatalf("Δ(I_k) = %g", got)
	}
	if got := wi.PolicySensitivity(policy.Line(k)); got != 2 {
		t.Fatalf("Δ_{I_k}(G^1_k) = %g, want 2", got)
	}
}

func TestClaim42NeighborPreservation(t *testing.T) {
	// For tree policies: y, z are Blowfish neighbors iff their transforms
	// differ by exactly 1 in exactly one coordinate.
	rng := rand.New(rand.NewSource(31))
	p := policy.Line(6)
	tr, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	base := randomHistogram(rng, 6)
	for u := 0; u < 6; u++ {
		for v := 0; v < 6; v++ {
			if u == v {
				continue
			}
			y := append([]float64(nil), base...)
			y[u]++
			z := append([]float64(nil), base...)
			z[v]++
			yg, err := tr.DatabaseTransform(y)
			if err != nil {
				t.Fatal(err)
			}
			zg, err := tr.DatabaseTransform(z)
			if err != nil {
				t.Fatal(err)
			}
			l1 := 0.0
			changed := 0
			for i := range yg {
				d := math.Abs(yg[i] - zg[i])
				l1 += d
				if d != 0 {
					changed++
				}
			}
			isNeighbor := BlowfishNeighbors(p, y, z)
			dpNeighbor := changed == 1 && math.Abs(l1-1) < 1e-9
			if isNeighbor != dpNeighbor {
				t.Fatalf("u=%d v=%d: Blowfish neighbor %v but transform L1 change %g over %d coords",
					u, v, isNeighbor, l1, changed)
			}
		}
	}
}

func TestReconstructVertexDatabase(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	p := policy.Line(8)
	tr, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	x := randomHistogram(rng, 8)
	xg, err := tr.DatabaseTransform(x)
	if err != nil {
		t.Fatal(err)
	}
	back := tr.ReconstructVertexDatabase(xg)
	reduced := tr.ReducedDatabase(x)
	for i := range reduced {
		if math.Abs(back[i]-reduced[i]) > 1e-9 {
			t.Fatalf("reconstruction mismatch at %d", i)
		}
	}
}

func TestNewWithAlias(t *testing.T) {
	p := policy.Line(5)
	if _, err := NewWithAlias(p, 5); err == nil {
		t.Fatal("out-of-range alias accepted")
	}
	if _, err := NewWithAlias(policy.Unbounded(4), 0); err == nil {
		t.Fatal("alias on ⊥-policy accepted")
	}
	tr, err := NewWithAlias(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	// With alias 0, rows map to vertices 1..4.
	if tr.VertexOfRow(0) != 1 || tr.VertexOfRow(3) != 4 {
		t.Fatal("VertexOfRow mapping wrong")
	}
	// The equivalence still holds with a different alias.
	x := []float64{2, 5, 1, 0, 3}
	xg, err := tr.DatabaseTransform(x)
	if err != nil {
		t.Fatal(err)
	}
	w := workload.AllRanges1D(5)
	truth := w.Answers(x)
	for qi, q := range w.Queries {
		got := tr.ConstantCorrection(q, 11)
		for j, e := range p.G.Edges {
			got += tr.QueryCoeffOnEdge(q, e) * xg[j]
		}
		if math.Abs(got-truth[qi]) > 1e-9 {
			t.Fatalf("alias-0 query %d mismatch", qi)
		}
	}
}

func TestDisconnectedPolicyRejected(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(2, 3)
	p := &policy.Policy{Name: "disc", K: 4, G: g}
	if _, err := New(p); err == nil {
		t.Fatal("disconnected policy accepted by New")
	}
}

func TestEffectiveEpsilon(t *testing.T) {
	if got := EffectiveEpsilon(0.9, 3); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("eps/3 = %g", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("stretch 0 should panic")
		}
	}()
	EffectiveEpsilon(1, 0)
}

func TestDatabaseTransformSizeMismatch(t *testing.T) {
	tr, err := New(policy.Line(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.DatabaseTransform(make([]float64, 3)); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

// mustTheta builds the 1-D distance-threshold policy G^θ_k for tests.
func mustTheta(k, theta int) *policy.Policy {
	p, err := policy.DistanceThreshold([]int{k}, theta)
	if err != nil {
		panic(err)
	}
	return p
}

func TestSparsePGMatchesDense(t *testing.T) {
	for _, p := range []*policy.Policy{
		policy.Unbounded(6), policy.Line(5), policy.Bounded(5),
		policy.Grid(3), mustTheta(7, 2),
	} {
		tr, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		spg := tr.SparsePG()
		if spg != tr.SparsePG() {
			t.Fatalf("%s: SparsePG must memoize", p.Name)
		}
		if d := linalg.MaxAbsDiff(spg.ToDense(), tr.PG()); d != 0 {
			t.Fatalf("%s: sparse P_G diff %g from dense", p.Name, d)
		}
	}
}

func TestSparseTransformWorkloadMatchesDense(t *testing.T) {
	for _, p := range []*policy.Policy{policy.Line(8), policy.Grid(3), mustTheta(9, 3)} {
		tr, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		w := workload.AllRanges1D(p.K)
		if d := linalg.MaxAbsDiff(tr.SparseTransformWorkload(w).ToDense(), tr.TransformWorkload(w)); d != 0 {
			t.Fatalf("%s: sparse W_G diff %g from dense", p.Name, d)
		}
	}
}
