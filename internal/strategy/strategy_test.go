package strategy

import (
	"math"
	"math/rand"
	"testing"

	"github.com/privacylab/blowfish/internal/core"
	"github.com/privacylab/blowfish/internal/mech"
	"github.com/privacylab/blowfish/internal/noise"
	"github.com/privacylab/blowfish/internal/policy"
	"github.com/privacylab/blowfish/internal/workload"
)

func randomX(rng *rand.Rand, k int) []float64 {
	x := make([]float64, k)
	for i := range x {
		x[i] = float64(rng.Intn(25))
	}
	return x
}

// exactness asserts that an algorithm returns the true answers when eps <= 0
// (the library-wide "no noise" convention): every strategy must be an
// unbiased reconstruction.
func exactness(t *testing.T, alg Algorithm, w *workload.Workload, x []float64) {
	t.Helper()
	got, err := alg.Run(w, x, 0, noise.NewSource(1))
	if err != nil {
		t.Fatalf("%s: %v", alg.Name, err)
	}
	truth := w.Answers(x)
	for i := range truth {
		if math.Abs(got[i]-truth[i]) > 1e-6*(1+math.Abs(truth[i])) {
			t.Fatalf("%s: query %d = %g, truth %g", alg.Name, i, got[i], truth[i])
		}
	}
}

func TestLinePolicyAlgorithmsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	k := 32
	algs, err := LinePolicyAlgorithms(k)
	if err != nil {
		t.Fatal(err)
	}
	x := randomX(rng, k)
	for _, alg := range algs {
		exactness(t, alg, workload.Identity(k), x)
		exactness(t, alg, workload.AllRanges1D(k), x)
	}
}

func TestThetaLineAlgorithmsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, theta := range []int{2, 3, 4, 7} {
		k := 30
		algs, err := ThetaLineAlgorithms(k, theta)
		if err != nil {
			t.Fatal(err)
		}
		x := randomX(rng, k)
		for _, alg := range algs {
			exactness(t, alg, workload.AllRanges1D(k), x)
		}
	}
}

func TestThetaLineGroupedExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, theta := range []int{1, 2, 4, 5} {
		k := 26
		x := randomX(rng, k)
		for _, kind := range []mech.OracleKind{mech.CellKind, mech.HierKind, mech.PriveletKind} {
			exactness(t, ThetaLineGrouped(k, theta, kind), workload.AllRanges1D(k), x)
		}
	}
}

func TestGridPolicyRange2DExact(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dims := []int{6, 7}
	x := randomX(rng, 42)
	w := workload.AllRangesKd(dims)
	for _, kind := range []mech.OracleKind{mech.CellKind, mech.HierKind, mech.PriveletKind} {
		exactness(t, GridPolicyRangeKd(dims, kind, Config{}), w, x)
	}
}

// TestGridPolicyRange2DNoiseless pins the eps <= 0 shortcut of
// truthPlusNoise and the maintained summed-area state: a noiseless grid
// release is W·x bitwise and draws nothing from its Source.
func TestGridPolicyRange2DNoiseless(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	dims := []int{9, 11}
	x := randomX(rng, 99)
	w := workload.AllRangesKd(dims)
	p, err := GridPolicyRangeKd(dims, mech.PriveletKind, Config{}).Prepare(w)
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Refresh(x)
	if err != nil {
		t.Fatal(err)
	}
	truth := w.Answers(x)
	for name, answer := range map[string]func(*noise.Source) ([]float64, error){
		"static": func(src *noise.Source) ([]float64, error) { return p.Answer(x, 0, src) },
		"stream": func(src *noise.Source) ([]float64, error) { return st.Answer(0, src) },
	} {
		src := noise.NewSource(3)
		got, err := answer(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range truth {
			if math.Float64bits(got[i]) != math.Float64bits(truth[i]) {
				t.Fatalf("%s: query %d = %g, want W·x = %g bitwise", name, i, got[i], truth[i])
			}
		}
		if src.Int63() != noise.NewSource(3).Int63() {
			t.Fatalf("%s: a noiseless release drew from its Source", name)
		}
	}
}

func TestThetaGridRange2DExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct {
		dims  []int
		theta int
	}{
		{[]int{6, 6}, 2},
		{[]int{6, 6}, 4},
		{[]int{8, 7}, 4},
		{[]int{9, 9}, 6},
	} {
		x := randomX(rng, tc.dims[0]*tc.dims[1])
		w := workload.AllRangesKd(tc.dims)
		exactness(t, ThetaGridRange2D(tc.dims, tc.theta, Config{}), w, x)
	}
}

func TestBaselinesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	k := 24
	x := randomX(rng, k)
	exactness(t, DPLaplaceHist(), workload.Identity(k), x)
	exactness(t, DPPriveletRange1D(), workload.AllRanges1D(k), x)
	dims := []int{5, 6}
	x2 := randomX(rng, 30)
	exactness(t, DPPriveletRangeKd(dims), workload.AllRangesKd(dims), x2)
	// DAWA with eps=0 is exact only on data that is piecewise constant on
	// dyadic buckets; use such data.
	xs := make([]float64, 16)
	for i := 0; i < 8; i++ {
		xs[i] = 3
	}
	exactness(t, DPDawaHist(), workload.Identity(16), xs)
	exactness(t, DPDawaRange1D(), workload.AllRanges1D(16), xs)
}

func TestSnakeIndexBijective(t *testing.T) {
	cols := 7
	seen := map[int]bool{}
	for r := 0; r < 5; r++ {
		for c := 0; c < cols; c++ {
			i := snakeIndex(r, c, cols)
			if seen[i] {
				t.Fatalf("snake index collision at (%d,%d)", r, c)
			}
			seen[i] = true
		}
	}
	// Adjacent flat positions are grid neighbors.
	pos := make(map[int][2]int)
	for r := 0; r < 5; r++ {
		for c := 0; c < cols; c++ {
			pos[snakeIndex(r, c, cols)] = [2]int{r, c}
		}
	}
	for i := 0; i+1 < 35; i++ {
		a, b := pos[i], pos[i+1]
		d := abs(a[0]-b[0]) + abs(a[1]-b[1])
		if d != 1 {
			t.Fatalf("flat neighbors %d,%d map to distance %d", i, i+1, d)
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func TestTreePolicyRejectsNonTree(t *testing.T) {
	tr, err := core.New(policy.Grid(3))
	if err != nil {
		t.Fatal(err)
	}
	alg := TreePolicy("bad", tr, 1, LaplaceEstimator, Config{})
	if _, err := alg.Run(workload.Identity(9), make([]float64, 9), 1, noise.NewSource(1)); err == nil {
		t.Fatal("non-tree policy accepted by TreePolicy")
	}
}

func TestTreePolicyDomainMismatch(t *testing.T) {
	tr, err := core.New(policy.Line(8))
	if err != nil {
		t.Fatal(err)
	}
	alg := TreePolicy("line", tr, 1, LaplaceEstimator, Config{})
	if _, err := alg.Run(workload.Identity(9), make([]float64, 8), 1, noise.NewSource(1)); err == nil {
		t.Fatal("domain mismatch accepted")
	}
}

func TestSupportIndexMatchesFullScan(t *testing.T) {
	// The 1-D fast path must produce the same transformed answers as a full
	// edge scan.
	rng := rand.New(rand.NewSource(7))
	k, theta := 40, 5
	sp, err := policy.LineSpanner(k, theta)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.New(sp.H)
	if err != nil {
		t.Fatal(err)
	}
	sup := newSupportIndex(tr)
	x := randomX(rng, k)
	xg, err := tr.DatabaseTransform(x)
	if err != nil {
		t.Fatal(err)
	}
	w := workload.RandomRanges1D(k, 200, noise.NewSource(8))
	for _, q := range w.Queries {
		var fast, full float64
		for _, j := range sup.edges(q) {
			fast += tr.QueryCoeffOnEdge(q, tr.Policy.G.Edges[j]) * xg[j]
		}
		for j, e := range tr.Policy.G.Edges {
			full += tr.QueryCoeffOnEdge(q, e) * xg[j]
		}
		if math.Abs(fast-full) > 1e-9 {
			t.Fatalf("support fast path mismatch: %g vs %g", fast, full)
		}
	}
}

// measureMSE is a tiny local MSE helper for variance-shape assertions.
func measureMSE(t *testing.T, alg Algorithm, w *workload.Workload, x []float64, eps float64, runs int, seed int64) float64 {
	t.Helper()
	truth := w.Answers(x)
	src := noise.NewSource(seed)
	var total float64
	for i := 0; i < runs; i++ {
		got, err := alg.Run(w, x, eps, src.Split())
		if err != nil {
			t.Fatal(err)
		}
		for j := range got {
			d := got[j] - truth[j]
			total += d * d
		}
	}
	return total / float64(runs) / float64(len(truth))
}

func TestRange1DG1ErrorIsTheorem52(t *testing.T) {
	// Theorem 5.2: the Transformed+Laplace strategy answers R_k with
	// Θ(1/ε²) per query — at most 2·2/ε² (two noisy prefix sums) and
	// independent of k.
	eps := 1.0
	for _, k := range []int{64, 256} {
		algs, err := LinePolicyAlgorithms(k)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, k)
		w := workload.RandomRanges1D(k, 400, noise.NewSource(9))
		got := measureMSE(t, algs[0], w, x, eps, 60, 10)
		want := 2 * 2 / (eps * eps) // ≤ two Laplace(1/ε) variances
		if got > want*1.3 {
			t.Fatalf("k=%d: per-query error %g exceeds Theorem 5.2 bound %g", k, got, want)
		}
	}
}

func TestBlowfishBeatsPriveletOn1DRanges(t *testing.T) {
	// The headline experimental result (Figure 8c): orders of magnitude
	// improvement for 1-D ranges under the line policy.
	k := 512
	eps := 0.1
	algs, err := LinePolicyAlgorithms(k)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, k)
	w := workload.RandomRanges1D(k, 300, noise.NewSource(11))
	blow := measureMSE(t, algs[0], w, x, eps, 12, 12)
	priv := measureMSE(t, DPPriveletRange1D(), w, x, eps/2, 12, 13)
	if blow*10 > priv {
		t.Fatalf("Blowfish %g not an order of magnitude below Privelet %g", blow, priv)
	}
}

func TestGrid2DBlowfishBeatsPrivelet(t *testing.T) {
	// Theorem 5.4 shape: Transformed+Privelet (1-D oracles per line) must
	// beat 2-D Privelet on the same budget for a largish grid.
	dims := []int{32, 32}
	eps := 0.5
	x := make([]float64, 1024)
	w := workload.RandomRangesKd(dims, 300, noise.NewSource(14))
	blow := measureMSE(t, GridPolicyRangeKd(dims, mech.PriveletKind, Config{}), w, x, eps, 10, 15)
	priv := measureMSE(t, DPPriveletRangeKd(dims), w, x, eps, 10, 16)
	if blow >= priv {
		t.Fatalf("grid Blowfish %g not below 2-D Privelet %g", blow, priv)
	}
}

func TestConsistencyHelpsOnSparseData(t *testing.T) {
	// §5.4.2: on sparse data the isotonic projection must reduce error of
	// the noisy prefix sums.
	k := 256
	x := make([]float64, k)
	x[10] = 500
	x[200] = 300
	eps := 0.3
	algs, err := LinePolicyAlgorithms(k)
	if err != nil {
		t.Fatal(err)
	}
	w := workload.Identity(k)
	plain := measureMSE(t, algs[0], w, x, eps, 20, 17)
	cons := measureMSE(t, algs[1], w, x, eps, 20, 18)
	if cons >= plain {
		t.Fatalf("consistency %g did not improve on plain %g", cons, plain)
	}
}

func TestThetaLineFlatInDomainSize(t *testing.T) {
	// Figure 8d shape: the Blowfish error under G^θ_k is flat in k while
	// Privelet's grows.
	eps := 1.0
	theta := 4
	errAt := func(k int) float64 {
		algs, err := ThetaLineAlgorithms(k, theta)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, k)
		w := workload.RandomRanges1D(k, 200, noise.NewSource(19))
		return measureMSE(t, algs[0], w, x, eps, 20, 20)
	}
	small, large := errAt(128), errAt(1024)
	if large > small*2.5 {
		t.Fatalf("G^θ error grew with domain: %g -> %g", small, large)
	}
}
