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

func TestGridPolicyRangeKdExact2D(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dims := []int{6, 7}
	x := randomX(rng, 42)
	exactness(t, GridPolicyRangeKd(dims, mech.PriveletKind, Config{}), workload.AllRangesKd(dims), x)
}

func TestGridPolicyRangeKdExact3D(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dims := []int{4, 3, 5}
	x := randomX(rng, 60)
	exactness(t, GridPolicyRangeKd(dims, mech.PriveletKind, Config{}), workload.AllRangesKd(dims), x)
}

func TestGridPolicyRangeKdExact1D(t *testing.T) {
	// d = 1 degenerates to the line policy strategy (single-cell sheets).
	rng := rand.New(rand.NewSource(3))
	dims := []int{16}
	x := randomX(rng, 16)
	w := workload.AllRangesKd(dims)
	exactness(t, GridPolicyRangeKd(dims, mech.PriveletKind, Config{}), w, x)
}

func TestGridPolicyRangeKdVarianceMatchesEmpirical(t *testing.T) {
	// The analytic per-query variance must match measured noise.
	dims := []int{8, 8}
	q := workload.RangeKd{Dims: dims, Lo: []int{2, 1}, Hi: []int{6, 5}}
	eps := 1.0
	src := noise.NewSource(4)
	ana := GridPolicyRangeKdVariance(dims, eps, q, src.Split())
	const trials = 4000
	var sum, sq float64
	for i := 0; i < trials; i++ {
		s := newGridKdStrategy(dims, mech.PriveletKind, eps, src.Split())
		v := s.queryNoise(q.Lo, q.Hi)
		sum += v
		sq += v * v
	}
	mean := sum / trials
	emp := sq/trials - mean*mean
	if math.Abs(emp-ana)/ana > 0.15 {
		t.Fatalf("empirical variance %g vs analytic %g", emp, ana)
	}
	if math.Abs(mean) > 3*math.Sqrt(ana/trials)+1e-9 {
		t.Fatalf("noise not unbiased: mean %g", mean)
	}
}

func TestGridPolicyRangeKdRejectsBadInput(t *testing.T) {
	alg := GridPolicyRangeKd([]int{4, 4}, mech.PriveletKind, Config{})
	if _, err := alg.Run(workload.Identity(16), make([]float64, 16), 1, noise.NewSource(1)); err == nil {
		t.Fatal("non-range workload accepted")
	}
	if _, err := alg.Run(workload.AllRangesKd([]int{4, 4}), make([]float64, 15), 1, noise.NewSource(1)); err == nil {
		t.Fatal("domain mismatch accepted")
	}
	alg1 := GridPolicyRangeKd([]int{1, 4}, mech.PriveletKind, Config{})
	if _, err := alg1.Run(workload.AllRangesKd([]int{1, 4}), make([]float64, 4), 1, noise.NewSource(1)); err == nil {
		t.Fatal("dimension of size 1 accepted")
	}
	dims3 := []int{2, 3, 4}
	for _, kind := range []mech.OracleKind{mech.CellKind, mech.HierKind} {
		alg3 := GridPolicyRangeKd(dims3, kind, Config{})
		if _, err := alg3.Prepare(workload.AllRangesKd(dims3)); err == nil {
			t.Fatalf("oracle kind %d accepted on a 3-D grid", kind)
		}
	}
	if _, err := GridPolicyRangeKd([]int{4, 4}, mech.OracleKind(7), Config{}).Prepare(workload.AllRangesKd([]int{4, 4})); err == nil {
		t.Fatal("unknown oracle kind accepted")
	}
}

// TestGridNoisePassAllocsNothingPerQuery pins the grid release's hot path:
// the face bounds live in per-release buffers, so reading a query's faces
// off line sheets allocates nothing.
func TestGridNoisePassAllocsNothingPerQuery(t *testing.T) {
	dims := []int{16, 16}
	w := workload.RandomRangesKd(dims, 50, noise.NewSource(1))
	s := newGridKdStrategy(dims, mech.PriveletKind, 1, noise.NewSource(2))
	allocs := testing.AllocsPerRun(10, func() {
		for _, q := range w.Queries {
			rq := q.(workload.RangeKd)
			s.queryNoise(rq.Lo, rq.Hi)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per pass over %d queries, want 0", allocs, w.Len())
	}
}

func TestMarginalsViaGridStrategy(t *testing.T) {
	// Marginal workloads are full-extent ranges; the grid strategy answers
	// them exactly at eps=0 and with bounded noise otherwise.
	rng := rand.New(rand.NewSource(8))
	dims := []int{5, 4, 3}
	x := randomX(rng, 60)
	m, err := workload.Marginals(dims, []bool{true, false, true})
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 15 {
		t.Fatalf("marginal cells = %d, want 15", m.Len())
	}
	exactness(t, GridPolicyRangeKd(dims, mech.PriveletKind, Config{}), m, x)
}

func TestOptimizeDensePicksGoodStrategy(t *testing.T) {
	// For C_k under the line policy, the transformed workload is the
	// identity (Example 4.1): the optimizer must find a strategy with
	// per-query error ≈ 2/ε², far below the naive Laplace-on-workload error
	// 2k²/ε².
	k := 16
	w := workload.Cumulative(k)
	alg, perQuery, err := OptimizeDense(policy.Line(k), w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if perQuery > 10 {
		t.Fatalf("optimizer per-query error %g, want ~2", perQuery)
	}
	// And the returned algorithm is exact at eps=0.
	rng := rand.New(rand.NewSource(9))
	x := randomX(rng, k)
	exactness(t, alg, w, x)
}

func TestOptimizeDenseOnGrid(t *testing.T) {
	// The optimizer also runs on non-tree policies (matrix mechanisms work
	// for any policy graph, Theorem 4.1).
	rng := rand.New(rand.NewSource(10))
	dims := []int{3, 3}
	w := workload.AllRangesKd(dims)
	alg, perQuery, err := OptimizeDense(policy.Grid(3), w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if perQuery <= 0 {
		t.Fatalf("per-query error %g", perQuery)
	}
	x := randomX(rng, 9)
	exactness(t, alg, w, x)
}

func TestOptimizeDenseEmpiricalMatchesAnalytic(t *testing.T) {
	k := 12
	w := workload.AllRanges1D(k)
	eps := 1.0
	alg, perQuery, err := OptimizeDense(policy.Line(k), w, eps)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, k)
	emp := measureMSE(t, alg, w, x, eps, 400, 11)
	if math.Abs(emp-perQuery)/perQuery > 0.2 {
		t.Fatalf("empirical %g vs analytic %g", emp, perQuery)
	}
}

func TestGaussianEstimatorOnTreePolicy(t *testing.T) {
	// (ε, δ)-Blowfish via Gaussian noise: unbiased, variance per coordinate
	// matches the calibration.
	k := 64
	tr, err := core.New(policy.Line(k))
	if err != nil {
		t.Fatal(err)
	}
	alg := TreePolicy("gauss", tr, 1, GaussianEstimator(1e-5), Config{})
	x := make([]float64, k)
	w := workload.Identity(k)
	// Each histogram cell is the difference of two x_G coordinates:
	// variance 2σ².
	mse := measureMSE(t, alg, w, x, 1, 60, 12)
	sigma := mech.GaussianSigma(1, 1, 1e-5)
	want := 2 * sigma * sigma
	if math.Abs(mse-want)/want > 0.2 {
		t.Fatalf("gaussian MSE %g, want ~%g", mse, want)
	}
}
