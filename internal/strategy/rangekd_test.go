package strategy

import (
	"math"
	"math/rand"
	"runtime/debug"
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
	for _, kind := range []mech.OracleKind{mech.CellKind, mech.HierKind, mech.PriveletKind} {
		exactness(t, GridPolicyRangeKd(dims, kind, Config{}), workload.AllRangesKd(dims), x)
	}
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
	// The analytic per-query variance must match measured noise, for every
	// oracle kind at d = 2 and d = 3.
	for _, tc := range []struct {
		dims   []int
		lo, hi []int
	}{
		{[]int{8, 8}, []int{2, 1}, []int{6, 5}},
		{[]int{4, 5, 4}, []int{1, 0, 1}, []int{2, 3, 2}},
	} {
		q := workload.RangeKd{Dims: tc.dims, Lo: tc.lo, Hi: tc.hi}
		for _, kind := range []mech.OracleKind{mech.CellKind, mech.HierKind, mech.PriveletKind} {
			const eps = 1.0
			// The variance reads scales alone: it draws nothing, so it
			// needs no Source and consumes none.
			ana := GridPolicyRangeKdVariance(tc.dims, kind, eps, q)
			src := noise.NewSource(4)
			const trials = 4000
			var sum, sq float64
			for i := 0; i < trials; i++ {
				v := newGridKdStrategy(tc.dims, kind, eps, src.Split()).queryNoise(q.Lo, q.Hi)
				sum += v
				sq += v * v
			}
			mean := sum / trials
			emp := sq/trials - mean*mean
			if math.Abs(emp-ana)/ana > 0.15 {
				t.Fatalf("%v kind %d: empirical variance %g vs analytic %g", tc.dims, kind, emp, ana)
			}
			if math.Abs(mean) > 4*math.Sqrt(ana/trials)+1e-9 {
				t.Fatalf("%v kind %d: noise not unbiased: mean %g", tc.dims, kind, mean)
			}
		}
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
	if _, err := GridPolicyRangeKd([]int{4, 4}, mech.OracleKind(7), Config{}).Prepare(workload.AllRangesKd([]int{4, 4})); err == nil {
		t.Fatal("unknown oracle kind accepted")
	}
}

// TestGridNoisePassAllocsNothingPerQuery pins the range releases' hot path:
// face and band bounds live in per-release buffers and sheets walk their
// basis without scratch, so reading a query's faces allocates nothing, and
// corner reads index the table directly, so a whole release — grid, θ-grid,
// d = 3 grid, sharded grid — allocates the same at 100 queries as at 500.
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

	// Collection cycles allocate runtime objects of their own, and the
	// larger release would trigger more of them.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		name string
		dims []int
		alg  Algorithm
	}{
		{"grid 64x64", []int{64, 64}, GridPolicyRangeKd([]int{64, 64}, mech.PriveletKind, Config{})},
		{"thetagrid 64x64 theta=4", []int{64, 64}, ThetaGridRange2D([]int{64, 64}, 4, Config{})},
		{"grid 8x8x8", []int{8, 8, 8}, GridPolicyRangeKd([]int{8, 8, 8}, mech.PriveletKind, Config{})},
		{"grid 64x64 sharded", []int{64, 64}, GridPolicyRangeKd([]int{64, 64}, mech.PriveletKind, Config{MaxBlockCells: 512})},
	} {
		allocsAt := func(queries int) float64 {
			w := workload.RandomRangesKd(tc.dims, queries, noise.NewSource(1))
			p, err := tc.alg.Prepare(w)
			if err != nil {
				t.Fatal(err)
			}
			x := rampHistogram(w.K)
			return testing.AllocsPerRun(5, func() {
				if _, err := p.Answer(x, 0.5, noise.NewSource(2)); err != nil {
					t.Fatal(err)
				}
			})
		}
		if few, many := allocsAt(100), allocsAt(500); few != many {
			t.Errorf("%s: a release allocates %v times at 100 queries and %v at 500", tc.name, few, many)
		}
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
	alg := TreePolicy("gauss", tr, 1, GaussianEstimator(1e-5))
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
