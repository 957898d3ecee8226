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

// TestGrid2DReconstructionMatchesTransformedWorkload verifies the privacy-
// critical identity behind the Theorem 5.4 strategy: a query's assembled
// noise must equal Σ_e (W_G)_{q,e} · η_e, the transformed workload row
// priced at the sheet oracles' noise. This proves the reconstruction
// coefficients are exactly the transformed workload — the premise of the
// matrix-mechanism coupling argument. It runs every line oracle kind on a
// 5×6 grid and the Privelet sheets of a 3×3×4 grid. The Hier oracle's
// canonical-node estimate is not linear in the interval, so instead of
// single-position η_e the test groups the row by sheet, checks that each
// sheet's support is one box of one coefficient (Lemma 5.1), and prices
// that box with the sheet's oracle; for a linear oracle the two agree.
func TestGrid2DReconstructionMatchesTransformedWorkload(t *testing.T) {
	for _, tc := range []struct {
		name string
		dims []int
		kind mech.OracleKind
	}{
		{"cell/5x6", []int{5, 6}, mech.CellKind},
		{"hier/5x6", []int{5, 6}, mech.HierKind},
		{"privelet/5x6", []int{5, 6}, mech.PriveletKind},
		{"privelet/3x3x4", []int{3, 3, 4}, mech.PriveletKind},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkGridReconstruction(t, tc.dims, tc.kind)
		})
	}
}

func checkGridReconstruction(t *testing.T, dims []int, kind mech.OracleKind) {
	d := len(dims)
	s := newGridKdStrategy(dims, kind, 1, noise.NewSource(1))
	grid, err := policy.DistanceThreshold(dims, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.New(grid)
	if err != nil {
		t.Fatal(err)
	}
	// support is one sheet's part of a transformed query row.
	type support struct {
		coeff  float64
		lo, hi []int
		edges  int
	}
	cu := make([]int, d)
	cv := make([]int, d)
	for qi, q := range workload.AllRangesKd(dims).Queries {
		rq := q.(workload.RangeKd)
		got := s.queryNoise(rq.Lo, rq.Hi)
		// Sheet (i, j) holds the edges along dimension i between slices j
		// and j+1, at the position of their other coordinates.
		sheets := map[[2]int]*support{}
		for _, e := range grid.G.Edges {
			coeff := tr.QueryCoeffOnEdge(q, e)
			if coeff == 0 {
				continue
			}
			policy.Unrank(dims, e.U, cu)
			policy.Unrank(dims, e.V, cv)
			i := 0
			for cu[i] == cv[i] {
				i++
			}
			pos := make([]int, 0, d-1)
			pos = append(append(pos, cu[:i]...), cu[i+1:]...)
			key := [2]int{i, min(cu[i], cv[i])}
			sp, ok := sheets[key]
			if !ok {
				sheets[key] = &support{coeff: coeff, lo: pos, hi: append([]int(nil), pos...), edges: 1}
				continue
			}
			if coeff != sp.coeff {
				t.Fatalf("query %d (%v): sheet %v carries coefficients %g and %g", qi, rq, key, sp.coeff, coeff)
			}
			for u, v := range pos {
				sp.lo[u], sp.hi[u] = min(sp.lo[u], v), max(sp.hi[u], v)
			}
			sp.edges++
		}
		var want float64
		for key, sp := range sheets {
			box := 1
			for u := range sp.lo {
				box *= sp.hi[u] - sp.lo[u] + 1
			}
			if box != sp.edges {
				t.Fatalf("query %d (%v): sheet %v support has %d edges, not its %d-edge bounding box", qi, rq, key, sp.edges, box)
			}
			var eta float64
			if s.lines != nil {
				eta = s.lines[key[0]][key[1]].IntervalNoise(sp.lo[0], sp.hi[0])
			} else {
				eta = s.sheets[key[0]][key[1]].RectNoise(sp.lo, sp.hi)
			}
			want += sp.coeff * eta
		}
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("query %d (%v): strategy noise %g != W_G reconstruction %g", qi, rq, got, want)
		}
	}
}

// TestThetaGridInternalPiecesMatchCoefficients verifies the Theorem 5.6
// internal-edge decomposition: for every query and every grid position v,
// the signed thin-rectangle pieces must sum to 1_Q(v) − 1_Q(red(v)), the
// transformed coefficient of the internal edge at v (zero at red vertices).
func TestThetaGridInternalPiecesMatchCoefficients(t *testing.T) {
	dims := []int{7, 6}
	theta := 4
	s, err := newThetaLayout2D(dims, theta)
	if err != nil {
		t.Fatal(err)
	}
	redOf := func(r, c int) (int, int) {
		rr := (r/s.cell)*s.cell + s.cell - 1
		if rr > dims[0]-1 {
			rr = dims[0] - 1
		}
		cc := (c/s.cell)*s.cell + s.cell - 1
		if cc > dims[1]-1 {
			cc = dims[1] - 1
		}
		return rr, cc
	}
	w := workload.AllRangesKd(dims)
	for qi, q := range w.Queries {
		rq := q.(workload.RangeKd)
		qr := rect{rq.Lo[0], rq.Hi[0], rq.Lo[1], rq.Hi[1]}
		pieces := s.internalPieces(qr)
		for r := 0; r < dims[0]; r++ {
			for c := 0; c < dims[1]; c++ {
				var got float64
				for _, p := range pieces {
					if r >= p.rect.r1 && r <= p.rect.r2 && c >= p.rect.c1 && c <= p.rect.c2 {
						got += p.sign
					}
				}
				inQ := 0.0
				if r >= qr.r1 && r <= qr.r2 && c >= qr.c1 && c <= qr.c2 {
					inQ = 1
				}
				rr, cc := redOf(r, c)
				inR := 0.0
				if rr >= qr.r1 && rr <= qr.r2 && cc >= qr.c1 && cc <= qr.c2 {
					inR = 1
				}
				if math.Abs(got-(inQ-inR)) > 1e-12 {
					t.Fatalf("query %d (%v) position (%d,%d): pieces sum %g, want %g",
						qi, rq, r, c, got, inQ-inR)
				}
			}
		}
	}
}

// TestThetaGridPiecesAreThin verifies the error analysis premise: every
// internal piece is bounded by the cube side in its assigned dimension.
func TestThetaGridPiecesAreThin(t *testing.T) {
	dims := []int{9, 9}
	s, err := newThetaLayout2D(dims, 6) // cell = 3
	if err != nil {
		t.Fatal(err)
	}
	w := workload.AllRangesKd(dims)
	for _, q := range w.Queries {
		rq := q.(workload.RangeKd)
		for _, p := range s.internalPieces(rect{rq.Lo[0], rq.Hi[0], rq.Lo[1], rq.Hi[1]}) {
			if p.thinRows {
				if h := p.rect.r2 - p.rect.r1 + 1; h > s.cell {
					t.Fatalf("row piece height %d > cell %d for query %v", h, s.cell, rq)
				}
			} else {
				if w := p.rect.c2 - p.rect.c1 + 1; w > s.cell {
					t.Fatalf("col piece width %d > cell %d for query %v", w, s.cell, rq)
				}
			}
		}
	}
}

// TestLaplaceReleasePrivacyRatio checks the ε-Blowfish guarantee of the
// core release (Laplace on x_G under the line policy) analytically: for
// Blowfish-neighboring databases the log-density ratio of any output is at
// most ε, with equality achieved.
func TestLaplaceReleasePrivacyRatio(t *testing.T) {
	k := 8
	p := policy.Line(k)
	tr, err := core.New(p)
	if err != nil {
		t.Fatal(err)
	}
	eps := 0.7
	rng := rand.New(rand.NewSource(3))
	base := randomX(rng, k)
	// Neighbor: move one tuple along edge (3,4).
	y := append([]float64(nil), base...)
	y[3]++
	z := append([]float64(nil), base...)
	z[4]++
	yg, err := tr.DatabaseTransform(y)
	if err != nil {
		t.Fatal(err)
	}
	zg, err := tr.DatabaseTransform(z)
	if err != nil {
		t.Fatal(err)
	}
	// Log density of output o under mean m with Laplace(1/ε) coordinates.
	logDensity := func(o, m []float64) float64 {
		var s float64
		for i := range o {
			s += -eps * math.Abs(o[i]-m[i])
		}
		return s
	}
	src := noise.NewSource(4)
	worst := 0.0
	for trial := 0; trial < 2000; trial++ {
		out := mech.LaplaceVector(yg, 1, eps, src.Split())
		ratio := logDensity(out, yg) - logDensity(out, zg)
		if ratio > worst {
			worst = ratio
		}
		if ratio > eps+1e-9 {
			t.Fatalf("log-density ratio %g exceeds eps %g", ratio, eps)
		}
	}
	if worst < eps*0.9 {
		t.Fatalf("worst observed ratio %g far below eps %g — test too weak", worst, eps)
	}
}

// TestSpannerAccountingBudget verifies Lemma 4.5 accounting end to end: the
// theta-line strategy at target ε must behave like a direct tree strategy at
// ε/stretch, i.e. its per-query error is stretch² times larger than the same
// estimator on the spanner at full ε.
func TestSpannerAccountingBudget(t *testing.T) {
	k, theta := 64, 4
	sp, err := policy.LineSpanner(k, theta)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Stretch != 3 {
		t.Fatalf("stretch = %d, want 3 for theta=4", sp.Stretch)
	}
	tr, err := core.New(sp.H)
	if err != nil {
		t.Fatal(err)
	}
	withAccounting := TreePolicy("acct", tr, sp.Stretch, LaplaceEstimator, Config{})
	without := TreePolicy("plain", tr, 1, LaplaceEstimator, Config{})
	x := make([]float64, k)
	w := workload.RandomRanges1D(k, 300, noise.NewSource(5))
	eps := 1.0
	a := measureMSE(t, withAccounting, w, x, eps, 80, 6)
	b := measureMSE(t, without, w, x, eps, 80, 7)
	ratio := a / b
	want := float64(sp.Stretch * sp.Stretch)
	if math.Abs(ratio-want)/want > 0.25 {
		t.Fatalf("accounting error ratio %g, want ~%g", ratio, want)
	}
}
