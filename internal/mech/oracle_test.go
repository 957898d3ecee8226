package mech

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/privacylab/blowfish/internal/noise"
)

// sheetCase is one row of the kind × d table the sheet tests run over.
type sheetCase struct {
	kind OracleKind
	dims []int
}

func (c sheetCase) String() string { return fmt.Sprintf("kind%d/%v", c.kind, c.dims) }

// sheetCases is every kind at d = 1, 2 and 3, on grids with padded sides.
func sheetCases() []sheetCase {
	var cases []sheetCase
	for _, kind := range []OracleKind{CellKind, HierKind, PriveletKind} {
		for _, dims := range [][]int{{13}, {5, 6}, {3, 4, 5}} {
			cases = append(cases, sheetCase{kind, dims})
		}
	}
	return cases
}

// eachRect calls f on every rectangle of the dims grid.
func eachRect(dims []int, f func(lo, hi []int)) {
	parts := make([][][2]int, len(dims))
	for i, m := range dims {
		for l := 0; l < m; l++ {
			for r := l; r < m; r++ {
				parts[i] = append(parts[i], [2]int{l, r})
			}
		}
	}
	eachBox(parts, f)
}

// eachBox calls f on every product of one interval from each parts[i].
func eachBox(parts [][][2]int, f func(lo, hi []int)) {
	lo, hi := make([]int, len(parts)), make([]int, len(parts))
	var rec func(i int)
	rec = func(i int) {
		if i == len(parts) {
			f(lo, hi)
			return
		}
		for _, p := range parts[i] {
			lo[i], hi[i] = p[0], p[1]
			rec(i + 1)
		}
	}
	rec(0)
}

// canonical returns the maximal dyadic blocks of [l, r] in the tree node
// covering [a, b].
func canonical(l, r, a, b int) [][2]int {
	if b < l || r < a {
		return nil
	}
	if l <= a && b <= r {
		return [][2]int{{a, b}}
	}
	mid := (a + b) / 2
	return append(canonical(l, r, a, mid), canonical(l, r, mid+1, b)...)
}

func noise1(s Sheet, l, r int) float64 { return s.RectNoise([]int{l}, []int{r}) }

func TestOraclesZeroEpsGiveZeroNoise(t *testing.T) {
	for _, c := range sheetCases() {
		s := NewSheet(c.kind, c.dims, 0, noise.NewSource(1))
		eachRect(c.dims, func(lo, hi []int) {
			if n, v := s.RectNoise(lo, hi), s.RectVariance(lo, hi); n != 0 || v != 0 {
				t.Fatalf("%v: noise %g, variance %g on %v..%v with eps=0", c, n, v, lo, hi)
			}
		})
	}
}

func TestOraclesConsistency(t *testing.T) {
	// Asking the same rectangle twice must give the same noise.
	for _, c := range sheetCases() {
		s := NewSheet(c.kind, c.dims, 0.5, noise.NewSource(2))
		eachRect(c.dims, func(lo, hi []int) {
			if a, b := s.RectNoise(lo, hi), s.RectNoise(lo, hi); a != b {
				t.Fatalf("%v: inconsistent noise %g, %g on %v..%v", c, a, b, lo, hi)
			}
		})
	}
}

// TestOraclesLinearity checks the additivity each kind guarantees. Cell
// and Privelet noise is linear in the rectangle indicator, so a rectangle
// is the sum of its cells. Hier reads canonical nodes, which is
// deliberately not linear: there a rectangle is the sum of the boxes its
// per-dimension canonical decompositions span.
func TestOraclesLinearity(t *testing.T) {
	for _, c := range sheetCases() {
		s := NewSheet(c.kind, c.dims, 1, noise.NewSource(3))
		eachRect(c.dims, func(lo, hi []int) {
			parts := make([][][2]int, len(c.dims))
			for i := range c.dims {
				if c.kind == HierKind {
					parts[i] = canonical(lo[i], hi[i], 0, padded(c.dims[i])-1)
					continue
				}
				for v := lo[i]; v <= hi[i]; v++ {
					parts[i] = append(parts[i], [2]int{v, v})
				}
			}
			var sum float64
			eachBox(parts, func(blo, bhi []int) { sum += s.RectNoise(blo, bhi) })
			if got := s.RectNoise(lo, hi); math.Abs(got-sum) > 1e-9*(1+math.Abs(sum)) {
				t.Fatalf("%v: noise on %v..%v = %g, part sum %g", c, lo, hi, got, sum)
			}
		})
	}
}

// TestSheetEmpiricalVarianceBand checks that the empirical variance of
// RectNoise over seeded sheets falls within 15% of RectVariance, on the
// whole grid and an inner rectangle, and that a sheet built without a
// source reports the same variance.
func TestSheetEmpiricalVarianceBand(t *testing.T) {
	const trials = 3000
	for _, c := range sheetCases() {
		inner := make([]int, len(c.dims))
		lo, hi := make([]int, len(c.dims)), make([]int, len(c.dims))
		for i, m := range c.dims {
			inner[i], hi[i] = min(1, m-1), m-1
		}
		for _, r := range [][2][]int{{lo, hi}, {inner, hi}} {
			ana := NewSheet(c.kind, c.dims, 1, nil).RectVariance(r[0], r[1])
			src := noise.NewSource(5)
			var sum, sq float64
			for i := 0; i < trials; i++ {
				s := NewSheet(c.kind, c.dims, 1, src.Split())
				if i == 0 && s.RectVariance(r[0], r[1]) != ana {
					t.Fatalf("%v: drawn sheet variance %g, sourceless %g", c, s.RectVariance(r[0], r[1]), ana)
				}
				v := s.RectNoise(r[0], r[1])
				sum += v
				sq += v * v
			}
			mean := sum / trials
			if emp := sq/trials - mean*mean; math.Abs(emp-ana)/ana > 0.15 {
				t.Fatalf("%v on %v..%v: empirical variance %g vs analytic %g", c, r[0], r[1], emp, ana)
			}
		}
	}
}

func TestOraclesNonPowerOfTwoDomains(t *testing.T) {
	src := noise.NewSource(4)
	for _, m := range []int{1, 2, 3, 5, 7, 100} {
		for _, kind := range []OracleKind{CellKind, HierKind, PriveletKind} {
			for _, dims := range [][]int{{m}, {m, 3}} {
				s := NewSheet(kind, dims, 1, src)
				hi := make([]int, len(dims))
				for i, v := range dims {
					hi[i] = v - 1
				}
				if n := s.RectNoise(make([]int, len(dims)), hi); math.IsNaN(n) {
					t.Fatalf("kind %d on %v: NaN noise", kind, dims)
				}
			}
		}
	}
}

func TestOracleOutOfRangePanics(t *testing.T) {
	for _, kind := range []OracleKind{CellKind, HierKind, PriveletKind} {
		s := NewSheet(kind, []int{5, 4}, 1, noise.NewSource(5))
		for _, c := range [][4]int{{-1, 2, 0, 0}, {0, 5, 0, 0}, {3, 2, 0, 0}, {0, 0, 1, 4}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("kind %d: rectangle %v should panic", kind, c)
					}
				}()
				s.RectNoise([]int{c[0], c[2]}, []int{c[1], c[3]})
			}()
		}
	}
}

func TestNilSourceSheetPanicsOnNoise(t *testing.T) {
	for _, kind := range []OracleKind{CellKind, HierKind, PriveletKind} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("kind %d: a sourceless sheet answered RectNoise", kind)
				}
			}()
			NewSheet(kind, []int{4}, 1, nil).RectNoise([]int{0}, []int{3})
		}()
	}
}

func measureVariance(t *testing.T, kind OracleKind, m, l, r, trials int) float64 {
	t.Helper()
	src := noise.NewSource(99)
	var sum, sq float64
	for i := 0; i < trials; i++ {
		v := noise1(NewSheet(kind, []int{m}, 1, src.Split()), l, r)
		sum += v
		sq += v * v
	}
	mean := sum / float64(trials)
	return sq/float64(trials) - mean*mean
}

func TestCellSheetVariance(t *testing.T) {
	// Lap(1/ε) per cell: an interval of length L has variance 2L/ε².
	v := measureVariance(t, CellKind, 32, 4, 11, 4000)
	want := 2.0 * 8
	if math.Abs(v-want)/want > 0.15 {
		t.Fatalf("cell variance %g, want ~%g", v, want)
	}
	if a := NewSheet(CellKind, []int{32}, 1, nil).RectVariance([]int{4}, []int{11}); a != want {
		t.Fatalf("cell analytic variance %g, want %g", a, want)
	}
}

func TestHierSheetVarianceScale(t *testing.T) {
	// Each node is Lap(h/ε); an aligned dyadic interval uses one node, so
	// its variance is 2h²/ε².
	h := 6 // levels for 32 = log2(32)+1
	v := measureVariance(t, HierKind, 32, 0, 15, 4000)
	want := 2.0 * float64(h*h)
	if math.Abs(v-want)/want > 0.15 {
		t.Fatalf("hier variance %g, want ~%g", v, want)
	}
}

func TestPriveletBeatsCellsOnLongRanges(t *testing.T) {
	// For long intervals the wavelet mechanism must have far lower variance
	// than per-cell noise (log³ vs linear).
	m := 1024
	cell := measureVariance(t, CellKind, m, 0, m/2, 500)
	priv := measureVariance(t, PriveletKind, m, 0, m/2, 500)
	if priv*3 > cell {
		t.Fatalf("privelet variance %g not clearly below cell %g", priv, cell)
	}
}

func TestHierLevels(t *testing.T) {
	// 9 pads to 16: levels 16, 8, 4, 2, 1, so one leaf node has variance
	// 2·5²/ε².
	s := NewSheet(HierKind, []int{9}, 1, noise.NewSource(6))
	if v := s.RectVariance([]int{3}, []int{3}); v != 50 {
		t.Fatalf("leaf variance = %g, want 50", v)
	}
}

func TestQuickOracleLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(40)
		kind := []OracleKind{CellKind, PriveletKind}[rng.Intn(2)]
		s := NewSheet(kind, []int{m}, 0.3, noise.NewSource(seed))
		l := rng.Intn(m)
		r := l + rng.Intn(m-l)
		mid := l + rng.Intn(r-l+1)
		// Additivity over a split point.
		left := noise1(s, l, mid)
		var right float64
		if mid+1 <= r {
			right = noise1(s, mid+1, r)
		}
		whole := noise1(s, l, r)
		return math.Abs(whole-(left+right)) < 1e-9*(1+math.Abs(whole))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestHierCanonicalDecomposition verifies that the hierarchical sheet's
// interval noise equals the sum of its canonical dyadic node noises by
// reconstructing the decomposition independently.
func TestHierCanonicalDecomposition(t *testing.T) {
	s := NewSheet(HierKind, []int{16}, 1, noise.NewSource(31))
	// An aligned dyadic block is exactly one node, so [0,7] is in general
	// not the sum of its halves [0,3] and [4,7].
	whole := noise1(s, 0, 7)
	if whole == noise1(s, 0, 3)+noise1(s, 4, 7) {
		t.Log("children happened to sum to parent (possible but unlikely)")
	}
	// Unaligned interval [1,6] decomposes into nodes {1},{2,3},{4,5},{6}.
	got := noise1(s, 1, 6)
	sum := noise1(s, 1, 1) + noise1(s, 2, 3) + noise1(s, 4, 5) + noise1(s, 6, 6)
	if math.Abs(got-sum) > 1e-12 {
		t.Fatalf("canonical decomposition mismatch: %g vs %g", got, sum)
	}
}
