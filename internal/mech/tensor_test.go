package mech

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/privacylab/blowfish/internal/noise"
)

func TestPriveletKdZeroEps(t *testing.T) {
	src := noise.NewSource(1)
	o := NewSheet(PriveletKind, []int{5, 7}, 0, src)
	if n := o.RectNoise([]int{0, 0}, []int{4, 6}); n != 0 {
		t.Fatalf("eps=0 noise = %g", n)
	}
}

func TestPriveletKdConsistency(t *testing.T) {
	src := noise.NewSource(2)
	o := NewSheet(PriveletKind, []int{6, 6}, 1, src)
	a := o.RectNoise([]int{1, 2}, []int{4, 5})
	b := o.RectNoise([]int{1, 2}, []int{4, 5})
	if a != b {
		t.Fatal("inconsistent rect noise")
	}
}

func TestPriveletKdLinearity(t *testing.T) {
	// Rect noise is linear in the rectangle indicator: a rect equals the sum
	// of its cells.
	src := noise.NewSource(3)
	o := NewSheet(PriveletKind, []int{4, 5}, 1, src)
	for r1 := 0; r1 < 4; r1++ {
		for r2 := r1; r2 < 4; r2++ {
			for c1 := 0; c1 < 5; c1++ {
				for c2 := c1; c2 < 5; c2++ {
					var sum float64
					for r := r1; r <= r2; r++ {
						for c := c1; c <= c2; c++ {
							sum += o.RectNoise([]int{r, c}, []int{r, c})
						}
					}
					got := o.RectNoise([]int{r1, c1}, []int{r2, c2})
					if math.Abs(got-sum) > 1e-9*(1+math.Abs(sum)) {
						t.Fatalf("rect [%d,%d]x[%d,%d]: %g vs cell sum %g", r1, r2, c1, c2, got, sum)
					}
				}
			}
		}
	}
}

func TestPriveletKdMatches1DOracle(t *testing.T) {
	// A 1-D Privelet sheet is the 1-D Privelet mechanism: linear in the
	// interval indicator on a padded domain.
	src := noise.NewSource(4)
	o := NewSheet(PriveletKind, []int{9}, 1, src)
	var sum float64
	for i := 0; i < 9; i++ {
		sum += o.RectNoise([]int{i}, []int{i})
	}
	got := o.RectNoise([]int{0}, []int{8})
	if math.Abs(got-sum) > 1e-9*(1+math.Abs(sum)) {
		t.Fatalf("1-D tensor linearity: %g vs %g", got, sum)
	}
}

func TestPriveletKdEmpiricalMatchesAnalyticVariance(t *testing.T) {
	// The empirical variance of RectNoise must match RectVariance.
	dims := []int{16, 16}
	lo, hi := []int{2, 5}, []int{12, 13}
	src := noise.NewSource(5)
	ana := NewSheet(PriveletKind, dims, 1, src.Split()).RectVariance(lo, hi)
	const trials = 4000
	var sum, sq float64
	for i := 0; i < trials; i++ {
		v := NewSheet(PriveletKind, dims, 1, src.Split()).RectNoise(lo, hi)
		sum += v
		sq += v * v
	}
	mean := sum / trials
	emp := sq/trials - mean*mean
	if math.Abs(emp-ana)/ana > 0.15 {
		t.Fatalf("empirical variance %g vs analytic %g", emp, ana)
	}
}

func TestPriveletKdDimsMismatchPanics(t *testing.T) {
	src := noise.NewSource(6)
	o := NewSheet(PriveletKind, []int{4, 4}, 1, src)
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch should panic")
		}
	}()
	o.RectNoise([]int{0}, []int{1})
}

func TestPriveletKdThreeDims(t *testing.T) {
	src := noise.NewSource(7)
	o := NewSheet(PriveletKind, []int{3, 4, 5}, 1, src)
	var sum float64
	for a := 0; a < 2; a++ {
		for b := 1; b < 3; b++ {
			for c := 0; c < 5; c++ {
				sum += o.RectNoise([]int{a, b, c}, []int{a, b, c})
			}
		}
	}
	got := o.RectNoise([]int{0, 1, 0}, []int{1, 2, 4})
	if math.Abs(got-sum) > 1e-9*(1+math.Abs(sum)) {
		t.Fatalf("3-D linearity: %g vs %g", got, sum)
	}
}

func TestQuickPriveletKdLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 2 + rng.Intn(8)
		cols := 2 + rng.Intn(8)
		o := NewSheet(PriveletKind, []int{rows, cols}, 0.7, noise.NewSource(seed))
		r1 := rng.Intn(rows)
		r2 := r1 + rng.Intn(rows-r1)
		c1 := rng.Intn(cols)
		c2 := c1 + rng.Intn(cols-c1)
		rm := r1 + rng.Intn(r2-r1+1)
		// Split horizontally and compare.
		top := o.RectNoise([]int{r1, c1}, []int{rm, c2})
		var bottom float64
		if rm+1 <= r2 {
			bottom = o.RectNoise([]int{rm + 1, c1}, []int{r2, c2})
		}
		whole := o.RectNoise([]int{r1, c1}, []int{r2, c2})
		return math.Abs(whole-(top+bottom)) < 1e-9*(1+math.Abs(whole))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPriveletSheetFullDomainUsesAverageOnly(t *testing.T) {
	// For a power-of-two domain, the full interval cancels all detail
	// coefficients: noise = m · avg-noise, the average at table index 0.
	s := NewSheet(PriveletKind, []int{16}, 1, noise.NewSource(8)).(*tensorSheet)
	if full := noise1(s, 0, 15); math.Abs(full-16*s.coeff[0]) > 1e-12 {
		t.Fatalf("full-domain noise %g != 16·avg %g", full, 16*s.coeff[0])
	}
}
