package strategy

import (
	"math"
	"sync"
	"testing"

	"github.com/privacylab/blowfish/internal/core"
	"github.com/privacylab/blowfish/internal/noise"
	"github.com/privacylab/blowfish/internal/policy"
	"github.com/privacylab/blowfish/internal/sparse"
	"github.com/privacylab/blowfish/internal/workload"
)

// The sparse-vs-dense equivalence suite: every strategy that compiles to a
// reconstruction operator must produce the same releases whether the
// operator is CSR or dense. The float op order differs only by exact zero
// additions, so agreement is required within 1e-9 (and is asserted bitwise
// by compat_golden_test.go where the op order is fully preserved).

func lineTransform(t *testing.T, k int) *core.Transform {
	t.Helper()
	tr, err := core.New(policy.Line(k))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func rampHistogram(k int) []float64 {
	x := make([]float64, k)
	for i := range x {
		x[i] = float64(i%23) * 1.5
	}
	return x
}

func answersMaxDiff(t *testing.T, a, b []float64) float64 {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("answer lengths differ: %d vs %d", len(a), len(b))
	}
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestTreeSparseVsDenseEquivalence(t *testing.T) {
	const k, seed = 512, 7
	tr := lineTransform(t, k)
	w := workload.RandomRanges1D(k, 300, noise.NewSource(99))
	x := rampHistogram(k)
	sp, err := CompileTree("tree", tr, 1, LaplaceEstimator, w)
	if err != nil {
		t.Fatal(err)
	}
	dn, err := CompileTreeDense("tree", tr, 1, LaplaceEstimator, w)
	if err != nil {
		t.Fatal(err)
	}
	// At this size the reconstruction is far below the density threshold,
	// so the auto-pick must be CSR and the forced baseline dense.
	if _, ok := sp.Operator().(*sparse.CSR); !ok {
		t.Fatalf("auto-compiled operator is %T, want *sparse.CSR", sp.Operator())
	}
	if _, ok := dn.Operator().(sparse.Dense); !ok {
		t.Fatalf("dense-compiled operator is %T, want sparse.Dense", dn.Operator())
	}
	for _, eps := range []float64{0, 0.1, 1} {
		got, err := sp.Answer(x, eps, noise.NewSource(seed))
		if err != nil {
			t.Fatal(err)
		}
		want, err := dn.Answer(x, eps, noise.NewSource(seed))
		if err != nil {
			t.Fatal(err)
		}
		if d := answersMaxDiff(t, got, want); d > 1e-9 {
			t.Fatalf("eps=%g: sparse vs dense answers differ by %g", eps, d)
		}
	}
}

func TestThetaSpannerSparseVsDenseEquivalence(t *testing.T) {
	const k, theta, seed = 256, 4, 11
	sp, err := policy.LineSpanner(k, theta)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.New(sp.H)
	if err != nil {
		t.Fatal(err)
	}
	w := workload.RandomRanges1D(k, 200, noise.NewSource(98))
	x := rampHistogram(k)
	a, err := CompileTree("theta", tr, sp.Stretch, LaplaceEstimator, w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompileTreeDense("theta", tr, sp.Stretch, LaplaceEstimator, w)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Answer(x, 0.5, noise.NewSource(seed))
	if err != nil {
		t.Fatal(err)
	}
	want, err := b.Answer(x, 0.5, noise.NewSource(seed))
	if err != nil {
		t.Fatal(err)
	}
	if d := answersMaxDiff(t, got, want); d > 1e-9 {
		t.Fatalf("spanner sparse vs dense answers differ by %g", d)
	}
}

func TestSmallDomainAutoPickGoesDense(t *testing.T) {
	// At k = 8 the histogram workload's supports cover a quarter of the 7
	// edge columns, so the density rule must keep the dense representation.
	tr := lineTransform(t, 8)
	w := workload.Identity(8)
	prep, err := CompileTree("tree", tr, 1, LaplaceEstimator, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := prep.Operator().(sparse.Dense); !ok {
		t.Fatalf("small-domain operator is %T, want sparse.Dense", prep.Operator())
	}
}

// TestConcurrentAnswerSharedPlan exercises one compiled Prepared (and its
// operator) from many goroutines under -race: compiled plans are immutable,
// so concurrent releases with private sources must be safe and agree with a
// serial rerun seeded identically.
func TestConcurrentAnswerSharedPlan(t *testing.T) {
	const k, goroutines = 256, 8
	tr := lineTransform(t, k)
	w := workload.RandomRanges1D(k, 150, noise.NewSource(97))
	x := rampHistogram(k)
	prep, err := CompileTree("tree", tr, 1, LaplaceEstimator, w)
	if err != nil {
		t.Fatal(err)
	}
	before := Compilations()
	want := make([][]float64, goroutines)
	for g := range want {
		res, err := prep.Answer(x, 0.7, noise.NewSource(int64(g)))
		if err != nil {
			t.Fatal(err)
		}
		want[g] = res
	}
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	got := make([][]float64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 20; it++ {
				res, err := prep.Answer(x, 0.7, noise.NewSource(int64(g)))
				if err != nil {
					errs[g] = err
					return
				}
				got[g] = res
			}
			// Hammer the shared operator directly too.
			op := prep.Operator()
			rows, cols := op.Dims()
			dst := make([]float64, rows)
			op.Apply(dst, make([]float64, cols))
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		for i := range want[g] {
			if got[g][i] != want[g][i] {
				t.Fatalf("goroutine %d: concurrent answer diverged at query %d", g, i)
			}
		}
	}
	if after := Compilations(); after != before {
		t.Fatalf("answers recompiled the strategy: %d → %d", before, after)
	}
}
