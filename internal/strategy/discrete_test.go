package strategy

import (
	"math"
	"math/rand"
	"testing"

	"github.com/privacylab/blowfish/internal/core"
	"github.com/privacylab/blowfish/internal/noise"
	"github.com/privacylab/blowfish/internal/policy"
	"github.com/privacylab/blowfish/internal/workload"
)

func TestGeometricEstimatorIntegerReleases(t *testing.T) {
	// Releases built from the geometric estimator stay integral on integer
	// databases — the point of the discrete mechanism.
	k := 32
	tr, err := core.New(policy.Line(k))
	if err != nil {
		t.Fatal(err)
	}
	alg := TreePolicy("geometric", tr, 1, GeometricEstimator)
	rng := rand.New(rand.NewSource(1))
	x := randomX(rng, k)
	got, err := alg.Run(workload.Identity(k), x, 0.5, noise.NewSource(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != math.Trunc(v) {
			t.Fatalf("cell %d released %g, want an integer", i, v)
		}
	}
}

func TestGeometricEstimatorExactAtZeroEps(t *testing.T) {
	xg := []float64{1, 5, 2}
	out := GeometricEstimator(xg, 0, noise.NewSource(3))
	for i := range xg {
		if out[i] != xg[i] {
			t.Fatal("eps=0 should be exact")
		}
	}
}

func TestGeometricEstimatorVariance(t *testing.T) {
	// Var = 2α/(1−α)², α = e^{−ε}.
	eps := 0.5
	alpha := math.Exp(-eps)
	want := 2 * alpha / ((1 - alpha) * (1 - alpha))
	src := noise.NewSource(4)
	const n = 200000
	xg := make([]float64, n)
	out := GeometricEstimator(xg, eps, src)
	var sum, sq float64
	for _, v := range out {
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(variance-want)/want > 0.05 {
		t.Fatalf("geometric variance %g, want %g", variance, want)
	}
}

func TestGeometricErrorComparableToLaplace(t *testing.T) {
	// The discrete mechanism costs at most a small constant over continuous
	// Laplace at moderate ε.
	k := 128
	tr, err := core.New(policy.Line(k))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, k)
	w := workload.RandomRanges1D(k, 300, noise.NewSource(5))
	geo := measureMSE(t, TreePolicy("geo", tr, 1, GeometricEstimator), w, x, 0.5, 40, 6)
	lap := measureMSE(t, TreePolicy("lap", tr, 1, LaplaceEstimator), w, x, 0.5, 40, 7)
	if geo > 1.5*lap {
		t.Fatalf("geometric error %g too far above Laplace %g", geo, lap)
	}
}
