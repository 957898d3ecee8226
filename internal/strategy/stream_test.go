package strategy

import (
	"math"
	"math/rand"
	"testing"

	"github.com/privacylab/blowfish/internal/noise"
	"github.com/privacylab/blowfish/internal/workload"
)

// countingState is a maintained state that counts its dense builds.
type countingState struct{ builds *int }

func (c countingState) update(int, float64)    {}
func (c countingState) updateCost(int) int     { return 1 }
func (c countingState) recompute([]float64)    { *c.builds++ }
func (c countingState) exportState() []float64 { return nil }
func (c countingState) importState([]float64) error {
	return nil
}
func (c countingState) answer(float64, *noise.Source) ([]float64, error) {
	return nil, nil
}

// TestRefreshBuildsStateOnce pins that a State wraps the state its fresh
// build returned instead of rebuilding it: Refresh, and so OpenStream and
// Restore, builds every maintained artifact once.
func TestRefreshBuildsStateOnce(t *testing.T) {
	builds := 0
	p := maintainedPrepared("counting", workload.Identity(4), nil, func(x []float64) (maintained, error) {
		m := countingState{&builds}
		m.recompute(x)
		return m, nil
	})
	if _, err := p.Refresh(make([]float64, 4)); err != nil {
		t.Fatal(err)
	}
	if builds != 1 {
		t.Fatalf("Refresh built the state %d times, want 1", builds)
	}
}

// TestEstimatorsLeaveInputUnchanged pins the Estimator contract the tree
// state relies on to hand every answer its one maintained x_G: no
// estimator writes its input.
func TestEstimatorsLeaveInputUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xg := make([]float64, 64)
	for i := range xg {
		xg[i] = float64(rng.Intn(40)) + rng.Float64()
	}
	want := make([]uint64, len(xg))
	for i, v := range xg {
		want[i] = math.Float64bits(v)
	}
	for name, est := range map[string]Estimator{
		"laplace":         LaplaceEstimator,
		"consistent":      ConsistentLaplaceEstimator,
		"dawa":            DawaEstimator,
		"dawa-consistent": DawaConsistentEstimator,
		"geometric":       GeometricEstimator,
		"gaussian":        GaussianEstimator(1e-5),
	} {
		out := est(xg, 0.5, noise.NewSource(2))
		for i, v := range xg {
			if math.Float64bits(v) != want[i] {
				t.Fatalf("%s wrote x_G[%d]: %g", name, i, v)
			}
		}
		if len(out) > 0 && &out[0] == &xg[0] {
			t.Fatalf("%s returned its input", name)
		}
	}
}
