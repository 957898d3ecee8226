package eval

import (
	"fmt"
	"math"

	"github.com/privacylab/blowfish/internal/core"
	"github.com/privacylab/blowfish/internal/noise"
	"github.com/privacylab/blowfish/internal/policy"
	"github.com/privacylab/blowfish/internal/strategy"
	"github.com/privacylab/blowfish/internal/workload"
)

// PlanReuseExperiment measures the compile-once payoff of the Engine/Plan
// refactor on the Figure 3 row-1 setting (random 1-D ranges under the line
// policy G¹_k): the legacy path rebuilds the policy transform, support
// index and per-query coefficients on every release, while the prepared
// path compiles them once and runs only the noise-and-reconstruct hot path.
// Both paths replay the same noise seeds, and the experiment fails if any
// prepared release differs from the legacy one at its seed — so every
// benchmark run doubles as an end-to-end equivalence check. Cells are
// median seconds per release (SecondsPerCall, at least Runs×5 releases).
func PlanReuseExperiment(opts Options) (*Table, error) {
	opts = opts.normalize()
	k := max(4096/opts.DomainScale, 16)
	releases := opts.Runs * 5
	src := noise.NewSource(opts.Seed + 600)
	w := workload.RandomRanges1D(k, opts.Queries, src.Split())
	x := make([]float64, k) // data-independent strategy: empty database, as in Fig 3
	const eps = 1.0
	seeds := make([]int64, releases)
	for r := range seeds {
		seeds[r] = src.Int63()
	}
	// The legacy path is timed first: it fills want, one release per seed.
	want := make([][]float64, releases)
	legacySec, err := SecondsPerCall(releases, Releases("planreuse legacy", seeds, want, 0,
		func(s *noise.Source) ([]float64, error) {
			// The one-shot path, as blowfish.Answer takes it per call:
			// rebuild the transform, then Algorithm.Run recompiles the tree
			// strategy and releases once.
			tr, err := core.New(policy.Line(k))
			if err != nil {
				return nil, err
			}
			alg := strategy.TreePolicy("blowfish(tree)", tr, 1, strategy.LaplaceEstimator, strategy.Config{})
			return alg.Run(w, x, eps, s)
		}))
	if err != nil {
		return nil, err
	}
	tr, err := core.New(policy.Line(k))
	if err != nil {
		return nil, err
	}
	prep, err := strategy.CompileTree("blowfish(tree)", tr, 1, strategy.LaplaceEstimator, w, strategy.Config{})
	if err != nil {
		return nil, err
	}
	preparedSec, err := SecondsPerCall(releases, Releases("planreuse prepared", seeds, want, 0,
		func(s *noise.Source) ([]float64, error) { return prep.Answer(x, eps, s) }))
	if err != nil {
		return nil, err
	}
	return &Table{
		Title:   fmt.Sprintf("Plan reuse: R_k under G^1_k (k=%d, %d queries, %d releases)", k, w.Len(), releases),
		Metric:  "median seconds per release (wall clock)",
		Columns: []string{"s/release", "speedup"},
		Rows:    []string{"legacy Answer", "prepared Plan.Answer"},
		Cells: [][]float64{
			{legacySec, math.NaN()},
			{preparedSec, legacySec / preparedSec},
		},
	}, nil
}
