package eval

import (
	"fmt"
	"math"
	"time"

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
// Both paths consume identical pre-split noise streams, and the experiment
// fails if any release pair is not bitwise identical — so every benchmark
// run doubles as an end-to-end equivalence check.
func PlanReuseExperiment(opts Options) (*Table, error) {
	opts = opts.normalize()
	k := 4096 / opts.DomainScale
	if k < 16 {
		k = 16
	}
	releases := opts.Runs * 5
	src := noise.NewSource(opts.Seed + 600)
	w := workload.RandomRanges1D(k, opts.Queries, src.Split())
	x := make([]float64, k) // data-independent strategy: empty database, as in Fig 3
	const eps = 1.0

	// Pre-derive one seed per release; both paths replay identical streams.
	legacySrcs := make([]*noise.Source, releases)
	planSrcs := make([]*noise.Source, releases)
	for r := range legacySrcs {
		seed := src.Int63()
		legacySrcs[r] = noise.NewSource(seed)
		planSrcs[r] = noise.NewSource(seed)
	}

	legacy := func(s *noise.Source) ([]float64, error) {
		// The one-shot path, as blowfish.Answer takes it per call: rebuild
		// the transform, then Algorithm.Run recompiles the tree strategy
		// and releases once.
		tr, err := core.New(policy.Line(k))
		if err != nil {
			return nil, err
		}
		alg := strategy.TreePolicy("blowfish(tree)", tr, 1, strategy.LaplaceEstimator, strategy.Config{})
		return alg.Run(w, x, eps, s)
	}

	start := time.Now()
	var legacyOut [][]float64
	for r := 0; r < releases; r++ {
		got, err := legacy(legacySrcs[r])
		if err != nil {
			return nil, fmt.Errorf("eval: planreuse legacy: %w", err)
		}
		legacyOut = append(legacyOut, got)
	}
	legacySec := time.Since(start).Seconds()

	tr, err := core.New(policy.Line(k))
	if err != nil {
		return nil, err
	}
	prep, err := strategy.CompileTree("blowfish(tree)", tr, 1, strategy.LaplaceEstimator, w, strategy.Config{})
	if err != nil {
		return nil, err
	}
	start = time.Now()
	for r := 0; r < releases; r++ {
		got, err := prep.Answer(x, eps, planSrcs[r])
		if err != nil {
			return nil, fmt.Errorf("eval: planreuse prepared: %w", err)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(legacyOut[r][i]) {
				return nil, fmt.Errorf("eval: planreuse: release %d query %d: prepared %v != legacy %v (not bitwise identical)",
					r, i, got[i], legacyOut[r][i])
			}
		}
	}
	preparedSec := time.Since(start).Seconds()
	// The prepared loop also pays the bitwise comparison above; that only
	// understates the speedup.

	perRelease := func(total float64) float64 { return total / float64(releases) }
	speedup := math.NaN()
	if preparedSec > 0 {
		speedup = legacySec / preparedSec
	}
	return &Table{
		Title:   fmt.Sprintf("Plan reuse: R_k under G^1_k (k=%d, %d queries, %d releases)", k, w.Len(), releases),
		Metric:  "seconds per release (wall clock)",
		Columns: []string{"s/release", "speedup"},
		Rows:    []string{"legacy Answer", "prepared Plan.Answer"},
		Cells: [][]float64{
			{perRelease(legacySec), math.NaN()},
			{perRelease(preparedSec), speedup},
		},
	}, nil
}
