package eval

import (
	"fmt"

	"github.com/privacylab/blowfish/internal/core"
	"github.com/privacylab/blowfish/internal/noise"
	"github.com/privacylab/blowfish/internal/policy"
	"github.com/privacylab/blowfish/internal/strategy"
	"github.com/privacylab/blowfish/internal/workload"
)

// sparseBenchQueries caps the workload of the dense baseline: its q×|E|
// reconstruction matrix is materialized in full — 2000×16383×8 B ≈ 260 MB
// at the largest -full domain (transiently more while the CSR and its dense
// copy coexist during compilation), which is the most the experiment should
// ask of a CI runner.
const sparseBenchQueries = 2000

// SparseAnswerExperiment measures the operator layer's payoff on the answer
// hot path: the same compiled line-policy range strategy released through a
// fully dense reconstruction matrix (O(q·k) per release — the cost every
// strategy would pay without density selection, and the cost dense-compiled
// strategies did pay) versus the density-selected CSR operator (O(nnz)),
// across a sweep of domain sizes. Release i of either path draws its noise
// from seed i mod the release count, and after every release (untimed) its
// answers are compared with the dense release at that seed: the experiment
// fails past 1e-9, so every benchmark run doubles as an equivalence check.
// Cells are the median wall-clock seconds per release (SecondsPerCall, at
// least Runs×3 releases per path) plus the resulting speedup.
func SparseAnswerExperiment(opts Options) (*Table, error) {
	opts = opts.normalize()
	base := max(4096/opts.DomainScale, 64)
	// Three octaves, capped at 16384 so the dense baseline stays tractable.
	var domains []int
	for k := base; k <= 4*base && k <= 16384; k *= 2 {
		domains = append(domains, k)
	}
	queries := min(opts.Queries, sparseBenchQueries)
	releases := opts.Runs * 3
	src := noise.NewSource(opts.Seed + 700)

	t := &Table{
		Title: fmt.Sprintf("Sparse operator hot path: R_k under G^1_k (%d queries, %d releases)",
			queries, releases),
		Metric:  "median seconds per release (wall clock) / dense-vs-sparse speedup",
		Columns: []string{"dense s/release", "sparse s/release", "speedup"},
	}
	const eps = 1.0
	for _, k := range domains {
		w := workload.RandomRanges1D(k, queries, src.Split())
		x := make([]float64, k) // data-independent strategy: empty database
		tr, err := core.New(policy.Line(k))
		if err != nil {
			return nil, err
		}
		dense, err := strategy.CompileTreeDense("blowfish(tree)", tr, 1, strategy.LaplaceEstimator, w)
		if err != nil {
			return nil, err
		}
		sp, err := strategy.CompileTree("blowfish(tree)", tr, 1, strategy.LaplaceEstimator, w)
		if err != nil {
			return nil, err
		}
		seeds := make([]int64, releases)
		for r := range seeds {
			seeds[r] = src.Int63()
		}
		// The dense path is timed first: it fills want, one release per seed.
		want := make([][]float64, releases)
		path := func(name string, p *strategy.Prepared) Timed {
			return Releases(fmt.Sprintf("sparse bench k=%d %s", k, name), seeds, want, 1e-9,
				func(s *noise.Source) ([]float64, error) { return p.Answer(x, eps, s) })
		}
		denseSec, err := SecondsPerCall(releases, path("dense", dense))
		if err != nil {
			return nil, err
		}
		sparseSec, err := SecondsPerCall(releases, path("sparse", sp))
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, fmt.Sprintf("k=%d", k))
		t.Cells = append(t.Cells, []float64{denseSec, sparseSec, denseSec / sparseSec})
	}
	return t, nil
}
