// Package blowfish is a policy-aware differential privacy library: it
// answers linear query workloads under the Blowfish privacy framework of He,
// Machanavajjhala and Ding (SIGMOD 2014), using the transformational
// equivalence of Haney, Machanavajjhala and Ding ("Design of Policy-Aware
// Differentially Private Algorithms", VLDB 2016) to turn policy-aware
// mechanism design into ordinary differentially private mechanism design.
//
// A Policy is a graph over the record domain whose edges name the value
// pairs an adversary must not distinguish; ordinary (bounded/unbounded)
// differential privacy, line graphs over ordered domains, and
// distance-threshold graphs over grids (geo-indistinguishability) are all
// policies. Answer picks the best strategy the paper provides for the given
// workload/policy pair:
//
//   - tree policies run any estimator on the transformed database x_G
//     (Theorem 4.3), including data-dependent ones (DAWA, consistency);
//   - 1-D distance-threshold policies run on the stretch-3 spanner H^θ_k
//     (Theorem 5.5, Lemma 4.5);
//   - grid policies use the per-line matrix-mechanism strategy
//     (Theorems 5.4 and 5.6);
//   - anything else connected falls back to a BFS spanning tree with its
//     numerically computed stretch.
//
// See the examples/ directory for runnable end-to-end uses.
package blowfish

import (
	"context"

	"github.com/privacylab/blowfish/internal/core"
	"github.com/privacylab/blowfish/internal/noise"
	"github.com/privacylab/blowfish/internal/policy"
	"github.com/privacylab/blowfish/internal/strategy"
	"github.com/privacylab/blowfish/internal/workload"
)

// Re-exported core types. They are defined in internal packages so that the
// implementation surface stays private; the aliases below are the supported
// public names.
type (
	// Policy is a Blowfish policy graph over the domain {0..K−1} (∪ {⊥}).
	Policy = policy.Policy
	// Spanner is a stretch-bounded approximation of a policy (Lemma 4.5).
	Spanner = policy.Spanner
	// Workload is an ordered collection of linear queries.
	Workload = workload.Workload
	// Query is a single linear query.
	Query = workload.Query
	// Range1D is an inclusive 1-D range counting query.
	Range1D = workload.Range1D
	// RangeKd is an inclusive hyper-rectangle counting query.
	RangeKd = workload.RangeKd
	// Transform is the transformational-equivalence data for a policy.
	Transform = core.Transform
	// Algorithm is a named mechanism answering workloads privately.
	Algorithm = strategy.Algorithm
	// Source is a seeded randomness source; all mechanisms draw from one.
	Source = noise.Source
)

// NewSource returns a deterministic randomness source for mechanisms.
func NewSource(seed int64) *Source { return noise.NewSource(seed) }

// Policy constructors.

// UnboundedPolicy is standard unbounded ε-differential privacy as a policy.
func UnboundedPolicy(k int) *Policy { return policy.Unbounded(k) }

// BoundedPolicy is bounded ε-differential privacy (ε-indistinguishability).
func BoundedPolicy(k int) *Policy { return policy.Bounded(k) }

// LinePolicy protects adjacent values of an ordered domain (G¹_k).
func LinePolicy(k int) *Policy { return policy.Line(k) }

// GridPolicy protects L1-adjacent cells of a k×k map (G¹_{k²}), the
// geo-indistinguishability-style policy.
func GridPolicy(k int) *Policy { return policy.Grid(k) }

// DistanceThresholdPolicy protects value pairs within L1 distance theta on
// an arbitrary grid (G^θ_{k^d}).
func DistanceThresholdPolicy(dims []int, theta int) (*Policy, error) {
	return policy.DistanceThreshold(dims, theta)
}

// SensitiveAttributePolicy protects chosen attributes of a relational
// domain, disclosing the rest (Appendix E; generally disconnected).
func SensitiveAttributePolicy(dims []int, sensitive []bool) (*Policy, error) {
	return policy.SensitiveAttributes(dims, sensitive)
}

// Workload constructors.

// Histogram returns the identity workload I_k.
func Histogram(k int) *Workload { return workload.Identity(k) }

// CumulativeHistogram returns the prefix-sum workload C_k.
func CumulativeHistogram(k int) *Workload { return workload.Cumulative(k) }

// AllRanges1D returns every 1-D range query over [0, k).
func AllRanges1D(k int) *Workload { return workload.AllRanges1D(k) }

// RandomRanges1D samples n uniform random 1-D range queries.
func RandomRanges1D(k, n int, src *Source) *Workload {
	return workload.RandomRanges1D(k, n, src)
}

// RandomRangesKd samples n uniform random hyper-rectangle queries.
func RandomRangesKd(dims []int, n int, src *Source) *Workload {
	return workload.RandomRangesKd(dims, n, src)
}

// Marginals returns the marginal workload over the kept attributes of a
// multidimensional domain (one counting query per kept-value combination).
func Marginals(dims []int, keep []bool) (*Workload, error) {
	return workload.Marginals(dims, keep)
}

// NewTransform builds the transformational-equivalence data for a connected
// policy: the P_G construction of Section 4.4 with the bounded-policy
// rewrite of Lemma 4.10.
func NewTransform(p *Policy) (*Transform, error) { return core.New(p) }

// Estimator selects the differentially private estimator used on the
// transformed database when the policy (or its spanner) is a tree.
type Estimator int

// The estimator choices of Section 5.4 / Section 6.
const (
	// EstimatorLaplace is the data-independent Laplace mechanism.
	EstimatorLaplace Estimator = iota
	// EstimatorConsistent adds the non-decreasing consistency projection,
	// valid when x_G is a prefix-sum vector (line policies).
	EstimatorConsistent
	// EstimatorDAWA uses the data-dependent DAWA mechanism.
	EstimatorDAWA
	// EstimatorDAWAConsistent composes DAWA with the consistency projection
	// (line policies).
	EstimatorDAWAConsistent
	// EstimatorGaussian uses (ε, δ)-DP Gaussian noise on the transformed
	// database — the Appendix A extension to approximate Blowfish privacy.
	// Requires Options.Delta > 0.
	EstimatorGaussian
	// EstimatorGeometric uses two-sided geometric (discrete Laplace) noise,
	// keeping integer databases integer valued.
	EstimatorGeometric
)

// Options tunes Answer.
type Options struct {
	// Estimator picks the tree-policy estimator; the default is Laplace.
	Estimator Estimator
	// Delta is the approximation parameter for EstimatorGaussian
	// ((ε, δ, G)-Blowfish privacy per Appendix A).
	Delta float64
	// Theta overrides the policy's distance threshold when selecting
	// spanner-based strategies (defaults to the policy's own Theta).
	Theta int
}

// Answer answers workload w on histogram x under (eps, p)-Blowfish privacy,
// selecting the best strategy the paper provides for the policy's shape.
// The database x is a histogram over the policy domain; eps <= 0 disables
// noise (useful for testing pipelines).
//
// Answer is the one-shot form of the Engine path: Open(p), Prepare(w), then
// one Plan.AnswerWith release with no accountant, so it shares that path's
// validation and typed errors and recompiles the strategy on every call.
// For repeated releases — and for concurrent serving — Open an Engine once,
// Prepare a Plan per workload, and call Plan.Answer.
func Answer(w *Workload, x []float64, p *Policy, eps float64, src *Source, opts Options) ([]float64, error) {
	eng, err := Open(p, EngineOptions{})
	if err != nil {
		return nil, err
	}
	plan, err := eng.Prepare(w, opts)
	if err != nil {
		return nil, err
	}
	return plan.AnswerWith(context.Background(), nil, x, eps, src)
}

// SelectAlgorithm returns the strategy Answer would use, exposed so callers
// can inspect or reuse it across repeated releases. It is a thin wrapper
// over the Engine path: the returned Algorithm's Prepare compiles the
// strategy for a workload once, which is what Engine.Prepare uses, and its
// Run method is Prepare plus one release.
func SelectAlgorithm(w *Workload, p *Policy, opts Options) (Algorithm, error) {
	eng, err := Open(p, EngineOptions{})
	if err != nil {
		return Algorithm{}, err
	}
	return eng.algorithm(w, opts)
}

// OptimizeAlgorithm searches a small family of matrix-mechanism strategies
// in the transformed (edge) domain and returns the best with its analytic
// per-query error at eps. Intended for small domains and policies the
// Section 5 strategies do not cover; the returned algorithm is bound to the
// given workload.
func OptimizeAlgorithm(w *Workload, p *Policy, eps float64) (Algorithm, float64, error) {
	return strategy.OptimizeDense(p, w, eps)
}

func estimatorFunc(opts Options) strategy.Estimator {
	switch opts.Estimator {
	case EstimatorConsistent:
		return strategy.ConsistentLaplaceEstimator
	case EstimatorDAWA:
		return strategy.DawaEstimator
	case EstimatorDAWAConsistent:
		return strategy.DawaConsistentEstimator
	case EstimatorGaussian:
		return strategy.GaussianEstimator(opts.Delta)
	case EstimatorGeometric:
		return strategy.GeometricEstimator
	default:
		return strategy.LaplaceEstimator
	}
}

func rangesOnly(w *Workload) bool {
	for _, q := range w.Queries {
		if _, ok := q.(workload.RangeKd); !ok {
			return false
		}
	}
	return len(w.Queries) > 0
}

// Component is one connected component of a disconnected policy
// (Appendix E).
type Component = core.Component

// SplitComponents decomposes a disconnected policy into independently
// answerable components; each component's membership is disclosed exactly,
// which is the semantics the policy asked for.
func SplitComponents(p *Policy) ([]*Component, error) { return core.SplitComponents(p) }

// PolicySensitivity returns Δ_W(G) (Def 4.1), which equals the ordinary L1
// sensitivity of the transformed workload W·P_G (Lemma 4.7).
func PolicySensitivity(w *Workload, p *Policy) float64 { return w.PolicySensitivity(p) }
