package strategy

import (
	"fmt"
	"math"

	"github.com/privacylab/blowfish/internal/core"
	"github.com/privacylab/blowfish/internal/linalg"
	"github.com/privacylab/blowfish/internal/mech"
	"github.com/privacylab/blowfish/internal/noise"
	"github.com/privacylab/blowfish/internal/par"
	"github.com/privacylab/blowfish/internal/policy"
	"github.com/privacylab/blowfish/internal/sparse"
	"github.com/privacylab/blowfish/internal/workload"
)

// This file provides matrix-mechanism strategy *optimization* for arbitrary
// connected policies on small domains: it materializes the transformed
// workload W_G, evaluates a family of candidate strategies in the edge
// domain by their exact analytic error, and runs the best one. This is the
// search-based counterpart to the hand-designed strategies of Section 5 —
// useful for policies the paper does not cover, and as a cross-check that
// the specialized strategies are near-optimal within the candidate family.

// candidateStrategy is one evaluated strategy.
type candidateStrategy struct {
	name    string
	a       *linalg.Matrix  // strategy over the edge domain
	recon   *linalg.Matrix  // W_G · A⁺
	reconOp sparse.Operator // recon in its density-selected representation
	delta   float64         // max column L1 norm of A (per-edge participation)
	err     float64         // total analytic squared error at ε = 1
}

// buildCandidate evaluates strategy a for the transformed workload (wgs in
// CSR form, wg its dense materialization), returning nil when a cannot
// reconstruct it. The q×rows reconstruction W_G·A⁺ is computed through the
// sparse left factor — O(nnz(W_G)·rows) instead of O(q·|E|·rows) — and the
// hot path applies it through whichever operator representation its own
// density selects.
func buildCandidate(name string, wgs *sparse.CSR, wg, a *linalg.Matrix) *candidateStrategy {
	var aPlus *linalg.Matrix
	var err error
	if a.Rows >= a.Cols {
		aPlus, err = linalg.PseudoInverseTall(a)
	} else {
		aPlus, err = linalg.RightInverse(a)
	}
	if err != nil {
		return nil
	}
	recon := wgs.MulDense(aPlus)
	if linalg.MaxAbsDiff(linalg.Mul(recon, a), wg) > 1e-6 {
		return nil
	}
	delta := a.MaxColAbsSum()
	var frob float64
	for _, v := range recon.Data {
		frob += v * v
	}
	return &candidateStrategy{name: name, a: a, recon: recon,
		reconOp: sparse.Select(recon, 0), delta: delta,
		err: 2 * delta * delta * frob}
}

// hierarchyMatrix returns the binary-tree strategy over m positions: one row
// per dyadic node (padded domain), entries 1 on the node's extent.
func hierarchyMatrix(m int) *linalg.Matrix {
	size := 1
	for size < m {
		size *= 2
	}
	var rows [][]float64
	for width := size; width >= 1; width /= 2 {
		for start := 0; start < size; start += width {
			row := make([]float64, m)
			any := false
			for i := start; i < start+width && i < m; i++ {
				row[i] = 1
				any = true
			}
			if any {
				rows = append(rows, row)
			}
		}
	}
	return linalg.FromRows(rows)
}

// OptimizeDense returns the best candidate strategy for workload w under
// policy p, with its analytic per-query error at the given ε. Candidates:
// the identity over edges, the binary hierarchy over edges, and W_G itself.
// Intended for small domains (it materializes q×|E| matrices).
func OptimizeDense(p *policy.Policy, w *workload.Workload, eps float64) (Algorithm, float64, error) {
	if w.K != p.K {
		return Algorithm{}, 0, fmt.Errorf("strategy: workload domain %d != policy domain %d", w.K, p.K)
	}
	tr, err := core.New(p)
	if err != nil {
		return Algorithm{}, 0, err
	}
	wgs := tr.SparseTransformWorkload(w)
	wg := wgs.ToDense()
	m := wg.Cols
	specs := []struct {
		name string
		a    *linalg.Matrix
	}{
		{"identity-edges", linalg.Identity(m)},
		{"hierarchy-edges", hierarchyMatrix(m)},
		{"workload-itself", wg.Clone()},
	}
	// Each candidate costs a pseudo-inverse plus two products, so evaluate
	// them concurrently; the winner is then picked serially in spec order,
	// keeping ties deterministic.
	cands := make([]*candidateStrategy, len(specs))
	par.Shared().Do(par.Workers(linalg.Parallelism()), len(specs), func(i int) {
		cands[i] = buildCandidate(specs[i].name, wgs, wg, specs[i].a)
	})
	var best *candidateStrategy
	for _, cand := range cands {
		if cand == nil {
			continue
		}
		if best == nil || cand.err < best.err {
			best = cand
		}
	}
	if best == nil {
		return Algorithm{}, 0, fmt.Errorf("strategy: no candidate strategy supports workload %q under %q", w.Name, p.Name)
	}
	perQuery := best.err / (eps * eps) / float64(w.Len())
	if math.IsNaN(perQuery) {
		return Algorithm{}, 0, fmt.Errorf("strategy: non-finite error estimate")
	}
	// Capture only what the release needs — reconOp, the noise dimension
	// and the sensitivity — so the dense recon and strategy matrices (q×|E|
	// and rows×|E|) can be collected once the search is over instead of
	// living as long as the returned Algorithm.
	name := "Optimized(" + best.name + ")"
	reconOp, etaLen, delta := best.reconOp, best.a.Rows, best.delta
	prep := release(name, w, reconOp, func(x []float64, eps float64, src *noise.Source) []float64 {
		out := w.Answers(x)
		scale := 0.0
		if eps > 0 {
			scale = delta / eps
		}
		eta := src.LaplaceVec(etaLen, scale)
		reconOp.AddApply(out, eta)
		return out
	})
	alg := Algorithm{
		Name: name,
		// The search already compiled everything; Prepare just pins the
		// chosen strategy to the workload it was optimized for. Identity,
		// not shape, is required: a different same-shape workload would be
		// answered as w2.Answers(x) + Recon_w·η — not a post-processing of
		// the noised strategy, so the privacy guarantee would not apply.
		Prepare: func(w2 *workload.Workload) (*Prepared, error) {
			if w2 != w {
				return nil, fmt.Errorf("strategy: optimized mechanism is bound to workload %q", w.Name)
			}
			return prep, nil
		},
	}
	return alg, perQuery, nil
}

// GaussianEstimator estimates the transformed database with (ε, δ)-DP
// Gaussian noise (the Appendix A extension to approximate Blowfish privacy);
// delta is fixed at construction. Claim 4.2 gives the transformed database
// L2 sensitivity 1 on tree policies.
func GaussianEstimator(delta float64) Estimator {
	return func(xg []float64, eps float64, src *noise.Source) []float64 {
		return mech.GaussianVector(xg, 1, eps, delta, src)
	}
}
