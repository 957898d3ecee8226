package mech

import (
	"math"

	"github.com/privacylab/blowfish/internal/noise"
)

// DAWA is a data-dependent mechanism in the style of Li, Hay and Miklau
// (PVLDB 2014), the state-of-the-art data-dependent baseline of the paper's
// experiments. It spends a fraction of the budget privately choosing a
// variable-width partition of the domain whose buckets have near-uniform
// counts, then spends the rest measuring bucket totals with the Laplace
// mechanism and spreading them uniformly. On sparse or clustered data the
// partition merges long runs of similar counts into single buckets, adding
// noise to far fewer measurements than a per-cell mechanism; at very small ε
// the partition budget is wasted on a noisy partition, the degradation the
// paper observes in Figures 8–9.
//
// Compared with the published DAWA we simplify stage 1 (see ARCHITECTURE.md
// "Substitutions"): instead of perturbing every interval cost
// independently, stage 1 buys one ε₁-DP noisy histogram and evaluates all
// interval costs on it — subsequent cost evaluation and the dynamic program
// are post-processing, so stage 1 is ε₁-DP by construction and avoids the
// selection bias of minimizing over thousands of independently-noised
// costs. The cost of a bucket of length L is the exact expected squared
// error of estimating it uniformly from one noisy total: its squared
// deviation from uniformity (estimated on the noisy histogram and debiased
// by the expected noise contribution (L−1)·2/ε₁²) plus the spread stage-2
// noise 2/(ε₂²·L). DAWA states the same objective in L1 units; the squared
// form makes spikes several standard deviations more salient against
// stage-1 noise, which matters because the dynamic program minimizes over
// thousands of candidates. Candidates are intervals of dyadic length at
// every offset, as in the DAWA implementation. Stage 2 is ε₂-DP by parallel
// composition over disjoint buckets; interval queries are answered from the
// bucketized estimate (we omit DAWA's final workload-aware hierarchy).
type DAWA struct {
	est    []float64 // estimated histogram
	prefix []float64 // prefix sums of est
	cuts   []int     // partition boundaries (start index of each bucket)
}

// DefaultPartitionRatio is the share of the privacy budget DAWA spends on
// choosing the partition (the DAWA paper's default split).
const DefaultPartitionRatio = 0.25

// NewDAWA runs the mechanism over histogram x with total budget eps, using
// ratio·eps for the partition stage. A ratio outside (0, 1) falls back to
// the default. eps <= 0 disables noise in both stages (the partition then
// minimizes the true cost).
func NewDAWA(x []float64, eps, ratio float64, src *noise.Source) *DAWA {
	if ratio <= 0 || ratio >= 1 {
		ratio = DefaultPartitionRatio
	}
	eps1 := eps * ratio
	eps2 := eps - eps1
	if eps <= 0 {
		eps1, eps2 = 0, 0
	}
	cuts := dawaPartition(x, eps1, eps2, src)
	est := make([]float64, len(x))
	scale := 0.0
	if eps2 > 0 {
		scale = 1 / eps2
	}
	for b := 0; b < len(cuts); b++ {
		start := cuts[b]
		end := len(x)
		if b+1 < len(cuts) {
			end = cuts[b+1]
		}
		var total float64
		for i := start; i < end; i++ {
			total += x[i]
		}
		total += src.Laplace(scale)
		share := total / float64(end-start)
		for i := start; i < end; i++ {
			est[i] = share
		}
	}
	d := &DAWA{est: est, cuts: cuts, prefix: make([]float64, len(x)+1)}
	var acc float64
	for i, v := range est {
		acc += v
		d.prefix[i+1] = acc
	}
	return d
}

// dawaPartition selects bucket boundaries by dynamic programming over
// dyadic-length interval candidates, with costs evaluated on an ε₁-DP noisy
// copy of the histogram (post-processing thereafter).
func dawaPartition(x []float64, eps1, eps2 float64, src *noise.Source) []int {
	n := len(x)
	if n == 0 {
		return nil
	}
	noiseVar2 := 0.0 // stage-2 Laplace variance 2/ε₂²
	if eps2 > 0 {
		noiseVar2 = 2 / (eps2 * eps2)
	}
	// Stage-1 noisy histogram; a pure-noise bucket of length L has expected
	// squared deviation (L−1)·2/ε₁² around its estimated mean.
	y := make([]float64, n)
	noiseVar1 := 0.0
	if eps1 > 0 {
		noiseVar1 = 2 / (eps1 * eps1)
		for i, v := range x {
			y[i] = v + src.Laplace(1/eps1)
		}
	} else {
		copy(y, x)
	}
	prefix := make([]float64, n+1)
	prefixSq := make([]float64, n+1)
	for i, v := range y {
		prefix[i+1] = prefix[i] + v
		prefixSq[i+1] = prefixSq[i] + v*v
	}
	type cand struct {
		start int
		cost  float64
	}
	byEnd := make([][]cand, n+1)
	for start := 0; start < n; start++ {
		for l := 1; start+l <= n; l *= 2 {
			end := start + l
			sum := prefix[end] - prefix[start]
			// SSE around the bucket mean, O(1) from prefix sums.
			sse := (prefixSq[end] - prefixSq[start]) - sum*sum/float64(l)
			sse -= float64(l-1) * noiseVar1
			if sse < 0 {
				sse = 0
			}
			byEnd[end] = append(byEnd[end], cand{start, sse + noiseVar2/float64(l)})
		}
	}
	// DP over prefix boundaries.
	best := make([]float64, n+1)
	from := make([]int, n+1)
	for e := 1; e <= n; e++ {
		best[e] = math.Inf(1)
		for _, c := range byEnd[e] {
			if v := best[c.start] + c.cost; v < best[e] {
				best[e] = v
				from[e] = c.start
			}
		}
	}
	// Recover boundaries.
	var rev []int
	for e := n; e > 0; e = from[e] {
		rev = append(rev, from[e])
	}
	cuts := make([]int, len(rev))
	for i, v := range rev {
		cuts[len(rev)-1-i] = v
	}
	return cuts
}

// Histogram returns the estimated histogram.
func (d *DAWA) Histogram() []float64 { return d.est }

// Buckets returns the chosen partition boundaries (bucket start indices).
func (d *DAWA) Buckets() []int { return d.cuts }

// EstimateRange returns the estimate for the inclusive interval [l, r],
// computed in O(1) from the estimated histogram's prefix sums
// (post-processing, no extra budget).
func (d *DAWA) EstimateRange(l, r int) float64 {
	checkInterval(len(d.est), l, r)
	return d.prefix[r+1] - d.prefix[l]
}

// EstimatePoint returns the estimate for a single position.
func (d *DAWA) EstimatePoint(i int) float64 { return d.est[i] }
