package strategy

import (
	"fmt"

	"github.com/privacylab/blowfish/internal/mech"
	"github.com/privacylab/blowfish/internal/noise"
	"github.com/privacylab/blowfish/internal/workload"
)

// This file implements the Theorem 5.4 strategy: range queries under the
// grid policy G¹_{k^d}, for any d ≥ 1. The policy edges along dimension i
// between slices j and j+1 form one "sheet" per (i, j): a (d−1)-dimensional
// grid of edges indexed by the remaining coordinates, which is a line when
// d = 2 and a single edge when d = 1. Sheets are pairwise disjoint and a
// Blowfish neighbor moves one tuple along a single grid edge, touching one
// sheet, so each sheet gets the full ε (parallel composition). Per Lemma 5.1
// a transformed range query is supported on its ≤ 2d boundary faces
// (Figure 5), each a constant-sign (d−1)-dimensional rectangle inside one
// sheet. The strategy publishes a noise oracle (mech.Sheet) per sheet and
// reconstructs every query as its true answer plus the signed oracle noise
// of its faces. Privacy follows the matrix-mechanism coupling of
// Theorem 4.1: the reconstruction coefficients on edge f are exactly
// (W_G)_{·f}, and a unit change along f shifts one position of one sheet,
// which each oracle calibrates its noise to.
//
// Every oracle of a release has the one mech.OracleKind at every d:
// Privelet is the paper's strategy and its O(d·log^{3(d−1)}k/ε²) bound,
// Cell and Hier are the Section 6 ablations.

// gridKdStrategy is one release's noised strategy: a sheet per (i, j),
// drawn in the fixed order dimension 0's sheets first, and the bounds of
// the face being read. It is not safe for concurrent use.
type gridKdStrategy struct {
	dims []int
	// sheets[i][j] covers the edges along dimension i between slices j and
	// j+1; its grid is dims with dimension i removed. A dimension of size 1
	// has none.
	sheets         [][]mech.Sheet
	faceLo, faceHi []int
}

// newGridKdStrategy draws the sheets at budget eps from src; a nil src
// draws nothing and leaves a strategy that answers queryVariance only.
func newGridKdStrategy(dims []int, kind mech.OracleKind, eps float64, src *noise.Source) *gridKdStrategy {
	d := len(dims)
	s := &gridKdStrategy{dims: dims, sheets: make([][]mech.Sheet, d),
		faceLo: make([]int, max(d-1, 1)), faceHi: make([]int, max(d-1, 1))}
	for i := range dims {
		rest := restDims(dims, i)
		s.sheets[i] = make([]mech.Sheet, dims[i]-1)
		for j := range s.sheets[i] {
			s.sheets[i][j] = mech.NewSheet(kind, rest, eps, src)
		}
	}
	return s
}

// restDims returns dims with dimension drop removed; a 0-dimensional result
// (d = 1) becomes the singleton {1} so each sheet still has one edge.
func restDims(dims []int, drop int) []int {
	rest := make([]int, 0, len(dims)-1)
	for i, v := range dims {
		if i != drop {
			rest = append(rest, v)
		}
	}
	if len(rest) == 0 {
		rest = []int{1}
	}
	return rest
}

// face loads the bounds of [lo, hi]'s faces across dimension i into
// s.faceLo and s.faceHi: the other coordinates' bounds, or {0}, the one
// edge of a sheet, on a d = 1 grid. The upper face (sign −1: its inside
// endpoint has the larger index) lies in sheet lo[i]−1 when lo[i] > 0, the
// lower face (sign +1) in sheet hi[i] when hi[i] is not the last slice.
func (s *gridKdStrategy) face(i int, lo, hi []int) {
	t := 0
	for u := range s.dims {
		if u != i {
			s.faceLo[t], s.faceHi[t] = lo[u], hi[u]
			t++
		}
	}
}

// faceNoise returns the noise of the loaded face in sheet (i, j).
func (s *gridKdStrategy) faceNoise(i, j int) float64 {
	return s.sheets[i][j].RectNoise(s.faceLo, s.faceHi)
}

// faceVariance returns the variance of faceNoise(i, j).
func (s *gridKdStrategy) faceVariance(i, j int) float64 {
	return s.sheets[i][j].RectVariance(s.faceLo, s.faceHi)
}

// queryNoise assembles the signed boundary-face noise for [lo, hi], per
// dimension the upper face then the lower one.
func (s *gridKdStrategy) queryNoise(lo, hi []int) float64 {
	var n float64
	for i := range s.dims {
		s.face(i, lo, hi)
		if lo[i] > 0 {
			n -= s.faceNoise(i, lo[i]-1)
		}
		if hi[i] < s.dims[i]-1 {
			n += s.faceNoise(i, hi[i])
		}
	}
	return n
}

// queryVariance returns the analytic variance of queryNoise (faces live in
// distinct sheets, so variances add).
func (s *gridKdStrategy) queryVariance(lo, hi []int) float64 {
	var v float64
	for i := range s.dims {
		s.face(i, lo, hi)
		if lo[i] > 0 {
			v += s.faceVariance(i, lo[i]-1)
		}
		if hi[i] < s.dims[i]-1 {
			v += s.faceVariance(i, hi[i])
		}
	}
	return v
}

// GridPolicyRangeKd returns the Theorem 5.4 algorithm for d-dimensional
// range queries under G¹_{k^d}, with sheets of the given kind: at d = 2
// "Transformed + Privelet", or the "Transformed + Laplace" and
// "Transformed + Hierarchical" ablations; at any other d the same names
// with " (d=N)" appended. Every dimension must be at least 2. Prepare
// validates and unpacks the query rectangles once; the hot path draws the
// sheets (the only per-release randomness), builds the summed-area table
// and reads the ≤ 2d boundary faces per query. Past the cfg sharding
// threshold the table is blocked into dim-0 slabs (see shard.go); the
// sheet pass is unaffected.
func GridPolicyRangeKd(dims []int, kind mech.OracleKind, cfg Config) Algorithm {
	name := "Transformed + " + oracleKindName(kind)
	if len(dims) != 2 {
		name += fmt.Sprintf(" (d=%d)", len(dims))
	}
	return Algorithm{Name: name, Prepare: func(w *workload.Workload) (*Prepared, error) {
		if kind < mech.CellKind || kind > mech.PriveletKind {
			return nil, fmt.Errorf("strategy: GridPolicyRangeKd has no oracle kind %d", kind)
		}
		k := 1
		for _, v := range dims {
			if v < 2 {
				return nil, fmt.Errorf("strategy: GridPolicyRangeKd needs every dimension >= 2, got %v", dims)
			}
			k *= v
		}
		if k != w.K {
			return nil, fmt.Errorf("strategy: grid %v != workload domain %d", dims, w.K)
		}
		rects, err := rangesKd("GridPolicyRangeKd", w, len(dims))
		if err != nil {
			return nil, err
		}
		compilations.Add(1)
		evalFn, blockRows := gridTruth(dims, rects, cfg)
		// noiseInto is the per-release sheet pass. The sheets are the
		// only randomness; they draw the same Source values whether the
		// table is built fresh per release or incrementally maintained.
		noiseInto := func(out []float64, eps float64, src *noise.Source) {
			s := newGridKdStrategy(dims, kind, eps, src)
			for i, rq := range rects {
				out[i] += s.queryNoise(rq.Lo, rq.Hi)
			}
		}
		return satPrepared(name, w, dims, blockRows, cfg.Pool, evalFn, noiseInto), nil
	}}
}

// GridPolicyRangeKdVariance returns the analytic per-query error of the
// Theorem 5.4 strategy with sheets of the given kind for one query, for
// tests and error prediction (variance is data independent). It reads the
// sheets' noise scales and draws nothing.
func GridPolicyRangeKdVariance(dims []int, kind mech.OracleKind, eps float64, q workload.RangeKd) float64 {
	return newGridKdStrategy(dims, kind, eps, nil).queryVariance(q.Lo, q.Hi)
}

// Marginal workloads under grid policies are sums of full-extent range
// queries, so GridPolicyRangeKd answers them directly once they are
// expressed as RangeKd queries — see workload.Marginals.
