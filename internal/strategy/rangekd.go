package strategy

import (
	"fmt"

	"github.com/privacylab/blowfish/internal/mech"
	"github.com/privacylab/blowfish/internal/noise"
	"github.com/privacylab/blowfish/internal/workload"
)

// This file implements Theorem 5.4 for arbitrary dimension d: range queries
// under the grid policy G¹_{k^d}. The policy edges along dimension i between
// slices j and j+1 form one "sheet" per (i, j) — a (d−1)-dimensional grid of
// edges indexed by the remaining coordinates. Sheets are pairwise disjoint,
// so each gets the full ε (parallel composition). A transformed range query
// is supported on its 2d boundary faces (Lemma 5.1), each a
// (d−1)-dimensional rectangle inside a single sheet, answered by that
// sheet's tensor Privelet oracle — yielding the paper's
// O(d·log^{3(d−1)}k/ε²) error. The 2-D case in range2d.go is the same
// construction with 1-D oracles; it is kept separate because its line
// oracles support the oracle-kind ablations.

// gridKdStrategy holds one (d−1)-dim oracle per sheet.
type gridKdStrategy struct {
	dims []int
	// sheets[i][j] covers edges along dimension i between slices j and j+1;
	// its domain is dims with dimension i removed.
	sheets [][]*mech.PriveletKd
}

func newGridKdStrategy(dims []int, eps float64, src *noise.Source) *gridKdStrategy {
	d := len(dims)
	s := &gridKdStrategy{dims: dims, sheets: make([][]*mech.PriveletKd, d)}
	for i := 0; i < d; i++ {
		rest := restDims(dims, i)
		s.sheets[i] = make([]*mech.PriveletKd, dims[i]-1)
		for j := range s.sheets[i] {
			s.sheets[i][j] = mech.NewPriveletKd(rest, eps, src)
		}
	}
	return s
}

// restDims returns dims with dimension drop removed; a 0-dimensional result
// (d = 1) becomes the singleton {1} so the oracle still has one cell.
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

// faces calls f on each boundary face of [lo, hi] in a fixed order: per
// dimension i, the upper face (sign −1: its inside endpoint has the larger
// index) when lo[i] > 0, then the lower face (sign +1) when hi[i] is not the
// last slice. Each face is a (d−1)-dim rectangle inside one sheet; faceLo
// and faceHi are reused between calls.
func (s *gridKdStrategy) faces(lo, hi []int, f func(sign float64, sheet *mech.PriveletKd, faceLo, faceHi []int)) {
	d := len(s.dims)
	faceLo := make([]int, 0, d)
	faceHi := make([]int, 0, d)
	for i := 0; i < d; i++ {
		faceLo = faceLo[:0]
		faceHi = faceHi[:0]
		for t := 0; t < d; t++ {
			if t == i {
				continue
			}
			faceLo = append(faceLo, lo[t])
			faceHi = append(faceHi, hi[t])
		}
		if len(faceLo) == 0 { // 1-D domain: faces are single cells
			faceLo = append(faceLo, 0)
			faceHi = append(faceHi, 0)
		}
		if lo[i] > 0 {
			f(-1, s.sheets[i][lo[i]-1], faceLo, faceHi)
		}
		if hi[i] < s.dims[i]-1 {
			f(+1, s.sheets[i][hi[i]], faceLo, faceHi)
		}
	}
}

// queryNoise assembles the signed boundary-face noise for [lo, hi].
func (s *gridKdStrategy) queryNoise(lo, hi []int) float64 {
	var n float64
	s.faces(lo, hi, func(sign float64, sheet *mech.PriveletKd, faceLo, faceHi []int) {
		n += sign * sheet.RectNoise(faceLo, faceHi)
	})
	return n
}

// queryVariance returns the analytic variance of queryNoise (faces live in
// distinct sheets, so variances add).
func (s *gridKdStrategy) queryVariance(lo, hi []int) float64 {
	var v float64
	s.faces(lo, hi, func(_ float64, sheet *mech.PriveletKd, faceLo, faceHi []int) {
		v += sheet.RectVariance(faceLo, faceHi)
	})
	return v
}

// GridPolicyRangeKd returns the Theorem 5.4 algorithm for d-dimensional
// range queries under G¹_{k^d}, for any d ≥ 1. Prepare validates and
// unpacks the query rectangles once; the hot path draws the per-sheet
// oracles, builds the summed-area table and reads the 2d boundary faces per
// query. Past the cfg sharding threshold the truth side shards into dim-0
// slabs (see shard.go).
func GridPolicyRangeKd(dims []int, cfg Config) Algorithm {
	name := fmt.Sprintf("Transformed + Privelet (d=%d)", len(dims))
	return Algorithm{Name: name, Prepare: func(w *workload.Workload) (*Prepared, error) {
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
		truth, evalFn, blockRows, err := gridTruth(dims, rects, cfg)
		if err != nil {
			return nil, err
		}
		// noiseInto is the per-release oracle pass shared by the static
		// answer and the streaming state (see range2d.go).
		noiseInto := func(out []float64, eps float64, src *noise.Source) {
			s := newGridKdStrategy(dims, eps, src)
			for i, rq := range rects {
				out[i] += s.queryNoise(rq.Lo, rq.Hi)
			}
		}
		refresh := satRefresh(name, w, dims, blockRows, cfg.Pool, evalFn, noiseInto)
		return truthPlusNoise(name, w, truth, noiseInto, refresh), nil
	}}
}

// GridPolicyRangeKdVariance returns the analytic per-query error of the
// Theorem 5.4 strategy for one query, for tests and error prediction. It
// constructs the oracles with zero noise (variance is data independent).
func GridPolicyRangeKdVariance(dims []int, eps float64, q workload.RangeKd, src *noise.Source) float64 {
	s := newGridKdStrategy(dims, eps, src)
	return s.queryVariance(q.Lo, q.Hi)
}

// Marginal workloads under grid policies are sums of full-extent range
// queries, so GridPolicyRangeKd answers them directly once they are
// expressed as RangeKd queries — see workload.Marginals.
