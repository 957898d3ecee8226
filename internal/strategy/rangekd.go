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
// sheet. The strategy publishes a noise oracle per sheet and reconstructs
// every query as its true answer plus the signed oracle noise of its faces.
// Privacy follows the matrix-mechanism coupling of Theorem 4.1: the
// reconstruction coefficients on edge f are exactly (W_G)_{·f}, and a unit
// change along f shifts one position of one sheet, which each oracle
// calibrates its noise to.
//
// The sheets of a d ≤ 2 grid are lines, served by a 1-D oracle of any
// mech.OracleKind: Privelet is the paper's strategy and its
// O(d·log^{3(d−1)}k/ε²) bound, Cell and Hier are the Section 6 ablations.
// The sheets of a d ≥ 3 grid are tensor Privelet oracles (mech.PriveletKd).

// gridKdStrategy is one release's noised strategy: an oracle per sheet,
// drawn in the fixed order dimension 0's sheets first, and the bounds of
// the face being read. It is not safe for concurrent use.
type gridKdStrategy struct {
	dims []int
	// lines[i][j] (d ≤ 2) or sheets[i][j] (d ≥ 3) covers the edges along
	// dimension i between slices j and j+1; its domain is dims with
	// dimension i removed. A dimension of size 1 has none.
	lines          [][]mech.Oracle
	sheets         [][]*mech.PriveletKd
	faceLo, faceHi []int
}

func newGridKdStrategy(dims []int, kind mech.OracleKind, eps float64, src *noise.Source) *gridKdStrategy {
	d := len(dims)
	s := &gridKdStrategy{dims: dims, faceLo: make([]int, max(d-1, 1)), faceHi: make([]int, max(d-1, 1))}
	for i := range dims {
		rest := restDims(dims, i)
		if d > 2 {
			sheets := make([]*mech.PriveletKd, dims[i]-1)
			for j := range sheets {
				sheets[j] = mech.NewPriveletKd(rest, eps, src)
			}
			s.sheets = append(s.sheets, sheets)
			continue
		}
		lines := make([]mech.Oracle, dims[i]-1)
		for j := range lines {
			lines[j] = mech.NewOracle(kind, rest[0], eps, src)
		}
		s.lines = append(s.lines, lines)
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
	if s.lines != nil {
		return s.lines[i][j].IntervalNoise(s.faceLo[0], s.faceHi[0])
	}
	return s.sheets[i][j].RectNoise(s.faceLo, s.faceHi)
}

// faceVariance returns the variance of faceNoise(i, j).
func (s *gridKdStrategy) faceVariance(i, j int) float64 {
	if s.lines != nil {
		return s.lines[i][j].IntervalVariance(s.faceLo[0], s.faceHi[0])
	}
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
// range queries under G¹_{k^d}, with line oracles of the given kind at
// d = 2 ("Transformed + Privelet", or the "Transformed + Laplace" and
// "Transformed + Hierarchical" ablations) and Privelet sheets otherwise
// ("Transformed + Privelet (d=N)"; Prepare rejects any other kind there).
// Every dimension must be at least 2. Prepare validates and unpacks the
// query rectangles once; the hot path draws the per-sheet oracles (the only
// per-release randomness), builds the summed-area table and reads the ≤ 2d
// boundary faces per query. Past the cfg sharding threshold the truth side
// is emitted as a blocked operator over dim-0 slabs (see shard.go); the
// oracle pass is unaffected.
func GridPolicyRangeKd(dims []int, kind mech.OracleKind, cfg Config) Algorithm {
	name := fmt.Sprintf("Transformed + Privelet (d=%d)", len(dims))
	if len(dims) == 2 {
		switch kind {
		case mech.CellKind:
			name = "Transformed + Laplace"
		case mech.HierKind:
			name = "Transformed + Hierarchical"
		default:
			name = "Transformed + Privelet"
		}
	}
	return Algorithm{Name: name, Prepare: func(w *workload.Workload) (*Prepared, error) {
		ablation := kind == mech.CellKind || kind == mech.HierKind
		if kind != mech.PriveletKind && !(ablation && len(dims) == 2) {
			return nil, fmt.Errorf("strategy: GridPolicyRangeKd has no oracle kind %d sheets on a %d-D grid", kind, len(dims))
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
		truth, evalFn, blockRows, err := gridTruth(dims, rects, cfg)
		if err != nil {
			return nil, err
		}
		// noiseInto is the per-release oracle pass, shared by the static
		// answer and the streaming state so the two paths cannot drift. The
		// oracles are the only randomness; they draw the same Source values
		// whether the truth side is rebuilt per release or incrementally
		// maintained.
		noiseInto := func(out []float64, eps float64, src *noise.Source) {
			s := newGridKdStrategy(dims, kind, eps, src)
			for i, rq := range rects {
				out[i] += s.queryNoise(rq.Lo, rq.Hi)
			}
		}
		refresh := satRefresh(name, w, dims, blockRows, cfg.Pool, evalFn, noiseInto)
		return truthPlusNoise(name, w, truth, noiseInto, refresh), nil
	}}
}

// GridPolicyRangeKdVariance returns the analytic per-query error of the
// Theorem 5.4 strategy with Privelet sheets for one query, for tests and
// error prediction (variance is data independent).
func GridPolicyRangeKdVariance(dims []int, eps float64, q workload.RangeKd, src *noise.Source) float64 {
	s := newGridKdStrategy(dims, mech.PriveletKind, eps, src)
	return s.queryVariance(q.Lo, q.Hi)
}

// Marginal workloads under grid policies are sums of full-extent range
// queries, so GridPolicyRangeKd answers them directly once they are
// expressed as RangeKd queries — see workload.Marginals.
