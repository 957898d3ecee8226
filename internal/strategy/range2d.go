package strategy

import (
	"fmt"

	"github.com/privacylab/blowfish/internal/mech"
	"github.com/privacylab/blowfish/internal/noise"
	"github.com/privacylab/blowfish/internal/workload"
)

// This file implements the Theorem 5.4 strategy: d-dimensional range queries
// under the grid policy G¹_{k^d} (specialized to d = 2, the case evaluated
// in Section 6). The policy edges split into 2(k−1) disjoint "lines":
// vertical edges between adjacent rows, one line per row gap, and horizontal
// edges between adjacent columns. Per Lemma 5.1 a transformed range query is
// supported on the boundary edges of the rectangle — at most four contiguous
// constant-sign runs, one per side (Figure 5). The strategy publishes a
// noise oracle per line (each line gets the full ε by parallel composition:
// a Blowfish neighbor moves one tuple along a single grid edge, touching one
// line) and reconstructs every query as its true answer plus the signed
// oracle noise of its ≤4 boundary runs. Privacy follows the matrix-mechanism
// coupling of Theorem 4.1: the reconstruction coefficients on edge f are
// exactly (W_G)_{·f}, and a unit change along f shifts the strategy vector
// by f's per-line participation, which each oracle calibrates its noise to.

// grid2DStrategy holds per-line oracles for a rows×cols grid.
type grid2DStrategy struct {
	rows, cols int
	vLines     []mech.Oracle // vLines[r]: edges (r,c)-(r+1,c), position c
	hLines     []mech.Oracle // hLines[c]: edges (r,c)-(r,c+1), position r
}

func newGrid2DStrategy(rows, cols int, kind mech.OracleKind, eps float64, src *noise.Source) *grid2DStrategy {
	s := &grid2DStrategy{rows: rows, cols: cols}
	s.vLines = make([]mech.Oracle, rows-1)
	for r := range s.vLines {
		s.vLines[r] = mech.NewOracle(kind, cols, eps, src)
	}
	s.hLines = make([]mech.Oracle, cols-1)
	for c := range s.hLines {
		s.hLines[c] = mech.NewOracle(kind, rows, eps, src)
	}
	return s
}

// queryNoise assembles the signed boundary-run noise for rectangle
// [r1,r2]×[c1,c2]. Sign convention: edge (u, v) with u the smaller index
// carries +q[u]−q[v], so a run whose *inside* endpoint is v (larger index)
// has coefficient −1 and vice versa.
func (s *grid2DStrategy) queryNoise(r1, r2, c1, c2 int) float64 {
	var n float64
	if r1 > 0 { // top boundary: vertical line r1−1, inside endpoint below
		n -= s.vLines[r1-1].IntervalNoise(c1, c2)
	}
	if r2 < s.rows-1 { // bottom boundary: vertical line r2, inside endpoint above
		n += s.vLines[r2].IntervalNoise(c1, c2)
	}
	if c1 > 0 { // left boundary: horizontal line c1−1
		n -= s.hLines[c1-1].IntervalNoise(r1, r2)
	}
	if c2 < s.cols-1 { // right boundary: horizontal line c2
		n += s.hLines[c2].IntervalNoise(r1, r2)
	}
	return n
}

// GridPolicyRange2D returns the "Transformed + Privelet" algorithm of the
// 2D-Range experiments: 2-D range queries under G¹_{k²} with the per-line
// oracles of the given kind (PriveletKind reproduces the paper's strategy
// and its O(d·log^{3(d−1)}k/ε²) bound; CellKind and HierKind serve as
// ablations). Prepare validates and unpacks the query rectangles once; the
// hot path draws the per-line oracles (the only per-release randomness),
// builds the summed-area table, and reads off the ≤4 boundary runs per
// query. Past the cfg sharding threshold the truth side is emitted as a
// blocked operator over dim-0 slabs (see shard.go); the oracle pass is
// unaffected.
func GridPolicyRange2D(dims []int, kind mech.OracleKind, cfg Config) Algorithm {
	name := "Transformed + Privelet"
	switch kind {
	case mech.CellKind:
		name = "Transformed + Laplace"
	case mech.HierKind:
		name = "Transformed + Hierarchical"
	}
	return Algorithm{Name: name, Prepare: func(w *workload.Workload) (*Prepared, error) {
		if len(dims) != 2 {
			return nil, fmt.Errorf("strategy: GridPolicyRange2D wants a 2-D grid, got dims %v", dims)
		}
		rows, cols := dims[0], dims[1]
		if rows*cols != w.K {
			return nil, fmt.Errorf("strategy: grid %dx%d != workload domain %d", rows, cols, w.K)
		}
		rects, err := rangesKd("GridPolicyRange2D", w, 2)
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
			s := newGrid2DStrategy(rows, cols, kind, eps, src)
			for i, rq := range rects {
				out[i] += s.queryNoise(rq.Lo[0], rq.Hi[0], rq.Lo[1], rq.Hi[1])
			}
		}
		refresh := satRefresh(name, w, dims, blockRows, cfg.Pool, evalFn, noiseInto)
		return truthPlusNoise(name, w, truth, noiseInto, refresh), nil
	}}
}
