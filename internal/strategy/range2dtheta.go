package strategy

import (
	"fmt"

	"github.com/privacylab/blowfish/internal/core"
	"github.com/privacylab/blowfish/internal/mech"
	"github.com/privacylab/blowfish/internal/noise"
	"github.com/privacylab/blowfish/internal/policy"
	"github.com/privacylab/blowfish/internal/workload"
)

// This file implements the Theorem 5.6 strategy: 2-D range queries under
// G^θ_{k²} via the spanner H^θ_{k²} of Section 5.3.2. The spanner's edges
// split into external edges (a coarse grid over the "red" cube-corner
// lattice) and internal edges (each non-red vertex attached to its cube's
// red corner). For a rectangle query Q the transformed coefficients are
//
//	external edge (Rᵃ, Rᵇ):  1_Q(Rᵃ) − 1_Q(Rᵇ)   — boundary runs over the
//	                                               red lattice rectangle;
//	internal edge (v, red(v)): 1_Q(v) − 1_R(v)    — where R is the preimage
//	                                               rectangle {v : red(v) ∈ Q}.
//
// Since R is Q shifted up-left by less than one cube width, 1_Q − 1_R
// decomposes exactly into four "thin" rectangles, each bounded by the cube
// side in one dimension (Figure 7d). Thin-in-rows rectangles are served by
// per-row-band Privelet oracles, thin-in-columns ones by per-column-band
// oracles; an internal edge participates in one band of each family, so the
// two families split the internal budget (the paper's ε/d), while external
// lines are disjoint from everything and use the full budget. All of it runs
// at ε/stretch per Lemma 4.5.
//
// The strategy splits compile-time from release-time data: thetaLayout2D
// (spanner geometry, per-query lattice intervals and piece decompositions)
// is computed once per plan, while the oracles — the only randomness — are
// drawn per release by noised.

// thetaLayout2D is the compile-time geometry of the strategy for one grid.
type thetaLayout2D struct {
	rows, cols int
	cell       int
	redDims    []int // lattice shape, rows then columns
	stretch    int
}

func newThetaLayout2D(dims []int, theta int) (*thetaLayout2D, error) {
	sp, err := policy.GridSpanner(dims, theta)
	if err != nil {
		return nil, err
	}
	return &thetaLayout2D{rows: dims[0], cols: dims[1], cell: sp.Cell,
		redDims: sp.RedDims, stretch: sp.Stretch}, nil
}

// noised draws the per-release oracles at budget eps (spent at ε/stretch per
// Lemma 4.5), in the fixed order external lines, row bands, column bands.
func (lay *thetaLayout2D) noised(eps float64, src *noise.Source) *thetaGrid2D {
	s := &thetaGrid2D{thetaLayout2D: *lay}
	effEps := eps
	if eps > 0 {
		effEps = core.EffectiveEpsilon(eps, lay.stretch)
	}
	// External: the Theorem 5.4 strategy on the red lattice, whose lines
	// are disjoint from everything and take the full effective budget each.
	// A lattice side of 1 has no lines along it.
	s.external = newGridKdStrategy(lay.redDims, mech.PriveletKind, effEps, src)
	// Internal: two overlapping band families (rows, columns) sharing the
	// budget. With cell == 1 every vertex is red and there are no internal
	// edges at all.
	if lay.cell > 1 {
		half := effEps / 2
		for r0 := 0; r0 < lay.rows; r0 += lay.cell {
			h := min(lay.cell, lay.rows-r0)
			s.rowBands = append(s.rowBands, mech.NewPriveletKd([]int{h, lay.cols}, half, src))
		}
		for c0 := 0; c0 < lay.cols; c0 += lay.cell {
			w := min(lay.cell, lay.cols-c0)
			s.colBands = append(s.colBands, mech.NewPriveletKd([]int{lay.rows, w}, half, src))
		}
	}
	return s
}

// thetaGrid2D is one release's noised strategy: the layout plus its oracles.
type thetaGrid2D struct {
	thetaLayout2D
	external *gridKdStrategy
	rowBands []*mech.PriveletKd // band b covers rows [b·cell, …]
	colBands []*mech.PriveletKd
}

// latticeInterval returns the lattice coordinates [A1, A2] of red positions
// falling inside the domain interval [lo, hi] in a dimension of extent dim
// with redDim lattice points; A1 > A2 when empty.
func latticeInterval(lo, hi, cell, dim, redDim int) (int, int) {
	a1 := lo / cell // first lattice point with red position ≥ lo
	a2 := (hi+1)/cell - 1
	if hi == dim-1 {
		a2 = redDim - 1 // the clamped last red position sits at dim−1
	}
	if a2 > redDim-1 {
		a2 = redDim - 1
	}
	return a1, a2
}

// preimageInterval returns the domain rows whose cube index lies in the
// lattice interval [A1, A2].
func preimageInterval(a1Lat, a2Lat, cell, dim int) (int, int) {
	lo := a1Lat * cell
	hi := (a2Lat+1)*cell - 1
	if hi > dim-1 {
		hi = dim - 1
	}
	return lo, hi
}

type rect struct{ r1, r2, c1, c2 int }

func (rc rect) empty() bool { return rc.r1 > rc.r2 || rc.c1 > rc.c2 }

// internalPieces decomposes 1_Q − 1_R into signed thin rectangles.
// thinRows reports which band family should serve the piece.
type piece struct {
	rect     rect
	sign     float64
	thinRows bool
}

func (lay *thetaLayout2D) internalPieces(q rect) []piece {
	a1Lat, a2Lat := latticeInterval(q.r1, q.r2, lay.cell, lay.rows, lay.redDims[0])
	b1Lat, b2Lat := latticeInterval(q.c1, q.c2, lay.cell, lay.cols, lay.redDims[1])
	if a1Lat > a2Lat || b1Lat > b2Lat {
		// No red vertex inside Q: R is empty and Q itself is thin in every
		// empty dimension.
		thinRows := a1Lat > a2Lat
		return []piece{{rect: q, sign: 1, thinRows: thinRows}}
	}
	a1, a2 := preimageInterval(a1Lat, a2Lat, lay.cell, lay.rows)
	b1, b2 := preimageInterval(b1Lat, b2Lat, lay.cell, lay.cols)
	// Invariants from the construction: a1 ≤ q.r1, a2 ≤ q.r2 (R is shifted
	// up-left), and the overlap O = [q.r1, a2] × [q.c1, b2] is nonempty.
	pieces := []piece{
		{rect: rect{a2 + 1, q.r2, q.c1, q.c2}, sign: +1, thinRows: true}, // Q below O
		{rect: rect{q.r1, a2, b2 + 1, q.c2}, sign: +1, thinRows: false},  // Q right of O
		{rect: rect{a1, q.r1 - 1, b1, b2}, sign: -1, thinRows: true},     // R above O
		{rect: rect{q.r1, a2, b1, q.c1 - 1}, sign: -1, thinRows: false},  // R left of O
	}
	out := pieces[:0]
	for _, p := range pieces {
		if !p.rect.empty() {
			out = append(out, p)
		}
	}
	return out
}

// internalNoise sums band-oracle noise for one signed thin rectangle,
// splitting it at band boundaries (a thin rectangle spans at most two
// bands).
func (s *thetaGrid2D) internalNoise(p piece) float64 {
	var total float64
	if p.thinRows {
		for b := p.rect.r1 / s.cell; b*s.cell <= p.rect.r2; b++ {
			lo := max(p.rect.r1, b*s.cell)
			hi := min(p.rect.r2, (b+1)*s.cell-1)
			if hi > s.rows-1 {
				hi = s.rows - 1
			}
			total += s.rowBands[b].RectNoise(
				[]int{lo - b*s.cell, p.rect.c1}, []int{hi - b*s.cell, p.rect.c2})
		}
	} else {
		for b := p.rect.c1 / s.cell; b*s.cell <= p.rect.c2; b++ {
			lo := max(p.rect.c1, b*s.cell)
			hi := min(p.rect.c2, (b+1)*s.cell-1)
			if hi > s.cols-1 {
				hi = s.cols - 1
			}
			total += s.colBands[b].RectNoise(
				[]int{p.rect.r1, lo - b*s.cell}, []int{p.rect.r2, hi - b*s.cell})
		}
	}
	return p.sign * total
}

// thetaQueryPlan is one query's precompiled decomposition: the external
// red-lattice rectangle [lo, hi] (when nonempty) and the signed internal
// pieces.
type thetaQueryPlan struct {
	hasExt bool
	lo, hi [2]int
	pieces []piece
}

// ThetaGridRange2D returns the Theorem 5.6 algorithm for 2-D range queries
// under G^θ_{k²}. Prepare computes the spanner geometry and every query's
// lattice interval and piece decomposition once; the hot path draws the
// oracles, builds the summed-area table and assembles the precompiled
// terms. Past the cfg sharding threshold the truth side shards into dim-0
// slabs (see shard.go); the spanner oracle pass is unaffected.
func ThetaGridRange2D(dims []int, theta int, cfg Config) Algorithm {
	name := fmt.Sprintf("Transformed + Privelet (theta=%d)", theta)
	return Algorithm{Name: name, Prepare: func(w *workload.Workload) (*Prepared, error) {
		if len(dims) != 2 {
			return nil, fmt.Errorf("strategy: ThetaGridRange2D wants 2-D dims, got %v", dims)
		}
		if dims[0]*dims[1] != w.K {
			return nil, fmt.Errorf("strategy: grid %v != workload domain %d", dims, w.K)
		}
		lay, err := newThetaLayout2D(dims, theta)
		if err != nil {
			return nil, err
		}
		rects, err := rangesKd("ThetaGridRange2D", w, 2)
		if err != nil {
			return nil, err
		}
		plans := make([]thetaQueryPlan, len(rects))
		for i, rq := range rects {
			qr := rect{rq.Lo[0], rq.Hi[0], rq.Lo[1], rq.Hi[1]}
			qp := &plans[i]
			qp.lo[0], qp.hi[0] = latticeInterval(qr.r1, qr.r2, lay.cell, lay.rows, lay.redDims[0])
			qp.lo[1], qp.hi[1] = latticeInterval(qr.c1, qr.c2, lay.cell, lay.cols, lay.redDims[1])
			qp.hasExt = qp.lo[0] <= qp.hi[0] && qp.lo[1] <= qp.hi[1]
			if lay.cell > 1 {
				qp.pieces = lay.internalPieces(qr)
			}
		}
		compilations.Add(1)
		truth, evalFn, blockRows, err := gridTruth(dims, rects, cfg)
		if err != nil {
			return nil, err
		}
		// noiseInto is the per-release oracle pass shared by the static
		// answer and the streaming state (see rangekd.go).
		noiseInto := func(out []float64, eps float64, src *noise.Source) {
			s := lay.noised(eps, src)
			for i := range plans {
				qp := &plans[i]
				var n float64
				if qp.hasExt {
					n += s.external.queryNoise(qp.lo[:], qp.hi[:])
				}
				for _, p := range qp.pieces {
					n += s.internalNoise(p)
				}
				out[i] += n
			}
		}
		refresh := satRefresh(name, w, dims, blockRows, cfg.Pool, evalFn, noiseInto)
		return truthPlusNoise(name, w, truth, noiseInto, refresh), nil
	}}
}
