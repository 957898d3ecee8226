package strategy

import (
	"fmt"
	"sort"

	"github.com/privacylab/blowfish/internal/core"
	"github.com/privacylab/blowfish/internal/mech"
	"github.com/privacylab/blowfish/internal/noise"
	"github.com/privacylab/blowfish/internal/policy"
	"github.com/privacylab/blowfish/internal/workload"
)

// This file implements the Theorem 5.5 strategy for R_k under G^θ_k: the
// spanner H^θ_k is a tree whose k−1 edges partition into groups of at most θ
// — all edges attached to one red vertex from its left (Figure 6d). Ordering
// a group's edges by left endpoint, a transformed range query touches at
// most one contiguous constant-sign run in each of at most two groups, so
// answering all intra-group ranges with a 1-D Privelet sheet per group (groups
// are disjoint: parallel composition) yields O(log³θ/ε²) error per query,
// paid for with the stretch-3 budget of Lemma 4.5.

// thetaLineLayout indexes the spanner edges by (group, position).
type thetaLineLayout struct {
	k, theta int
	tr       *core.Transform
	stretch  int
	// group and pos per edge index of the spanner graph.
	group, pos []int
	groupSizes []int
	sup        *supportIndex
}

func newThetaLineLayout(k, theta int) (*thetaLineLayout, error) {
	sp, err := policy.LineSpanner(k, theta)
	if err != nil {
		return nil, err
	}
	tr, err := core.New(sp.H)
	if err != nil {
		return nil, err
	}
	edges := sp.H.G.Edges
	// A group is identified by an edge's right endpoint (always the larger,
	// red vertex); positions order edges by left endpoint as in the paper.
	type rec struct{ idx, left, right int }
	recs := make([]rec, len(edges))
	for i, e := range edges {
		l, r := e.U, e.V
		if l > r {
			l, r = r, l
		}
		recs[i] = rec{idx: i, left: l, right: r}
	}
	sort.Slice(recs, func(a, b int) bool {
		if recs[a].right != recs[b].right {
			return recs[a].right < recs[b].right
		}
		return recs[a].left < recs[b].left
	})
	lay := &thetaLineLayout{k: k, theta: theta, tr: tr, stretch: sp.Stretch,
		group: make([]int, len(edges)), pos: make([]int, len(edges))}
	gid := -1
	lastRight := -1
	for _, r := range recs {
		if r.right != lastRight {
			gid++
			lastRight = r.right
			lay.groupSizes = append(lay.groupSizes, 0)
		}
		lay.group[r.idx] = gid
		lay.pos[r.idx] = lay.groupSizes[gid]
		lay.groupSizes[gid]++
	}
	lay.sup = newSupportIndex(tr)
	return lay, nil
}

// runsForQuery decomposes the transformed query's support into contiguous
// constant-sign runs per group, returning (group, lo, hi, sign) tuples.
func (lay *thetaLineLayout) runsForQuery(q workload.Query) []edgeRun {
	edges := lay.tr.Policy.G.Edges
	// Collect nonzero coefficients by group position.
	type hit struct {
		pos  int
		sign float64
	}
	byGroup := map[int][]hit{}
	for _, i := range lay.sup.edges(q) {
		c := lay.tr.QueryCoeffOnEdge(q, edges[i])
		if c == 0 {
			continue
		}
		g := lay.group[i]
		byGroup[g] = append(byGroup[g], hit{pos: lay.pos[i], sign: c})
	}
	var runs []edgeRun
	for g, hits := range byGroup {
		sort.Slice(hits, func(a, b int) bool { return hits[a].pos < hits[b].pos })
		start := 0
		for start < len(hits) {
			end := start
			for end+1 < len(hits) &&
				hits[end+1].pos == hits[end].pos+1 &&
				hits[end+1].sign == hits[start].sign {
				end++
			}
			runs = append(runs, edgeRun{group: g, lo: hits[start].pos,
				hi: hits[end].pos, sign: hits[start].sign})
			start = end + 1
		}
	}
	return runs
}

type edgeRun struct {
	group, lo, hi int
	sign          float64
}

// ThetaLineGrouped returns the Theorem 5.5 data-independent algorithm for
// 1-D range queries under G^θ_k with per-group 1-D sheets of the given kind
// (PriveletKind gives the paper's O(log³θ/ε²) bound; CellKind matches the
// "Transformed + Laplace" experimental variant but served group-wise).
// Prepare computes the spanner layout and each query's constant-sign runs
// once (also making the plan safe for concurrent releases — the layout's
// support index scratch is only touched there), so the hot path is
// group-sheet construction, prefix sums, and run lookups.
func ThetaLineGrouped(k, theta int, kind mech.OracleKind) Algorithm {
	name := fmt.Sprintf("ThetaLine(%s)", oracleKindName(kind))
	return Algorithm{Name: name, Prepare: func(w *workload.Workload) (*Prepared, error) {
		if w.K != k {
			return nil, fmt.Errorf("strategy: ThetaLineGrouped domain %d != workload %d", k, w.K)
		}
		lay, err := newThetaLineLayout(k, theta)
		if err != nil {
			return nil, err
		}
		ranges, err := ranges1D("ThetaLineGrouped", w)
		if err != nil {
			return nil, err
		}
		runs := make([][]edgeRun, len(ranges))
		for i, r := range ranges {
			runs[i] = lay.runsForQuery(r)
		}
		compilations.Add(1)
		// noiseInto is the per-release sheet pass (see rangekd.go).
		noiseInto := func(out []float64, eps float64, src *noise.Source) {
			effEps := eps
			if eps > 0 {
				effEps = core.EffectiveEpsilon(eps, lay.stretch)
			}
			sheets := make([]mech.Sheet, len(lay.groupSizes))
			for g, sz := range lay.groupSizes {
				sheets[g] = mech.NewSheet(kind, []int{sz}, effEps, src)
			}
			lo, hi := make([]int, 1), make([]int, 1)
			for i := range ranges {
				for _, run := range runs[i] {
					lo[0], hi[0] = run.lo, run.hi
					out[i] += run.sign * sheets[run.group].RectNoise(lo, hi)
				}
			}
		}
		// The 1-D prefix table is the dims = {k} summed-area table. This
		// strategy takes no Config and stays unsharded; the Engine never
		// routes to it (θ-line policies take the tree compile).
		return satPrepared(name, w, []int{w.K}, 0, nil, evalRanges(ranges), noiseInto), nil
	}}
}

func oracleKindName(kind mech.OracleKind) string {
	switch kind {
	case mech.CellKind:
		return "Laplace"
	case mech.HierKind:
		return "Hierarchical"
	case mech.PriveletKind:
		return "Privelet"
	}
	return "?"
}
