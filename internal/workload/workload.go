// Package workload represents workloads of linear queries over a histogram
// domain (Section 2 of the paper): a workload is conceptually a q×k matrix W
// whose rows are linear queries, answered as W·x. Because the experiments use
// domains up to 4096 (and 100²) with 10 000 queries, queries are kept in
// structured form (ranges with bounds) with a dense materialization available
// for the small domains used in verification and lower-bound computation.
package workload

import (
	"fmt"
	"math"

	"github.com/privacylab/blowfish/internal/linalg"
	"github.com/privacylab/blowfish/internal/noise"
	"github.com/privacylab/blowfish/internal/policy"
)

// Query is one linear query: a k-dimensional row vector q with answer q·x.
type Query interface {
	// Coeff returns the coefficient of domain value i.
	Coeff(i int) float64
	// Eval returns q·x.
	Eval(x []float64) float64
}

// Workload is an ordered collection of linear queries over a domain of size K.
type Workload struct {
	Name    string
	K       int
	Queries []Query
}

// Len returns the number of queries.
func (w *Workload) Len() int { return len(w.Queries) }

// Answers evaluates every query against x.
func (w *Workload) Answers(x []float64) []float64 {
	if len(x) != w.K {
		panic(fmt.Sprintf("workload: Answers: database size %d != domain %d", len(x), w.K))
	}
	out := make([]float64, len(w.Queries))
	for i, q := range w.Queries {
		out[i] = q.Eval(x)
	}
	return out
}

// ToMatrix materializes the workload as a dense q×k matrix. Intended for the
// small domains used by transform verification and SVD lower bounds.
func (w *Workload) ToMatrix() *linalg.Matrix {
	m := linalg.New(len(w.Queries), w.K)
	for i, q := range w.Queries {
		row := m.Row(i)
		for j := range row {
			row[j] = q.Coeff(j)
		}
	}
	return m
}

// Sensitivity returns the unbounded-DP L1 sensitivity Δ_W (Def 2.3): the
// maximum over domain values of the column L1 norm of W.
func (w *Workload) Sensitivity() float64 {
	var best float64
	for j := 0; j < w.K; j++ {
		var s float64
		for _, q := range w.Queries {
			s += math.Abs(q.Coeff(j))
		}
		if s > best {
			best = s
		}
	}
	return best
}

// PolicySensitivity returns Δ_W(G) (Def 4.1): the maximum over policy edges
// (u, v) of Σ_q |q·(e_u − e_v)|, with q·e_⊥ = 0 for edges incident on ⊥.
// By Lemma 4.7 this equals the plain sensitivity of the transformed workload
// W_G = W·P_G.
func (w *Workload) PolicySensitivity(p *policy.Policy) float64 {
	bottom := p.Bottom()
	var best float64
	for _, e := range p.G.Edges {
		var s float64
		for _, q := range w.Queries {
			cu, cv := 0.0, 0.0
			if e.U != bottom {
				cu = q.Coeff(e.U)
			}
			if e.V != bottom {
				cv = q.Coeff(e.V)
			}
			s += math.Abs(cu - cv)
		}
		if s > best {
			best = s
		}
	}
	return best
}

// Point is the counting query for a single domain value.
type Point int

// Coeff implements Query.
func (p Point) Coeff(i int) float64 {
	if int(p) == i {
		return 1
	}
	return 0
}

// Eval implements Query.
func (p Point) Eval(x []float64) float64 { return x[int(p)] }

// Prefix is the cumulative counting query Σ_{i ≤ R} x[i].
type Prefix int

// Coeff implements Query.
func (p Prefix) Coeff(i int) float64 {
	if i <= int(p) {
		return 1
	}
	return 0
}

// Eval implements Query.
func (p Prefix) Eval(x []float64) float64 {
	var s float64
	for i := 0; i <= int(p); i++ {
		s += x[i]
	}
	return s
}

// Range1D is the 1-D range counting query Σ_{L ≤ i ≤ R} x[i] (inclusive).
type Range1D struct{ L, R int }

// Coeff implements Query.
func (r Range1D) Coeff(i int) float64 {
	if i >= r.L && i <= r.R {
		return 1
	}
	return 0
}

// Eval implements Query.
func (r Range1D) Eval(x []float64) float64 {
	var s float64
	for i := r.L; i <= r.R; i++ {
		s += x[i]
	}
	return s
}

// RangeKd is a d-dimensional hyper-rectangle counting query over a row-major
// grid domain with shape Dims: it counts cells with Lo ≤ coord ≤ Hi
// coordinate-wise (inclusive).
type RangeKd struct {
	Dims   []int
	Lo, Hi []int
}

// Coeff implements Query.
func (r RangeKd) Coeff(i int) float64 {
	coords := make([]int, len(r.Dims))
	policy.Unrank(r.Dims, i, coords)
	for d := range coords {
		if coords[d] < r.Lo[d] || coords[d] > r.Hi[d] {
			return 0
		}
	}
	return 1
}

// Eval implements Query.
func (r RangeKd) Eval(x []float64) float64 {
	d := len(r.Dims)
	cur := make([]int, d)
	copy(cur, r.Lo)
	var s float64
	for {
		s += x[policy.Rank(r.Dims, cur)]
		// Odometer increment within [Lo, Hi].
		dim := d - 1
		for dim >= 0 {
			cur[dim]++
			if cur[dim] <= r.Hi[dim] {
				break
			}
			cur[dim] = r.Lo[dim]
			dim--
		}
		if dim < 0 {
			return s
		}
	}
}

// Dense is an arbitrary dense linear query.
type Dense []float64

// Coeff implements Query.
func (d Dense) Coeff(i int) float64 { return d[i] }

// Eval implements Query.
func (d Dense) Eval(x []float64) float64 {
	var s float64
	for i, c := range d {
		s += c * x[i]
	}
	return s
}

// Identity returns the histogram workload I_k (Example 2.1).
func Identity(k int) *Workload {
	w := &Workload{Name: "Hist", K: k, Queries: make([]Query, k)}
	for i := 0; i < k; i++ {
		w.Queries[i] = Point(i)
	}
	return w
}

// Cumulative returns the cumulative histogram workload C_k (Example 2.1):
// query i is the prefix sum through i.
func Cumulative(k int) *Workload {
	w := &Workload{Name: "Cumulative", K: k, Queries: make([]Query, k)}
	for i := 0; i < k; i++ {
		w.Queries[i] = Prefix(i)
	}
	return w
}

// AllRanges1D returns R_k, all k(k+1)/2 one-dimensional range queries.
func AllRanges1D(k int) *Workload {
	w := &Workload{Name: "R_k", K: k}
	for l := 0; l < k; l++ {
		for r := l; r < k; r++ {
			w.Queries = append(w.Queries, Range1D{L: l, R: r})
		}
	}
	return w
}

// RandomRanges1D samples n uniform random 1-D range queries, the 1D-Range
// experimental workload of Section 6.
func RandomRanges1D(k, n int, src *noise.Source) *Workload {
	w := &Workload{Name: "1D-Range", K: k, Queries: make([]Query, n)}
	for i := 0; i < n; i++ {
		a, b := src.Intn(k), src.Intn(k)
		if a > b {
			a, b = b, a
		}
		w.Queries[i] = Range1D{L: a, R: b}
	}
	return w
}

// AllRangesKd returns R_{k^d}, all axis-aligned hyper-rectangle queries over
// the dims grid. The count grows as prod(k_i(k_i+1)/2); use only for small
// grids (lower bounds, verification).
func AllRangesKd(dims []int) *Workload {
	k := 1
	for _, d := range dims {
		k *= d
	}
	w := &Workload{Name: "R_{k^d}", K: k}
	d := len(dims)
	lo, hi := make([]int, d), make([]int, d)
	var rec func(dim int)
	rec = func(dim int) {
		if dim == d {
			q := RangeKd{Dims: append([]int(nil), dims...),
				Lo: append([]int(nil), lo...), Hi: append([]int(nil), hi...)}
			w.Queries = append(w.Queries, q)
			return
		}
		for l := 0; l < dims[dim]; l++ {
			for r := l; r < dims[dim]; r++ {
				lo[dim], hi[dim] = l, r
				rec(dim + 1)
			}
		}
	}
	rec(0)
	return w
}

// RandomRangesKd samples n uniform random hyper-rectangle queries over the
// dims grid, the 2D-Range experimental workload of Section 6.
func RandomRangesKd(dims []int, n int, src *noise.Source) *Workload {
	k := 1
	for _, d := range dims {
		k *= d
	}
	w := &Workload{Name: "Kd-Range", K: k, Queries: make([]Query, n)}
	d := len(dims)
	for i := 0; i < n; i++ {
		lo, hi := make([]int, d), make([]int, d)
		for dim := 0; dim < d; dim++ {
			a, b := src.Intn(dims[dim]), src.Intn(dims[dim])
			if a > b {
				a, b = b, a
			}
			lo[dim], hi[dim] = a, b
		}
		w.Queries[i] = RangeKd{Dims: append([]int(nil), dims...), Lo: lo, Hi: hi}
	}
	return w
}

// PrefixSums returns the prefix-sum vector s with s[i] = Σ_{j ≤ i} x[j];
// shared helper for fast range evaluation.
func PrefixSums(x []float64) []float64 {
	s := make([]float64, len(x))
	var acc float64
	for i, v := range x {
		acc += v
		s[i] = acc
	}
	return s
}

// EvalRange1D answers a Range1D query from precomputed prefix sums.
func EvalRange1D(prefix []float64, q Range1D) float64 {
	s := prefix[q.R]
	if q.L > 0 {
		s -= prefix[q.L-1]
	}
	return s
}

// SummedAreaTable returns the inclusive d-dimensional prefix-sum table of x
// over the dims grid, enabling O(2^d) range evaluation.
func SummedAreaTable(dims []int, x []float64) []float64 {
	t := make([]float64, len(x))
	copy(t, x)
	// Running prefix along each dimension in turn.
	stride := 1
	for dim := len(dims) - 1; dim >= 0; dim-- {
		size := dims[dim]
		block := stride * size
		for base := 0; base < len(t); base += block {
			for off := 0; off < stride; off++ {
				for i := 1; i < size; i++ {
					t[base+off+i*stride] += t[base+off+(i-1)*stride]
				}
			}
		}
		stride = block
	}
	return t
}

// EvalRangeKd answers a RangeKd query from a summed-area table via
// inclusion–exclusion over the 2^d corners. Each corner's row-major index
// is accumulated as its coordinates are chosen (policy.Rank's Horner step),
// so a query allocates nothing.
func EvalRangeKd(dims []int, table []float64, q RangeKd) float64 {
	d := len(dims)
	var s float64
	for mask := 0; mask < 1<<uint(d); mask++ {
		sign := 1.0
		idx := 0
		ok := true
		for dim := 0; dim < d; dim++ {
			c := q.Hi[dim]
			if mask&(1<<uint(dim)) != 0 {
				c = q.Lo[dim] - 1
				sign = -sign
				if c < 0 {
					ok = false
					break
				}
			}
			idx = idx*dims[dim] + c
		}
		if !ok {
			continue
		}
		s += sign * table[idx]
	}
	return s
}
