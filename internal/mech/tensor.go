package mech

import (
	"math/bits"

	"github.com/privacylab/blowfish/internal/noise"
)

// tensorSheet is the tensor-product mechanism behind the Privelet and Hier
// kinds. Each dimension of extent m is padded to a power of two, size, and
// carries a complete binary tree over it (h = log2(size), heap layout: node
// n has children 2n+1 and 2n+2). A basis function is a tuple of one node
// per dimension, and its noise lives in one flattened coefficient table,
// dimension 0 outermost, whose per-dimension index is 0 for the average and
// 1+n for node n. The three things the kinds do differently are marked
// below: which nodes carry noise, each node's weight, and which nodes an
// interval reads with what coefficient.
//
// Privelet (Xiao, Wang and Gehrke, ICDE 2010; §5 for the tensor form) uses
// the "average" Haar basis, in which a cell reconstructs as
//
//	x[i] = a + Σ_path ±c_ν
//
// with a the overall average and c_ν the detail coefficient of each internal
// node on i's root path. Changing one cell by 1 changes a by 1/size and the
// coefficient of a node covering w cells by 1/w. With weights W(c_ν) = w and
// W(a) = size, the generalized sensitivity is Π (h_i+1), so noise
// Lap(ρ/(ε·W)) on a basis function of weight W (the product of its nodes'
// weights) makes the released transform ε-DP. An interval reads the average
// with its length as coefficient and each partially overlapped node ν with
// |[l,r]∩left(ν)| − |[l,r]∩right(ν)| (the ± halves of a covered node
// cancel), ≤ 1+2h terms per dimension, which gives rectangles the
// O(log^{3d} m/ε²) variance of Figure 3.
//
// Hier (Hay et al.) measures every node tuple, leaves included, with the one
// scale ρ/ε, since a cell lies on h_i+1 nodes of dimension i and so on
// ρ = Π (h_i+1) tuples. An interval reads its canonical nodes, the maximal
// covered ones, each with coefficient 1.
type tensorSheet struct {
	kind     OracleKind
	dims     []int
	rho, eps float64
	span     int       // coefficient table length: Π 2·size_i
	coeff    []float64 // nil when built without a noise source
}

func newTensorSheet(kind OracleKind, dims []int, eps float64, src *noise.Source) *tensorSheet {
	s := &tensorSheet{kind: kind, dims: dims, rho: 1, eps: eps, span: 1}
	for _, m := range dims {
		size := padded(m)
		s.rho *= float64(bits.TrailingZeros(uint(size)) + 1)
		s.span *= 2 * size
	}
	if src == nil {
		return s
	}
	s.coeff = make([]float64, s.span)
	if eps > 0 {
		s.fill(0, 0, s.span, 1, src)
	}
	return s
}

// padded returns m rounded up to a power of two.
func padded(m int) int { return 1 << bits.Len(uint(m-1)) }

// fill draws, in increasing table order, the coefficients of dimensions
// i.. below table offset base, which heads a block of span entries; w is
// the weight product of the nodes picked in dimensions < i.
func (s *tensorSheet) fill(i, base, span int, w float64, src *noise.Source) {
	size := padded(s.dims[i])
	stride := span / (2 * size)
	// Kinds differ: Privelet draws the average and the internal nodes
	// (indices 0..size−1), Hier every node, leaves included (1..2·size−1).
	first, end := 0, size
	if s.kind == HierKind {
		first, end = 1, 2*size
	}
	for idx := first; idx < end; idx++ {
		wi := w * s.weight(idx, size)
		if i+1 < len(s.dims) {
			s.fill(i+1, base+idx*stride, stride, wi, src)
			continue
		}
		s.coeff[base+idx] = src.Laplace(s.rho / (s.eps * wi))
	}
}

// RectNoise implements Sheet.
func (s *tensorSheet) RectNoise(lo, hi []int) float64 {
	checkRect(s.dims, lo, hi)
	q := rectRead{lo: lo, hi: hi}
	return s.sum(&q, 0, 0, s.span, 1, 1, 0)
}

// RectVariance implements Sheet: Σ coeff²·2·scale² over the basis
// functions RectNoise reads.
func (s *tensorSheet) RectVariance(lo, hi []int) float64 {
	checkRect(s.dims, lo, hi)
	if s.eps <= 0 {
		return 0
	}
	q := rectRead{lo: lo, hi: hi, variance: true}
	return s.sum(&q, 0, 0, s.span, 1, 1, 0)
}

// rectRead is one RectNoise or RectVariance call's rectangle.
type rectRead struct {
	lo, hi   []int
	variance bool
}

// rectTerm is one term a dimension contributes to an interval: a
// per-dimension table index and its coefficient.
type rectTerm struct{ idx, k int32 }

// sum adds to total the basis functions q reads, or their variances, over
// dimensions i.. under the terms picked in dimensions < i: their table
// offset off, heading a block of span entries, and their coefficient and
// weight products c and w. The order is fixed: lexicographic in the
// per-dimension terms, dimension 0 outermost, and a basis function's
// coefficient is the left-to-right product of its terms'.
func (s *tensorSheet) sum(q *rectRead, i, off, span int, c, w, total float64) float64 {
	h := bits.Len(uint(s.dims[i] - 1))
	size, stride := 1<<h, span>>(h+1)
	last := i+1 == len(s.dims)
	var buf [32]rectTerm // ≤ 1+2h terms: no heap append below 2^15 positions
	for _, t := range s.terms(buf[:0], size, q.lo[i], q.hi[i]) {
		ot, ct, wt := off+int(t.idx)*stride, c*float64(t.k), w
		if q.variance {
			wt *= s.weight(int(t.idx), size)
		}
		if last {
			total += s.leaf(q, ot, ct, wt)
		} else {
			total = s.sum(q, i+1, ot, stride, ct, wt, total)
		}
	}
	return total
}

// terms appends the terms one dimension of padded size contributes to
// [l, r], in pre-order of its tree. Kinds differ here. Privelet reads the
// average, with the interval's length as coefficient, then each partially
// overlapped node with nonzero coefficient |∩left| − |∩right|: the nodes on
// the root path while [l, r] lies in one child, the node where l and r
// part, then l's path below it and r's. Hier reads the canonical nodes left
// to right, each the largest aligned block that starts at the next
// uncovered position and ends by r, with coefficient 1.
func (s *tensorSheet) terms(buf []rectTerm, size, l, r int) []rectTerm {
	add := func(n, k int) {
		if k != 0 {
			buf = append(buf, rectTerm{int32(1 + n), int32(k)})
		}
	}
	if s.kind == HierKind {
		for x := l; x <= r; {
			k := size
			if x > 0 {
				k = x & -x
			}
			for x+k-1 > r {
				k /= 2
			}
			add(size/k-1+x/k, 1)
			x += k
		}
		return buf
	}
	buf = append(buf, rectTerm{0, int32(r - l + 1)})
	for n, a, b := 0, 0, size-1; l != a || r != b; {
		mid := (a + b) / 2
		switch {
		case r <= mid:
			add(n, r-l+1)
			n, b = 2*n+1, mid
		case l > mid:
			add(n, l-r-1)
			n, a = 2*n+2, mid+1
		default:
			add(n, mid-l+1-(r-mid))
			for n, a, b := 2*n+1, a, mid; l > a; { // l's path: b ≤ r
				if m := (a + b) / 2; l <= m {
					add(n, m-l+1-(b-m))
					n, b = 2*n+1, m
				} else {
					add(n, l-b-1)
					n, a = 2*n+2, m+1
				}
			}
			for n, a, b := 2*n+2, mid+1, b; r < b; { // r's path: a ≥ l
				if m := (a + b) / 2; r <= m {
					add(n, r-a+1)
					n, b = 2*n+1, m
				} else {
					add(n, m-a+1-(r-m))
					n, a = 2*n+2, m+1
				}
			}
			return buf
		}
	}
	return buf
}

// weight returns the Privelet weight of per-dimension table index idx in a
// dimension of padded size: the average and the root weigh size, a node at
// depth t weighs its width size/2^t. Every Hier node weighs 1.
func (s *tensorSheet) weight(idx, size int) float64 {
	if s.kind == HierKind {
		return 1
	}
	return float64(size >> max(bits.Len(uint(idx))-1, 0))
}

// leaf returns the noise, or the variance, of the basis function at table
// offset off with coefficient c and weight w.
func (s *tensorSheet) leaf(q *rectRead, off int, c, w float64) float64 {
	if q.variance {
		scale := s.rho / (s.eps * w)
		return c * c * 2 * scale * scale
	}
	return c * s.coeff[off]
}
