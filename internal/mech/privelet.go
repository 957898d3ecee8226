package mech

import (
	"fmt"

	"github.com/privacylab/blowfish/internal/noise"
)

// PriveletOracle implements the Privelet mechanism of Xiao, Wang and Gehrke
// (ICDE 2010) as a noise oracle: the domain is padded to a power of two,
// the database is viewed in the Haar wavelet basis, and each coefficient is
// perturbed with Laplace noise scaled inversely to its weight. We use the
// "average" Haar convention in which a cell reconstructs as
//
//	x[i] = a + Σ_path ±c_ν
//
// where a is the overall average and c_ν the detail coefficient of each tree
// node on i's root path. Changing one cell by 1 changes a by 1/m and the
// level-ℓ coefficient (node covering 2^ℓ cells) by 2^{−ℓ}. With weights
// W(c_ν) = 2^ℓ and W(a) = m, the generalized sensitivity is
// ρ = Σ_ℓ 2^{−ℓ}·2^ℓ + (1/m)·m = h+1, so coefficient noise
// Lap(ρ/(ε·W)) makes the released transform ε-DP, and any interval estimate
// has variance O(log³ m / ε²): only the ≤2 partially-overlapped nodes per
// level contribute (the ± halves of fully-covered nodes cancel).
type PriveletOracle struct {
	m        int
	size     int // padded power of two
	levels   int // h = log2(size)
	avg      float64
	avgScale float64
	nodes    []float64 // heap layout of detail-coefficient noise
	scales   []float64 // Laplace scale used per detail node
}

// NewPriveletOracle returns a Privelet oracle over m positions with budget
// eps.
func NewPriveletOracle(m int, eps float64, src *noise.Source) *PriveletOracle {
	size := 1
	h := 0
	for size < m {
		size *= 2
		h++
	}
	o := &PriveletOracle{m: m, size: size, levels: h,
		nodes:  make([]float64, max(2*size-1, 1)),
		scales: make([]float64, max(2*size-1, 1))}
	if eps <= 0 {
		return o
	}
	rho := float64(h + 1)
	o.avgScale = rho / (eps * float64(size))
	o.avg = src.Laplace(o.avgScale)
	// Node i in the heap covers size/2^depth cells; its weight is its width.
	width := size
	idx := 0
	count := 1
	for width >= 2 {
		for j := 0; j < count; j++ {
			o.scales[idx] = rho / (eps * float64(width))
			o.nodes[idx] = src.Laplace(o.scales[idx])
			idx++
		}
		width /= 2
		count *= 2
	}
	return o
}

// M implements Oracle.
func (o *PriveletOracle) M() int { return o.m }

// IntervalNoise implements Oracle.
func (o *PriveletOracle) IntervalNoise(l, r int) float64 {
	checkInterval(o.m, l, r)
	n := float64(r-l+1) * o.avg
	return n + o.walkDetail(0, 0, o.size-1, l, r)
}

// IntervalVariance implements Oracle: Σ coeff²·2·scale² over the average and
// the partially-overlapped detail nodes.
func (o *PriveletOracle) IntervalVariance(l, r int) float64 {
	checkInterval(o.m, l, r)
	length := float64(r - l + 1)
	v := length * length * 2 * o.avgScale * o.avgScale
	return v + o.walkVariance(0, 0, o.size-1, l, r)
}

func (o *PriveletOracle) walkVariance(node, a, b, l, r int) float64 {
	if b < l || r < a || a == b {
		return 0
	}
	if l <= a && b <= r {
		return 0
	}
	mid := (a + b) / 2
	cl := overlap(l, r, a, mid)
	cr := overlap(l, r, mid+1, b)
	c := float64(cl - cr)
	out := c * c * 2 * o.scales[node] * o.scales[node]
	out += o.walkVariance(2*node+1, a, mid, l, r)
	out += o.walkVariance(2*node+2, mid+1, b, l, r)
	return out
}

// walkDetail accumulates detail-coefficient contributions: a node covering
// [a,b] with midpoint mid contributes (|[l,r]∩left| − |[l,r]∩right|)·η and
// recursion only continues into partially-overlapped children (a fully
// covered node contributes 0 and so do all its descendants).
func (o *PriveletOracle) walkDetail(node, a, b, l, r int) float64 {
	if b < l || r < a || a == b {
		return 0
	}
	if l <= a && b <= r {
		return 0 // balanced ± coverage cancels for the node and its subtree
	}
	mid := (a + b) / 2
	cl := overlap(l, r, a, mid)
	cr := overlap(l, r, mid+1, b)
	out := float64(cl-cr) * o.nodes[node]
	out += o.walkDetail(2*node+1, a, mid, l, r)
	out += o.walkDetail(2*node+2, mid+1, b, l, r)
	return out
}

func overlap(l, r, a, b int) int {
	lo, hi := max(l, a), min(r, b)
	if hi < lo {
		return 0
	}
	return hi - lo + 1
}

// PriveletKd is the multi-dimensional Privelet mechanism obtained by
// applying the 1-D Haar transform along every dimension (the standard
// tensor-product construction of the Privelet paper, §5). A basis function
// is a tuple of per-dimension nodes (detail node or the average); its weight
// is the product of per-dimension weights, and the generalized sensitivity
// is ρ_d = (h+1)^d, giving O(log^{3d} m / ε²) variance for rectangles —
// the d-dimensional Privelet bound quoted in Figure 3.
type PriveletKd struct {
	dims   []int
	sizes  []int // per-dimension padded sizes
	levels []int
	// coeff maps the flattened per-dimension node index tuple to its noise.
	// Per-dimension node index: 0 = average, 1+heapIndex = detail node.
	coeff   []float64
	scales  []float64 // Laplace scale per coefficient (parallel to coeff)
	strides []int
}

// NewPriveletKd returns a multi-dimensional Privelet oracle over the dims
// grid with budget eps. Memory is prod(2·size_i), so intended for the
// modest grids of the experiments (≤ 128 per side in 2-D).
func NewPriveletKd(dims []int, eps float64, src *noise.Source) *PriveletKd {
	d := len(dims)
	if d == 0 {
		panic("mech: NewPriveletKd needs at least one dimension")
	}
	o := &PriveletKd{dims: append([]int(nil), dims...),
		sizes: make([]int, d), levels: make([]int, d), strides: make([]int, d)}
	total := 1
	rho := 1.0
	for i, m := range dims {
		size, h := 1, 0
		for size < m {
			size *= 2
			h++
		}
		o.sizes[i], o.levels[i] = size, h
		total *= 2 * size // 1 average + (2·size−1) detail nodes
		rho *= float64(h + 1)
	}
	stride := 1
	for i := d - 1; i >= 0; i-- {
		o.strides[i] = stride
		stride *= 2 * o.sizes[i]
	}
	o.coeff = make([]float64, total)
	o.scales = make([]float64, total)
	if eps <= 0 {
		return o
	}
	// Enumerate all coefficient tuples; weight = product of per-dim widths
	// (average node weight = size).
	widths := make([]float64, d)
	var fill func(dim, base int)
	fill = func(dim, base int) {
		if dim == d {
			w := 1.0
			for _, wi := range widths {
				w *= wi
			}
			o.scales[base] = rho / (eps * w)
			o.coeff[base] = src.Laplace(o.scales[base])
			return
		}
		// Average node.
		widths[dim] = float64(o.sizes[dim])
		fill(dim+1, base)
		// Detail nodes in heap order; node at heap depth t covers size/2^t.
		width := o.sizes[dim]
		idx := 0
		count := 1
		for width >= 2 {
			for j := 0; j < count; j++ {
				widths[dim] = float64(width)
				fill(dim+1, base+(1+idx)*o.strides[dim])
				idx++
			}
			width /= 2
			count *= 2
		}
	}
	fill(0, 0)
	return o
}

// RectNoise returns the noise of the Privelet estimate for the inclusive
// hyper-rectangle [lo, hi], consistent across calls.
func (o *PriveletKd) RectNoise(lo, hi []int) float64 {
	return o.rectSum(lo, hi, func(coeff float64, offset int) float64 {
		return coeff * o.coeff[offset]
	})
}

// RectVariance returns the exact variance of RectNoise(lo, hi):
// Σ coeff²·2·scale² over the contributing tensor coefficients.
func (o *PriveletKd) RectVariance(lo, hi []int) float64 {
	return o.rectSum(lo, hi, func(coeff float64, offset int) float64 {
		return coeff * coeff * 2 * o.scales[offset] * o.scales[offset]
	})
}

// rectTerm is one per-dimension basis node with a nonzero reconstruction
// coefficient for an interval: the node's stride-scaled offset into the
// flattened coefficient table, and the coefficient.
type rectTerm struct {
	offset int
	coeff  float64
}

// rectSum walks the tensor basis of rectangle [lo, hi] and sums f(c, offset)
// over the basis functions with nonzero reconstruction coefficient c, in a
// fixed order. Per dimension only the average plus the ≤2 partially
// overlapped nodes per level contribute, so the walk touches O(prod 2·h_i)
// coefficients.
func (o *PriveletKd) rectSum(lo, hi []int, f func(coeff float64, offset int) float64) float64 {
	d := len(o.dims)
	if len(lo) != d || len(hi) != d {
		panic("mech: PriveletKd rectangle dimension mismatch")
	}
	perDim := make([][]rectTerm, d)
	for i := range perDim {
		checkInterval(o.dims[i], lo[i], hi[i])
		// Average node: coefficient = interval length.
		terms := []rectTerm{{offset: 0, coeff: float64(hi[i] - lo[i] + 1)}}
		perDim[i] = o.appendTerms(terms, i, 0, 0, o.sizes[i]-1, lo[i], hi[i])
	}
	var total float64
	var rec func(dim, offset int, coeff float64)
	rec = func(dim, offset int, coeff float64) {
		if dim == d {
			total += f(coeff, offset)
			return
		}
		for _, t := range perDim[dim] {
			rec(dim+1, offset+t.offset, coeff*t.coeff)
		}
	}
	rec(0, 0, 1)
	return total
}

// appendTerms appends, in pre-order, the detail nodes of dimension i at or
// below node (covering [a, b]) whose coefficient for [l, r] is nonzero: a
// partially overlapped node's |[l,r]∩left| − |[l,r]∩right|. A disjoint or
// fully covered node contributes nothing, and neither does its subtree.
func (o *PriveletKd) appendTerms(terms []rectTerm, i, node, a, b, l, r int) []rectTerm {
	if b < l || r < a || a == b || l <= a && b <= r {
		return terms
	}
	mid := (a + b) / 2
	if c := overlap(l, r, a, mid) - overlap(l, r, mid+1, b); c != 0 {
		terms = append(terms, rectTerm{offset: (1 + node) * o.strides[i], coeff: float64(c)})
	}
	terms = o.appendTerms(terms, i, 2*node+1, a, mid, l, r)
	return o.appendTerms(terms, i, 2*node+2, mid+1, b, l, r)
}

// Dims returns the grid shape.
func (o *PriveletKd) Dims() []int { return o.dims }

// String describes the oracle.
func (o *PriveletKd) String() string {
	return fmt.Sprintf("PriveletKd(dims=%v)", o.dims)
}
