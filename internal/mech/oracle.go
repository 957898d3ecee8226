// Package mech implements the differentially private mechanisms the paper
// builds on and compares against: the Laplace mechanism (Thm 2.1), the matrix
// mechanism framework of Li et al. (Eq. 2), the hierarchical mechanism of Hay
// et al., the Privelet wavelet mechanism of Xiao et al., a DAWA-style
// data-dependent mechanism (Li, Hay, Miklau), isotonic-regression
// consistency post-processing (§5.4.2) and the exponential mechanism (used
// by the Theorem 4.4 negative result).
//
// # Noise oracles
//
// Blowfish strategies (Section 5) release noisy range answers over the
// *edge domain* of the policy graph and reconstruct each workload query from
// a handful of rectangles of edges. The same rectangle appears in many
// reconstructions, so the noise must be consistent: a Sheet samples its
// internal noise once and RectNoise(lo, hi) deterministically combines it,
// exactly as the corresponding matrix mechanism would. A sheet is a grid of
// positions of any dimension d ≥ 1 (a line at d = 1), and NewSheet builds
// every OracleKind at every d. Privacy calibration is internal to each
// sheet: a sheet built with budget ε guarantees that releasing its entire
// noisy strategy is ε-differentially private with respect to a ±1 change of
// any single position of its grid.
package mech

import (
	"fmt"

	"github.com/privacylab/blowfish/internal/noise"
	"github.com/privacylab/blowfish/internal/workload"
)

// Sheet provides consistent noise for hyper-rectangle queries over the
// positions of a d-dimensional grid. Reads touch no shared state.
type Sheet interface {
	// RectNoise returns the noise of the mechanism's estimate for the
	// inclusive rectangle [lo, hi]. Calling it twice with the same bounds
	// gives the same value.
	RectNoise(lo, hi []int) float64
	// RectVariance returns the exact variance of RectNoise(lo, hi) over the
	// sheet's own randomness, used for analytic error prediction and tests.
	RectVariance(lo, hi []int) float64
}

// OracleKind selects a sheet implementation.
type OracleKind int

// The sheet implementations.
const (
	// CellKind adds independent Laplace noise per position (the identity
	// strategy): rectangle variance grows linearly with its cell count,
	// best for point queries and very small rectangles.
	CellKind OracleKind = iota
	// HierKind uses the tree mechanism of Hay et al. in tensor form: every
	// tuple of per-dimension nodes of complete binary trees over the grid
	// is measured with Laplace noise scaled to the number of tuples a
	// position lies in; rectangles decompose into products of O(log m)
	// canonical nodes per dimension.
	HierKind
	// PriveletKind uses the tensor Haar wavelet mechanism of Xiao et al.
	// with per-coefficient weights, giving O(log^{3d} m/ε²) rectangle
	// variance.
	PriveletKind
)

// NewSheet builds a sheet of the given kind over the dims grid with privacy
// budget eps, drawing its noise from src in a fixed order. At eps <= 0 it
// draws nothing and its noise is zero. A nil src also draws nothing: the
// sheet then answers RectVariance only, and RectNoise panics. The sheet
// keeps dims, which the caller must not change.
func NewSheet(kind OracleKind, dims []int, eps float64, src *noise.Source) Sheet {
	if len(dims) == 0 {
		panic("mech: NewSheet needs at least one dimension")
	}
	switch kind {
	case CellKind:
		return newCellSheet(dims, eps, src)
	case HierKind, PriveletKind:
		return newTensorSheet(kind, dims, eps, src)
	default:
		panic(fmt.Sprintf("mech: unknown oracle kind %d", kind))
	}
}

// cellSheet adds Lap(1/ε) noise to every position; rectangle noise is the
// sum over the rectangle, read in O(2^d) off the summed-area table of the
// cell noise. A position change of magnitude 1 changes the released vector
// by 1 in one coordinate, so per-cell Lap(1/ε) noise is ε-DP.
type cellSheet struct {
	dims  []int
	scale float64
	table []float64 // summed-area table of the cell noise
}

func newCellSheet(dims []int, eps float64, src *noise.Source) *cellSheet {
	s := &cellSheet{dims: dims}
	if eps > 0 {
		s.scale = 1 / eps
	}
	if src == nil {
		return s
	}
	n := 1
	for _, m := range dims {
		n *= m
	}
	s.table = workload.SummedAreaTable(dims, src.LaplaceVec(n, s.scale))
	return s
}

// RectNoise implements Sheet.
func (s *cellSheet) RectNoise(lo, hi []int) float64 {
	checkRect(s.dims, lo, hi)
	return workload.EvalRangeKd(s.dims, s.table, workload.RangeKd{Lo: lo, Hi: hi})
}

// RectVariance implements Sheet: 2·scale² per cell in the rectangle.
func (s *cellSheet) RectVariance(lo, hi []int) float64 {
	checkRect(s.dims, lo, hi)
	n := 1
	for i := range s.dims {
		n *= hi[i] - lo[i] + 1
	}
	return float64(n) * 2 * s.scale * s.scale
}

func checkRect(dims, lo, hi []int) {
	if len(lo) != len(dims) || len(hi) != len(dims) {
		panic(fmt.Sprintf("mech: %d-D rectangle on a %d-D sheet", len(lo), len(dims)))
	}
	for i, m := range dims {
		checkInterval(m, lo[i], hi[i])
	}
}

func checkInterval(m, l, r int) {
	if l < 0 || r >= m || l > r {
		panic(fmt.Sprintf("mech: interval [%d,%d] out of domain [0,%d)", l, r, m))
	}
}
