package sparse

import (
	"fmt"

	"github.com/privacylab/blowfish/internal/linalg"
	"github.com/privacylab/blowfish/internal/par"
)

// Operator is a linear map applied on the answer hot path: strategy
// reconstruction matrices, P_G applications, workload evaluations. Backing
// representations are chosen at compile time (CSR below DefaultMaxDensity,
// dense above it, closed-form structure when the strategy knows one);
// implementations must be immutable after construction so a compiled Plan
// can Apply them from many goroutines concurrently.
type Operator interface {
	// Dims returns the (rows, cols) shape: Apply maps a cols-vector to a
	// rows-vector.
	Dims() (rows, cols int)
	// Apply writes A·x into dst (len dst == rows), overwriting it.
	Apply(dst, x []float64)
	// AddApply accumulates dst += A·x, folding each row's terms into the
	// existing dst entry in evaluation order (so callers can seed dst with
	// per-row constant terms and keep a reference implementation's float
	// order).
	AddApply(dst, x []float64)
}

// DefaultMaxDensity is the density threshold below which compiled strategies
// pick the CSR representation over dense: at 25% the O(nnz) row kernels beat
// the dense stride even accounting for the index indirection.
const DefaultMaxDensity = 0.25

// Select compresses a dense matrix when its density is below maxDensity
// (≤ 0 means DefaultMaxDensity) and keeps it dense otherwise.
func Select(a *linalg.Matrix, maxDensity float64) Operator {
	if maxDensity <= 0 {
		maxDensity = DefaultMaxDensity
	}
	c := FromDense(a)
	if c.Density() < maxDensity {
		return c
	}
	return Dense{M: a}
}

// Dense adapts a dense linalg.Matrix to the Operator interface; Apply runs
// the shared parallel dense kernel, so it is bitwise identical to
// linalg.MulVec.
type Dense struct{ M *linalg.Matrix }

// Dims returns the matrix shape.
func (d Dense) Dims() (int, int) { return d.M.Rows, d.M.Cols }

// Apply writes M·x into dst via the linalg kernel.
func (d Dense) Apply(dst, x []float64) { linalg.MulVecInto(dst, d.M, x) }

// AddApply accumulates dst += M·x row by row, folding every term (zeros
// included) into the existing dst entry in column order.
func (d Dense) AddApply(dst, x []float64) {
	m := d.M
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("sparse: Dense.AddApply shape mismatch %d ← %dx%d · %d", len(dst), m.Rows, m.Cols, len(x)))
	}
	w := workers()
	if w <= 1 || m.Rows*m.Cols < nnzParFloor || m.Rows < 2*minRowsPerBlock {
		denseAddApplyRows(m, dst, x, 0, m.Rows)
		return
	}
	blocks := par.Blocks(m.Rows, 4*w, minRowsPerBlock)
	par.Shared().Do(w, len(blocks), func(bi int) {
		denseAddApplyRows(m, dst, x, blocks[bi].Lo, blocks[bi].Hi)
	})
}

func denseAddApplyRows(m *linalg.Matrix, dst, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		s := dst[i]
		for j, v := range m.Row(i) {
			s += v * x[j]
		}
		dst[i] = s
	}
}
