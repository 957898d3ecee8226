// Package sparse provides the linear-operator layer behind the answer hot
// path: CSR matrices, the Operator abstraction, domain sharding, and the
// incremental summed-area state used by streams.
//
// The strategy matrices of the transformational equivalence — P_G for policy
// graphs, per-query reconstruction rows, workload transforms over tree/grid
// policies — carry O(1) to O(log k) nonzeros per row, so applying them as
// dense row-major products wastes O(k) work per row. The CSR kernels here
// run in O(nnz), partition by output rows over the shared internal/par pool,
// and keep the per-entry accumulation order of their dense counterparts so
// results agree bitwise wherever the dense path performs the same float
// operations. Operators that know a closed form (the Lanczos matvec sources
// in spectral.go and internal/lowerbound) implement Operator directly and
// never materialize a matrix.
//
// Two pieces serve domains past ~10⁶ cells:
//
//   - ShardBlocks partitions a grid domain into contiguous blocks of whole
//     dim-0 slices, which is how grid compiles fan per-slab work items out
//     over the pool. DefaultShardCells is the auto-shard threshold the
//     compile layer consults.
//   - SATState maintains summed-area/prefix tables for the range
//     strategies' releases and streams; NewSATStateBlocked keeps one table
//     per row-slab, rebuilt in parallel, so a point delta patches at most
//     one slab (o(k)) instead of a full suffix box, with a cost-capped dense
//     recompute fallback per slab.
package sparse

import (
	"fmt"

	"github.com/privacylab/blowfish/internal/linalg"
	"github.com/privacylab/blowfish/internal/par"
)

// CSR is a sparse matrix in compressed sparse row form. Row i's entries are
// ColIdx[RowPtr[i]:RowPtr[i+1]] / Val[RowPtr[i]:RowPtr[i+1]], kept in the
// order they were inserted (construction-order, not necessarily sorted):
// kernels accumulate in stored order, so builders that insert in the same
// order a reference implementation visits coefficients get bitwise-matching
// results. Each (row, col) position must appear at most once — Builder
// enforces this and FromDense/T preserve it; Gram's sorted-row merge relies
// on it (ToDense alone tolerates hand-built duplicates by accumulating).
type CSR struct {
	Rows, Cols int
	RowPtr     []int // len Rows+1
	ColIdx     []int // len NNZ
	Val        []float64
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// Density returns NNZ / (Rows·Cols); an empty shape counts as fully dense so
// selection never "optimizes" a degenerate matrix.
func (m *CSR) Density() float64 {
	cells := m.Rows * m.Cols
	if cells == 0 {
		return 1
	}
	return float64(m.NNZ()) / float64(cells)
}

// Dims returns the operator shape (rows, cols).
func (m *CSR) Dims() (int, int) { return m.Rows, m.Cols }

// Builder accumulates a CSR matrix row by row. Rows must be filled in
// non-decreasing order; entries within a row keep insertion order, each
// (row, col) may be added at most once, and the caller is responsible for
// skipping zeros it does not want stored.
type Builder struct {
	rows, cols int
	cur        int
	rowStart   int // index into colIdx where the current row began
	rowPtr     []int
	colIdx     []int
	val        []float64
}

// NewBuilder returns a builder for a rows×cols matrix.
func NewBuilder(rows, cols int) *Builder {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: negative dimension %dx%d", rows, cols))
	}
	return &Builder{rows: rows, cols: cols, rowPtr: make([]int, 1, rows+1)}
}

// Add stores entry (i, j) = v. i must not precede the last row touched, and
// (i, j) must not repeat — a duplicate would silently corrupt the Gram
// merge, so it panics here instead. The duplicate scan is linear in the
// current row's length, which is small for every builder in this repository.
func (b *Builder) Add(i, j int, v float64) {
	if i < b.cur || i >= b.rows || j < 0 || j >= b.cols {
		panic(fmt.Sprintf("sparse: Add(%d, %d) out of order or range for %dx%d", i, j, b.rows, b.cols))
	}
	for b.cur < i {
		b.rowPtr = append(b.rowPtr, len(b.colIdx))
		b.cur++
		b.rowStart = len(b.colIdx)
	}
	for _, c := range b.colIdx[b.rowStart:] {
		if c == j {
			panic(fmt.Sprintf("sparse: duplicate entry (%d, %d)", i, j))
		}
	}
	b.colIdx = append(b.colIdx, j)
	b.val = append(b.val, v)
}

// Build finalizes the matrix; the builder must not be reused afterwards.
func (b *Builder) Build() *CSR {
	for len(b.rowPtr) < b.rows+1 {
		b.rowPtr = append(b.rowPtr, len(b.colIdx))
	}
	return &CSR{Rows: b.rows, Cols: b.cols, RowPtr: b.rowPtr, ColIdx: b.colIdx, Val: b.val}
}

// FromDense compresses a dense matrix, keeping nonzeros in row-major order
// (so stored order is ascending column index within each row). It fills the
// arrays directly — a row-major scan is duplicate-free by construction, and
// going through Builder's duplicate check would cost O(cols²) per dense row.
func FromDense(a *linalg.Matrix) *CSR {
	nnz := 0
	for _, v := range a.Data {
		if v != 0 {
			nnz++
		}
	}
	m := &CSR{Rows: a.Rows, Cols: a.Cols,
		RowPtr: make([]int, a.Rows+1),
		ColIdx: make([]int, 0, nnz), Val: make([]float64, 0, nnz)}
	for i := 0; i < a.Rows; i++ {
		for j, v := range a.Row(i) {
			if v != 0 {
				m.ColIdx = append(m.ColIdx, j)
				m.Val = append(m.Val, v)
			}
		}
		m.RowPtr[i+1] = len(m.ColIdx)
	}
	return m
}

// Identity returns the n×n sparse identity.
func Identity(n int) *CSR {
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 1)
	}
	return b.Build()
}

// ToDense materializes the matrix densely (duplicate entries accumulate).
func (m *CSR) ToDense() *linalg.Matrix {
	out := linalg.New(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := out.Row(i)
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			row[m.ColIdx[p]] += m.Val[p]
		}
	}
	return out
}

// minRowsPerBlock matches the dense kernels' partition floor; nnzParFloor
// gates the fan-out — below it the goroutine handoff costs more than the
// arithmetic.
const (
	minRowsPerBlock = 8
	nnzParFloor     = 1 << 15
)

// workers resolves the kernel worker cap from the linalg parallelism knob,
// the single process-wide setting for all matrix kernels.
func workers() int { return par.Workers(linalg.Parallelism()) }

// The row kernels below consume stored entries 4 per iteration with a scalar
// tail (ROADMAP "SIMD-friendly CSR kernels"). The single accumulator still
// folds terms strictly left to right — the identical float add chain as the
// one-term-at-a-time reference — so the unroll only amortizes loop control
// and widens the load window for the hardware prefetcher; results are
// bitwise unchanged (TestApplyUnrolledBitwiseVsSimple). The unrolled body is
// written out in both kernels rather than shared through a helper: Go does
// not inline functions containing loops, and a per-row call costs more than
// the short rows of compiled strategies take to evaluate.

// applyRows computes dst[lo:hi] of A·x (overwriting), accumulating each row
// in stored order.
func (m *CSR) applyRows(dst, x []float64, lo, hi int) {
	val, col := m.Val, m.ColIdx
	for i := lo; i < hi; i++ {
		p, end := m.RowPtr[i], m.RowPtr[i+1]
		var s float64
		for ; p+4 <= end; p += 4 {
			s += val[p] * x[col[p]]
			s += val[p+1] * x[col[p+1]]
			s += val[p+2] * x[col[p+2]]
			s += val[p+3] * x[col[p+3]]
		}
		for ; p < end; p++ {
			s += val[p] * x[col[p]]
		}
		dst[i] = s
	}
}

// addApplyRows computes dst[lo:hi] += A·x, folding each row's terms into the
// existing dst value in stored order (((dst + v₀x₀) + v₁x₁) + …) — the
// accumulation the precompiled strategy reconstructions use, so converting a
// coefficient-list loop to a CSR row is bitwise neutral.
func (m *CSR) addApplyRows(dst, x []float64, lo, hi int) {
	val, col := m.Val, m.ColIdx
	for i := lo; i < hi; i++ {
		p, end := m.RowPtr[i], m.RowPtr[i+1]
		s := dst[i]
		for ; p+4 <= end; p += 4 {
			s += val[p] * x[col[p]]
			s += val[p+1] * x[col[p+1]]
			s += val[p+2] * x[col[p+2]]
			s += val[p+3] * x[col[p+3]]
		}
		for ; p < end; p++ {
			s += val[p] * x[col[p]]
		}
		dst[i] = s
	}
}

// ApplySimple is the pre-unroll reference matvec: one stored entry per
// iteration, serial, overwriting dst. It is retained so tests can assert the
// unrolled kernel is bitwise identical and so benchmarks can report the
// unrolled-vs-simple gap.
func (m *CSR) ApplySimple(dst, x []float64) {
	m.checkVec(dst, x)
	for i := 0; i < m.Rows; i++ {
		var s float64
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			s += m.Val[p] * x[m.ColIdx[p]]
		}
		dst[i] = s
	}
}

func (m *CSR) checkVec(dst, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("sparse: apply shape mismatch %d ← %dx%d · %d", len(dst), m.Rows, m.Cols, len(x)))
	}
}

// Apply writes A·x into dst. Large matrices partition by row blocks over the
// shared worker pool; every row is produced by exactly one worker in stored
// order, so the result is bitwise independent of worker count.
func (m *CSR) Apply(dst, x []float64) {
	m.checkVec(dst, x)
	w := workers()
	if w <= 1 || m.NNZ() < nnzParFloor || m.Rows < 2*minRowsPerBlock {
		m.applyRows(dst, x, 0, m.Rows)
		return
	}
	blocks := par.Blocks(m.Rows, 4*w, minRowsPerBlock)
	par.Shared().Do(w, len(blocks), func(bi int) {
		m.applyRows(dst, x, blocks[bi].Lo, blocks[bi].Hi)
	})
}

// AddApply accumulates dst += A·x with the same partitioning as Apply.
func (m *CSR) AddApply(dst, x []float64) {
	m.checkVec(dst, x)
	w := workers()
	if w <= 1 || m.NNZ() < nnzParFloor || m.Rows < 2*minRowsPerBlock {
		m.addApplyRows(dst, x, 0, m.Rows)
		return
	}
	blocks := par.Blocks(m.Rows, 4*w, minRowsPerBlock)
	par.Shared().Do(w, len(blocks), func(bi int) {
		m.addApplyRows(dst, x, blocks[bi].Lo, blocks[bi].Hi)
	})
}

// MulVec returns A·x as a fresh vector.
func (m *CSR) MulVec(x []float64) []float64 {
	out := make([]float64, m.Rows)
	m.Apply(out, x)
	return out
}

// T returns the transpose. Entries come out sorted by the transposed row
// (original column) via a counting pass, with ties in original row order.
func (m *CSR) T() *CSR {
	counts := make([]int, m.Cols+1)
	for _, j := range m.ColIdx {
		counts[j+1]++
	}
	for j := 0; j < m.Cols; j++ {
		counts[j+1] += counts[j]
	}
	rowPtr := make([]int, m.Cols+1)
	copy(rowPtr, counts)
	colIdx := make([]int, m.NNZ())
	val := make([]float64, m.NNZ())
	for i := 0; i < m.Rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			j := m.ColIdx[p]
			colIdx[counts[j]] = i
			val[counts[j]] = m.Val[p]
			counts[j]++
		}
	}
	return &CSR{Rows: m.Cols, Cols: m.Rows, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
}

// Mul returns the sparse product a·b as CSR with ascending column order per
// row. Each output row is gathered serially into a dense workspace, so the
// result does not depend on worker count; rows fan out over the shared pool.
func (m *CSR) Mul(b *CSR) *CSR {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("sparse: Mul shape mismatch %dx%d · %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	type row struct {
		cols []int
		vals []float64
	}
	rows := make([]row, m.Rows)
	w := workers()
	if m.NNZ()+b.NNZ() < nnzParFloor {
		w = 1
	}
	blocks := par.Blocks(m.Rows, 4*w, 1)
	par.Shared().Do(w, len(blocks), func(bi int) {
		// One dense gather workspace per block, wiped between rows by
		// walking the touched set.
		acc := make([]float64, b.Cols)
		seen := make([]bool, b.Cols)
		touched := make([]int, 0, 16)
		for i := blocks[bi].Lo; i < blocks[bi].Hi; i++ {
			touched = touched[:0]
			for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
				k, av := m.ColIdx[p], m.Val[p]
				for q := b.RowPtr[k]; q < b.RowPtr[k+1]; q++ {
					j := b.ColIdx[q]
					acc[j] += av * b.Val[q]
					if !seen[j] {
						seen[j] = true
						touched = append(touched, j)
					}
				}
			}
			sortInts(touched)
			r := row{cols: make([]int, 0, len(touched)), vals: make([]float64, 0, len(touched))}
			for _, j := range touched {
				if acc[j] != 0 {
					r.cols = append(r.cols, j)
					r.vals = append(r.vals, acc[j])
				}
				acc[j] = 0
				seen[j] = false
			}
			rows[i] = r
		}
	})
	out := NewBuilder(m.Rows, b.Cols)
	for i, r := range rows {
		for t, j := range r.cols {
			out.Add(i, j, r.vals[t])
		}
	}
	return out.Build()
}

// MulDense returns a·b for a dense right factor. Per output entry the
// accumulation runs over a's stored entries in row order — for sorted rows
// that is ascending k, the dense kernel's order restricted to nonzeros.
func (m *CSR) MulDense(b *linalg.Matrix) *linalg.Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("sparse: MulDense shape mismatch %dx%d · %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := linalg.New(m.Rows, b.Cols)
	w := workers()
	if m.NNZ()*b.Cols < nnzParFloor {
		w = 1
	}
	par.Shared().Do(w, m.Rows, func(i int) {
		orow := out.Row(i)
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			av := m.Val[p]
			brow := b.Row(m.ColIdx[p])
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	})
	return out
}

// Gram returns AᵀA as a dense Cols×Cols matrix (sparse strategy Grams are
// typically dense). Entry (i, j) merges the sorted transposed rows i and j
// two-pointer style, accumulating over shared indices in ascending order —
// the order linalg.Gram uses, restricted to nonzero products.
func (m *CSR) Gram() *linalg.Matrix {
	at := m.T()
	n := m.Cols
	out := linalg.New(n, n)
	w := workers()
	if m.NNZ() < nnzParFloor {
		w = 1
	}
	par.Shared().Do(w, n, func(i int) {
		orow := out.Row(i)
		iLo, iHi := at.RowPtr[i], at.RowPtr[i+1]
		for j := i; j < n; j++ {
			var s float64
			p, q := iLo, at.RowPtr[j]
			qHi := at.RowPtr[j+1]
			for p < iHi && q < qHi {
				switch {
				case at.ColIdx[p] < at.ColIdx[q]:
					p++
				case at.ColIdx[p] > at.ColIdx[q]:
					q++
				default:
					s += at.Val[p] * at.Val[q]
					p++
					q++
				}
			}
			orow[j] = s
		}
	})
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out.Set(j, i, out.At(i, j))
		}
	}
	return out
}

// CongruenceDense returns M·G·Mᵀ for a dense symmetric G: the congruence
// that maps a vertex-domain Gram matrix into the edge domain when M's rows
// are the transformed basis vectors (the columns of P_G, two ±1 entries
// each). Entry (a, b) accumulates val[p]·val[q]·G[col[p]][col[q]] with row
// a's entries outer and row b's inner, both in stored order — for ±1 rows
// stored (U, +1)(V, −1) that reproduces the four-term
// m(aU,bU) − m(aU,bV) − m(aV,bU) + m(aV,bV) expansion bitwise. Only the
// upper triangle is computed (mirrored after), parallel over rows.
func (m *CSR) CongruenceDense(g *linalg.Matrix) *linalg.Matrix {
	if m.Cols != g.Rows || g.Rows != g.Cols {
		panic(fmt.Sprintf("sparse: CongruenceDense shape mismatch %dx%d · %dx%d", m.Rows, m.Cols, g.Rows, g.Cols))
	}
	n := m.Rows
	out := linalg.New(n, n)
	w := workers()
	if n*n < nnzParFloor {
		w = 1
	}
	par.Shared().Do(w, n, func(a int) {
		orow := out.Row(a)
		for b := a; b < n; b++ {
			var s float64
			for p := m.RowPtr[a]; p < m.RowPtr[a+1]; p++ {
				gi := g.Row(m.ColIdx[p])
				va := m.Val[p]
				for q := m.RowPtr[b]; q < m.RowPtr[b+1]; q++ {
					s += va * m.Val[q] * gi[m.ColIdx[q]]
				}
			}
			orow[b] = s
		}
	})
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			out.Set(b, a, out.At(a, b))
		}
	}
	return out
}

// sortInts is a small insertion/shell sort: output rows have few touched
// columns, and avoiding package sort keeps the row gather allocation-free.
func sortInts(a []int) {
	for gap := len(a) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(a); i++ {
			for j := i; j >= gap && a[j-gap] > a[j]; j -= gap {
				a[j-gap], a[j] = a[j], a[j-gap]
			}
		}
	}
}
