package sparse_test

import (
	"math"
	"reflect"
	"testing"

	"github.com/privacylab/blowfish/internal/noise"
	"github.com/privacylab/blowfish/internal/par"
	"github.com/privacylab/blowfish/internal/sparse"
	"github.com/privacylab/blowfish/internal/workload"
)

// TestShardBlocks pins the tiling contract: contiguous ascending blocks,
// alignment never split, oversized aligned units allowed through.
func TestShardBlocks(t *testing.T) {
	cases := []struct {
		name                   string
		cells, align, maxCells int
		want                   []par.Block
	}{
		{"even split", 12, 1, 4, []par.Block{{Lo: 0, Hi: 4}, {Lo: 4, Hi: 8}, {Lo: 8, Hi: 12}}},
		{"non-divisible tail", 10, 1, 4, []par.Block{{Lo: 0, Hi: 4}, {Lo: 4, Hi: 8}, {Lo: 8, Hi: 10}}},
		{"single block", 5, 1, 100, []par.Block{{Lo: 0, Hi: 5}}},
		{"block size 1", 3, 1, 1, []par.Block{{Lo: 0, Hi: 1}, {Lo: 1, Hi: 2}, {Lo: 2, Hi: 3}}},
		{"aligned slices", 12, 3, 7, []par.Block{{Lo: 0, Hi: 6}, {Lo: 6, Hi: 12}}},
		{"oversized aligned unit", 8, 4, 3, []par.Block{{Lo: 0, Hi: 4}, {Lo: 4, Hi: 8}}},
		{"default cap", 10, 1, 0, []par.Block{{Lo: 0, Hi: 10}}},
	}
	for _, tc := range cases {
		got := sparse.ShardBlocks(tc.cells, tc.align, tc.maxCells)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: ShardBlocks(%d, %d, %d) = %v, want %v",
				tc.name, tc.cells, tc.align, tc.maxCells, got, tc.want)
		}
	}
	// Every tiling must cover [0, cells) exactly, whatever the parameters.
	for _, cells := range []int{1, 7, 64, 1000} {
		for _, align := range []int{1, 3, 8} {
			for _, max := range []int{1, 5, 64, 10000} {
				blocks := sparse.ShardBlocks(cells, align, max)
				lo := 0
				for _, b := range blocks {
					if b.Lo != lo || b.Hi <= b.Lo {
						t.Fatalf("ShardBlocks(%d,%d,%d): block %v breaks tiling at %d", cells, align, max, b, lo)
					}
					lo = b.Hi
				}
				if lo != cells {
					t.Fatalf("ShardBlocks(%d,%d,%d): covers [0,%d), want [0,%d)", cells, align, max, lo, cells)
				}
			}
		}
	}
}

// TestSATStateBlocked checks the blocked table layout: per-slab tables equal
// workload.SummedAreaTable over each slab's sub-grid bitwise, PointAdd stays
// within the owning slab and agrees with a recompute, and PointAddCost is
// capped by the slab volume.
func TestSATStateBlocked(t *testing.T) {
	src := noise.NewSource(29)
	dims := []int{13, 7} // 13 rows: non-divisible by every tested slab height
	k := 13 * 7
	x := make([]float64, k)
	for i := range x {
		x[i] = src.Uniform()*6 - 3
	}
	for _, blockRows := range []int{1, 4, 5, 13, 0} {
		st, err := sparse.NewSATStateBlocked(dims, x, blockRows, nil)
		if err != nil {
			t.Fatalf("blockRows=%d: %v", blockRows, err)
		}
		wantRows := blockRows
		if blockRows <= 0 || blockRows > dims[0] {
			wantRows = dims[0]
		}
		if st.BlockRows() != wantRows {
			t.Fatalf("blockRows=%d: BlockRows() = %d, want %d", blockRows, st.BlockRows(), wantRows)
		}
		wantSlabs := (dims[0] + wantRows - 1) / wantRows
		if st.NumSlabs() != wantSlabs {
			t.Fatalf("blockRows=%d: NumSlabs() = %d, want %d", blockRows, st.NumSlabs(), wantSlabs)
		}
		table := st.Table()
		for i := 0; i < st.NumSlabs(); i++ {
			lo, hi := st.SlabRange(i)
			slabDims := []int{hi - lo, dims[1]}
			want := workload.SummedAreaTable(slabDims, x[lo*dims[1]:hi*dims[1]])
			got := table[lo*dims[1] : hi*dims[1]]
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("blockRows=%d slab %d: table[%d] = %v, want %v (bitwise)", blockRows, i, j, got[j], want[j])
				}
			}
		}
		// PointAddCost is bounded by the owning slab's volume.
		for cell := 0; cell < k; cell++ {
			lo, hi := st.SlabRange((cell / dims[1]) / st.BlockRows())
			if cost := st.PointAddCost(cell); cost > (hi-lo)*dims[1] {
				t.Fatalf("blockRows=%d: cost(%d) = %d exceeds slab volume %d", blockRows, cell, cost, (hi-lo)*dims[1])
			}
		}
		// Patch path ≡ rebuild path.
		xs := append([]float64(nil), x...)
		for step := 0; step < 100; step++ {
			cell := src.Intn(k)
			delta := src.Uniform()*4 - 2
			xs[cell] += delta
			st.PointAdd(cell, delta)
		}
		ref, err := sparse.NewSATStateBlocked(dims, xs, blockRows, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range table {
			if math.Abs(table[i]-ref.Table()[i]) > 1e-9 {
				t.Fatalf("blockRows=%d: patched table[%d] = %v, want %v", blockRows, i, table[i], ref.Table()[i])
			}
		}
		// Recompute restores bitwise agreement with a fresh build.
		st.Recompute(xs)
		for i := range table {
			if math.Float64bits(table[i]) != math.Float64bits(ref.Table()[i]) {
				t.Fatalf("blockRows=%d after Recompute: table[%d] differs", blockRows, i)
			}
		}
	}
}
