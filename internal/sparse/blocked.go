package sparse

import "github.com/privacylab/blowfish/internal/par"

// DefaultShardCells is the domain size above which the engine shards grid
// compiles and their summed-area tables along contiguous cell blocks.
// Below it a single table over the whole domain wins: the per-block
// dispatch and partial sums cost more than they save, and every pre-sharding golden test
// (largest domain 128² = 16384 cells) stays on the byte-identical monolithic
// path. The value itself is one block of a 1024-wide grid slab: 64 rows ×
// 1024 columns.
const DefaultShardCells = 1 << 16

// ShardBlocks partitions a domain of `cells` row-major cells into contiguous
// blocks of at most maxCells cells, aligned to multiples of `align` cells
// (the dim-0 slice size for grids, 1 for line domains), so a block never
// splits a grid slice. When one aligned unit alone exceeds maxCells the
// block is that single unit — alignment wins over the cap. maxCells <= 0
// selects DefaultShardCells. The returned blocks tile [0, cells) exactly, in
// ascending order.
func ShardBlocks(cells, align, maxCells int) []par.Block {
	if maxCells <= 0 {
		maxCells = DefaultShardCells
	}
	if align < 1 {
		align = 1
	}
	unitsPerBlock := maxCells / align
	if unitsPerBlock < 1 {
		unitsPerBlock = 1
	}
	step := unitsPerBlock * align
	var blocks []par.Block
	for lo := 0; lo < cells; lo += step {
		hi := lo + step
		if hi > cells {
			hi = cells
		}
		blocks = append(blocks, par.Block{Lo: lo, Hi: hi})
	}
	if len(blocks) == 0 {
		blocks = []par.Block{{Lo: 0, Hi: cells}}
	}
	return blocks
}
