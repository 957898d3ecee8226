package strategy

import (
	"github.com/privacylab/blowfish/internal/par"
	"github.com/privacylab/blowfish/internal/sparse"
	"github.com/privacylab/blowfish/internal/workload"
)

// This file is the domain-sharding side of the compile/run split. Past
// sparse.DefaultShardCells the grid compiles stop reading one global
// summed-area table and instead partition the domain into contiguous dim-0
// slabs: each slab gets the queries clipped to it (clipping fans out over
// the shared pool, one work item per slab), and the fresh and maintained
// states become a blocked sparse.SATState with one table per slab, rebuilt
// in parallel. Stream.Apply patches then stop at slab boundaries (o(k) per
// delta at any update position), and the evaluator sums each query's
// clipped-rectangle partials in ascending slab order — one path for static
// and streamed releases, so they stay bitwise identical.
//
// Tree compiles do not shard: their reconstruction is a CSR built in one
// serial pass whose rows accumulate in support-discovery order, so they
// take no Config.
//
// The oracle noise pass is never sharded: oracles draw from one
// noise.Source serially, and that draw order is the contract that keeps
// sharded, unsharded, streamed, and batched releases interchangeable.

// Config carries the sharding knobs every grid compile accepts.
//
// MaxBlockCells = 0 is automatic: domains above sparse.DefaultShardCells
// shard into blocks of that size, everything below stays on the monolithic
// path — so every pre-sharding domain compiles exactly as before.
// MaxBlockCells < 0 disables sharding outright. MaxBlockCells >= 1 forces
// blocks of at most that many cells, rounded to whole dim-0 slices (a
// single slice larger than the cap becomes one block on its own).
//
// Pool is where query clipping and blocked table rebuilds fan out; nil
// means par.Shared().
type Config struct {
	MaxBlockCells int
	Pool          *par.Pool
}

// blockCells resolves the block size for a domain of n cells: 0 means "do
// not shard".
func (c Config) blockCells(n int) int {
	switch {
	case c.MaxBlockCells < 0:
		return 0
	case c.MaxBlockCells == 0:
		if n > sparse.DefaultShardCells {
			return sparse.DefaultShardCells
		}
		return 0
	default:
		return c.MaxBlockCells
	}
}

func (c Config) pool() *par.Pool {
	if c.Pool != nil {
		return c.Pool
	}
	return par.Shared()
}

// gridTruth resolves the truth side of a grid compile under cfg: the
// evaluator reading a summed-area table and the table layout (slab rows;
// 0 = unblocked). Below the sharding threshold it returns the global
// evaluator over one table.
func gridTruth(dims []int, rects []workload.RangeKd, cfg Config) (func(table []float64) []float64, int) {
	if shard := newGridShard(dims, rects, cfg); shard != nil {
		return shard.eval, shard.blockRows
	}
	return evalRects(dims, rects), 0
}

// gridShard is the compiled shard artifact for one (dims, rects) grid
// workload: the slab partition plus, per slab, the queries intersecting it
// with their rectangles clipped to slab-local coordinates.
type gridShard struct {
	queries   int
	blockRows int                  // slab height in dim-0 rows
	blocks    []par.Block          // cell ranges, ascending, tiling [0, k)
	slabDims  [][]int              // per slab: {slab rows, dims[1:]...}
	qidx      [][]int              // per slab: workload query index per clipped rect
	rects     [][]workload.RangeKd // per slab: clipped, slab-local rects
}

// newGridShard builds the shard artifact, or nil when the configuration
// keeps this domain on the monolithic path (block size resolves to 0, or
// the partition degenerates to a single slab). Clipping fans out over the
// pool, one work item per slab.
func newGridShard(dims []int, rects []workload.RangeKd, cfg Config) *gridShard {
	k := 1
	for _, d := range dims {
		k *= d
	}
	cells := cfg.blockCells(k)
	if cells == 0 {
		return nil
	}
	inner := k / dims[0] // dim-0 slice size
	blocks := sparse.ShardBlocks(k, inner, cells)
	if len(blocks) <= 1 {
		return nil
	}
	g := &gridShard{
		queries:   len(rects),
		blockRows: (blocks[0].Hi - blocks[0].Lo) / inner,
		blocks:    blocks,
		slabDims:  make([][]int, len(blocks)),
		qidx:      make([][]int, len(blocks)),
		rects:     make([][]workload.RangeKd, len(blocks)),
	}
	cfg.pool().Do(par.Workers(0), len(blocks), func(i int) {
		lo0 := blocks[i].Lo / inner
		hi0 := blocks[i].Hi / inner
		sd := append([]int{hi0 - lo0}, dims[1:]...)
		g.slabDims[i] = sd
		for qi, rq := range rects {
			if rq.Hi[0] < lo0 || rq.Lo[0] >= hi0 {
				continue
			}
			clip := workload.RangeKd{
				Dims: sd,
				Lo:   append([]int(nil), rq.Lo...),
				Hi:   append([]int(nil), rq.Hi...),
			}
			if clip.Lo[0] < lo0 {
				clip.Lo[0] = lo0
			}
			if clip.Hi[0] > hi0-1 {
				clip.Hi[0] = hi0 - 1
			}
			clip.Lo[0] -= lo0
			clip.Hi[0] -= lo0
			g.qidx[i] = append(g.qidx[i], qi)
			g.rects[i] = append(g.rects[i], clip)
		}
	})
	return g
}

// eval answers the workload off a blocked SATState table (per-slab tables
// concatenated at their row-major offsets): each query sums its clipped
// corner reads in ascending slab order. On integer histograms every partial
// and sum is exact, so the answers equal the global table's bitwise.
func (g *gridShard) eval(table []float64) []float64 {
	out := make([]float64, g.queries)
	for i, b := range g.blocks {
		slab := table[b.Lo:b.Hi]
		for j, rq := range g.rects[i] {
			out[g.qidx[i][j]] += workload.EvalRangeKd(g.slabDims[i], slab, rq)
		}
	}
	return out
}
