// Package par provides the worker pool shared by every parallel layer: the
// linear-algebra and sparse kernels, the experiment scheduler
// (internal/eval), and the Engine's batch and grid-shard fan-outs. All fan-out
// goes through Pool.Do and Pool.DoErr; Blocks partitions a range for the
// blocked kernels. Work is always partitioned deterministically by index, so
// callers that pre-assign per-index state (noise streams, output slots) get
// results independent of worker count and interleaving.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested parallelism level: n < 1 means "one worker per
// available CPU" (GOMAXPROCS); otherwise n itself.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Pool is a process-wide goroutine budget shared by every parallel layer
// (the eval experiment grid, the linalg kernels, the sparse kernels, batch
// answering). Each Do call runs on the calling goroutine plus however many
// helper goroutines it can reserve from the pool's token budget at that
// moment; when the budget is exhausted — typically because an outer layer
// (the experiment grid) already holds the tokens and an inner layer (a
// kernel) asks for more — the call simply degrades toward serial on its own
// goroutine. Total helper goroutines across arbitrarily nested Do calls
// therefore never exceed the pool size: grid×kernel fan-outs cannot multiply
// on large hosts.
//
// Work is still partitioned deterministically by index: callers that
// pre-assign per-index state get results independent of how many helpers
// were actually available.
type Pool struct {
	// tokens holds one slot per helper goroutine the pool may run beyond
	// the callers themselves; capacity is size−1 so a pool of size n runs
	// at most n goroutines for a single caller (the caller plus n−1 helpers).
	tokens chan struct{}
}

// NewPool returns a pool allowing up to size concurrently-working goroutines
// per caller chain (size < 1 means one per available CPU, like Workers).
func NewPool(size int) *Pool {
	return &Pool{tokens: make(chan struct{}, Workers(size)-1)}
}

// Size returns the pool's goroutine budget (callers + helpers).
func (p *Pool) Size() int { return cap(p.tokens) + 1 }

var (
	sharedOnce sync.Once
	sharedPool *Pool
)

// Shared returns the lazily-created process-wide pool, sized one goroutine
// per available CPU at first use. It is the default pool for every kernel
// and scheduler in this repository.
func Shared() *Pool {
	sharedOnce.Do(func() { sharedPool = NewPool(0) })
	return sharedPool
}

// Do runs fn(i) for every i in [0, n) on the calling goroutine plus up to
// workers−1 helpers reserved from the pool (workers < 1 means "up to the pool
// size"). Indices are handed out via an atomic counter, so the assignment of
// index to goroutine is nondeterministic but every index runs exactly once.
// Helper reservation is non-blocking: if the pool is drained, the
// call runs serially rather than deadlocking, which makes nested Do calls
// (an experiment cell invoking a parallel kernel) safe by construction. A
// nil pool runs serially.
func (p *Pool) Do(workers, n int, fn func(i int)) {
	if p == nil {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if workers < 1 || workers > p.Size() {
		workers = p.Size()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
reserve:
	for h := 0; h < workers-1; h++ {
		select {
		case p.tokens <- struct{}{}:
			wg.Add(1)
			go func() {
				defer func() {
					<-p.tokens
					wg.Done()
				}()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					fn(i)
				}
			}()
		default:
			break reserve // budget drained: run the rest on the caller
		}
	}
	for {
		i := int(next.Add(1)) - 1
		if i >= n {
			break
		}
		fn(i)
	}
	wg.Wait()
}

// DoErr is Pool.Do for fallible work: once any index has failed, remaining
// indices are skipped, and the lowest-indexed error observed is returned
// (nil when all indices succeed). Run serially that is always the first
// failing index; with concurrent helpers, which failures are observed before
// the pool drains is scheduling-dependent, so callers must not rely on
// *which* of several concurrent errors they get — only that they get one.
func (p *Pool) DoErr(workers, n int, fn func(i int) error) error {
	var (
		mu       sync.Mutex
		firstIdx = n
		firstErr error
		failed   atomic.Bool
	)
	p.Do(workers, n, func(i int) {
		if failed.Load() {
			return
		}
		if err := fn(i); err != nil {
			failed.Store(true)
			mu.Lock()
			if i < firstIdx {
				firstIdx, firstErr = i, err
			}
			mu.Unlock()
		}
	})
	return firstErr
}

// Blocks splits [0, n) into at most `parts` contiguous half-open ranges of
// near-equal size, each at least minSize wide (except possibly the only
// block). It is the partitioning used by the blocked matrix kernels: each
// block is processed start-to-end by one worker, so per-element work keeps the
// serial iteration order.
type Block struct{ Lo, Hi int }

// Blocks returns the partition; n <= 0 yields nil.
func Blocks(n, parts, minSize int) []Block {
	if n <= 0 {
		return nil
	}
	if minSize < 1 {
		minSize = 1
	}
	if parts < 1 {
		parts = 1
	}
	max := n / minSize
	if max < 1 {
		max = 1
	}
	if parts > max {
		parts = max
	}
	out := make([]Block, 0, parts)
	lo := 0
	for b := 0; b < parts; b++ {
		hi := lo + (n-lo)/(parts-b)
		if hi <= lo {
			hi = lo + 1
		}
		out = append(out, Block{Lo: lo, Hi: hi})
		lo = hi
		if lo >= n {
			break
		}
	}
	out[len(out)-1].Hi = n
	return out
}
