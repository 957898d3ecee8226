package serve

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// lru is a small LRU cache with single-flight builds: concurrent requests
// for the same missing key run one build and share its result. It backs the
// daemon's plan and engine caches, where a build is an expensive strategy
// compile that must not run once per concurrent request.
type lru[V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used; values are *lruEntry[V]
	items map[string]*list.Element

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// lruEntry is one cached build. ready is closed when val/err are final;
// lookups that find an entry mid-build wait on it instead of rebuilding.
type lruEntry[V any] struct {
	key   string
	val   V
	err   error
	ready chan struct{}
}

func newLRU[V any](capacity int) *lru[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &lru[V]{cap: capacity, ll: list.New(), items: map[string]*list.Element{}}
}

// getOrCreate returns the value cached under key, building it with build on
// a miss. The second result reports whether the call was served from cache
// (false both for the builder itself and for waiters that piggybacked on an
// in-flight build). Failed builds are not cached: their error is shared with
// concurrent waiters, then the entry is dropped so later calls retry.
func (c *lru[V]) getOrCreate(key string, build func() (V, error)) (V, bool, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*lruEntry[V])
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			return e.val, false, e.err
		}
		c.hits.Add(1)
		return e.val, true, nil
	}
	e := &lruEntry[V]{key: key, ready: make(chan struct{})}
	el := c.ll.PushFront(e)
	c.items[key] = el
	c.evictLocked()
	c.mu.Unlock()
	c.misses.Add(1)

	e.val, e.err = build()
	close(e.ready)
	if e.err != nil {
		c.mu.Lock()
		// Drop the failed entry unless it was already evicted (or replaced).
		if cur, ok := c.items[key]; ok && cur == el {
			c.ll.Remove(el)
			delete(c.items, key)
		}
		c.mu.Unlock()
	}
	return e.val, false, e.err
}

// evictLocked drops least recently used entries until the cache fits its
// capacity. Must be called with mu held.
func (c *lru[V]) evictLocked() {
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*lruEntry[V]).key)
		c.evictions.Add(1)
	}
}

// get returns the value cached under key without building on a miss, moving
// the entry to the front. A lookup that lands on an in-flight build waits for
// it; failed builds report as misses.
func (c *lru[V]) get(key string) (V, bool) {
	var zero V
	c.mu.Lock()
	el, ok := c.items[key]
	if !ok {
		c.mu.Unlock()
		return zero, false
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*lruEntry[V])
	c.mu.Unlock()
	<-e.ready
	if e.err != nil {
		return zero, false
	}
	c.hits.Add(1)
	return e.val, true
}

// put inserts a ready value under key, replacing any existing entry. It is
// the recovery path's insertion point: restored streams land in the cache
// without running a build.
func (c *lru[V]) put(key string, v V) {
	e := &lruEntry[V]{key: key, val: v, ready: make(chan struct{})}
	close(e.ready)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.Remove(el)
		delete(c.items, key)
	}
	el := c.ll.PushFront(e)
	c.items[key] = el
	c.evictLocked()
}

// each calls fn for every completed entry, most recently used first,
// without counting hits or reordering. Entries whose build is still in
// flight (or failed) are skipped — a snapshot must not block on a compile.
func (c *lru[V]) each(fn func(key string, v V)) {
	c.mu.Lock()
	entries := make([]*lruEntry[V], 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		entries = append(entries, el.Value.(*lruEntry[V]))
	}
	c.mu.Unlock()
	for _, e := range entries {
		select {
		case <-e.ready:
			if e.err == nil {
				fn(e.key, e.val)
			}
		default:
		}
	}
}

// contains reports whether key is cached (including in-flight builds)
// without waiting, counting a hit, or touching recency — the admission
// gate's cheap "would this request need a cold compile" probe.
func (c *lru[V]) contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// len returns the number of cached entries (including in-flight builds).
func (c *lru[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
