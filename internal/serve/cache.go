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
type lru[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used; values are *lruEntry[K, V]
	items map[K]*list.Element

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// lruEntry is one cached build. ready is closed when val/err are final;
// lookups that find an entry mid-build wait on it instead of rebuilding.
type lruEntry[K comparable, V any] struct {
	key   K
	val   V
	err   error
	ready chan struct{}
}

func newLRU[K comparable, V any](capacity int) *lru[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &lru[K, V]{cap: capacity, ll: list.New(), items: map[K]*list.Element{}}
}

// getOrCreate returns the value cached under key, building it with build on
// a miss. The second result reports whether the call was served from cache
// (false both for the builder itself and for waiters that piggybacked on an
// in-flight build). Failed builds are not cached: their error is shared with
// concurrent waiters, then the entry is dropped so later calls retry.
func (c *lru[K, V]) getOrCreate(key K, build func() (V, error)) (V, bool, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*lruEntry[K, V])
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			return e.val, false, e.err
		}
		c.hits.Add(1)
		return e.val, true, nil
	}
	e := &lruEntry[K, V]{key: key, ready: make(chan struct{})}
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
func (c *lru[K, V]) evictLocked() {
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*lruEntry[K, V]).key)
		c.evictions.Add(1)
	}
}

// get returns the value cached under key without building on a miss, moving
// the entry to the front. A lookup that lands on an in-flight build waits for
// it; failed builds report as misses. It counts neither hits nor misses: a
// caller that reports them decides what a hit is (see Server.resolve).
func (c *lru[K, V]) get(key K) (V, bool) {
	var zero V
	c.mu.Lock()
	el, ok := c.items[key]
	if !ok {
		c.mu.Unlock()
		return zero, false
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*lruEntry[K, V])
	c.mu.Unlock()
	<-e.ready
	if e.err != nil {
		return zero, false
	}
	return e.val, true
}

// put inserts a ready value under key, replacing any existing entry. It is
// the recovery path's insertion point: restored streams land in the cache
// without running a build.
func (c *lru[K, V]) put(key K, v V) {
	e := &lruEntry[K, V]{key: key, val: v, ready: make(chan struct{})}
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
func (c *lru[K, V]) each(fn func(key K, v V)) {
	c.mu.Lock()
	entries := make([]*lruEntry[K, V], 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		entries = append(entries, el.Value.(*lruEntry[K, V]))
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
func (c *lru[K, V]) contains(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// len returns the number of cached entries (including in-flight builds).
func (c *lru[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
