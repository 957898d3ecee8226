package serve

// This file is the exactly-once layer of the daemon: requests carrying an
// Idempotency-Key header are deduplicated per tenant, so a client that
// timed out and retried gets the original canonical response back —
// byte-identical, same noise, zero additional budget, zero re-applied
// deltas — instead of a second execution.
//
// The table is single-flight: the first request for a (tenant, key) pair
// executes while concurrent duplicates wait on it and then replay its
// recorded response. Only successful executions are recorded — an error
// leaves nothing behind, so a retry after a rejection re-executes (which is
// safe: rejected requests never charge budget or mutate state). Durability
// rides the same WAL as the mutation itself: the serving layer appends one
// combined record carrying both the state change and the response bytes,
// so a replayed request after a crash still returns the original bytes
// (see persist.go in this package).
//
// Retention is bounded two ways: at most max completed entries (oldest
// evicted first) and, when ttl > 0, entries older than ttl are dropped at
// lookup and insertion time. An evicted key behaves like a fresh one — the
// client contract is that retries arrive within the retention window.

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// idemEntry is one recorded canonical response.
type idemEntry struct {
	Status int    // HTTP status of the recorded response (currently always 200)
	Body   []byte // exact response bytes a replay writes back
	At     int64  // unix nanoseconds when the response was recorded
}

// idemSlot is the lifecycle of one (tenant, key) pair: in flight until the
// leader finishes (ready closed), then either recorded (done, in order) or
// gone (abandoned slots are removed so a later retry re-executes).
type idemSlot struct {
	ready chan struct{}
	done  bool
	ent   idemEntry
	el    *list.Element // position in the eviction order once recorded
}

// idemTable is the per-daemon dedupe table. Keys are tenant-scoped
// composites (see idemKey).
type idemTable struct {
	mu    sync.Mutex
	max   int
	ttl   time.Duration
	now   func() time.Time
	slots map[string]*idemSlot
	order *list.List // recorded keys, oldest at the front

	hits     atomic.Int64
	recorded atomic.Int64
}

// newIdemTable sizes a table: at most max recorded entries, each kept for
// at most ttl (ttl <= 0 keeps entries until evicted by max).
func newIdemTable(max int, ttl time.Duration, now func() time.Time) *idemTable {
	if max < 1 {
		max = 1
	}
	if now == nil {
		now = time.Now
	}
	return &idemTable{max: max, ttl: ttl, now: now, slots: map[string]*idemSlot{}, order: list.New()}
}

// idemKey scopes an idempotency key to one tenant. Like streamKey, the
// first NUL is the separator: tenants containing one are rejected.
func idemKey(tenant, key string) string { return tenant + "\x00" + key }

// expired reports whether e is past the table's ttl at time nowNanos.
func (t *idemTable) expired(e idemEntry, nowNanos int64) bool {
	return t.ttl > 0 && nowNanos-e.At > int64(t.ttl)
}

// evictLocked removes the recorded entry at el.
func (t *idemTable) evictLocked(el *list.Element) {
	key := el.Value.(string)
	t.order.Remove(el)
	delete(t.slots, key)
}

// pruneLocked enforces both retention bounds from the oldest end.
func (t *idemTable) pruneLocked(nowNanos int64) {
	for t.order.Len() > t.max {
		t.evictLocked(t.order.Front())
	}
	for el := t.order.Front(); el != nil; el = t.order.Front() {
		s := t.slots[el.Value.(string)]
		if s == nil || !t.expired(s.ent, nowNanos) {
			break
		}
		t.evictLocked(el)
	}
}

// begin claims the key: a recorded entry replays immediately (replay
// non-nil), an in-flight execution is waited on (honoring ctx), and an
// unclaimed or abandoned key makes the caller the leader (leader true) —
// it must call finish or abandon exactly once.
func (t *idemTable) begin(ctx context.Context, key string) (replay *idemEntry, leader bool, err error) {
	for {
		t.mu.Lock()
		nowNanos := t.now().UnixNano()
		t.pruneLocked(nowNanos)
		s, ok := t.slots[key]
		if !ok {
			t.slots[key] = &idemSlot{ready: make(chan struct{})}
			t.mu.Unlock()
			return nil, true, nil
		}
		if s.done {
			if t.expired(s.ent, nowNanos) {
				t.evictLocked(s.el)
				t.mu.Unlock()
				continue
			}
			ent := s.ent
			t.mu.Unlock()
			t.hits.Add(1)
			return &ent, false, nil
		}
		t.mu.Unlock()
		select {
		case <-s.ready:
			// The leader finished (recorded) or abandoned (slot removed);
			// loop to replay or take over.
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}

// finish records the leader's canonical response and wakes every waiter.
func (t *idemTable) finish(key string, status int, body []byte) {
	t.mu.Lock()
	s, ok := t.slots[key]
	if !ok || s.done {
		// The slot aged out from under a slow leader; record fresh so the
		// response is still replayable.
		s = &idemSlot{ready: make(chan struct{})}
		t.slots[key] = s
	}
	s.done = true
	s.ent = idemEntry{Status: status, Body: body, At: t.now().UnixNano()}
	s.el = t.order.PushBack(key)
	t.pruneLocked(s.ent.At)
	t.mu.Unlock()
	t.recorded.Add(1)
	close(s.ready)
}

// abandon releases the leader's claim without recording, so the next
// attempt (a waiter or a later retry) executes fresh.
func (t *idemTable) abandon(key string) {
	t.mu.Lock()
	s, ok := t.slots[key]
	if ok && !s.done {
		delete(t.slots, key)
	}
	t.mu.Unlock()
	if ok && !s.done {
		close(s.ready)
	}
}

// install inserts a recorded entry directly — the recovery path, where
// WAL replay and snapshot restore re-seed the table without executions.
// Existing recorded entries are overwritten (replay order wins).
func (t *idemTable) install(key string, ent idemEntry) {
	t.mu.Lock()
	if s, ok := t.slots[key]; ok && s.done {
		t.evictLocked(s.el)
	}
	s := &idemSlot{ready: make(chan struct{}), done: true, ent: ent}
	s.el = t.order.PushBack(key)
	t.slots[key] = s
	t.pruneLocked(t.now().UnixNano())
	t.mu.Unlock()
	close(s.ready)
}

// size returns the number of recorded entries.
func (t *idemTable) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.order.Len()
}

// each visits every recorded, unexpired entry oldest-first (the snapshot
// export path).
func (t *idemTable) each(fn func(key string, ent idemEntry)) {
	t.mu.Lock()
	nowNanos := t.now().UnixNano()
	type kv struct {
		key string
		ent idemEntry
	}
	entries := make([]kv, 0, t.order.Len())
	for el := t.order.Front(); el != nil; el = el.Next() {
		key := el.Value.(string)
		if s := t.slots[key]; s != nil && s.done && !t.expired(s.ent, nowNanos) {
			entries = append(entries, kv{key, s.ent})
		}
	}
	t.mu.Unlock()
	for _, e := range entries {
		fn(e.key, e.ent)
	}
}
