package par

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestDoCoversEveryIndexOnce(t *testing.T) {
	for _, size := range []int{0, 1, 2, 7, 64} {
		p := NewPool(size)
		for _, n := range []int{0, 1, 5, 100} {
			hits := make([]atomic.Int32, n)
			p.Do(0, n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("size=%d n=%d: index %d ran %d times", size, n, i, got)
				}
			}
		}
	}
}

func TestDoErrReturnsAnEncounteredError(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	// Serial: deterministically the first failing index.
	err := NewPool(1).DoErr(0, 10, func(i int) error {
		switch i {
		case 3:
			return errA
		case 7:
			return errB
		}
		return nil
	})
	if !errors.Is(err, errA) {
		t.Fatalf("serial DoErr got %v, want first failing index's error", err)
	}
	// Concurrent: one of the injected errors, never something else, never nil.
	err = NewPool(4).DoErr(0, 10, func(i int) error {
		switch i {
		case 3:
			return errA
		case 7:
			return errB
		}
		return nil
	})
	if !errors.Is(err, errA) && !errors.Is(err, errB) {
		t.Fatalf("concurrent DoErr got %v, want one of the injected errors", err)
	}
	if err := NewPool(4).DoErr(0, 10, func(int) error { return nil }); err != nil {
		t.Fatalf("unexpected error %v", err)
	}
}

func TestDoErrStopsAfterFailure(t *testing.T) {
	var ran atomic.Int32
	err := NewPool(1).DoErr(0, 1000, func(i int) error {
		ran.Add(1)
		if i == 2 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if got := ran.Load(); got > 500 {
		t.Fatalf("scheduler kept dispatching after failure: %d jobs ran", got)
	}
}

func TestBlocksPartition(t *testing.T) {
	for _, tc := range []struct{ n, parts, minSize int }{
		{0, 4, 1}, {1, 4, 1}, {10, 3, 1}, {10, 30, 1}, {100, 7, 16}, {5, 2, 8},
	} {
		blocks := Blocks(tc.n, tc.parts, tc.minSize)
		if tc.n == 0 {
			if blocks != nil {
				t.Fatalf("n=0 should yield nil, got %v", blocks)
			}
			continue
		}
		want := 0
		for _, b := range blocks {
			if b.Lo != want || b.Hi <= b.Lo {
				t.Fatalf("n=%d parts=%d min=%d: bad block %+v (want Lo=%d)", tc.n, tc.parts, tc.minSize, b, want)
			}
			want = b.Hi
		}
		if want != tc.n {
			t.Fatalf("n=%d parts=%d: blocks cover [0,%d)", tc.n, tc.parts, want)
		}
		if len(blocks) > tc.parts {
			t.Fatalf("n=%d parts=%d: %d blocks", tc.n, tc.parts, len(blocks))
		}
	}
}

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatal("explicit worker count not honored")
	}
	if Workers(0) < 1 || Workers(-5) < 1 {
		t.Fatal("auto worker count must be positive")
	}
}

func TestPoolDoCoversEveryIndexOnce(t *testing.T) {
	for _, size := range []int{1, 2, 8} {
		p := NewPool(size)
		for _, workers := range []int{0, 1, 3, 64} {
			for _, n := range []int{0, 1, 5, 100} {
				hits := make([]atomic.Int32, n)
				p.Do(workers, n, func(i int) { hits[i].Add(1) })
				for i := range hits {
					if got := hits[i].Load(); got != 1 {
						t.Fatalf("size=%d workers=%d n=%d: index %d ran %d times", size, workers, n, i, got)
					}
				}
			}
		}
	}
}

func TestNilPoolRunsSerially(t *testing.T) {
	var p *Pool
	order := make([]int, 0, 10)
	p.Do(8, 10, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("nil pool must run in index order, got %v", order)
		}
	}
	if len(order) != 10 {
		t.Fatalf("nil pool ran %d of 10 indices", len(order))
	}
}

func TestPoolNestedDoDoesNotMultiplyGoroutines(t *testing.T) {
	// An outer fan-out whose units each fan out again must never hold more
	// goroutines than the pool size: inner calls find the token budget
	// drained and degrade to serial instead of multiplying.
	p := NewPool(4)
	var active, peak atomic.Int32
	track := func() func() {
		a := active.Add(1)
		for {
			old := peak.Load()
			if a <= old || peak.CompareAndSwap(old, a) {
				break
			}
		}
		return func() { active.Add(-1) }
	}
	p.Do(0, 8, func(int) {
		done := track()
		defer done()
		p.Do(0, 8, func(int) {
			done := track()
			defer done()
		})
	})
	// Outer units and nested units both count; the budget is callers+helpers
	// = pool size, and each nested serial unit runs on its parent goroutine,
	// so concurrent trackers are at most 2× the pool size (parent + its own
	// inline child frame) — but never size².
	if got := peak.Load(); got > int32(2*p.Size()) {
		t.Fatalf("nested fan-out reached %d concurrent units; pool size %d", got, p.Size())
	}
}

func TestPoolDoErr(t *testing.T) {
	p := NewPool(4)
	boom := errors.New("boom")
	err := p.DoErr(0, 100, func(i int) error {
		if i == 17 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if err := p.DoErr(0, 100, func(int) error { return nil }); err != nil {
		t.Fatalf("unexpected error %v", err)
	}
}

func TestSharedPoolIsSingleton(t *testing.T) {
	if Shared() != Shared() {
		t.Fatal("Shared must return one process-wide pool")
	}
	if Shared().Size() < 1 {
		t.Fatal("shared pool must have positive size")
	}
}

func TestBlocksRespectMinSize(t *testing.T) {
	// Every block must be at least minSize wide unless a single block covers
	// everything.
	for _, tc := range []struct{ n, parts, minSize int }{
		{17, 8, 8}, {100, 64, 16}, {7, 3, 8}, {16, 2, 8},
	} {
		blocks := Blocks(tc.n, tc.parts, tc.minSize)
		if len(blocks) == 1 {
			continue
		}
		for _, b := range blocks {
			if b.Hi-b.Lo < tc.minSize {
				t.Fatalf("n=%d parts=%d min=%d: block %+v narrower than minSize", tc.n, tc.parts, tc.minSize, b)
			}
		}
	}
}
