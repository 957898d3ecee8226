package eval

import (
	"errors"
	"testing"
	"time"
)

// fakeClock makes now advance only when a call asks it to, so the timing
// tests see exactly the durations they script.
func fakeClock(t *testing.T) func(time.Duration) {
	t.Helper()
	at := time.Unix(0, 0)
	now = func() time.Time { return at }
	t.Cleanup(func() { now = time.Now })
	return func(d time.Duration) { at = at.Add(d) }
}

func TestSecondsPerCallExcludesWarmupAndReportsMedian(t *testing.T) {
	advance := fakeClock(t)
	// The warm-up takes 10 s; timed calls alternate 10 ms and 80 ms, and one
	// takes 5 s. The median ignores both outliers.
	durations := []time.Duration{10 * time.Second, 10 * time.Millisecond, 80 * time.Millisecond,
		10 * time.Millisecond, 5 * time.Second, 10 * time.Millisecond}
	var checks []int
	got, err := SecondsPerCall(5, Timed{
		Setup: func(i int) error { advance(time.Hour); return nil },
		Run:   func(i int) error { advance(durations[i]); return nil },
		Check: func(i int) error { checks = append(checks, i); advance(time.Hour); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.01 {
		t.Fatalf("median %g s, want 0.01 (warm-up and outliers excluded)", got)
	}
	if len(checks) != 6 || checks[0] != 0 || checks[5] != 5 {
		t.Fatalf("Check ran for calls %v, want 0..5", checks)
	}
}

func TestSecondsPerCallMinimumCount(t *testing.T) {
	advance := fakeClock(t)
	calls := 0
	// Each call takes a second, far past the time floor: the count rules.
	if _, err := SecondsPerCall(7, Timed{Run: func(int) error { calls++; advance(time.Second); return nil }}); err != nil {
		t.Fatal(err)
	}
	if calls != 8 {
		t.Fatalf("%d calls, want 1 warm-up + 7 timed", calls)
	}
}

func TestSecondsPerCallTimeFloor(t *testing.T) {
	advance := fakeClock(t)
	calls := 0
	// 3 ms calls with a minimum count of 2: the 100 ms floor needs 34.
	got, err := SecondsPerCall(2, Timed{Run: func(int) error { calls++; advance(3 * time.Millisecond); return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 35 {
		t.Fatalf("%d calls, want 1 warm-up + 34 timed", calls)
	}
	if got != 0.003 {
		t.Fatalf("median %g s, want 0.003", got)
	}
}

func TestSecondsPerCallStopsOnError(t *testing.T) {
	fakeClock(t)
	boom := errors.New("boom")
	calls := 0
	_, err := SecondsPerCall(3, Timed{
		Run:   func(int) error { calls++; return nil },
		Check: func(i int) error { return map[bool]error{true: boom}[i == 1] },
	})
	if !errors.Is(err, boom) || calls != 2 {
		t.Fatalf("err %v after %d calls, want boom after 2", err, calls)
	}
}
