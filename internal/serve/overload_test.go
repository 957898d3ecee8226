package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestGateAcquireRelease pins the gate's slot accounting: capacity admits,
// excess cold work sheds, releases free slots, nil gate admits everything.
func TestGateAcquireRelease(t *testing.T) {
	g := newGate(2, 1)
	ctx := context.Background()
	r1, err := g.acquire(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := g.acquire(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	if g.inFlight() != 2 {
		t.Fatalf("inFlight = %d, want 2", g.inFlight())
	}
	// Full: a cold request sheds immediately rather than queueing.
	if _, err := g.acquire(ctx, true); err != errOverloaded {
		t.Fatalf("cold acquire at capacity: %v, want errOverloaded", err)
	}
	// A queued warm request with an expired deadline sheds as expired.
	expired, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	defer cancel()
	if _, err := g.acquire(expired, false); err != errShedExpired {
		t.Fatalf("expired acquire: %v, want errShedExpired", err)
	}
	r1()
	r3, err := g.acquire(ctx, false)
	if err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	r2()
	r3()
	if g.inFlight() != 0 {
		t.Fatalf("inFlight = %d after releases, want 0", g.inFlight())
	}
	var nilGate *gate
	rel, err := nilGate.acquire(ctx, true)
	if err != nil {
		t.Fatalf("nil gate must admit: %v", err)
	}
	rel()
}

// TestGateQueueBound checks the wait queue is bounded: once maxQueue warm
// waiters are parked, further arrivals shed immediately.
func TestGateQueueBound(t *testing.T) {
	g := newGate(1, 2)
	ctx := context.Background()
	release, err := g.acquire(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	queued := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			queued <- struct{}{}
			rel, err := g.acquire(ctx, false)
			if err != nil {
				t.Errorf("queued acquire: %v", err)
				return
			}
			rel()
		}()
	}
	<-queued
	<-queued
	// Let both goroutines park in the queue.
	for i := 0; i < 100 && g.queued.Load() < 2; i++ {
		time.Sleep(time.Millisecond)
	}
	if _, err := g.acquire(ctx, false); err != errOverloaded {
		t.Fatalf("over-queue acquire: %v, want errOverloaded", err)
	}
	release()
	wg.Wait()
}

// atAdmit is a test hook running f once each answer request holds its gate
// slot, before any computation.
func atAdmit(f func()) func(context.Context, string) {
	return func(_ context.Context, point string) {
		if point == "admit" {
			f()
		}
	}
}

// TestOverloadShedding drives 2× MaxInFlight concurrent requests into a
// deliberately slow daemon: the admitted ones must finish with bounded
// latency once unblocked, the shed ones must get 503 "overloaded" with a
// Retry-After hint, and the shed counter must account for every rejection.
func TestOverloadShedding(t *testing.T) {
	const maxInFlight = 2
	s := New(Config{Seed: 6, MaxInFlight: maxInFlight, MaxQueue: 1})
	// Warm the plan cache so requests are not shed as cold compiles.
	warmBody := answerBody(t, "w", 4, 0, make([]float64, 4))
	if rec := postPath(t, s, "/v1/answer", warmBody); rec.Code != http.StatusOK {
		t.Fatalf("warmup: %d", rec.Code)
	}

	unblock := make(chan struct{})
	s.testHook = atAdmit(func() { <-unblock })

	const load = 2 * (maxInFlight + 1) // 2× capacity including the queue
	var wg sync.WaitGroup
	codes := make([]int, load)
	lats := make([]time.Duration, load)
	retryAfters := make([]string, load)
	started := make(chan struct{}, load)
	for i := 0; i < load; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started <- struct{}{}
			t0 := time.Now()
			rec := postKeyed(t, s, "/v1/answer", "", warmBody)
			codes[i], lats[i] = rec.Code, time.Since(t0)
			retryAfters[i] = rec.Header().Get("Retry-After")
		}(i)
	}
	for i := 0; i < load; i++ {
		<-started
	}
	// Wait until the gate is saturated and the overflow has been shed, then
	// release the admitted requests.
	for i := 0; i < 1000 && s.Stats().ShedOverload < load-maxInFlight-1; i++ {
		time.Sleep(time.Millisecond)
	}
	close(unblock)
	wg.Wait()

	var ok, shed int
	for i := 0; i < load; i++ {
		switch codes[i] {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			shed++
			if retryAfters[i] == "" {
				t.Fatalf("shed request %d missing Retry-After", i)
			}
		default:
			t.Fatalf("request %d: unexpected status %d", i, codes[i])
		}
	}
	// Capacity + queue = 3 admitted; the rest shed.
	if ok != maxInFlight+1 || shed != load-maxInFlight-1 {
		t.Fatalf("ok=%d shed=%d, want %d/%d", ok, shed, maxInFlight+1, load-maxInFlight-1)
	}
	if got := s.Stats().ShedOverload; got != int64(shed) {
		t.Fatalf("shed_overload = %d, want %d", got, shed)
	}
	// Bounded tail latency for admitted work: everything completed promptly
	// after the unblock, so the p99 (here: max) must be far below the test's
	// own timeout scale.
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if p99 := lats[len(lats)-1]; p99 > 5*time.Second {
		t.Fatalf("p99 latency %v not bounded", p99)
	}
}

// TestQueuedDeadlineShed parks a warm request behind a full gate with a
// deadline too short to ever be admitted: it must be shed (503 overloaded)
// and counted as shed_expired, not left to time out opaquely.
func TestQueuedDeadlineShed(t *testing.T) {
	s := New(Config{Seed: 6, MaxInFlight: 1, MaxQueue: 4})
	warmBody := answerBody(t, "w", 4, 0, make([]float64, 4))
	if rec := postPath(t, s, "/v1/answer", warmBody); rec.Code != http.StatusOK {
		t.Fatalf("warmup: %d", rec.Code)
	}
	unblock := make(chan struct{})
	s.testHook = atAdmit(func() { <-unblock })

	hold := make(chan struct{})
	go func() {
		postPath(t, s, "/v1/answer", warmBody) // occupies the only slot
		close(hold)
	}()
	for i := 0; i < 1000 && s.Stats().InFlight == 0; i++ {
		time.Sleep(time.Millisecond)
	}

	req := AnswerRequest{
		Tenant:    "w",
		Policy:    PolicySpec{Kind: "line", K: 4},
		Workload:  WorkloadSpec{Kind: "histogram"},
		X:         make([]float64, 4),
		TimeoutMS: 30,
	}
	rec := postPath(t, s, "/v1/answer", mustJSON(req))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("queued-expired request: %d (%s)", rec.Code, rec.Body.String())
	}
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Code != "overloaded" {
		t.Fatalf("code %q (err %v), want overloaded", er.Code, err)
	}
	if got := s.Stats().ShedExpired; got != 1 {
		t.Fatalf("shed_expired = %d, want 1", got)
	}
	close(unblock)
	<-hold
}

// TestRequestDeadline checks timeout_ms propagates into the execution
// context: work that outlives it reports 504 "deadline_exceeded", and a
// negative value is rejected as invalid.
func TestRequestDeadline(t *testing.T) {
	s := New(Config{Seed: 6})
	warmBody := answerBody(t, "d", 4, 0, make([]float64, 4))
	if rec := postPath(t, s, "/v1/answer", warmBody); rec.Code != http.StatusOK {
		t.Fatalf("warmup: %d", rec.Code)
	}
	s.testHook = atAdmit(func() { time.Sleep(30 * time.Millisecond) })
	req := AnswerRequest{
		Tenant:    "d",
		Policy:    PolicySpec{Kind: "line", K: 4},
		Workload:  WorkloadSpec{Kind: "histogram"},
		X:         make([]float64, 4),
		TimeoutMS: 1,
	}
	rec := postPath(t, s, "/v1/answer", mustJSON(req))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: %d (%s)", rec.Code, rec.Body.String())
	}
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Code != "deadline_exceeded" {
		t.Fatalf("code %q (err %v), want deadline_exceeded", er.Code, err)
	}
	s.testHook = nil
	req.TimeoutMS = -5
	if rec := postPath(t, s, "/v1/answer", mustJSON(req)); rec.Code != http.StatusBadRequest {
		t.Fatalf("negative timeout: %d, want 400", rec.Code)
	}
}

// TestNoGoroutineLeak serves a burst of work — including shed and replayed
// requests — closes the daemon, and checks the goroutine count returns to
// its baseline: nothing may keep waiting on gates, idempotency slots, or
// snapshot tickers after Close.
func TestNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	s := New(Config{Seed: 13, MaxInFlight: 2, DataDir: t.TempDir()})
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	body := answerBody(t, "leak", 4, 0.1, make([]float64, 4))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			postKeyed(t, s, "/v1/answer", "leak-key", body)
		}(i)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The runtime reclaims request goroutines asynchronously; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
