package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/privacylab/blowfish/internal/serve"
)

// newClient returns a client holding one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// queue hands due jobs to workers. A tenant is one sequential client: a job
// waits while an earlier job of its tenant is in flight, so the benchmark
// always knows the exact state every stream answer reflects. When refill is
// set (closed loop) the queue draws its own jobs and never runs dry.
type queue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []*job
	busy    [nTenants]bool
	closed  bool
	refill  func() *job
	depth   int
}

func newQueue(refill func() *job, depth int) *queue {
	q := &queue{refill: refill, depth: depth}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *queue) push(j *job) {
	q.mu.Lock()
	q.pending = append(q.pending, j)
	q.mu.Unlock()
	q.cond.Signal()
}

// close marks the end of the schedule; take drains what is pending.
func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// take returns the oldest pending job whose tenant is idle, marking the
// tenant busy, or false once the queue is closed and drained.
func (q *queue) take() (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		for q.refill != nil && len(q.pending) < q.depth {
			q.pending = append(q.pending, q.refill())
		}
		for i, j := range q.pending {
			if !q.busy[j.tenant] {
				q.pending = append(q.pending[:i], q.pending[i+1:]...)
				q.busy[j.tenant] = true
				return j, true
			}
		}
		if q.closed && len(q.pending) == 0 {
			return nil, false
		}
		q.cond.Wait()
	}
}

// finish marks the job's tenant idle again.
func (q *queue) finish(j *job) {
	q.mu.Lock()
	q.busy[j.tenant] = false
	q.mu.Unlock()
	q.cond.Broadcast()
}

// phase is what one load phase measured.
type phase struct {
	answerLat []time.Duration // successful answers, from due (open) or send (closed) time
	updateLat []time.Duration
	late      []time.Duration // open loop: how late the generator enqueued each job
	sent, ok  int64
	failed    int64
	elapsed   time.Duration
}

func (p *phase) record(j *job, lat time.Duration, err error) {
	p.sent++
	if err != nil {
		p.failed++
		return
	}
	p.ok++
	if j.kind == kindUpdate {
		p.updateLat = append(p.updateLat, lat)
	} else {
		p.answerLat = append(p.answerLat, lat)
	}
}

// runner drives one daemon over len(clients) keep-alive connections.
type runner struct {
	d       *daemon
	clients []*http.Client
	chk     *checker
}

// send posts j on worker w's connection and checks the response. The
// latency is measured when the body has been read, before checking.
func (r *runner) send(w int, j *job) (time.Time, error) {
	r.chk.mu.Lock()
	r.chk.attempts++
	r.chk.mu.Unlock()
	req, err := http.NewRequest(http.MethodPost, r.d.base+j.path, bytes.NewReader(j.body))
	if err != nil {
		return time.Time{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if j.key != "" {
		req.Header.Set("Idempotency-Key", j.key)
	}
	resp, err := r.clients[w].Do(req)
	if err != nil {
		return time.Now(), r.chk.fail(fmt.Errorf("%s %s: %w", j.path, tenantName(j.tenant), err))
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if err != nil {
		return end, r.chk.fail(fmt.Errorf("%s %s: reading body: %w", j.path, tenantName(j.tenant), err))
	}
	return end, r.chk.check(j, resp.StatusCode, body)
}

// openLoop sends jobs on a fixed schedule at rate requests per second,
// whatever the daemon's progress, and times each from its due time.
func (r *runner) openLoop(s *scheduler, rate float64, dur time.Duration) *phase {
	n := int(rate * dur.Seconds())
	jobs := make([]*job, n)
	for i := range jobs {
		jobs[i] = s.next()
	}
	interval := time.Duration(float64(time.Second) / rate)
	q := newQueue(nil, 0)
	p := &phase{late: make([]time.Duration, 0, n)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j, ok := q.take()
				if !ok {
					return
				}
				end, err := r.send(w, j)
				q.finish(j)
				mu.Lock()
				p.record(j, end.Sub(j.due), err)
				mu.Unlock()
			}
		}()
	}
	for i, j := range jobs {
		j.due = start.Add(time.Duration(i) * interval)
		if d := time.Until(j.due); d > 0 {
			time.Sleep(d)
		}
		late := time.Since(j.due)
		q.push(j)
		p.late = append(p.late, late)
	}
	q.close()
	wg.Wait()
	p.elapsed = time.Since(start)
	return p
}

// closedLoop keeps every connection busy for dur: each worker sends its
// next request as soon as the previous one completes.
func (r *runner) closedLoop(s *scheduler, dur time.Duration) *phase {
	q := newQueue(s.next, 2*len(r.clients))
	p := &phase{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	stop := start.Add(dur)
	for w := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				j, _ := q.take()
				t0 := time.Now()
				end, err := r.send(w, j)
				q.finish(j)
				mu.Lock()
				p.record(j, end.Sub(t0), err)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	return p
}

// recorded is one keyed response kept for the replay check.
type recorded struct {
	job  *job
	body []byte
}

// emptyDelta seeds a stream without changing it.
var emptyDelta = serve.DeltaSpec{Cells: []int{}, Values: []float64{}}

// checker verifies every response against the benchmark's own reference
// answers and keeps the wire-visible ledger: what each tenant should have
// spent, given the 200 answers it received.
type checker struct {
	in    *inputs
	exact [nTenants][][]float64 // static plans: W·x per (tenant, plan)
	state [nTenants][][]float64 // stream plans: tracked database per (tenant, plan)

	mu       sync.Mutex
	spent    [nTenants]float64
	releases [nTenants]int64
	charges  int64 // 200 answers
	updates  int64 // 200 updates
	sse      []float64
	queries  []int64
	keyed    []recorded // the last keepKeyed keyed responses
	attempts int64      // requests sent plus checks made
	failures int64
	firstErr error
}

const keepKeyed = 32

func newChecker(in *inputs) *checker {
	c := &checker{in: in, sse: make([]float64, len(in.wl.plans)), queries: make([]int64, len(in.wl.plans))}
	for t := 0; t < nTenants; t++ {
		c.exact[t] = make([][]float64, len(in.wl.plans))
		for pi := range in.wl.plans {
			if p := &in.wl.plans[pi]; !p.stream {
				c.exact[t][pi] = p.exact(in.x[t][pi])
			}
		}
	}
	c.reset()
	return c
}

// reset forgets the ledger and stream state of a previous daemon; counts of
// attempts and failures carry over.
func (c *checker) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for t := 0; t < nTenants; t++ {
		c.state[t] = make([][]float64, len(c.in.wl.plans))
		for pi := range c.in.wl.plans {
			if c.in.wl.plans[pi].stream {
				c.state[t][pi] = append([]float64(nil), c.in.x[t][pi]...)
			}
		}
	}
	c.spent, c.releases = [nTenants]float64{}, [nTenants]int64{}
	c.charges, c.updates, c.keyed = 0, 0, nil
}

// verify counts one check made outside a request; a non-nil err fails it.
func (c *checker) verify(err error) {
	c.mu.Lock()
	c.attempts++
	c.mu.Unlock()
	if err != nil {
		_ = c.fail(err)
	}
}

func (c *checker) counts() (attempted, failed int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempts, c.failures
}

func (c *checker) firstError() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.firstErr
}

// ledger is what tenant t should have spent: the ε and count of the 200
// answers it received.
func (c *checker) ledger(t int) (float64, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.spent[t], c.releases[t]
}

// writes counts the charged answers and the applied updates.
func (c *checker) writes() (charges, updates int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.charges, c.updates
}

func (c *checker) keyedResponses() []recorded {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]recorded(nil), c.keyed...)
}

// fail counts a failed request and keeps the first error for the report.
func (c *checker) fail(err error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failures++
	if c.firstErr == nil {
		c.firstErr = err
	}
	return err
}

// check verifies one response. Only the worker holding j's tenant touches
// that tenant's tracked state, so state needs no lock.
func (c *checker) check(j *job, status int, body []byte) error {
	p := &c.in.wl.plans[j.plan]
	who := fmt.Sprintf("%s %s %s", j.path, tenantName(j.tenant), p.name)
	if status != http.StatusOK {
		return c.fail(fmt.Errorf("%s: HTTP %d: %.200s", who, status, body))
	}
	if j.kind == kindUpdate {
		var u struct {
			Applied int `json:"applied"`
		}
		if err := json.Unmarshal(body, &u); err != nil {
			return c.fail(fmt.Errorf("%s: %w", who, err))
		}
		x := c.state[j.tenant][j.plan]
		for i, cell := range j.delta.Cells {
			x[cell] += j.delta.Values[i]
		}
		c.mu.Lock()
		c.updates++
		c.mu.Unlock()
		if u.Applied != len(j.delta.Cells) {
			return c.fail(fmt.Errorf("%s: applied %d cells, sent %d", who, u.Applied, len(j.delta.Cells)))
		}
		return nil
	}
	c.mu.Lock()
	c.spent[j.tenant] += j.eps
	c.releases[j.tenant]++
	c.charges++
	if j.key != "" {
		if len(c.keyed) == keepKeyed {
			c.keyed = c.keyed[1:]
		}
		c.keyed = append(c.keyed, recorded{job: j, body: body})
	}
	c.mu.Unlock()
	answers, err := answersOf(body)
	if err != nil {
		return c.fail(fmt.Errorf("%s: %w", who, err))
	}
	want := c.exact[j.tenant][j.plan]
	if p.stream {
		want = p.exact(c.state[j.tenant][j.plan])
	}
	if len(answers) != len(want) {
		return c.fail(fmt.Errorf("%s: %d answers, want %d", who, len(answers), len(want)))
	}
	var sse float64
	for i, v := range answers {
		d := v - want[i]
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return c.fail(fmt.Errorf("%s: answer %d is %v", who, i, v))
		}
		if j.eps == 0 && math.Abs(d) > 1e-9*math.Max(1, math.Abs(want[i])) {
			return c.fail(fmt.Errorf("%s: ε=0 answer %d = %v, want W·x = %v", who, i, v, want[i]))
		}
		sse += d * d
	}
	if j.eps > 0 {
		c.mu.Lock()
		c.sse[j.plan] += sse
		c.queries[j.plan] += int64(len(want))
		c.mu.Unlock()
	}
	return nil
}

// answersOf extracts the "answers" array of an answer response. It scans
// instead of using encoding/json: the generator checks every response on
// the same CPUs as the daemon, and reflection-based decoding of thousands of
// floats per response would cost it more CPU than the daemon spends.
func answersOf(body []byte) ([]float64, error) {
	const key = `"answers":[`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return nil, errors.New("response has no answers array")
	}
	rest := body[i+len(key):]
	end := bytes.IndexByte(rest, ']')
	if end < 0 {
		return nil, errors.New("unterminated answers array")
	}
	rest = rest[:end]
	out := make([]float64, 0, bytes.Count(rest, []byte{','})+1)
	for len(rest) > 0 {
		j := bytes.IndexByte(rest, ',')
		if j < 0 {
			j = len(rest)
		}
		v, err := strconv.ParseFloat(string(bytes.TrimSpace(rest[:j])), 64)
		if err != nil {
			return nil, fmt.Errorf("answers array: %w", err)
		}
		out = append(out, v)
		rest = rest[min(j+1, len(rest)):]
	}
	return out, nil
}

// mse is the geometric mean over plans of each plan's mean squared error
// per query.
func (c *checker) mse() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var logSum float64
	n := 0
	for pi := range c.sse {
		if c.queries[pi] == 0 {
			continue
		}
		logSum += math.Log(c.sse[pi] / float64(c.queries[pi]))
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(logSum / float64(n))
}
