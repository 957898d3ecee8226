// Command e2ebench is the repository's end-to-end benchmark. It drives a
// freshly built cmd/blowfishd subprocess over loopback with an open-loop
// load generator, checks every response against exact answers it computes
// itself, and prints one JSON result line. See README.md for the workloads,
// the metrics and how to run it; run.sh builds both binaries from the
// checkout and runs one workload.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// A run starts fresh daemons to time set-up, setup_s being their median:
// at least setupReps, and more while set-up has taken less than setupTime
// in all, up to setupMaxReps. A set-up of tens of milliseconds is mostly
// process start, which swings with the host, and gets a median of many; a
// slow one costs no more run time.
const (
	setupReps    = 7
	setupMaxReps = 31
	setupTime    = 2 * time.Second
)

// rounds is how many times a run alternates an open-loop window (half of
// the round) with a closed-loop window (the other half). Interleaving makes
// both loops sample the whole run: the shared machine's speed drifts over
// tens of seconds, and back-to-back phases would measure different
// machines. Many short windows let the window statistics (see measure)
// skip the stretches a neighbour kept busy.
const rounds = 16

// warmup is the untimed open-loop load before measuring.
const warmup = 2 * time.Second

func main() {
	var (
		name    = flag.String("workload", "static-mem", "static-mem, keyed-durable or stream-durable")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 50, "measured seconds: half open loop, half closed loop")
		trace   = flag.Int("trace", 0, "1 = report per-layer metrics instead of end-to-end ones")
		bin     = flag.String("daemon", "", "blowfishd binary to drive")
		work    = flag.String("work", "", "directory for data dirs and logs")
	)
	flag.Parse()
	// The generator allocates little that lives; collecting less often keeps
	// its pauses out of the latencies it measures.
	debug.SetGCPercent(400)
	if *bin == "" || *work == "" || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: -daemon and -work are required and -seconds must be >= 1 (use run.sh)")
		os.Exit(2)
	}
	b, err := newBench(*name, *seed, *bin, *work)
	if err == nil {
		err = b.run(time.Duration(*seconds)*time.Second, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
}

type bench struct {
	in      *inputs
	chk     *checker
	bin     string
	work    string
	seed    int64
	clients []*http.Client
	out     []metric
	invalid []string // run-validity problems; any makes the run incorrect
}

func newBench(name string, seed int64, bin, work string) (*bench, error) {
	rng := rand.New(rand.NewSource(seed))
	wl, err := workloadNamed(name, rng)
	if err != nil {
		return nil, err
	}
	in := newInputs(wl, seed, rng)
	b := &bench{in: in, chk: newChecker(in), bin: bin, work: work, seed: seed}
	for i := 0; i < runtime.NumCPU(); i++ {
		b.clients = append(b.clients, newClient())
	}
	return b, nil
}

func (b *bench) add(name string, v float64, unit string) {
	b.out = append(b.out, metric{name, v, unit})
}

func (b *bench) run(measure time.Duration, trace bool) error {
	wl := b.in.wl
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return err
	}
	// A keyed run's data dir holds hundreds of MB of WAL; it goes when the
	// run ends (after the deferred daemon stop below).
	defer os.RemoveAll(filepath.Join(b.work, "data"))
	fs, tmpfs, err := fsType(b.work)
	if err != nil {
		return err
	}
	fmt.Printf("# workload=%s seed=%d nproc=%d GOMAXPROCS=%d go=%s data-fs=%s connections=%d rate=%g/s\n",
		wl.name, b.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fs, len(b.clients), wl.rate)
	if wl.durable && tmpfs {
		return fmt.Errorf("refusing durable workload %s on tmpfs (fsync does nothing there)", wl.name)
	}

	var setups []float64
	var d *daemon
	setupStart := time.Now()
	for rep := 0; rep < setupMaxReps && (rep < setupReps || time.Since(setupStart) < setupTime); rep++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		d, err = b.startAndWarm(rep)
		if err != nil {
			if d != nil {
				_ = d.stop()
			}
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { _ = d.stop() }()
	r := &runner{d: d, clients: b.clients, chk: b.chk}

	// Warm up untimed, so connections, caches and the heap settle first.
	r.openLoop(b.in.scheduler("warm", 3), wl.rate, warmup)
	rss := sampleRSS(d, 100*time.Millisecond)
	m, err := b.measure(r, measure)
	if err != nil {
		return err
	}
	rssMB, err := rss.stop()
	if err != nil {
		return err
	}
	if err := b.finalChecks(r); err != nil {
		return err
	}
	stats, err := d.stats(b.clients[0])
	if err != nil {
		return err
	}
	b.structural(stats)

	answers, updates := m.open.answerLat, m.open.updateLat
	if len(answers) < 1000 {
		b.invalid = append(b.invalid, fmt.Sprintf("only %d open-loop answers (need >= 1000)", len(answers)))
	}
	// Latency counts from the due time, so a late generator inflates it. When
	// the generator's own lateness is half the answer tail, the generator,
	// not the daemon, set the pace.
	late, p99 := pctMS(m.open.late, 0.99), pctMS(answers, 0.99)
	if late > p99/2 {
		b.invalid = append(b.invalid, fmt.Sprintf("generator fell behind: gen.late_p99_ms=%.3f > answer p99 %.3f / 2", late, p99))
	}
	attempted, failed := b.chk.counts()
	failShare := float64(failed) / float64(max(attempted, 1))
	// Reported on every run, gated only per layer (see README.md).
	for _, m := range []metric{
		{"fail_share", failShare, "share"},
		{"answer_samples", float64(len(answers)), "count"},
		{"answer_p99_ms", p99, "ms"},
		{"update_p50_ms", pctMS(updates, 0.50), "ms"},
		{"update_p99_ms", pctMS(updates, 0.99), "ms"},
		{"gen.late_p99_ms", late, "ms"},
	} {
		fmt.Printf("# %-32s %14.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Printf("# setup_s=%.4f open_p50_ms=%.3f closed_rps=%.1f cpu_ms_per_req=%.4f generator_cpu_ms_per_req=%.4f\n", setups, m.p50, m.rps, m.cpuPerReq, m.genCPU)

	if !trace {
		b.add("setup_s", median(setups), "s")
		b.add("answer_p50_ms", favourable(m.p50, true), "ms")
		b.add("throughput_rps", favourable(m.rps, false), "1/s")
		b.add("cpu_ms_per_req", median(m.cpuPerReq), "ms")
		b.add("rss_mb", rssMB, "MiB")
		b.add("answer_mse", b.chk.mse(), "sq_count")
	} else {
		rtt, err := healthRTT(b.clients[0], d, 300)
		if err != nil {
			return err
		}
		if err := d.stop(); err != nil {
			return err
		}
		if err := b.traceLayers(rtt); err != nil {
			return err
		}
		b.counters(stats, &m.open)
		b.add("e2e.answer_p99_ms", p99, "ms")
		b.add("e2e.update_p50_ms", pctMS(updates, 0.50), "ms")
		b.add("e2e.update_p99_ms", pctMS(updates, 0.99), "ms")
		b.add("e2e.answer_samples", float64(len(answers)), "count")
		b.add("e2e.fail_share", failShare, "share")
	}
	return b.report(attempted, failed)
}

// measured is what the load rounds of one run saw.
type measured struct {
	open                   phase     // every open-loop window, merged
	p50                    []float64 // per open-loop window, ms
	rps, cpuPerReq, genCPU []float64 // per closed-loop window
}

// measure runs the load rounds. The wall-clock timings take the
// favourable quartile of the windows: answer_p50_ms is the open-loop median
// a quarter of the way up from the lowest window, throughput_rps the
// closed-loop rate a quarter of the way down from the fastest. Neighbours
// on a shared machine only ever add wall time, so that tracks the program
// where a run's mean tracks how busy the host was, and unlike the single
// best window it does not hinge on one lucky second. cpu_ms_per_req is the
// median window: CPU time does not count the waits a stall imposes.
func (b *bench) measure(r *runner, total time.Duration) (*measured, error) {
	m := &measured{}
	open, closed := b.in.scheduler("open", 1), b.in.scheduler("closed", 2)
	for i := 0; i < rounds; i++ {
		op := r.openLoop(open, b.in.wl.rate, total/2/rounds)
		m.p50 = append(m.p50, pctMS(op.answerLat, 0.50))
		m.open.answerLat = append(m.open.answerLat, op.answerLat...)
		m.open.updateLat = append(m.open.updateLat, op.updateLat...)
		m.open.late = append(m.open.late, op.late...)
		m.open.sent += op.sent
		m.open.ok += op.ok
		m.open.failed += op.failed

		cpu0, err := cpuPair(r.d)
		if err != nil {
			return nil, err
		}
		cl := r.closedLoop(closed, total/2/rounds)
		cpu1, err := cpuPair(r.d)
		if err != nil {
			return nil, err
		}
		n := float64(max(cl.ok, 1))
		m.rps = append(m.rps, float64(cl.ok)/cl.elapsed.Seconds())
		m.cpuPerReq = append(m.cpuPerReq, ms(cpu1[0]-cpu0[0])/n)
		m.genCPU = append(m.genCPU, ms(cpu1[1]-cpu0[1])/n)
	}
	return m, nil
}

// cpuPair reads the CPU time of the daemon and of this generator.
func cpuPair(d *daemon) ([2]time.Duration, error) {
	dc, err1 := d.cpuTime()
	gc, err2 := procCPU(os.Getpid())
	return [2]time.Duration{dc, gc}, errors.Join(err1, err2)
}

// startAndWarm starts a fresh daemon and brings it to the state a run
// measures: ready, every plan compiled, every stream seeded. Its time is
// the workload's set-up time.
func (b *bench) startAndWarm(rep int) (*daemon, error) {
	dataDir := ""
	if b.in.wl.durable {
		dataDir = filepath.Join(b.work, "data")
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
	}
	d, err := startDaemon(b.bin, dataDir, filepath.Join(b.work, "blowfishd.log"), b.seed)
	if err != nil {
		return nil, err
	}
	if err := d.waitReady(b.clients[0], 60*time.Second); err != nil {
		return d, err
	}
	b.chk.reset()
	r := &runner{d: d, clients: b.clients, chk: b.chk}
	in := b.in
	hot := in.tenantOf[0]
	for pi, p := range in.wl.plans {
		if !p.stream {
			continue
		}
		for t := 0; t < nTenants; t++ {
			j := &job{tenant: t, plan: pi, kind: kindUpdate, path: "/v1/update", body: in.updateBody(t, pi, in.x[t][pi], emptyDelta)}
			if _, err := r.send(0, j); err != nil {
				return d, fmt.Errorf("seeding stream: %w", err)
			}
		}
	}
	for pi, p := range in.wl.plans {
		j := &job{tenant: hot, plan: pi, kind: kindAnswer, path: "/v1/answer", body: in.answerBody(hot, pi, 0)}
		if p.stream {
			j.kind = kindStreamAnswer
		}
		if in.wl.keyed {
			j.key = fmt.Sprintf("setup-%d-%d-%d", b.seed, rep, pi)
		}
		if _, err := r.send(0, j); err != nil {
			return d, fmt.Errorf("first answer: %w", err)
		}
	}
	return d, nil
}

// finalChecks verifies at the wire what the run must have left behind:
// replays are byte-identical and free, streams hold exactly the deltas
// sent, and every ledger equals what its tenant received.
func (b *bench) finalChecks(r *runner) error {
	c, in := b.chk, b.in
	for _, rec := range c.keyedResponses() {
		req, err := http.NewRequest(http.MethodPost, r.d.base+rec.job.path, bytes.NewReader(rec.job.body))
		if err != nil {
			return err
		}
		req.Header.Set("Idempotency-Key", rec.job.key)
		resp, err := b.clients[0].Do(req)
		if err != nil {
			c.verify(fmt.Errorf("replaying %s: %w", rec.job.key, err))
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case err != nil:
			c.verify(fmt.Errorf("replaying %s: %w", rec.job.key, err))
		case resp.StatusCode != http.StatusOK || resp.Header.Get("Idempotent-Replay") != "true":
			c.verify(fmt.Errorf("replaying %s: HTTP %d, Idempotent-Replay=%q", rec.job.key, resp.StatusCode, resp.Header.Get("Idempotent-Replay")))
		case !bytes.Equal(body, rec.body):
			c.verify(fmt.Errorf("replaying %s: body differs from the original response", rec.job.key))
		default:
			c.verify(nil)
		}
	}
	for pi, p := range in.wl.plans {
		if !p.stream {
			continue
		}
		for t := 0; t < nTenants; t++ {
			j := &job{tenant: t, plan: pi, kind: kindStreamAnswer, path: "/v1/answer", body: in.answerBody(t, pi, 0)}
			_, _ = r.send(0, j) // failures are counted by the checker
		}
	}
	for t := 0; t < nTenants; t++ {
		spent, rel, err := r.d.budget(b.clients[0], tenantName(t))
		if err != nil {
			return err
		}
		wantSpent, wantRel := c.ledger(t)
		if math.Abs(spent-wantSpent) > 1e-9*math.Max(1, wantSpent) || rel != wantRel {
			c.verify(fmt.Errorf("tenant %s ledger: spent ε=%v over %d releases, but received %d answers worth ε=%v",
				tenantName(t), spent, rel, wantRel, wantSpent))
		} else {
			c.verify(nil)
		}
	}
	return nil
}

// structural asserts the counters each workload must leave: no batches on
// the keyed path, no WAL on an in-memory daemon, and exactly one WAL record
// per charge or update on a durable one.
func (b *bench) structural(stats map[string]float64) {
	wl, c := b.in.wl, b.chk
	check := func(counter string, want float64, why string) {
		got, ok := stats[counter]
		switch {
		case !ok:
			c.verify(fmt.Errorf("/v1/stats has no %q counter", counter))
		case got != want:
			c.verify(fmt.Errorf("%s: /v1/stats %s = %v, want %v", why, counter, got, want))
		default:
			c.verify(nil)
		}
	}
	if wl.keyed {
		check("batches", 0, "keyed requests bypass the batcher")
	}
	charges, updates := c.writes()
	if wl.durable {
		check("wal_records", float64(charges+updates), fmt.Sprintf("one WAL record per charge (%d) or update (%d)", charges, updates))
	} else {
		check("wal_records", 0, "an in-memory daemon writes no WAL")
	}
}

// counters reports the daemon's own counters and the generator's.
func (b *bench) counters(stats map[string]float64, open *phase) {
	hits, misses := stats["plan_cache_hits"], stats["plan_cache_misses"]
	b.add("serve.plan_cache.hit_ratio", hits/math.Max(hits+misses, 1), "share")
	b.add("serve.batch.batches", stats["batches"], "count")
	b.add("serve.batch.mean_size", stats["batched_releases"]/math.Max(stats["batches"], 1), "count")
	b.add("serve.idem.recorded", stats["idem_recorded"], "count")
	b.add("serve.errors", stats["errors"], "count")
	b.add("serve.shed", stats["shed_overload"]+stats["shed_expired"], "count")
	charges, updates := b.chk.writes()
	b.add("persist.wal_records_per_req", stats["wal_records"]/math.Max(float64(charges+updates), 1), "count")
	b.add("gen.late_p99_ms", pctMS(open.late, 0.99), "ms")
	b.add("gen.sent", float64(open.sent), "count")
	b.add("gen.failed", float64(open.failed), "count")
}

// healthRTT times n sequential GET /healthz round trips on one connection.
func healthRTT(c *http.Client, d *daemon, n int) ([]time.Duration, error) {
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		resp, err := c.Get(d.base + "/healthz")
		if err != nil {
			return nil, err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		out = append(out, time.Since(t0))
	}
	return out, nil
}

// report prints every metric and, last, the JSON result line.
func (b *bench) report(attempted, failed int64) error {
	c := b.chk
	if err := c.firstError(); err != nil {
		fmt.Printf("# first failure: %v\n", err)
	}
	for _, s := range b.invalid {
		fmt.Printf("# invalid run: %s\n", s)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]val{}
	for _, m := range b.out {
		fmt.Printf("%-34s %14.6g %s\n", m.name, m.value, m.unit)
		metrics[m.name] = val{m.value, m.unit}
	}
	res := struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{failed == 0 && len(b.invalid) == 0, attempted, failed, metrics}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errors.New("correctness checks failed")
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pctMS is the q-quantile (nearest rank) of ds in milliseconds; 0 when empty.
func pctMS(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return ms(s[max(i, 0)])
}

// favourable is the value a quarter of the way from the best end of v;
// lowerBetter says which end that is.
func favourable(v []float64, lowerBetter bool) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if lowerBetter {
		return s[len(s)/4]
	}
	return s[len(s)-1-len(s)/4]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
