package main

// The traced pass measures layers from outside the program: it times calls
// into each layer's public functions on the same requests the load phases
// sent, after the daemon has stopped. The root span is the in-process
// serve.Server handling the request; the child spans are the library calls
// that handler makes, replayed one by one on the same input. Whatever
// handler time the children do not cover is serve.unattributed.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	blowfish "github.com/privacylab/blowfish"
	"github.com/privacylab/blowfish/internal/persist"
	"github.com/privacylab/blowfish/internal/serve"
)

// traceRequests is how many requests of the open-loop schedule the traced
// pass replays.
const traceRequests = 300

// stages are the timed spans, in report order.
var stages = []string{
	"http.rtt", "serve.handler", "serve.decode", "serve.plan_key", "serve.encode", "serve.unattributed",
	"blowfish.compile", "blowfish.answer", "blowfish.stream_apply", "blowfish.stream_answer", "blowfish.charge",
	"persist.append", "persist.rotate",
}

// span is one timed call. Spans of one request share req; child spans name
// the handler span as parent. Spans outside any request have req -1.
type span struct {
	req    int
	name   string
	parent string
	dur    time.Duration
}

type tracer struct{ spans []span }

// time runs f as a span of request req.
func (t *tracer) time(req int, name, parent string, f func() error) error {
	t0 := time.Now()
	err := f()
	t.spans = append(t.spans, span{req: req, name: name, parent: parent, dur: time.Since(t0)})
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// planKeySpec mirrors the daemon's canonical plan identity.
type planKeySpec struct {
	Policy   serve.PolicySpec   `json:"policy"`
	Workload serve.WorkloadSpec `json:"workload"`
	Options  serve.OptionsSpec  `json:"options"`
}

// planKey does what the daemon does to key a plan: canonical JSON plus FNV.
func planKey(ps serve.PolicySpec, ws serve.WorkloadSpec, os serve.OptionsSpec) (string, string, error) {
	raw, err := json.Marshal(planKeySpec{ps, ws, os})
	if err != nil {
		return "", "", err
	}
	h := fnv.New64a()
	h.Write(raw)
	return string(raw), fmt.Sprintf("%016x", h.Sum64()), nil
}

// walRecord mirrors the daemon's WAL record so appends have its sizes.
type walRecord struct {
	Op      string                    `json:"op"`
	Tenant  string                    `json:"tenant,omitempty"`
	Key     string                    `json:"key,omitempty"`
	State   *blowfish.AccountantState `json:"state,omitempty"`
	Cells   []int                     `json:"cells,omitempty"`
	Values  []float64                 `json:"values,omitempty"`
	IdemKey string                    `json:"idem_key,omitempty"`
	Status  int                       `json:"status,omitempty"`
	Body    []byte                    `json:"body,omitempty"`
	At      int64                     `json:"at,omitempty"`
}

// compile opens an engine for p's policy and prepares p's workload, as the
// daemon does on a plan-cache miss.
func compile(p *plan) (*blowfish.Engine, *blowfish.Plan, error) {
	var pol *blowfish.Policy
	switch p.policy.Kind {
	case "line":
		pol = blowfish.LinePolicy(p.policy.K)
	case "grid":
		pol = blowfish.GridPolicy(p.policy.K)
	default:
		return nil, nil, fmt.Errorf("unhandled policy kind %q", p.policy.Kind)
	}
	eng, err := blowfish.Open(pol, blowfish.EngineOptions{})
	if err != nil {
		return nil, nil, err
	}
	k := eng.Policy().K
	var w *blowfish.Workload
	switch p.workload.Kind {
	case "histogram":
		w = blowfish.Histogram(k)
	case "cumulative":
		w = blowfish.CumulativeHistogram(k)
	case "ranges":
		w = &blowfish.Workload{Name: "ranges", K: k}
		for _, r := range p.workload.Ranges {
			w.Queries = append(w.Queries, blowfish.Range1D{L: r[0], R: r[1]})
		}
	case "rects":
		w = &blowfish.Workload{Name: "rects", K: k}
		for _, r := range p.workload.Rects {
			w.Queries = append(w.Queries, blowfish.RangeKd{Lo: r.Lo, Hi: r.Hi})
		}
	default:
		return nil, nil, fmt.Errorf("unhandled workload kind %q", p.workload.Kind)
	}
	pl, err := eng.Prepare(w, blowfish.Options{Estimator: blowfish.EstimatorLaplace})
	return eng, pl, err
}

// layers is the library state the traced pass replays requests against.
type layers struct {
	b       *bench
	tr      *tracer
	srv     *serve.Server
	store   *persist.Store // nil on an in-memory workload
	src     *blowfish.Source
	plans   []*blowfish.Plan
	streams [nTenants][]*blowfish.Stream
	accts   [nTenants]*blowfish.Accountant
	bodies  [][]byte // keyed response bodies, for the snapshot payload
}

// traceLayers runs the traced pass and adds every per-layer metric.
func (b *bench) traceLayers(rtt []time.Duration) error {
	dir := filepath.Join(b.work, "trace")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	window, err := defaultBatchWindow(b.bin)
	if err != nil {
		return fmt.Errorf("reading blowfishd's -batch-window default: %w", err)
	}
	wl := b.in.wl
	tr := &tracer{}
	for _, d := range rtt {
		tr.spans = append(tr.spans, span{req: -1, name: "http.rtt", dur: d})
	}
	L := &layers{b: b, tr: tr, src: blowfish.NewSource(b.seed)}
	for pi := range wl.plans {
		p := &wl.plans[pi]
		var eng *blowfish.Engine
		var pl *blowfish.Plan
		if err := tr.time(-1, "blowfish.compile", "", func() (err error) {
			eng, pl, err = compile(p)
			return err
		}); err != nil {
			return err
		}
		L.plans = append(L.plans, pl)
		for t := 0; t < nTenants; t++ {
			var st *blowfish.Stream
			if p.stream {
				if st, err = eng.OpenStream(pl, append([]float64(nil), b.in.x[t][pi]...), blowfish.StreamOptions{}); err != nil {
					return err
				}
			}
			L.streams[t] = append(L.streams[t], st)
		}
	}
	for t := range L.accts {
		L.accts[t], _ = blowfish.NewAccountant(blowfish.Budget{})
	}

	cfg := serve.Config{BatchWindow: window, Seed: b.seed}
	if wl.durable {
		cfg.DataDir = filepath.Join(dir, "serve")
		if L.store, _, err = persist.Open(filepath.Join(dir, "store"), persist.Options{}); err != nil {
			return err
		}
		defer L.store.Close()
	}
	L.srv = serve.New(cfg)
	if err := L.srv.Recover(); err != nil {
		return err
	}
	defer L.srv.Close()
	if err := L.warm(); err != nil {
		return err
	}

	sch := b.in.scheduler("open", 1)
	jobs := make([]*job, traceRequests)
	for i := range jobs {
		jobs[i] = sch.next()
	}
	for i, j := range jobs {
		err := L.request(i, j)
		if err != nil {
			err = fmt.Errorf("traced request %d: %w", i, err)
		}
		b.chk.verify(err)
	}
	overhead, err := L.overhead(jobs)
	if err != nil {
		return err
	}
	if L.store != nil {
		payload, err := L.snapshot()
		if err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			if err := tr.time(-1, "persist.rotate", "", func() error { return L.store.Rotate(payload) }); err != nil {
				return err
			}
		}
	}

	// Handler time no child span covers, per request.
	handler := map[int]time.Duration{}
	children := map[int]time.Duration{}
	for _, s := range tr.spans {
		switch {
		case s.name == "serve.handler":
			handler[s.req] += s.dur
		case s.parent == "serve.handler":
			children[s.req] += s.dur
		}
	}
	var covered, total time.Duration
	for req, h := range handler {
		tr.spans = append(tr.spans, span{req: req, name: "serve.unattributed", parent: "serve.handler", dur: h - children[req]})
		covered += children[req]
		total += h
	}

	byName := map[string][]time.Duration{}
	for _, s := range tr.spans {
		byName[s.name] = append(byName[s.name], s.dur)
	}
	for _, name := range stages {
		ds := byName[name]
		var sum time.Duration
		for _, d := range ds {
			sum += d
		}
		b.add(name+".calls", float64(len(ds)), "count")
		b.add(name+".p50_us", pctMS(ds, 0.5)*1e3, "us")
		b.add(name+".total_ms", ms(sum), "ms")
	}
	b.add("trace.coverage", float64(covered)/float64(max(total, 1)), "share")
	b.add("trace.overhead_us", overhead, "us")
	return nil
}

// warm sends the in-process server the set-up requests of a run: streams
// seeded, one answer per plan.
func (L *layers) warm() error {
	in := L.b.in
	for pi, p := range in.wl.plans {
		if !p.stream {
			continue
		}
		for t := 0; t < nTenants; t++ {
			if _, err := L.serveHTTP("/v1/update", "", in.updateBody(t, pi, in.x[t][pi], emptyDelta)); err != nil {
				return err
			}
		}
	}
	for pi := range in.wl.plans {
		key := ""
		if in.wl.keyed {
			key = fmt.Sprintf("trace-setup-%d", pi)
		}
		if _, err := L.serveHTTP("/v1/answer", key, in.answerBody(in.tenantOf[0], pi, 0)); err != nil {
			return err
		}
	}
	return nil
}

// serveHTTP runs one request through the in-process handler.
func (L *layers) serveHTTP(path, key string, body []byte) (*httptest.ResponseRecorder, error) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	rec := httptest.NewRecorder()
	L.srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return rec, fmt.Errorf("%s: HTTP %d: %.200s", path, rec.Code, rec.Body.Bytes())
	}
	return rec, nil
}

// request times job j through the handler, then through each layer call
// the handler makes for it.
func (L *layers) request(i int, j *job) error {
	tr, wl := L.tr, L.b.in.wl
	const root = "serve.handler"
	if err := tr.time(i, root, "", func() error {
		_, err := L.serveHTTP(j.path, j.key, j.body)
		return err
	}); err != nil {
		return err
	}
	var ar serve.AnswerRequest
	var ur serve.UpdateRequest
	var ps serve.PolicySpec
	var ws serve.WorkloadSpec
	var ops serve.OptionsSpec
	if err := tr.time(i, "serve.decode", root, func() error {
		if j.kind == kindUpdate {
			err := json.NewDecoder(bytes.NewReader(j.body)).Decode(&ur)
			ps, ws, ops = ur.Policy, ur.Workload, ur.Options
			return err
		}
		err := json.NewDecoder(bytes.NewReader(j.body)).Decode(&ar)
		ps, ws, ops = ar.Policy, ar.Workload, ar.Options
		return err
	}); err != nil {
		return err
	}
	var key, hash string
	if err := tr.time(i, "serve.plan_key", root, func() (err error) {
		if _, _, err = planKey(ps, ws, ops); err != nil {
			return err
		}
		key, hash, err = planKey(ps, ws, ops)
		return err
	}); err != nil {
		return err
	}
	pl, st, acct, tenant := L.plans[j.plan], L.streams[j.tenant][j.plan], L.accts[j.tenant], tenantName(j.tenant)

	if j.kind == kindUpdate {
		d := blowfish.Delta{Cells: ur.Delta.Cells, Values: ur.Delta.Values}
		if err := tr.time(i, "blowfish.stream_apply", root, func() error { return st.Apply(d) }); err != nil {
			return err
		}
		if err := L.appendWAL(i, walRecord{Op: "apply", Tenant: tenant, Key: key, Cells: d.Cells, Values: d.Values}); err != nil {
			return err
		}
		return tr.time(i, "serve.encode", root, func() error {
			s := st.Stats()
			_, err := json.Marshal(serve.UpdateResponse{PlanKey: hash, Applied: len(d.Cells), Patches: s.Patches, Recomputes: s.Recomputes})
			return err
		})
	}

	var out []float64
	var err error
	if j.kind == kindStreamAnswer {
		err = tr.time(i, "blowfish.stream_answer", root, func() (err error) {
			out, err = st.AnswerWith(context.Background(), nil, ar.Epsilon, L.src)
			return err
		})
	} else {
		err = tr.time(i, "blowfish.answer", root, func() (err error) {
			out, err = pl.AnswerWith(context.Background(), nil, ar.X, ar.Epsilon, L.src)
			return err
		})
	}
	if err != nil {
		return err
	}
	if err := tr.time(i, "blowfish.charge", root, func() error {
		if wl.durable {
			return acct.ChargeLogged(pl.Cost(ar.Epsilon), 1, nil)
		}
		return acct.Charge(pl.Cost(ar.Epsilon), 1)
	}); err != nil {
		return err
	}
	var body []byte
	if err := tr.time(i, "serve.encode", root, func() (err error) {
		body, err = json.Marshal(serve.AnswerResponse{
			Algorithm: pl.Algorithm(), Answers: out, Batched: 1, PlanKey: hash,
			Budget: serve.BudgetInfo{SpentEpsilon: acct.Spent().Epsilon, Releases: acct.Releases()},
		})
		return err
	}); err != nil {
		return err
	}
	state := acct.ExportState()
	rec := walRecord{Op: "charge", Tenant: tenant, State: &state}
	if j.key != "" {
		rec = walRecord{Op: "idem_answer", Tenant: tenant, IdemKey: j.key, State: &state, Status: http.StatusOK, Body: body, At: time.Now().UnixNano()}
		L.bodies = append(L.bodies, body)
	}
	return L.appendWAL(i, rec)
}

// appendWAL times one fsynced append of rec, on durable workloads only.
func (L *layers) appendWAL(i int, rec walRecord) error {
	if L.store == nil {
		return nil
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return L.tr.time(i, "persist.append", "serve.handler", func() error { return L.store.Append(raw) })
}

// overhead is the handler-time cost of recording spans: the mean handler
// time of the jobs replayed with a span around each, minus the mean with one
// clock around the whole loop, in microseconds. The loops run in ABBA order
// so drift over the pass cancels.
func (L *layers) overhead(jobs []*job) (float64, error) {
	loop := func(round int, traced bool) (time.Duration, error) {
		scratch := &tracer{spans: make([]span, 0, len(jobs))}
		t0 := time.Now()
		for i, j := range jobs {
			key := ""
			if j.key != "" {
				key = fmt.Sprintf("%s-overhead-%d", j.key, round)
			}
			call := func() error { _, err := L.serveHTTP(j.path, key, j.body); return err }
			var err error
			if traced {
				err = scratch.time(i, "serve.handler", "", call)
			} else {
				err = call()
			}
			if err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
	var diff time.Duration
	for round, traced := range []bool{false, true, true, false} {
		d, err := loop(round, traced)
		if err != nil {
			return 0, err
		}
		if traced {
			diff += d
		} else {
			diff -= d
		}
	}
	return float64(diff) / 2 / float64(len(jobs)) / 1e3, nil
}

// snapshot builds an end-of-run snapshot payload like the daemon's: every
// ledger, every stream and every recorded response.
func (L *layers) snapshot() ([]byte, error) {
	type streamSnap struct {
		Tenant string                `json:"tenant"`
		Key    string                `json:"key"`
		State  *blowfish.StreamState `json:"state"`
	}
	data := struct {
		Tenants map[string]blowfish.AccountantState `json:"tenants"`
		Streams []streamSnap                        `json:"streams"`
		Idem    [][]byte                            `json:"idem,omitempty"`
	}{Tenants: map[string]blowfish.AccountantState{}, Idem: L.bodies}
	for t := 0; t < nTenants; t++ {
		data.Tenants[tenantName(t)] = L.accts[t].ExportState()
		for pi, st := range L.streams[t] {
			if st != nil {
				data.Streams = append(data.Streams, streamSnap{Tenant: tenantName(t), Key: L.b.in.wl.plans[pi].name, State: st.ExportState()})
			}
		}
	}
	return json.Marshal(data)
}
