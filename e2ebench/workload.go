package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"github.com/privacylab/blowfish/internal/serve"
)

// nTenants is how many tenants share the daemon; traffic is zipf-skewed
// across them.
const nTenants = 16

// answerEps is the ε of every noisy answer. One value for all requests keeps
// same-plan requests coalescible and makes answer_mse comparable across runs.
const answerEps = 0.5

// zipfS is the zipf exponent for both tenant and plan popularity.
const zipfS = 1.1

// plan is one (policy, workload) pair the benchmark sends. Static plans
// carry a per-tenant database in every request; stream plans answer over the
// tenant's maintained stream, fed by /v1/update.
type plan struct {
	name     string
	policy   serve.PolicySpec
	workload serve.WorkloadSpec
	stream   bool
	k        int // domain size
	side     int // grid side (0 for 1-D plans)
}

// workload is one traffic mix. Rate is the open-loop arrival rate in
// requests per second, fixed at a quarter to a fifth of the closed-loop
// throughput the first version of this benchmark measured on 2 CPUs, so
// every commit sees the same offered load. At half, and still at a third,
// the shared machine's slow stretches pushed the daemon toward saturation
// and the median latency swung with them.
type workload struct {
	name    string
	durable bool // daemon runs with -data-dir
	keyed   bool // every request carries a fresh Idempotency-Key
	rate    float64
	plans   []plan
}

// Static plans (static-mem, keyed-durable), in zipf popularity order.
func staticPlans(rng *rand.Rand) []plan {
	ranges := make([][2]int, 1000)
	for i := range ranges {
		a, b := rng.Intn(1024), rng.Intn(1024)
		if a > b {
			a, b = b, a
		}
		ranges[i] = [2]int{a, b}
	}
	rects := make([]serve.RectSpec, 500)
	for i := range rects {
		r0, r1 := rng.Intn(64), rng.Intn(64)
		c0, c1 := rng.Intn(64), rng.Intn(64)
		rects[i] = serve.RectSpec{Lo: []int{min(r0, r1), min(c0, c1)}, Hi: []int{max(r0, r1), max(c0, c1)}}
	}
	return []plan{
		{name: "line-ranges", k: 1024,
			policy:   serve.PolicySpec{Kind: "line", K: 1024},
			workload: serve.WorkloadSpec{Kind: "ranges", Ranges: ranges}},
		{name: "grid-rects", k: 64 * 64, side: 64,
			policy:   serve.PolicySpec{Kind: "grid", K: 64},
			workload: serve.WorkloadSpec{Kind: "rects", Rects: rects}},
		{name: "line-hist", k: 256,
			policy:   serve.PolicySpec{Kind: "line", K: 256},
			workload: serve.WorkloadSpec{Kind: "histogram"}},
	}
}

// Stream plans (stream-durable), in zipf popularity order.
func streamPlans() []plan {
	return []plan{
		{name: "line-cumulative", k: 4096, stream: true,
			policy:   serve.PolicySpec{Kind: "line", K: 4096},
			workload: serve.WorkloadSpec{Kind: "cumulative"}},
		{name: "grid-hist", k: 64 * 64, side: 64, stream: true,
			policy:   serve.PolicySpec{Kind: "grid", K: 64},
			workload: serve.WorkloadSpec{Kind: "histogram"}},
	}
}

// workloadNamed builds the named traffic mix; its inputs come from rng.
func workloadNamed(name string, rng *rand.Rand) (*workload, error) {
	switch name {
	case "static-mem":
		return &workload{name: name, rate: 100, plans: staticPlans(rng)}, nil
	case "keyed-durable":
		return &workload{name: name, durable: true, keyed: true, rate: 150, plans: staticPlans(rng)}, nil
	case "stream-durable":
		return &workload{name: name, durable: true, rate: 340, plans: streamPlans()}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want static-mem, keyed-durable or stream-durable)", name)
}

// exact returns W·x for plan p: the benchmark's own reference answers,
// computed from prefix sums rather than by the library.
func (p *plan) exact(x []float64) []float64 {
	switch p.workload.Kind {
	case "histogram":
		return append([]float64(nil), x...)
	case "cumulative":
		out := make([]float64, len(x))
		var s float64
		for i, v := range x {
			s += v
			out[i] = s
		}
		return out
	case "ranges":
		pre := make([]float64, len(x)+1)
		for i, v := range x {
			pre[i+1] = pre[i] + v
		}
		out := make([]float64, len(p.workload.Ranges))
		for i, r := range p.workload.Ranges {
			out[i] = pre[r[1]+1] - pre[r[0]]
		}
		return out
	case "rects":
		// Summed-area table over the row-major side×side grid, one row and
		// column of zero padding.
		n := p.side + 1
		sat := make([]float64, n*n)
		for r := 0; r < p.side; r++ {
			for c := 0; c < p.side; c++ {
				sat[(r+1)*n+c+1] = x[r*p.side+c] + sat[r*n+c+1] + sat[(r+1)*n+c] - sat[r*n+c]
			}
		}
		out := make([]float64, len(p.workload.Rects))
		for i, q := range p.workload.Rects {
			r0, c0, r1, c1 := q.Lo[0], q.Lo[1], q.Hi[0]+1, q.Hi[1]+1
			out[i] = sat[r1*n+c1] - sat[r0*n+c1] - sat[r1*n+c0] + sat[r0*n+c0]
		}
		return out
	}
	panic("unhandled workload kind " + p.workload.Kind)
}

// jobKind is what one request does.
type jobKind int

const (
	kindAnswer       jobKind = iota // static /v1/answer with x
	kindStreamAnswer                // /v1/answer with "stream": true
	kindUpdate                      // /v1/update with a delta
)

// job is one scheduled request.
type job struct {
	seq    int
	due    time.Time // open loop: when the request is due to be sent
	tenant int
	plan   int
	kind   jobKind
	eps    float64
	path   string
	body   []byte
	key    string // Idempotency-Key; empty when unkeyed
	delta  serve.DeltaSpec
}

// inputs holds everything a run sends: per-tenant databases and the
// pre-encoded static answer bodies.
type inputs struct {
	wl       *workload
	seed     int64
	x        [nTenants][][]float64 // x[tenant][plan]: static database or stream base
	bodies   [nTenants][][]byte    // bodies[tenant][plan]: noisy answer request
	tenantOf []int                 // zipf rank → tenant index (a seeded permutation)
}

func tenantName(t int) string { return fmt.Sprintf("t%02d", t) }

func newInputs(wl *workload, seed int64, rng *rand.Rand) *inputs {
	in := &inputs{wl: wl, seed: seed, tenantOf: rng.Perm(nTenants)}
	for t := 0; t < nTenants; t++ {
		in.x[t] = make([][]float64, len(wl.plans))
		in.bodies[t] = make([][]byte, len(wl.plans))
		for pi := range wl.plans {
			x := make([]float64, wl.plans[pi].k)
			for i := range x {
				x[i] = float64(rng.Intn(50))
			}
			in.x[t][pi] = x
			in.bodies[t][pi] = in.answerBody(t, pi, answerEps)
		}
	}
	return in
}

// mustJSON encodes v, which holds only ints, strings and finite floats.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// answerBody encodes an answer request for (tenant, plan) at eps.
func (in *inputs) answerBody(t, pi int, eps float64) []byte {
	p := &in.wl.plans[pi]
	req := serve.AnswerRequest{Tenant: tenantName(t), Policy: p.policy, Workload: p.workload, Epsilon: eps}
	if p.stream {
		req.Stream = true
	} else {
		req.X = in.x[t][pi]
	}
	return mustJSON(req)
}

// updateBody encodes an update for (tenant, plan): base seeds a new stream,
// delta feeds an existing one.
func (in *inputs) updateBody(t, pi int, base []float64, d serve.DeltaSpec) []byte {
	p := &in.wl.plans[pi]
	return mustJSON(serve.UpdateRequest{Tenant: tenantName(t), Policy: p.policy, Workload: p.workload, Base: base, Delta: d})
}

// scheduler draws the request sequence of one phase from its own seeded
// stream. On stream workloads every fifth request is a stream answer and
// the other four are updates of 1–4 cells.
type scheduler struct {
	in     *inputs
	rng    *rand.Rand
	tz, pz *rand.Zipf
	phase  string
	n      int
}

func (in *inputs) scheduler(phase string, salt int64) *scheduler {
	rng := rand.New(rand.NewSource(in.seed*7919 + salt))
	return &scheduler{
		in: in, rng: rng, phase: phase,
		tz: rand.NewZipf(rng, zipfS, 1, nTenants-1),
		pz: rand.NewZipf(rng, zipfS, 1, uint64(len(in.wl.plans)-1)),
	}
}

func (s *scheduler) next() *job {
	in := s.in
	j := &job{seq: s.n, tenant: in.tenantOf[s.tz.Uint64()], plan: int(s.pz.Uint64()), eps: answerEps}
	s.n++
	p := &in.wl.plans[j.plan]
	switch {
	case !p.stream:
		j.kind, j.path, j.body = kindAnswer, "/v1/answer", in.bodies[j.tenant][j.plan]
	case j.seq%5 == 4:
		j.kind, j.path, j.body = kindStreamAnswer, "/v1/answer", in.bodies[j.tenant][j.plan]
	default:
		n := 1 + s.rng.Intn(4)
		for i := 0; i < n; i++ {
			j.delta.Cells = append(j.delta.Cells, s.rng.Intn(p.k))
			j.delta.Values = append(j.delta.Values, float64(1+s.rng.Intn(3)))
		}
		j.kind, j.path, j.body = kindUpdate, "/v1/update", in.updateBody(j.tenant, j.plan, nil, j.delta)
	}
	if in.wl.keyed {
		j.key = fmt.Sprintf("%s-%d-%d", s.phase, in.seed, j.seq)
	}
	return j
}
