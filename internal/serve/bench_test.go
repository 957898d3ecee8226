package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
)

// staticMemBodies returns tenant t00's /v1/answer bodies for the two large
// plans of e2ebench's static-mem workload, built as e2ebench/workload.go
// builds them from seed: the line-1024 ranges, then the grid-64 rects, then
// the tenant permutation, then each tenant's databases in plan order.
func staticMemBodies(seed int64) map[string][]byte {
	rng := rand.New(rand.NewSource(seed))
	ranges := make([][2]int, 1000)
	for i := range ranges {
		a, b := rng.Intn(1024), rng.Intn(1024)
		ranges[i] = [2]int{min(a, b), max(a, b)}
	}
	rects := make([]RectSpec, 500)
	for i := range rects {
		r0, r1 := rng.Intn(64), rng.Intn(64)
		c0, c1 := rng.Intn(64), rng.Intn(64)
		rects[i] = RectSpec{Lo: []int{min(r0, r1), min(c0, c1)}, Hi: []int{max(r0, r1), max(c0, c1)}}
	}
	rng.Perm(16)
	plans := []struct {
		name string
		req  AnswerRequest
		k    int
	}{
		{"line-ranges", AnswerRequest{Policy: PolicySpec{Kind: "line", K: 1024}, Workload: WorkloadSpec{Kind: "ranges", Ranges: ranges}}, 1024},
		{"grid-rects", AnswerRequest{Policy: PolicySpec{Kind: "grid", K: 64}, Workload: WorkloadSpec{Kind: "rects", Rects: rects}}, 64 * 64},
		{"line-hist", AnswerRequest{Policy: PolicySpec{Kind: "line", K: 256}, Workload: WorkloadSpec{Kind: "histogram"}}, 256},
	}
	bodies := map[string][]byte{}
	for _, p := range plans {
		x := make([]float64, p.k)
		for i := range x {
			x[i] = float64(rng.Intn(50))
		}
		req := p.req
		req.Tenant, req.Epsilon, req.X = "t00", 0.5, x
		body, err := json.Marshal(req)
		if err != nil {
			panic(err)
		}
		bodies[p.name] = body
	}
	return bodies
}

// specVariants returns n copies of body whose policy specs differ only in
// an ignored "nonce" field: one plan, n distinct spec byte strings.
// Cycling through more variants than the plan alias holds makes every
// request an alias miss that still hits the plan cache.
func specVariants(body []byte, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = bytes.Replace(body, []byte(`"policy":{`), fmt.Appendf(nil, `"policy":{"nonce":%d,`, i), 1)
	}
	return out
}

// answerCases runs bench on the static-mem line-ranges and grid-rects
// bodies, twice each: "hit" repeats one body (its spec bytes resolve
// through the plan alias), "miss" cycles through 4×PlanCacheSize spec
// variants of it (every spec is decoded and canonicalised).
func answerCases(b *testing.B, bench func(b *testing.B, srv *Server, bodies [][]byte)) {
	static := staticMemBodies(1)
	for _, name := range []string{"line-ranges", "grid-rects"} {
		for _, mode := range []string{"hit", "miss"} {
			b.Run(name+"/"+mode, func(b *testing.B) {
				srv := New(Config{Seed: 1})
				bodies := [][]byte{static[name]}
				if mode == "miss" {
					bodies = specVariants(static[name], 4*srv.cfg.PlanCacheSize)
				}
				// Compile the plan and, for "hit", fill the alias.
				if rec := serveAnswer(srv, bodies[0]); rec.Code != http.StatusOK {
					b.Fatalf("%s: %d %s", name, rec.Code, rec.Body)
				}
				b.SetBytes(int64(len(bodies[0])))
				bench(b, srv, bodies)
			})
		}
	}
}

func serveAnswer(srv *Server, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/answer", bytes.NewReader(body)))
	return rec
}

// BenchmarkAnswerHandler drives ServeHTTP against a warm daemon: the whole
// in-process request path (decode, plan lookup, release, charge, encode)
// per op.
func BenchmarkAnswerHandler(b *testing.B) {
	answerCases(b, func(b *testing.B, srv *Server, bodies [][]byte) {
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			if rec := serveAnswer(srv, bodies[i%len(bodies)]); rec.Code != http.StatusOK {
				b.Fatalf("%d %s", rec.Code, rec.Body)
			}
			i++
		}
	})
}

// BenchmarkAnswerDecode times the decode stage alone: the envelope decode,
// the float scan and the plan-alias lookup, plus the spec decode and
// planKey on a miss.
func BenchmarkAnswerDecode(b *testing.B) {
	answerCases(b, func(b *testing.B, srv *Server, bodies [][]byte) {
		rec := httptest.NewRecorder()
		i := 0
		for b.Loop() {
			var req answerWire
			if _, err := srv.decode(rec, httptest.NewRequest("POST", "/v1/answer", bytes.NewReader(bodies[i%len(bodies)])), &req); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// streamDurableBodies returns /v1/update bodies shaped like e2ebench's
// stream-durable traffic on its line-4096 cumulative plan: "delta" feeds
// four cells, "base" seeds a new stream with 4096 counts.
func streamDurableBodies(seed int64) map[string][]byte {
	rng := rand.New(rand.NewSource(seed))
	req := UpdateRequest{Tenant: "t00", Policy: PolicySpec{Kind: "line", K: 4096}, Workload: WorkloadSpec{Kind: "cumulative"}}
	seedReq := req
	seedReq.Base, seedReq.Delta = make([]float64, 4096), DeltaSpec{Cells: []int{}, Values: []float64{}}
	for i := range seedReq.Base {
		seedReq.Base[i] = float64(rng.Intn(50))
	}
	for range 4 {
		req.Delta.Cells = append(req.Delta.Cells, rng.Intn(4096))
		req.Delta.Values = append(req.Delta.Values, float64(1+rng.Intn(3)))
	}
	return map[string][]byte{"delta": mustJSON(req), "base": mustJSON(seedReq)}
}

// BenchmarkUpdateDecode times the decode stage of /v1/update on an alias
// hit, for a four-cell delta and for a 4096-count base seed.
func BenchmarkUpdateDecode(b *testing.B) {
	bodies := streamDurableBodies(1)
	for _, name := range []string{"delta", "base"} {
		b.Run(name, func(b *testing.B) {
			srv := New(Config{Seed: 1})
			// Compile the plan and fill the alias.
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/update", bytes.NewReader(bodies[name])))
			if rec.Code != http.StatusOK {
				b.Fatalf("%s: %d %s", name, rec.Code, rec.Body)
			}
			b.SetBytes(int64(len(bodies[name])))
			for b.Loop() {
				var req updateWire
				if _, err := srv.decode(rec, httptest.NewRequest("POST", "/v1/update", bytes.NewReader(bodies[name])), &req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
