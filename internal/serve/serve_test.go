package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	blowfish "github.com/privacylab/blowfish"
)

// answerBody builds the canonical test request: a line policy with a
// histogram workload, so noiseless answers equal the database exactly.
func answerBody(t *testing.T, tenant string, k int, eps float64, x []float64) []byte {
	t.Helper()
	raw, err := json.Marshal(AnswerRequest{
		Tenant:   tenant,
		Policy:   PolicySpec{Kind: "line", K: k},
		Workload: WorkloadSpec{Kind: "histogram"},
		Epsilon:  eps,
		X:        x,
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// post drives the handler directly (no TCP) and decodes the response.
func post(t *testing.T, s *Server, body []byte) (int, AnswerResponse, ErrorResponse) {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/answer", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var ok AnswerResponse
	var bad ErrorResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &ok); err != nil {
			t.Fatalf("decoding 200 body: %v", err)
		}
	} else if err := json.Unmarshal(rec.Body.Bytes(), &bad); err != nil {
		t.Fatalf("decoding %d body: %v", rec.Code, err)
	}
	return rec.Code, ok, bad
}

func TestHealthAndAnswerRoundTrip(t *testing.T) {
	s := New(Config{Seed: 1})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	// Unlimited tenant budget admits eps=0 (noiseless) releases, so the
	// round-trip is exact and assertable.
	x := []float64{3, 1, 4, 1}
	code, res, _ := post(t, s, answerBody(t, "alice", 4, 0, x))
	if code != http.StatusOK {
		t.Fatalf("answer: status %d", code)
	}
	if res.Algorithm != "blowfish(tree)" {
		t.Fatalf("algorithm %q", res.Algorithm)
	}
	for i := range x {
		if res.Answers[i] != x[i] {
			t.Fatalf("noiseless answers %v != db %v", res.Answers, x)
		}
	}
	if res.Budget.Releases != 1 || res.Budget.Limited {
		t.Fatalf("budget info %+v, want 1 unlimited release", res.Budget)
	}
	// Second identical request hits the plan cache.
	if code, _, _ := post(t, s, answerBody(t, "alice", 4, 0, x)); code != http.StatusOK {
		t.Fatalf("second answer: %d", code)
	}
	st := s.Stats()
	if st.PlanCacheHits < 1 || st.PlanCacheMisses != 1 {
		t.Fatalf("cache stats %+v, want 1 miss then hits", st)
	}
}

func TestBudgetExhaustionReturns429(t *testing.T) {
	s := New(Config{Seed: 1, TenantBudget: blowfish.Budget{Epsilon: 0.5}})
	x := make([]float64, 4)
	if code, res, _ := post(t, s, answerBody(t, "alice", 4, 0.3, x)); code != http.StatusOK {
		t.Fatalf("first release: %d", code)
	} else if !res.Budget.Limited || math.Abs(*res.Budget.RemainingEpsilon-0.2) > 1e-12 {
		t.Fatalf("budget after first release: %+v", res.Budget)
	}
	code, _, bad := post(t, s, answerBody(t, "alice", 4, 0.3, x))
	if code != http.StatusTooManyRequests || bad.Code != "budget_exhausted" {
		t.Fatalf("over-budget: status %d code %q", code, bad.Code)
	}
	if bad.Budget == nil || math.Abs(bad.Budget.SpentEpsilon-0.3) > 1e-12 {
		t.Fatalf("429 must carry the ledger, got %+v", bad.Budget)
	}
	// The rejected release spent nothing and the tenant still has ε=0.2:
	// graceful degradation, not a wedged tenant.
	if code, _, _ := post(t, s, answerBody(t, "alice", 4, 0.2, x)); code != http.StatusOK {
		t.Fatalf("release within remainder: %d", code)
	}
	// Other tenants are unaffected.
	if code, _, _ := post(t, s, answerBody(t, "bob", 4, 0.3, x)); code != http.StatusOK {
		t.Fatalf("independent tenant: %d", code)
	}
	if got := s.Stats().RejectedBudget; got != 1 {
		t.Fatalf("rejected_budget = %d, want 1", got)
	}
}

// TestConcurrentMultiTenantLoad is the serving acceptance test: 8 tenants,
// each firing concurrent requests from several goroutines, with budgets
// enforced independently per tenant at the admission boundary. Run under
// -race this also exercises the charge race at the budget edge: every
// request passes the pre-check while budget remains, computes, and only the
// charge after compute decides who is admitted.
func TestConcurrentMultiTenantLoad(t *testing.T) {
	const (
		tenants    = 8
		perTenant  = 12 // requests per tenant
		eps        = 0.25
		budgetEps  = 1.0 // admits exactly 4 of the 12
		k          = 32
		wantOK     = 4
		goroutines = 4 // concurrent streams per tenant
	)
	s := New(Config{Seed: 7, TenantBudget: blowfish.Budget{Epsilon: budgetEps}})
	x := make([]float64, k)
	for i := range x {
		x[i] = float64(i % 5)
	}
	var (
		mu        sync.Mutex
		okCount   = map[string]int{}
		rejCount  = map[string]int{}
		otherErrs []string
	)
	var wg sync.WaitGroup
	for ti := 0; ti < tenants; ti++ {
		tenant := fmt.Sprintf("tenant-%d", ti)
		body := answerBody(t, tenant, k, eps, x)
		per := perTenant / goroutines
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < per; r++ {
					req := httptest.NewRequest("POST", "/v1/answer", bytes.NewReader(body))
					rec := httptest.NewRecorder()
					s.ServeHTTP(rec, req)
					mu.Lock()
					switch rec.Code {
					case http.StatusOK:
						okCount[tenant]++
					case http.StatusTooManyRequests:
						rejCount[tenant]++
					default:
						otherErrs = append(otherErrs, fmt.Sprintf("%s: %d %s", tenant, rec.Code, rec.Body.String()))
					}
					mu.Unlock()
				}
			}()
		}
	}
	wg.Wait()
	if len(otherErrs) > 0 {
		t.Fatalf("unexpected responses: %v", otherErrs)
	}
	for ti := 0; ti < tenants; ti++ {
		tenant := fmt.Sprintf("tenant-%d", ti)
		if okCount[tenant] != wantOK {
			t.Errorf("%s: %d admitted, want exactly %d (budget %g / eps %g)",
				tenant, okCount[tenant], wantOK, budgetEps, eps)
		}
		if okCount[tenant]+rejCount[tenant] != perTenant {
			t.Errorf("%s: %d + %d responses, want %d (exactly one outcome per request)",
				tenant, okCount[tenant], rejCount[tenant], perTenant)
		}
		// The ledger agrees with the admission decisions bit-exactly.
		spent := s.Accountant(tenant).Spent()
		if math.Abs(spent.Epsilon-budgetEps) > 1e-9 {
			t.Errorf("%s: spent ε=%g, want %g", tenant, spent.Epsilon, budgetEps)
		}
	}
	st := s.Stats()
	if st.Answered != tenants*wantOK || st.RejectedBudget != tenants*(perTenant-wantOK) {
		t.Errorf("stats %+v, want %d answered / %d rejected", st, tenants*wantOK, tenants*(perTenant-wantOK))
	}
}

// TestErrorMapping pins the typed-error → HTTP status table.
func TestErrorMapping(t *testing.T) {
	s := New(Config{Seed: 1})
	k4 := make([]float64, 4)
	cases := []struct {
		name   string
		body   []byte
		status int
		code   string
	}{
		{"bad json", []byte("{nope"), http.StatusBadRequest, "bad_json"},
		{"unknown policy kind",
			mustJSON(AnswerRequest{Policy: PolicySpec{Kind: "mystery", K: 4},
				Workload: WorkloadSpec{Kind: "histogram"}, X: k4}),
			http.StatusBadRequest, "invalid_request"},
		{"unknown workload kind",
			mustJSON(AnswerRequest{Policy: PolicySpec{Kind: "line", K: 4},
				Workload: WorkloadSpec{Kind: "mystery"}, X: k4}),
			http.StatusBadRequest, "invalid_request"},
		{"bad estimator",
			mustJSON(AnswerRequest{Policy: PolicySpec{Kind: "line", K: 4},
				Workload: WorkloadSpec{Kind: "histogram"},
				Options:  OptionsSpec{Estimator: "psychic"}, X: k4}),
			http.StatusBadRequest, "invalid_request"},
		{"gaussian without delta",
			mustJSON(AnswerRequest{Policy: PolicySpec{Kind: "line", K: 4},
				Workload: WorkloadSpec{Kind: "histogram"},
				Options:  OptionsSpec{Estimator: "gaussian"}, X: k4}),
			http.StatusBadRequest, "invalid_request"},
		{"domain mismatch",
			mustJSON(AnswerRequest{Policy: PolicySpec{Kind: "line", K: 8},
				Workload: WorkloadSpec{Kind: "histogram"}, X: k4}),
			http.StatusBadRequest, "domain_mismatch"},
		{"range out of domain",
			mustJSON(AnswerRequest{Policy: PolicySpec{Kind: "line", K: 4},
				Workload: WorkloadSpec{Kind: "ranges", Ranges: [][2]int{{0, 9}}}, X: k4}),
			http.StatusBadRequest, "invalid_request"},
	}
	for _, tc := range cases {
		req := httptest.NewRequest("POST", "/v1/answer", bytes.NewReader(tc.body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.status, rec.Body.String())
			continue
		}
		var er ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
			t.Errorf("%s: undecodable error body: %v", tc.name, err)
			continue
		}
		if er.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, er.Code, tc.code)
		}
	}
	// Disconnected policies map to 422.
	body := mustJSON(AnswerRequest{
		Policy:   PolicySpec{Kind: "distance", Dims: []int{2, 2}, Theta: 1},
		Workload: WorkloadSpec{Kind: "histogram"},
		X:        k4,
	})
	req := httptest.NewRequest("POST", "/v1/answer", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	// A θ=1 distance policy over a 2×2 grid is connected, so this one
	// should serve; use a sensitive-attribute-like spec via the library to
	// confirm statusFor directly instead.
	if rec.Code != http.StatusOK {
		t.Errorf("connected distance policy: %d (%s)", rec.Code, rec.Body.String())
	}
	if status, code := statusFor(fmt.Errorf("wrapped: %w", blowfish.ErrDisconnectedPolicy)); status != http.StatusUnprocessableEntity || code != "disconnected_policy" {
		t.Errorf("disconnected mapping: %d %q", status, code)
	}
	if status, code := statusFor(fmt.Errorf("wrapped: %w", blowfish.ErrBudgetExhausted)); status != http.StatusTooManyRequests || code != "budget_exhausted" {
		t.Errorf("budget mapping: %d %q", status, code)
	}
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return raw
}

// TestPlanCacheLRUEviction fills a 2-entry cache with 3 plans.
func TestPlanCacheLRUEviction(t *testing.T) {
	s := New(Config{Seed: 1, PlanCacheSize: 2})
	for _, k := range []int{4, 8, 16} {
		x := make([]float64, k)
		if code, _, _ := post(t, s, answerBody(t, "a", k, 0, x)); code != http.StatusOK {
			t.Fatalf("k=%d: %d", k, code)
		}
	}
	st := s.Stats()
	if st.PlanEvictions < 1 {
		t.Fatalf("stats %+v: expected at least one eviction from a 2-entry cache", st)
	}
	if st.PlanCacheSize > 2 {
		t.Fatalf("cache size %d exceeds cap 2", st.PlanCacheSize)
	}
	// Re-requesting the freshest plan is still a hit.
	hits := st.PlanCacheHits
	if code, _, _ := post(t, s, answerBody(t, "a", 16, 0, make([]float64, 16))); code != http.StatusOK {
		t.Fatal("rerequest failed")
	}
	if got := s.Stats().PlanCacheHits; got != hits+1 {
		t.Fatalf("hits %d, want %d", got, hits+1)
	}
}

// TestPanicRecovery: a panicking handler degrades to a 500 response and the
// server keeps serving afterwards.
func TestPanicRecovery(t *testing.T) {
	s := New(Config{Seed: 1})
	s.mux.HandleFunc("GET /v1/explode", func(http.ResponseWriter, *http.Request) {
		panic("boom")
	})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/explode", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panic status %d", rec.Code)
	}
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Code != "panic" {
		t.Fatalf("panic body %q (err %v)", rec.Body.String(), err)
	}
	if s.Stats().Panics != 1 {
		t.Fatalf("panics stat %d", s.Stats().Panics)
	}
	// Still serving.
	if code, _, _ := post(t, s, answerBody(t, "a", 4, 0, make([]float64, 4))); code != http.StatusOK {
		t.Fatalf("post-panic answer: %d", code)
	}
}

// TestDeterministicSeed: a fixed daemon seed and a single request stream
// make noised answers reproducible across servers.
func TestDeterministicSeed(t *testing.T) {
	run := func() []float64 {
		s := New(Config{Seed: 42})
		_, res, _ := post(t, s, answerBody(t, "a", 8, 1.0, make([]float64, 8)))
		return res.Answers
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
}
