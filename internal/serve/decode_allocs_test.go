//go:build !race

// The race detector's sync.Pool drops a share of what is put back at
// random, so the decoder pool, and the count pinned here, hold only in
// builds without it.

package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestDecodeAllocs pins the allocations of an alias-hit decode of the
// static-mem line-ranges body: the http.MaxBytesReader, the tenant string
// and x's backing array. The body buffer and scratch come from the decoder
// pool, and the spec bytes go to the plan alias as slices of the body, so
// a per-request spec copy or alias key would show here.
func TestDecodeAllocs(t *testing.T) {
	body := staticMemBodies(1)["line-ranges"]
	srv := New(Config{Seed: 1})
	if rec := serveAnswer(srv, body); rec.Code != http.StatusOK {
		t.Fatalf("priming request: %d %s", rec.Code, rec.Body)
	}
	rd := bytes.NewReader(body)
	hr := httptest.NewRequest("POST", "/v1/answer", rd)
	hr.Body = io.NopCloser(rd)
	rec := httptest.NewRecorder()
	var req answerWire
	allocs := testing.AllocsPerRun(100, func() {
		rd.Reset(body)
		req = answerWire{}
		if _, err := srv.decode(rec, hr, &req); err != nil {
			t.Fatal(err)
		}
	})
	if st := srv.Stats(); st.PlanAliasHits < 100 || len(req.X) != 1024 {
		t.Fatalf("stats %+v, len(x) %d: want alias hits and a 1024-count x", st, len(req.X))
	}
	const want = 3
	if allocs != want {
		t.Fatalf("alias-hit decode: %v allocations per request, want %d", allocs, want)
	}
}
