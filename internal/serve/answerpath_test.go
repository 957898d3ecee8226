package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	blowfish "github.com/privacylab/blowfish"
	"github.com/privacylab/blowfish/internal/persist"
)

// TestNewRejectsInvalidBudget pins that an invalid tenant budget fails
// closed: New panics instead of serving every tenant with an unlimited
// ledger.
func TestNewRejectsInvalidBudget(t *testing.T) {
	for _, b := range []blowfish.Budget{
		{Epsilon: -1}, {Epsilon: math.NaN()}, {Epsilon: math.Inf(1)}, {Epsilon: 1, Delta: -1e-9},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New accepted invalid tenant budget %+v", b)
				}
			}()
			New(Config{TenantBudget: b})
		}()
	}
}

// TestCancelSweepSpendsOnlyForReplies cancels, or lets the deadline expire,
// at every point of the answer path between gate admission and the charge,
// for static and stream answers, with and without an Idempotency-Key. Every
// faulted request must fail and spend nothing, and at the end the tenant's
// ledger must equal exactly the ε of the 200s it received; a fresh daemon
// recovering the data directory must agree.
func TestCancelSweepSpendsOnlyForReplies(t *testing.T) {
	const (
		k   = 8
		eps = 0.25
	)
	dir := t.TempDir()
	cfg := durable(dir, nil)
	cfg.TenantBudget = blowfish.Budget{Epsilon: 100}
	s := New(cfg)
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	const tenant = "sweep"
	if rec := postPath(t, s, "/v1/update", updateBody(t, tenant, k, make([]float64, k), []int{2}, []float64{5})); rec.Code != http.StatusOK {
		t.Fatalf("opening the stream: %d %s", rec.Code, rec.Body)
	}

	var fault struct {
		point  string
		cancel context.CancelFunc // nil: wait for the request deadline instead
	}
	s.testHook = func(ctx context.Context, point string) {
		if point != fault.point {
			return
		}
		if fault.cancel != nil {
			fault.cancel()
		}
		<-ctx.Done()
	}
	send := func(stream bool, ikey string, timeoutMS int64, ctx context.Context) *httptest.ResponseRecorder {
		req := AnswerRequest{Tenant: tenant, Policy: PolicySpec{Kind: "line", K: k},
			Workload: WorkloadSpec{Kind: "histogram"}, Epsilon: eps, Stream: stream, TimeoutMS: timeoutMS}
		if !stream {
			req.X = make([]float64, k)
		}
		r := httptest.NewRequest("POST", "/v1/answer", bytes.NewReader(mustJSON(req))).WithContext(ctx)
		if ikey != "" {
			r.Header.Set("Idempotency-Key", ikey)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, r)
		return rec
	}
	acct := s.Accountant(tenant)
	delivered, keyed := 0, 0
	n := 0
	for _, stream := range []bool{false, true} {
		for _, withKey := range []bool{false, true} {
			for _, point := range []string{"admit", "plan", "compute", "charge"} {
				for _, how := range []string{"cancel", "deadline"} {
					name := fmt.Sprintf("stream=%v/keyed=%v/%s/%s", stream, withKey, point, how)
					n++
					ikey := ""
					if withKey {
						ikey = fmt.Sprintf("key-%d", n)
					}
					before := acct.ExportState()
					ctx, cancel := context.WithCancel(context.Background())
					fault.point, fault.cancel = point, nil
					var timeout int64 = 20
					if how == "cancel" {
						fault.cancel, timeout = cancel, 0
					}
					rec := send(stream, ikey, timeout, ctx)
					cancel()
					want := map[string]int{"cancel": http.StatusServiceUnavailable, "deadline": http.StatusGatewayTimeout}[how]
					if rec.Code != want {
						t.Fatalf("%s: status %d (%s), want %d", name, rec.Code, rec.Body, want)
					}
					if after := acct.ExportState(); after != before {
						t.Fatalf("%s: a %d spent budget: %+v -> %+v", name, rec.Code, before, after)
					}
					// The faulted key was never recorded: a retry executes
					// fresh and is charged exactly once.
					fault.point = ""
					rec = send(stream, ikey, 0, context.Background())
					if rec.Code != http.StatusOK || rec.Header().Get("Idempotent-Replay") != "" {
						t.Fatalf("%s: retry got %d (replay %q) %s", name, rec.Code, rec.Header().Get("Idempotent-Replay"), rec.Body)
					}
					delivered++
					if withKey {
						keyed++
					}
					var res AnswerResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if got := acct.ExportState(); res.Budget.Releases != got.Releases || res.Budget.SpentEpsilon != got.Spent.Epsilon {
						t.Fatalf("%s: reply carries ledger %+v, ledger is %+v", name, res.Budget, got)
					}
				}
			}
		}
	}
	if got := acct.ExportState(); math.Abs(got.Spent.Epsilon-eps*float64(delivered)) > 1e-9 || got.Releases != int64(delivered) {
		t.Fatalf("ledger %+v, want exactly the %d delivered releases at ε=%g", got, delivered, eps)
	}
	if st := s.Stats(); st.IdemRecorded != int64(keyed) || st.Answered != int64(delivered) {
		t.Fatalf("stats %+v: want %d recorded, %d answered", st, keyed, delivered)
	}
	// No Close: the recovered ledger comes from the WAL alone.
	r := New(cfg)
	if err := r.Recover(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, want := r.Accountant(tenant).ExportState(), acct.ExportState(); got != want {
		t.Fatalf("recovered ledger %+v != served ledger %+v", got, want)
	}
}

// TestParentRecordedAnswerReplaysVerbatim pins that idempotent responses
// recorded before the batcher was removed (their bodies carry
// "batched":1) replay byte-identical after recovery, at no extra spend.
// The fixture is one idem_answer WAL record, the reply the client got with
// it, and the request, all written by the earlier daemon.
func TestParentRecordedAnswerReplaysVerbatim(t *testing.T) {
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join("testdata", "idem_answer_parent", name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	record, body, request := bytes.TrimSpace(read("record.json")), read("body.json"), read("request.json")
	if !bytes.Contains(body, []byte(`"batched":1`)) {
		t.Fatalf("fixture body lost its batched field: %s", body)
	}
	var rec walRecord
	if err := json.Unmarshal(record, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Op != "idem_answer" || !bytes.Equal(rec.Body, body) {
		t.Fatalf("fixture record %s does not carry the fixture body", record)
	}

	dir := t.TempDir()
	store, _, err := persist.Open(dir, persist.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Append(record); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := durable(dir, nil)
	cfg.TenantBudget = rec.State.Budget
	cfg.IdemTTL = -1 // the record's timestamp is from when it was written
	s := New(cfg)
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := *rec.State
	if got := s.Accountant(rec.Tenant).ExportState(); got != want {
		t.Fatalf("recovered ledger %+v, want %+v", got, want)
	}
	for i := 0; i < 2; i++ {
		got := postKeyed(t, s, "/v1/answer", rec.IdemKey, request)
		if got.Code != http.StatusOK || got.Header().Get("Idempotent-Replay") != "true" {
			t.Fatalf("replay %d: %d (replay %q) %s", i, got.Code, got.Header().Get("Idempotent-Replay"), got.Body)
		}
		if !bytes.Equal(got.Body.Bytes(), body) {
			t.Fatalf("replay %d not byte-identical:\n got %s\nwant %s", i, got.Body, body)
		}
	}
	if got := s.Accountant(rec.Tenant).ExportState(); got != want {
		t.Fatalf("replays spent budget: %+v, want %+v", got, want)
	}
}
