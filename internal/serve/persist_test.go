package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	blowfish "github.com/privacylab/blowfish"
	"github.com/privacylab/blowfish/internal/faultinject"
)

// durable returns a Config for a crash-test daemon: manual snapshots only
// (no timing nondeterminism) and no real fsyncs (sweeps run hundreds of
// restarts).
func durable(dir string, inj *faultinject.Injector) Config {
	return Config{Seed: 1, DataDir: dir, SnapshotInterval: -1, Injector: inj, WALNoSync: true}
}

// do drives one request through the handler and returns the status code and
// decoded bodies (whichever applies).
func do(t *testing.T, s *Server, method, path string, body []byte) (int, []byte) {
	t.Helper()
	var r *http.Request
	if body != nil {
		r = httptest.NewRequest(method, path, bytes.NewReader(body))
	} else {
		r = httptest.NewRequest(method, path, nil)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, r)
	return rec.Code, rec.Body.Bytes()
}

func errCode(t *testing.T, body []byte) string {
	t.Helper()
	var e ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("decoding error body %q: %v", body, err)
	}
	return e.Code
}

func TestReadyzGatesUntilRecover(t *testing.T) {
	s := New(durable(t.TempDir(), nil))
	if code, body := do(t, s, "GET", "/readyz", nil); code != http.StatusServiceUnavailable || errCode(t, body) != "not_ready" {
		t.Fatalf("readyz before recover: %d %s", code, body)
	}
	// Liveness stays green while readiness is red: orchestrators must not
	// kill a daemon that is busy replaying.
	if code, _ := do(t, s, "GET", "/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz before recover should stay 200")
	}
	if code, body := do(t, s, "POST", "/v1/answer", answerBody(t, "t", 4, 0, make([]float64, 4))); code != http.StatusServiceUnavailable || errCode(t, body) != "not_ready" {
		t.Fatalf("answer before recover: %d %s", code, body)
	}
	if code, body := do(t, s, "POST", "/v1/update", updateBody(t, "t", 4, nil, nil, nil)); code != http.StatusServiceUnavailable || errCode(t, body) != "not_ready" {
		t.Fatalf("update before recover: %d %s", code, body)
	}
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if code, _ := do(t, s, "GET", "/readyz", nil); code != http.StatusOK {
		t.Fatalf("readyz after recover: %d", code)
	}
	if code, _ := do(t, s, "POST", "/v1/answer", answerBody(t, "t", 4, 0, make([]float64, 4))); code != http.StatusOK {
		t.Fatalf("answer after recover: %d", code)
	}
}

// TestDurableRestartRoundTrip is the clean-shutdown path: charges and
// stream state survive Close + Recover bitwise, and a clean shutdown's
// final snapshot retires the WAL (nothing to replay).
func TestDurableRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := New(durable(dir, nil))
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	base := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	if code, body := do(t, s, "POST", "/v1/update", updateBody(t, "t", 8, base, nil, nil)); code != http.StatusOK {
		t.Fatalf("open stream: %d %s", code, body)
	}
	if code, _ := do(t, s, "POST", "/v1/update", updateBody(t, "t", 8, nil, []int{0, 3}, []float64{2, -1})); code != http.StatusOK {
		t.Fatal("delta")
	}
	if code, _ := do(t, s, "POST", "/v1/answer", answerBody(t, "t", 8, 0.25, make([]float64, 8))); code != http.StatusOK {
		t.Fatal("static answer")
	}
	if code, _ := do(t, s, "POST", "/v1/answer", streamAnswerBody(t, "t", 8, 0.5)); code != http.StatusOK {
		t.Fatal("stream answer")
	}
	want := s.Accountant("t").ExportState()
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	r := New(durable(dir, nil))
	if err := r.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer r.Close()
	if got := r.Stats().WALReplayed; got != 0 {
		t.Fatalf("clean shutdown left %d WAL records to replay; final snapshot should retire them", got)
	}
	if got := r.Accountant("t").ExportState(); got != want {
		t.Fatalf("recovered ledger %+v != %+v", got, want)
	}
	// Noiseless stream answer equals the maintained database exactly.
	code, body := do(t, r, "POST", "/v1/answer", streamAnswerBody(t, "t", 8, 0))
	if code != http.StatusOK {
		t.Fatalf("recovered stream answer: %d %s", code, body)
	}
	var res AnswerResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	wantDB := []float64{3, 2, 3, 3, 5, 6, 7, 8}
	for i := range wantDB {
		if math.Abs(res.Answers[i]-wantDB[i]) > 1e-9 {
			t.Fatalf("recovered stream answers %v, want %v", res.Answers, wantDB)
		}
	}
}

// TestKillRestartReplaysWAL is the hard-kill path: no Close, no final
// snapshot — recovery must reconstruct every acknowledged mutation from
// the WAL alone.
func TestKillRestartReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	s := New(durable(dir, nil))
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if code, _ := do(t, s, "POST", "/v1/update", updateBody(t, "t", 8, nil, []int{1, 5}, []float64{2, 7})); code != http.StatusOK {
		t.Fatal("open+delta")
	}
	if code, _ := do(t, s, "POST", "/v1/answer", answerBody(t, "t", 8, 0.25, make([]float64, 8))); code != http.StatusOK {
		t.Fatal("charge")
	}
	want := s.Accountant("t").ExportState()
	// No Close: the daemon is considered kill -9'd here.

	r := New(durable(dir, nil))
	if err := r.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer r.Close()
	if got := r.Stats().WALReplayed; got == 0 {
		t.Fatal("hard kill must leave WAL records to replay")
	}
	if got := r.Accountant("t").ExportState(); got != want {
		t.Fatalf("recovered ledger %+v != %+v", got, want)
	}
	code, body := do(t, r, "POST", "/v1/answer", streamAnswerBody(t, "t", 8, 0))
	if code != http.StatusOK {
		t.Fatalf("recovered stream answer: %d %s", code, body)
	}
	var res AnswerResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	wantDB := []float64{0, 2, 0, 0, 0, 7, 0, 0}
	for i := range wantDB {
		if math.Abs(res.Answers[i]-wantDB[i]) > 1e-9 {
			t.Fatalf("recovered stream answers %v, want %v", res.Answers, wantDB)
		}
	}
}

// TestDiskFailureDegradesReadOnly: after a WAL write error the daemon keeps
// answering (budget enforced in memory) but refuses updates, and /readyz
// reports the degradation.
func TestDiskFailureDegradesReadOnly(t *testing.T) {
	inj := faultinject.New()
	s := New(durable(t.TempDir(), inj))
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if code, _ := do(t, s, "POST", "/v1/update", updateBody(t, "t", 8, nil, []int{1}, []float64{2})); code != http.StatusOK {
		t.Fatal("healthy update")
	}
	// Fail the next WAL append (the coming update's "apply" record).
	inj.Arm(faultinject.Failure{Point: "wal.append", Hit: 3, Kind: faultinject.Err})
	code, body := do(t, s, "POST", "/v1/update", updateBody(t, "t", 8, nil, []int{2}, []float64{5}))
	if code != http.StatusServiceUnavailable || errCode(t, body) != "read_only" {
		t.Fatalf("update on dead disk: %d %s", code, body)
	}
	if code, body := do(t, s, "GET", "/readyz", nil); code != http.StatusServiceUnavailable || errCode(t, body) != "read_only" {
		t.Fatalf("readyz in read-only: %d %s", code, body)
	}
	if !s.Stats().ReadOnly {
		t.Fatal("stats must report read_only")
	}
	// Answers keep serving — both static and stream — with in-memory
	// accounting; the failed delta was never applied.
	if code, _ := do(t, s, "POST", "/v1/answer", answerBody(t, "t", 8, 0.25, make([]float64, 8))); code != http.StatusOK {
		t.Fatal("static answer in read-only")
	}
	code, body = do(t, s, "POST", "/v1/answer", streamAnswerBody(t, "t", 8, 0))
	if code != http.StatusOK {
		t.Fatalf("stream answer in read-only: %d %s", code, body)
	}
	var res AnswerResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Answers[1] != 2 || res.Answers[2] != 0 {
		t.Fatalf("rejected delta must not be applied: %v", res.Answers)
	}
	if spent := s.Accountant("t").Spent().Epsilon; math.Abs(spent-0.25) > 1e-12 {
		t.Fatalf("in-memory accounting must keep enforcing, spent ε=%g", spent)
	}
}

// --- crash-sweep recovery property suite ---

// cstep is one step of the sweep workload.
type cstep struct {
	kind  string // "open", "delta", "static", "stream", "snapshot"
	base  []float64
	cells []int
	vals  []float64
	eps   float64
}

const sweepK = 8

var sweepSteps = []cstep{
	{kind: "open", base: []float64{1, 2, 3, 4, 5, 6, 7, 8}},
	{kind: "static", eps: 0.25},
	{kind: "delta", cells: []int{0, 3}, vals: []float64{2, -1}},
	{kind: "stream", eps: 0.5},
	{kind: "snapshot"},
	{kind: "delta", cells: []int{7, 1}, vals: []float64{4, 0.5}},
	{kind: "static", eps: 0.25},
	{kind: "delta", cells: []int{2}, vals: []float64{-3}},
}

// driveStep executes one workload step, returning an HTTP-ish status (200
// for a successful Snapshot call).
func driveStep(t *testing.T, s *Server, st cstep) int {
	t.Helper()
	switch st.kind {
	case "open":
		code, _ := do(t, s, "POST", "/v1/update", updateBody(t, "t", sweepK, st.base, nil, nil))
		return code
	case "delta":
		code, _ := do(t, s, "POST", "/v1/update", updateBody(t, "t", sweepK, nil, st.cells, st.vals))
		return code
	case "static":
		code, _ := do(t, s, "POST", "/v1/answer", answerBody(t, "t", sweepK, st.eps, make([]float64, sweepK)))
		return code
	case "stream":
		code, _ := do(t, s, "POST", "/v1/answer", streamAnswerBody(t, "t", sweepK, st.eps))
		return code
	case "snapshot":
		if err := s.Snapshot(); err != nil {
			return http.StatusServiceUnavailable
		}
		return http.StatusOK
	default:
		t.Fatalf("unknown step kind %q", st.kind)
		return 0
	}
}

// applyStepDB folds one step's stream effect into db, returning the new db
// (nil db = stream not open yet).
func applyStepDB(db []float64, st cstep) []float64 {
	switch st.kind {
	case "open":
		return append([]float64(nil), st.base...)
	case "delta":
		if db == nil {
			return nil
		}
		out := append([]float64(nil), db...)
		for i, c := range st.cells {
			out[c] += st.vals[i]
		}
		return out
	default:
		return db
	}
}

// TestCrashSweepRecovery is the recovery property suite: record the full
// injection-point trace of the workload, then for a deterministic sample of
// coordinates re-run it with a crash armed exactly there, restart from the
// surviving directory, and assert the crash-safety invariants:
//
//   - the recovered ledger is bitwise identical to the state after the last
//     acknowledged charge, or that plus exactly the one in-flight charge —
//     never more (double grant) and never less (lost acknowledgment);
//   - the recovered stream matches the acknowledged delta prefix (or prefix
//     plus the in-flight delta) within 1e-9;
//   - recovery itself always succeeds, whatever the crash left on disk.
func TestCrashSweepRecovery(t *testing.T) {
	// Recording run: collect the trace of every (point, hit) pass.
	rec := faultinject.New()
	rec.StartRecording()
	s := New(durable(t.TempDir(), rec))
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	for i, st := range sweepSteps {
		if code := driveStep(t, s, st); code != http.StatusOK {
			t.Fatalf("recording step %d (%s): status %d", i, st.kind, code)
		}
	}
	s.Close()
	trace := rec.Trace()
	if len(trace) < len(sweepSteps) {
		t.Fatalf("suspiciously short trace (%d points)", len(trace))
	}
	coords := faultinject.SampleTrace(trace, 1234, 64)
	t.Logf("sweeping %d of %d crash coordinates", len(coords), len(trace))

	for _, c := range coords {
		c := c
		t.Run(c.Point+"/"+string(rune('0'+c.Hit%10)), func(t *testing.T) {
			inj := faultinject.New()
			inj.Arm(faultinject.Failure{Point: c.Point, Hit: c.Hit, Kind: faultinject.Crash})
			dir := t.TempDir()
			victim := New(durable(dir, inj))
			recErr := victim.Recover()
			if recErr != nil && !inj.Crashed() {
				t.Fatalf("recover failed without a crash: %v", recErr)
			}

			// Drive until the crash fires; everything acknowledged before it
			// is the durability obligation.
			crashStep := -1
			var ackedLedger blowfish.AccountantState
			var ackedDB []float64
			if recErr == nil {
				fresh, _ := blowfish.NewAccountant(victim.cfg.TenantBudget)
				ackedLedger = fresh.ExportState()
				for i, st := range sweepSteps {
					if inj.Crashed() {
						crashStep = i
						break
					}
					code := driveStep(t, victim, st)
					if inj.Crashed() {
						crashStep = i
						break
					}
					if code != http.StatusOK {
						t.Fatalf("step %d (%s) failed (%d) without a crash", i, st.kind, code)
					}
					ackedLedger = victim.Accountant("t").ExportState()
					ackedDB = applyStepDB(ackedDB, st)
				}
				if crashStep < 0 && !inj.Crashed() {
					// The sampled coordinate lives in Close's final snapshot
					// path; trigger it.
					crashStep = len(sweepSteps)
					victim.Close()
					if !inj.Crashed() {
						t.Fatalf("coordinate %s hit %d never fired", c.Point, c.Hit)
					}
				}
			}
			// The victim is dead from here: no Close, no final snapshot.

			// Allowed post-recovery ledgers: last acked, or last acked plus
			// the in-flight charge (read straight from the victim, whose
			// read-only fallback applied it in memory when the disk died
			// mid-charge).
			allowedLedgers := []blowfish.AccountantState{ackedLedger}
			if recErr == nil {
				if vs := victim.Accountant("t").ExportState(); vs != ackedLedger {
					allowedLedgers = append(allowedLedgers, vs)
				}
			}
			allowedDBs := [][]float64{ackedDB}
			if crashStep >= 0 && crashStep < len(sweepSteps) {
				if inflight := applyStepDB(ackedDB, sweepSteps[crashStep]); inflight != nil {
					allowedDBs = append(allowedDBs, inflight)
				}
			}

			restarted := New(durable(dir, nil))
			if err := restarted.Recover(); err != nil {
				t.Fatalf("recovery after crash at %s hit %d: %v", c.Point, c.Hit, err)
			}
			defer restarted.Close()
			if code, _ := do(t, restarted, "GET", "/readyz", nil); code != http.StatusOK {
				t.Fatalf("restarted daemon not ready")
			}

			got := restarted.Accountant("t").ExportState()
			ok := false
			for _, want := range allowedLedgers {
				if got == want {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("crash at %s hit %d: recovered ledger %+v, allowed %+v", c.Point, c.Hit, got, allowedLedgers)
			}

			code, body := do(t, restarted, "POST", "/v1/answer", streamAnswerBody(t, "t", sweepK, 0))
			if code == http.StatusNotFound {
				// Only legal if no open was ever acknowledged.
				if ackedDB != nil {
					t.Fatalf("crash at %s hit %d: acknowledged stream lost", c.Point, c.Hit)
				}
				return
			}
			if code != http.StatusOK {
				t.Fatalf("recovered stream answer: %d %s", code, body)
			}
			var res AnswerResponse
			if err := json.Unmarshal(body, &res); err != nil {
				t.Fatal(err)
			}
			dbOK := false
			for _, want := range allowedDBs {
				if want == nil || len(want) != len(res.Answers) {
					continue
				}
				match := true
				for i := range want {
					if math.Abs(res.Answers[i]-want[i]) > 1e-9 {
						match = false
						break
					}
				}
				if match {
					dbOK = true
					break
				}
			}
			if !dbOK {
				t.Fatalf("crash at %s hit %d: recovered stream answers %v, allowed %v", c.Point, c.Hit, res.Answers, allowedDBs)
			}
		})
	}
}

// TestNULTenantRejected pins that a tenant name containing a NUL byte is
// rejected on both request endpoints: stream and dedupe keys join tenant
// and key with NUL, so such a tenant would make the snapshot unparseable
// and stop the durable daemon from restarting.
func TestNULTenantRejected(t *testing.T) {
	dir := t.TempDir()
	s := New(durable(dir, nil))
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	const tenant = "a\x00b"
	for _, c := range []struct{ path, ikey string }{{"/v1/update", ""}, {"/v1/update", "k"}, {"/v1/answer", ""}, {"/v1/answer", "k"}} {
		body := updateBody(t, tenant, 4, []float64{1, 2, 3, 4}, nil, nil)
		if c.path == "/v1/answer" {
			body = answerBody(t, tenant, 4, 0.1, make([]float64, 4))
		}
		rec := postKeyed(t, s, c.path, c.ikey, body)
		if rec.Code != http.StatusBadRequest || errCode(t, rec.Body.Bytes()) != "invalid_request" {
			t.Fatalf("%s (key %q) with a NUL tenant: %d %s", c.path, c.ikey, rec.Code, rec.Body)
		}
	}
	if code, body := do(t, s, "POST", "/v1/update", updateBody(t, "ok", 4, []float64{1, 2, 3, 4}, nil, nil)); code != http.StatusOK {
		t.Fatalf("update: %d %s", code, body)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := New(durable(dir, nil))
	if err := r.Recover(); err != nil {
		t.Fatalf("restart after NUL-tenant requests: %v", err)
	}
	defer r.Close()
	if got := r.Stats().Streams; got != 1 {
		t.Fatalf("recovered %d streams, want 1", got)
	}
}
