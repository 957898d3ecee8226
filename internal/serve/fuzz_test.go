package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
)

// FuzzAnswerWire throws arbitrary bytes at the daemon's JSON decoding and
// spec-construction path. The contract under fuzz: malformed requests come
// back as structured 4xx errors and nothing ever panics — the recover
// barrier turning a panic into a 500 counts as a failure here, not a save.
//
// It is also differential: encoding/json decoding into AnswerRequest, then
// planKey, is the oracle for the request path's decode stage (envelope,
// float scanner, plan alias). Both must accept or reject alike, a reject
// must come back as 400 bad_json, and an accepted body must resolve to the
// same canonical key with bitwise-equal floats (nil and empty kept apart).
func FuzzAnswerWire(f *testing.F) {
	f.Add([]byte(`{"policy":{"kind":"line","k":8},"workload":{"kind":"histogram"},"epsilon":0.5,"x":[0,0,0,0,0,0,0,0]}`), "")
	f.Add([]byte(`{"policy":{"kind":"grid","k":4},"workload":{"kind":"rects","rects":[{"lo":[0,0],"hi":[1,1]}]},"x":[]}`), "")
	f.Add([]byte(`{"policy":{"kind":"distance","dims":[3,3],"theta":2},"workload":{"kind":"histogram"}}`), "")
	f.Add([]byte(`{"policy":{"kind":"line","k":-1}}`), "")
	f.Add([]byte(`{"policy":{"kind":"line","k":4},"workload":{"kind":"ranges","ranges":[[2,99]]}}`), "")
	f.Add([]byte(`{"options":{"estimator":"psychic"}}`), "")
	f.Add([]byte("{\"tenant\":\"\\u0000\",\"stream\":true}"), "")
	f.Add([]byte(`{nope`), "")
	f.Add([]byte(`[]`), "")
	f.Add([]byte(``), "")
	// Idempotency and deadline surface: keyed requests (fresh, replayed,
	// oversized key) and timeout_ms values (tiny, negative, absurd).
	f.Add([]byte(`{"policy":{"kind":"line","k":4},"workload":{"kind":"histogram"},"epsilon":0.5,"x":[0,0,0,0]}`), "retry-1")
	f.Add([]byte(`{"policy":{"kind":"line","k":4},"workload":{"kind":"histogram"},"x":[0,0,0,0],"timeout_ms":1}`), "retry-1")
	f.Add([]byte(`{"policy":{"kind":"line","k":4},"workload":{"kind":"histogram"},"x":[0,0,0,0],"timeout_ms":-7}`), "k")
	f.Add([]byte(`{"timeout_ms":9223372036854775807}`), strings.Repeat("K", 300))
	f.Add([]byte(`{"stream":true,"timeout_ms":5}`), "\x00")
	// encoding/json behaviours the decode stage keeps: repeated spec keys
	// merge in order; "x":null resets an earlier x; [] stays non-nil (a 400
	// with stream); null elements decode to 0, or keep the value a repeated
	// x left in the reused backing array; out-of-range and non-number
	// elements reject; keys match case-insensitively; a spec of the wrong
	// JSON type rejects; whitespace and trailing bytes after the body.
	f.Add([]byte(`{"policy":{"kind":"line"},"workload":{"kind":"histogram"},"policy":{"k":4},"options":{},"options":{"estimator":"laplace"},"x":[1,2,3,4]}`), "")
	f.Add([]byte(`{"policy":{"kind":"line","k":4},"workload":{"kind":"ranges"},"workload":{"ranges":[[0,1],[2,3]]},"workload":null,"x":[0,1,0,1]}`), "")
	f.Add([]byte(`{"policy":{"kind":"line","k":4},"workload":{"kind":"histogram"},"x":[1,2,3,4],"x":null,"stream":true}`), "")
	f.Add([]byte(`{"policy":{"kind":"line","k":4},"workload":{"kind":"histogram"},"stream":true,"x":[]}`), "")
	f.Add([]byte(`{"policy":{"kind":"line","k":4},"workload":{"kind":"histogram"},"x":[null,1,null,2]}`), "")
	f.Add([]byte(`{"policy":{"kind":"line","k":4},"workload":{"kind":"histogram"},"x":[1,2,3,4,5],"x":[9],"x":[null,null,null,null]}`), "")
	f.Add([]byte(`{"policy":{"kind":"line","k":4},"workload":{"kind":"histogram"},"x":[-0,1e-400,1.5E+2,-3]}`), "")
	f.Add([]byte(`{"policy":{"kind":"line","k":4},"workload":{"kind":"histogram"},"x":[123456789012345,-999999999999999,1234567890123456,9007199254740993]}`), "")
	f.Add([]byte(`{"policy":{"kind":"line","k":2},"workload":{"kind":"histogram"},"x":[1e400,0]}`), "")
	f.Add([]byte(`{"policy":{"kind":"line","k":2},"workload":{"kind":"histogram"},"x":[1,"2"]}`), "")
	f.Add([]byte(`{"x":[true,[1],{}]}`), "")
	f.Add([]byte(`{"x":"1"}`), "")
	f.Add([]byte(`{"x":{"a":1}}`), "")
	f.Add([]byte(`{"POLICY":{"KIND":"line","K":4},"Workload":{"kind":"histogram"},"X":[1,2,3,4],"Epsilon":0}`), "")
	f.Add([]byte(`{"policy":5,"workload":{"kind":"histogram"},"x":[1]}`), "")
	f.Add([]byte(`{"policy":{"kind":"line"},"policy":"line","x":[1]}`), "")
	f.Add([]byte(` { "policy" : { "k" : 4 , "kind" : "line" } , "workload" : {"kind":"histogram"} , "x" : [ 1 , 2 ,3,4 ] } trailing`), "")
	// Edges of the hand-written decode pass: escaped and Unicode-folded keys
	// (U+212A KELVIN SIGN folds to k), escaped and invalid-UTF-8 strings,
	// number grammar, the exact-integer path (-0, 15 and 16 digits), the
	// nesting limit, scalars of the wrong type, null and repeated scalars,
	// and a valid body cut short.
	f.Add([]byte(`{"ten\u0061nt":"t","policy":{"kind":"line","k":4},"wor\u212Aload":{"kind":"histogram"},"\u0078":[1,2,3,4],"epsilon":0}`), "")
	f.Add([]byte(`{"tenant":"t\u00e9\n\"\ud800","policy":{"kind":"line","k":2},"workload":{"kind":"histogram"},"x":[0,0]}`), "")
	f.Add([]byte("{\"tenant\":\"caf\xe9\xff\",\"policy\":{\"kind\":\"line\",\"k\":2},\"workload\":{\"kind\":\"histogram\"},\"x\":[0,0]}"), "")
	for _, tok := range []string{"01", "-", "1.", ".5", "+1", "1e", "1e+", "0x1", "Infinity", "1_0"} {
		f.Add([]byte(`{"policy":{"kind":"line","k":2},"workload":{"kind":"histogram"},"x":[`+tok+`,0]}`), "")
	}
	f.Add([]byte(`{"policy":{"kind":"line","k":4},"workload":{"kind":"histogram"},"x":[-0,0,-0.0,-0e0],"epsilon":-0}`), "")
	f.Add([]byte(`{"policy":{"kind":"line","k":4},"workload":{"kind":"histogram"},"x":[999999999999999,-999999999999999,1000000000000000,-9999999999999999]}`), "")
	f.Add([]byte(`{"policy":{"kind":"line","k":2},"workload":{"kind":"histogram"},"x":[100000000000000000000,12345678901234567890123,0]}`), "")
	f.Add([]byte(`{"pad":`+strings.Repeat("[", maxDepth-1)+strings.Repeat("]", maxDepth-1)+`,"policy":{"kind":"line","k":2},"workload":{"kind":"histogram"},"x":[0,0]}`), "")
	f.Add([]byte(`{"pad":`+strings.Repeat("[", maxDepth)+strings.Repeat("]", maxDepth)+`,"policy":{"kind":"line","k":2},"workload":{"kind":"histogram"},"x":[0,0]}`), "")
	f.Add([]byte(`{"pad":{"a":[{"b":`+strings.Repeat(`{"c":[`, maxDepth/2)+`]}`+strings.Repeat(`]}`, maxDepth/2)+`]}}`), "")
	for _, field := range []string{`"epsilon":"0.5"`, `"timeout_ms":1.5`, `"timeout_ms":1e3`, `"timeout_ms":-0`, `"timeout_ms":9223372036854775808`, `"stream":1`, `"stream":"true"`, `"tenant":5`, `"tenant":["t"]`, `"epsilon":1e400`, `"x":[[1]]`} {
		f.Add([]byte(`{"policy":{"kind":"line","k":2},"workload":{"kind":"histogram"},`+field+`,"x":[0,0]}`), "")
	}
	f.Add([]byte(`{"tenant":"a","tenant":null,"epsilon":0.5,"epsilon":null,"stream":true,"stream":null,"timeout_ms":2000,"timeout_ms":null,"policy":{"kind":"line","k":2},"workload":{"kind":"histogram"},"x":[0,0]}`), "")
	f.Add([]byte(`{"tenant":"a","tenant":"b","epsilon":0.5,"epsilon":0.25,"stream":true,"stream":false,"timeout_ms":1500,"timeout_ms":3000,"policy":{"kind":"line","k":2},"workload":{"kind":"histogram"},"x":[0,0]}`), "")
	f.Add([]byte(`null`), "")
	f.Add([]byte(` nullx`), "")
	f.Add([]byte(`{}[`), "")
	f.Add([]byte(`{"policy":{"kind":"line","k":2},}`), "")
	f.Add([]byte(`{"policy":{"kind":"line","k":2},"x":[0,0,]}`), "")
	f.Add([]byte("{\"tenant\":\"a\tb\"}"), "")
	f.Add([]byte(`{"pad":"\q"}`), "")
	f.Add([]byte(`{"pad":"\u12xy"}`), "")
	f.Add([]byte(`{"pad":"\u123`), "")
	f.Add([]byte(`{"pad":["\u00e9\/\b\f\n\r\t\\",true,false,null,{}],"policy":{"kind":"line","k":2},"workload":{"kind":"histogram"},"x":[0,0]}`), "")
	valid := `{"tenant":"t","policy":{"kind":"line","k":4},"workload":{"kind":"ranges","ranges":[[0,1],[2,3]]},"epsilon":0.5,"x":[1,-2.5e1,null,4]}`
	for _, n := range []int{1, 2, 11, 23, 40, 70, 100, len(valid) - 8, len(valid) - 1} {
		f.Add([]byte(valid[:n]), "")
	}

	srv := New(Config{Seed: 1})
	f.Fuzz(func(t *testing.T, data []byte, ikey string) {
		var req AnswerRequest
		if err := json.Unmarshal(data, &req); err == nil {
			skipHeavy(t, req.Policy, req.Workload, req.Options)
			if len(req.X) > 8192 || len(req.Workload.Ranges) > 128 || len(req.Workload.Rects) > 64 {
				t.Skip("payload too large for fuzzing")
			}
			if req.TimeoutMS > 0 && req.TimeoutMS < 1000 {
				// A deadline that can expire mid-request turns valid inputs
				// into timing-dependent 504s; the fuzz target is the decode
				// and validation surface, which the other seeds cover.
				t.Skip("racy deadline")
			}
		}
		var want AnswerRequest
		wantErr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
		var got answerWire
		ref, gotErr := srv.decode(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/answer", bytes.NewReader(data)), &got)
		wantHash := sameDecode(t, data, wantErr, gotErr, planKeySpec{Policy: want.Policy, Workload: want.Workload, Options: want.Options}, ref)
		if wantErr == nil {
			if got.Tenant != want.Tenant || got.TimeoutMS != want.TimeoutMS || got.Stream != want.Stream ||
				math.Float64bits(got.Epsilon) != math.Float64bits(want.Epsilon) {
				t.Fatalf("envelope differs on %q: got %+v, want %+v", data, got, want)
			}
			sameFloats(t, "x", data, got.X, want.X)
		}
		// A replay returns the bytes recorded for an earlier body under the
		// same Idempotency-Key, plan_key included.
		rec := serveFuzz(t, srv, "/v1/answer", data, ikey, wantErr)
		if rec.Code == http.StatusOK && rec.Header().Get("Idempotent-Replay") == "" {
			var resp AnswerResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.PlanKey != wantHash {
				t.Fatalf("200 on %q carries plan_key %q, want %q (err %v)", data, resp.PlanKey, wantHash, err)
			}
		}
	})
}

// skipHeavy holds the resource caps on a well-formed spec that all three
// fuzzers share: the targets are the decoding and validation surfaces, not
// strategy-compile throughput. Each fuzzer reads the caps off json.Unmarshal
// and adds its own payload caps.
func skipHeavy(t *testing.T, ps PolicySpec, ws WorkloadSpec, os OptionsSpec) {
	t.Helper()
	if ps.K > 64 || ps.Theta > 64 || os.Theta > 64 {
		t.Skip("domain too large for fuzzing")
	}
	vol := 1
	for _, d := range ps.Dims {
		if d > 64 {
			t.Skip("dimension too large for fuzzing")
		}
		if d > 0 {
			vol *= d
		}
	}
	if len(ps.Dims) > 4 || vol > 4096 {
		t.Skip("volume too large for fuzzing")
	}
	if ws.Kind == "allranges" && domainOf(ps, vol) > 512 {
		t.Skip("allranges workload too large for fuzzing")
	}
}

// sameDecode checks the request path's decode stage against the
// encoding/json oracle: the same accept or reject, and on accept the same
// canonical plan key and hash. It returns the oracle's hash.
func sameDecode(t *testing.T, data []byte, wantErr, gotErr error, want planKeySpec, got specRef) string {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("decode of %q: encoding/json err %v, request path err %v", data, wantErr, gotErr)
	}
	if wantErr != nil {
		return ""
	}
	key, hash, err := planKey(want.Policy, want.Workload, want.Options)
	if err != nil {
		t.Fatal(err)
	}
	if got.key != key || got.hash != hash {
		t.Fatalf("decode of %q: plan key %q (%s), want %q (%s)", data, got.key, got.hash, key, hash)
	}
	return hash
}

// sameFloats requires bitwise-equal float lists that agree on nil vs empty.
func sameFloats(t *testing.T, name string, data []byte, got, want []float64) {
	t.Helper()
	if (got == nil) != (want == nil) || len(got) != len(want) {
		t.Fatalf("%s of %q: got %v (nil %t), want %v (nil %t)", name, data, got, got == nil, want, want == nil)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] of %q: got %v, want %v bitwise", name, i, data, got[i], want[i])
		}
	}
}

// serveFuzz sends data through the full handler and enforces the wire
// contract: no panic, no 500, a structured body on every error, and 400
// bad_json exactly when the encoding/json oracle rejected the body.
func serveFuzz(t *testing.T, srv *Server, path string, data []byte, ikey string, oracleErr error) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	hr := httptest.NewRequest("POST", path, bytes.NewReader(data))
	if ikey != "" {
		hr.Header.Set("Idempotency-Key", ikey)
	}
	srv.ServeHTTP(rec, hr)
	if srv.Stats().Panics != 0 {
		t.Fatalf("request panicked (recovered to %d %s): %q", rec.Code, rec.Body.String(), data)
	}
	if rec.Code == http.StatusInternalServerError {
		t.Fatalf("500 on fuzzed input %q: %s", data, rec.Body.String())
	}
	var er ErrorResponse
	if rec.Code != http.StatusOK {
		// Every error must carry the structured schema.
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Code == "" {
			t.Fatalf("unstructured %d error body %q (err %v)", rec.Code, rec.Body.String(), err)
		}
	}
	if badJSON := rec.Code == http.StatusBadRequest && er.Code == "bad_json"; badJSON != (oracleErr != nil) {
		t.Fatalf("%q: %d %q, but encoding/json err is %v", data, rec.Code, er.Code, oracleErr)
	}
	return rec
}

// domainOf sizes a policy's cell domain for the fuzz resource caps (an
// allranges workload over k cells compiles k(k+1)/2 queries).
func domainOf(ps PolicySpec, dimsVolume int) int {
	switch ps.Kind {
	case "grid":
		return ps.K * ps.K
	case "distance":
		return dimsVolume
	default:
		return ps.K
	}
}

// FuzzUpdateWire is the same contract, differential check included, for
// the streaming update endpoint.
func FuzzUpdateWire(f *testing.F) {
	f.Add([]byte(`{"policy":{"kind":"line","k":8},"workload":{"kind":"histogram"},"delta":{"cells":[1],"values":[2.5]}}`), "")
	f.Add([]byte(`{"policy":{"kind":"line","k":4},"workload":{"kind":"histogram"},"base":[1,2,3,4],"delta":{}}`), "")
	f.Add([]byte(`{"policy":{"kind":"line","k":4},"workload":{"kind":"histogram"},"delta":{"cells":[9],"values":[1]}}`), "")
	f.Add([]byte(`{"delta":{"cells":[0],"values":[]}}`), "")
	f.Add([]byte(`{nope`), "")
	f.Add([]byte(`{"policy":{"kind":"line","k":4},"workload":{"kind":"histogram"},"base":[0,0,0,0],"delta":{"cells":[0],"values":[1]}}`), "u-1")
	f.Add([]byte(`{"policy":{"kind":"line","k":4},"workload":{"kind":"histogram"},"delta":{"cells":[0],"values":[1]},"timeout_ms":-1}`), "u-1")
	f.Add([]byte(`{"timeout_ms":2000}`), strings.Repeat("U", 300))
	// The decode-stage behaviours, as in FuzzAnswerWire, on base and
	// delta.values (a repeated delta merges like any struct).
	f.Add([]byte(`{"policy":{"kind":"line"},"workload":{"kind":"histogram"},"policy":{"k":4},"delta":{"cells":[1]},"delta":{"values":[2]}}`), "")
	f.Add([]byte(`{"policy":{"kind":"line","k":4},"workload":{"kind":"histogram"},"base":[1,2,3,4],"base":null,"delta":{}}`), "")
	f.Add([]byte(`{"policy":{"kind":"line","k":4},"workload":{"kind":"histogram"},"base":[],"delta":{"cells":[],"values":[]}}`), "")
	f.Add([]byte(`{"policy":{"kind":"line","k":4},"workload":{"kind":"histogram"},"base":[null,1,null,2],"delta":{"cells":[0,1],"values":[null,-0]}}`), "")
	f.Add([]byte(`{"policy":{"kind":"line","k":4},"workload":{"kind":"histogram"},"delta":{"cells":[0,1],"values":[5,6,7]},"delta":{"cells":[2],"values":[null]}}`), "")
	f.Add([]byte(`{"policy":{"kind":"line","k":2},"workload":{"kind":"histogram"},"delta":{"cells":[0],"values":[1e400]}}`), "")
	f.Add([]byte(`{"policy":{"kind":"line","k":2},"workload":{"kind":"histogram"},"base":[0,"1"],"delta":{}}`), "")
	f.Add([]byte(`{"POLICY":{"kind":"line","k":2},"WORKLOAD":{"kind":"histogram"},"Base":[1,2],"DELTA":{"CELLS":[1],"Values":[3]}}`), "")
	f.Add([]byte(`{"policy":5,"delta":{}}`), "")
	// Edges of the hand-written decode pass, as in FuzzAnswerWire, on the
	// update envelope and its delta.
	f.Add([]byte(`{"ten\u0061nt":"t","policy":{"kind":"line","k":4},"wor\u212Aload":{"kind":"histogram"},"d\u0065lta":{"c\u0065lls":[1],"VALUES":[2]}}`), "")
	f.Add([]byte("{\"tenant\":\"\xff\",\"policy\":{\"kind\":\"line\",\"k\":2},\"workload\":{\"kind\":\"histogram\"},\"delta\":{}}"), "")
	for _, field := range []string{`"cells":[1.0]`, `"cells":[1e0]`, `"cells":[-0]`, `"cells":["1"]`, `"cells":[9223372036854775808]`, `"cells":1`, `"values":[01]`, `"values":[-]`, `"values":[.5]`} {
		f.Add([]byte(`{"policy":{"kind":"line","k":2},"workload":{"kind":"histogram"},"delta":{`+field+`}}`), "")
	}
	f.Add([]byte(`{"policy":{"kind":"line","k":4},"workload":{"kind":"histogram"},"delta":{"cells":[0,1,2],"values":[1,2,3]},"delta":{"cells":[3],"values":[4]},"delta":{"cells":[null,null],"values":[null,5]},"delta":null}`), "")
	f.Add([]byte(`{"policy":{"kind":"line","k":4},"workload":{"kind":"histogram"},"base":[1,2,3,4],"base":[],"delta":{"cells":null,"values":null}}`), "")
	f.Add([]byte(`{"policy":{"kind":"line","k":2},"workload":{"kind":"histogram"},"delta":[],"base":[0,0]}`), "")
	f.Add([]byte(`{"delta":`+strings.Repeat(`{"d":`, maxDepth)+`0`+strings.Repeat("}", maxDepth)+`}`), "")
	valid := `{"tenant":"t","policy":{"kind":"line","k":4},"workload":{"kind":"histogram"},"base":[1,2,3,4],"delta":{"cells":[0,3],"values":[1.5,-2]}}`
	for _, n := range []int{1, 12, 30, 60, 90, 110, len(valid) - 3, len(valid) - 1} {
		f.Add([]byte(valid[:n]), "")
	}

	srv := New(Config{Seed: 1})
	f.Fuzz(func(t *testing.T, data []byte, ikey string) {
		var req UpdateRequest
		if err := json.Unmarshal(data, &req); err == nil {
			skipHeavy(t, req.Policy, req.Workload, req.Options)
			if len(req.Base) > 8192 || len(req.Delta.Cells) > 1024 || len(req.Delta.Values) > 1024 {
				t.Skip("payload too large for fuzzing")
			}
			if req.TimeoutMS > 0 && req.TimeoutMS < 1000 {
				t.Skip("racy deadline")
			}
		}
		var want UpdateRequest
		wantErr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
		var got updateWire
		ref, gotErr := srv.decode(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/update", bytes.NewReader(data)), &got)
		wantHash := sameDecode(t, data, wantErr, gotErr, planKeySpec{Policy: want.Policy, Workload: want.Workload, Options: want.Options}, ref)
		if wantErr == nil {
			if got.Tenant != want.Tenant || got.TimeoutMS != want.TimeoutMS ||
				(got.Delta.Cells == nil) != (want.Delta.Cells == nil) || !slices.Equal(got.Delta.Cells, want.Delta.Cells) {
				t.Fatalf("envelope differs on %q: got %+v, want %+v", data, got, want)
			}
			sameFloats(t, "base", data, got.Base, want.Base)
			sameFloats(t, "delta.values", data, got.Delta.Values, want.Delta.Values)
		}
		rec := serveFuzz(t, srv, "/v1/update", data, ikey, wantErr)
		if rec.Code == http.StatusOK && rec.Header().Get("Idempotent-Replay") == "" {
			var resp UpdateResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.PlanKey != wantHash {
				t.Fatalf("200 on %q carries plan_key %q, want %q (err %v)", data, resp.PlanKey, wantHash, err)
			}
		}
	})
}

// FuzzWALReplayRecord throws arbitrary bytes at replayRecord, the function
// Recover trusts with every line the WAL framing layer hands back — now
// including the idem_answer/idem_update dedupe records. The contract: a
// typed error or success, never a panic, whatever a corrupted log contains.
// (internal/persist's FuzzWALReplay covers the framing below this layer.)
func FuzzWALReplayRecord(f *testing.F) {
	planKey := `{\"policy\":{\"kind\":\"line\",\"k\":4},\"workload\":{\"kind\":\"histogram\"},\"options\":{}}`
	f.Add([]byte(`{"op":"charge","tenant":"t","state":{"budget":{"epsilon":0,"delta":0},"spent":{"epsilon":0.5,"delta":0},"releases":2}}`))
	f.Add([]byte(`{"op":"open","tenant":"t","key":"` + planKey + `","base":[1,2,3,4]}`))
	f.Add([]byte(`{"op":"apply","tenant":"t","key":"` + planKey + `","cells":[0],"values":[2]}`))
	f.Add([]byte(`{"op":"idem_answer","tenant":"t","idem_key":"k1","state":{"budget":{"epsilon":0,"delta":0},"spent":{"epsilon":0.25,"delta":0},"releases":1},"status":200,"body":"eyJhIjoxfQ==","at":12345}`))
	f.Add([]byte(`{"op":"idem_update","tenant":"t","idem_key":"k2","key":"` + planKey + `","created":true,"base":[0,0,0,0],"cells":[1],"values":[3],"status":200,"body":"eyJiIjoyfQ==","at":12346}`))
	f.Add([]byte(`{"op":"idem_answer","tenant":"t","idem_key":"k3"}`))
	f.Add([]byte(`{"op":"idem_update","tenant":"t","idem_key":"k4","key":"{nope"}`))
	f.Add([]byte(`{"op":"charge","tenant":"t"}`))
	f.Add([]byte(`{"op":"warp"}`))
	f.Add([]byte(`{nope`))
	f.Add([]byte(``))

	srv := New(Config{Seed: 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Resource caps mirror the wire fuzzers: the target is record
		// validation, not strategy-compile throughput on giant (legitimate)
		// plan keys.
		var rec walRecord
		if err := json.Unmarshal(data, &rec); err == nil {
			var spec planKeySpec
			if json.Unmarshal([]byte(rec.Key), &spec) == nil {
				skipHeavy(t, spec.Policy, spec.Workload, spec.Options)
				if len(spec.Workload.Ranges) > 128 || len(spec.Workload.Rects) > 64 {
					t.Skip("workload too large for fuzzing")
				}
			}
			if len(rec.Base) > 8192 || len(rec.Cells) > 1024 || len(rec.Values) > 1024 || len(rec.Body) > 1<<16 {
				t.Skip("payload too large for fuzzing")
			}
		}
		// Success or typed error; a panic fails the fuzz run.
		_ = srv.replayRecord(data)
	})
}
