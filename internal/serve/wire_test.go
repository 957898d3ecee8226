package serve

import (
	"encoding/json"
	"maps"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"testing"

	blowfish "github.com/privacylab/blowfish"
)

// TestWireTagsMatchExported keeps each wire struct in step with the
// exported request type clients encode: the decoder's keys for it are that
// type's JSON names, and it has a field of the same name and type for each
// of them except the specs, which the decoder keeps as raw bytes.
func TestWireTagsMatchExported(t *testing.T) {
	specs := []string{"Policy", "Workload", "Options"}
	for _, c := range []struct {
		wire, exported any
		keys           []string
	}{
		{answerWire{}, AnswerRequest{}, answerKeys},
		{updateWire{}, UpdateRequest{}, updateKeys},
		{deltaWire{}, DeltaSpec{}, deltaKeys},
	} {
		exported, wire := fields(reflect.TypeOf(c.exported)), fields(reflect.TypeOf(c.wire))
		var names []string
		for name, f := range exported {
			names = append(names, strings.Split(f.Tag.Get("json"), ",")[0])
			w, ok := wire[name]
			switch {
			case slices.Contains(specs, name):
				if ok {
					t.Errorf("%T has spec field %s, which the decoder keeps as raw bytes", c.wire, name)
				}
			case !ok || w.Type != f.Type && (w.Type.Kind() != reflect.Struct || f.Type.Kind() != reflect.Struct):
				// Same type, or a wire struct for a struct (deltaWire for DeltaSpec).
				t.Errorf("%T.%s does not match %T.%s (%v)", c.wire, name, c.exported, name, f.Type)
			}
			delete(wire, name)
		}
		if len(wire) != 0 {
			t.Errorf("%T has fields %v that %T lacks", c.wire, slices.Collect(maps.Keys(wire)), c.exported)
		}
		if !equalSets(names, c.keys) {
			t.Errorf("%T decodes keys %v, want %T's JSON names %v", c.wire, c.keys, c.exported, names)
		}
	}
}

// fields maps every field encoding/json sees, embedded fields promoted, to
// its description.
func fields(t reflect.Type) map[string]reflect.StructField {
	out := map[string]reflect.StructField{}
	for _, f := range reflect.VisibleFields(t) {
		if f.IsExported() && !f.Anonymous {
			out[f.Name] = f
		}
	}
	return out
}

func equalSets(a, b []string) bool {
	a, b = slices.Sorted(slices.Values(a)), slices.Sorted(slices.Values(b))
	return slices.Equal(a, b)
}

// TestBodyCap: a body over the cap is refused 413 too_large on both
// endpoints, counted as an error, and spends nothing, whatever it holds:
// one byte of a string past the cap, or a valid request whose padding
// after the JSON value runs past it. A body at the cap gets past the
// decode. The cap is lowered so the test stays small.
func TestBodyCap(t *testing.T) {
	if s := New(Config{}); s.maxBody != 64<<20 {
		t.Fatalf("default body cap %d, want 64 MiB", s.maxBody)
	}
	// body returns a valid JSON object of exactly n bytes.
	body := func(n int64) []byte {
		const head, tail = `{"tenant":"`, `"}`
		return []byte(head + strings.Repeat("a", int(n)-len(head)-len(tail)) + tail)
	}
	valid := map[string][]byte{
		"/v1/answer": []byte(`{"policy":{"kind":"line","k":4},"workload":{"kind":"histogram"},"epsilon":0.5,"x":[0,0,0,0]}`),
		"/v1/update": []byte(`{"policy":{"kind":"line","k":4},"workload":{"kind":"histogram"},"delta":{"cells":[0],"values":[1]}}`),
	}
	for _, path := range []string{"/v1/answer", "/v1/update"} {
		s := New(Config{Seed: 1, TenantBudget: blowfish.Budget{Epsilon: 1}})
		s.maxBody = 1 << 10
		padded := append(slices.Clip(valid[path]), strings.Repeat(" ", 4<<10)...)
		for i, over := range [][]byte{body(s.maxBody + 1), padded} {
			rec := postPath(t, s, path, over)
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || rec.Code != http.StatusRequestEntityTooLarge || er.Code != "too_large" {
				t.Fatalf("%s, %d-byte body: %d %s (err %v)", path, len(over), rec.Code, rec.Body, err)
			}
			if st := s.Stats(); st.Errors != int64(i+1) || st.Tenants != 0 || st.Answered != 0 || st.Updates != 0 {
				t.Fatalf("%s, %d-byte body: stats %+v, want %d errors and nothing served", path, len(over), st, i+1)
			}
		}
		// At the cap the body decodes; it then fails on its empty policy.
		if rec := postPath(t, s, path, body(s.maxBody)); rec.Code == http.StatusRequestEntityTooLarge {
			t.Fatalf("%s at the cap: %d %s", path, rec.Code, rec.Body)
		}
		// The valid request itself, under the cap, is served.
		if rec := postPath(t, s, path, valid[path]); rec.Code != http.StatusOK {
			t.Fatalf("%s unpadded: %d %s", path, rec.Code, rec.Body)
		}
	}
}

// TestPlanAliasIdentity: two spellings of one plan (key order, whitespace)
// are two alias entries but one canonical plan — one compile, one
// plan_key, one maintained stream.
func TestPlanAliasIdentity(t *testing.T) {
	s := New(Config{Seed: 1})
	spellingA := `{"tenant":"t","policy":{"kind":"line","k":4},"workload":{"kind":"histogram"},"delta":{"cells":[1],"values":[2]}}`
	spellingB := `{"tenant":"t","workload":{ "kind": "histogram" },"policy":{"k":4,"kind":"line"},"epsilon":0,"stream":true}`

	rec := postPath(t, s, "/v1/update", []byte(spellingA))
	var up UpdateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &up); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("update via spelling A: %d %s", rec.Code, rec.Body)
	}
	rec = postPath(t, s, "/v1/answer", []byte(spellingB))
	var ans AnswerResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ans); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("stream answer via spelling B: %d %s", rec.Code, rec.Body)
	}
	if ans.PlanKey != up.PlanKey {
		t.Fatalf("plan_key %q via B, %q via A", ans.PlanKey, up.PlanKey)
	}
	if want := []float64{0, 2, 0, 0}; !slices.Equal(ans.Answers, want) {
		t.Fatalf("spelling B answered %v, want the stream A fed: %v", ans.Answers, want)
	}
	st := s.Stats()
	if st.PlanCacheMisses != 1 || st.PlanAliasMisses != 2 || st.PlanAliasHits != 0 {
		t.Fatalf("stats %+v: want 1 plan compile and 2 alias misses", st)
	}
	if rec := postPath(t, s, "/v1/answer", []byte(spellingB)); rec.Code != http.StatusOK {
		t.Fatalf("repeat of spelling B: %d %s", rec.Code, rec.Body)
	}
	if st := s.Stats(); st.PlanAliasHits != 1 || st.PlanAliasMisses != 2 || st.PlanCacheMisses != 1 {
		t.Fatalf("stats %+v after a repeat: want 1 alias hit", st)
	}
}

// TestPlanAliasLearnsBuiltPlansOnly: the alias learns a spelling only once
// its plan has built. A malformed spec, a plan that fails to build, a
// rate-limited request and a spec over maxAliasBytes leave it empty, so
// their repeats miss again.
func TestPlanAliasLearnsBuiltPlansOnly(t *testing.T) {
	// Each tenant gets two requests; tenant c's oversized pair spends its
	// burst, so its next spelling is rate limited after it resolves.
	s := New(Config{Seed: 1, TenantQPS: 1e-6, TenantBurst: 2})
	const hist = `"workload":{"kind":"histogram"},"x":[0,0,0,0]}`
	refused := []struct {
		name, body string
		code       int
	}{
		{"malformed spec", `{"tenant":"a","policy":5,` + hist, http.StatusBadRequest},
		{"unbuildable plan", `{"tenant":"b","policy":{"kind":"line","k":4},"workload":{"kind":"ranges","ranges":[[2,99]]},"x":[0,0,0,0]}`, http.StatusBadRequest},
		{"oversized spec", `{"tenant":"c","policy":{"kind":"line","k":4,"pad":"` + strings.Repeat("p", maxAliasBytes) + `"},` + hist, http.StatusOK},
		{"rate limited", `{"tenant":"c","policy":{"kind":"line","k":4},` + hist, http.StatusTooManyRequests},
	}
	misses := int64(0)
	for _, c := range refused {
		for range 2 {
			if rec := postPath(t, s, "/v1/answer", []byte(c.body)); rec.Code != c.code {
				t.Fatalf("%s: %d %s, want %d", c.name, rec.Code, rec.Body, c.code)
			}
			misses++
			if st := s.Stats(); st.PlanAliasHits != 0 || st.PlanAliasMisses != misses || s.aliases.ll.Len() != 0 {
				t.Fatalf("%s: stats %+v, alias len %d; want %d misses and an empty alias",
					c.name, st, s.aliases.ll.Len(), misses)
			}
		}
	}
	// The same plan, served, is learned: its repeat hits.
	body := []byte(`{"tenant":"d","policy":{"kind":"line","k":4},` + hist)
	for range 2 {
		if rec := postPath(t, s, "/v1/answer", body); rec.Code != http.StatusOK {
			t.Fatalf("served spelling: %d %s", rec.Code, rec.Body)
		}
	}
	if st := s.Stats(); st.PlanAliasHits != 1 || s.aliases.ll.Len() != 1 {
		t.Fatalf("served spelling: stats %+v, alias len %d; want 1 hit and 1 entry", st, s.aliases.ll.Len())
	}
}
