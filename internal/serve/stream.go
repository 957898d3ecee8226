package serve

// This file is the streaming side of the daemon: POST /v1/update feeds a
// per-(tenant, plan) maintained Stream with incremental deltas, and
// /v1/answer with "stream": true releases over that maintained state. An
// update refreshes the cached plan's stream through the single-flight LRU
// instead of dropping the cache entry, so the expensive strategy compile
// survives data churn: a delta costs O(path depth) or O(dirty suffix box)
// per cell (with the library's dense-recompute fallback), not a recompile.
//
// Updates are admission-checked — the tenant must pass the rate limiter and
// the delta is validated against the plan's domain before anything mutates —
// but they charge no privacy budget: feeding data is not a release. Budget
// is charged when the stream is answered.

import (
	"encoding/json"
	"fmt"
	"net/http"

	blowfish "github.com/privacylab/blowfish"
)

// DeltaSpec is a batch of single-cell changes: cell Cells[i] moves by
// Values[i]. Cells may repeat.
type DeltaSpec struct {
	Cells  []int     `json:"cells"`
	Values []float64 `json:"values"`
}

// UpdateRequest is the body of POST /v1/update. Policy/Workload/Options
// identify the plan exactly as in an AnswerRequest; the stream it feeds is
// scoped to (tenant, plan). Base seeds a newly created stream (zeros when
// absent) and is rejected on a stream that already exists.
type UpdateRequest struct {
	Tenant   string       `json:"tenant"`
	Policy   PolicySpec   `json:"policy"`
	Workload WorkloadSpec `json:"workload"`
	Options  OptionsSpec  `json:"options"`
	Base     []float64    `json:"base,omitempty"`
	Delta    DeltaSpec    `json:"delta"`
	// TimeoutMS is the caller's deadline in milliseconds; see
	// AnswerRequest.TimeoutMS.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// UpdateResponse is the body of a successful POST /v1/update.
type UpdateResponse struct {
	PlanKey string `json:"plan_key"`
	// Created reports whether this request opened the stream.
	Created bool `json:"created"`
	// Applied is how many cell deltas this request folded in.
	Applied int `json:"applied"`
	// Patches and Recomputes are the stream's cumulative refresh counters:
	// incremental single-cell patches vs dense rebuild fallbacks.
	Patches    int64 `json:"patches"`
	Recomputes int64 `json:"recomputes"`
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if !s.notReady(w) {
		return
	}
	var req UpdateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.errorCount.Add(1)
		writeError(w, http.StatusBadRequest, "bad_json", fmt.Sprintf("decoding request: %v", err), nil)
		return
	}
	ctx, cancel, err := requestContext(r.Context(), req.TimeoutMS)
	defer cancel()
	if err != nil {
		s.fail(w, err)
		return
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = "default"
	}
	ikey := r.Header.Get("Idempotency-Key")
	if len(ikey) > idemKeyMaxLen {
		s.fail(w, invalid("Idempotency-Key of %d bytes exceeds the %d-byte cap", len(ikey), idemKeyMaxLen))
		return
	}
	if !s.allowTenant(w, tenant) {
		return
	}
	key, hash, err := planKey(req.Policy, req.Workload, req.Options)
	if err != nil {
		s.fail(w, err)
		return
	}
	if ikey != "" {
		replay, _, err := s.idem.begin(ctx, idemKey(tenant, ikey))
		if err != nil {
			s.fail(w, err)
			return
		}
		if replay != nil {
			writeRecorded(w, replay, true)
			return
		}
		defer s.idem.abandon(idemKey(tenant, ikey))
	}
	release, admitted := s.admit(ctx, w, key)
	if !admitted {
		return
	}
	defer release()
	entry, err := s.plan(key, req.Policy, req.Workload, req.Options)
	if err != nil {
		s.fail(w, err)
		return
	}
	pl := entry.plan
	// Validate everything against the plan's domain before any state exists
	// or mutates, so a rejected update leaves the stream untouched.
	if req.Base != nil && len(req.Base) != pl.Domain() {
		s.fail(w, fmt.Errorf("serve: base size %d != policy domain %d: %w",
			len(req.Base), pl.Domain(), blowfish.ErrDomainMismatch))
		return
	}
	if len(req.Delta.Cells) != len(req.Delta.Values) {
		s.fail(w, invalid("delta has %d cells but %d values", len(req.Delta.Cells), len(req.Delta.Values)))
		return
	}
	for _, c := range req.Delta.Cells {
		if c < 0 || c >= pl.Domain() {
			s.fail(w, fmt.Errorf("serve: delta cell %d outside domain [0, %d): %w",
				c, pl.Domain(), blowfish.ErrDomainMismatch))
			return
		}
	}
	if err := ctx.Err(); err != nil {
		s.fail(w, err)
		return
	}
	if ikey != "" {
		body, err := s.updateStreamIdem(entry, tenant, key, ikey, hash, &req)
		if err != nil {
			s.fail(w, err)
			return
		}
		s.updates.Add(1)
		writeRecorded(w, &idemEntry{Status: http.StatusOK, Body: body}, false)
		return
	}
	st, created, err := s.updateStream(entry, tenant, key, &req)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.updates.Add(1)
	stats := st.Stats()
	writeJSON(w, http.StatusOK, UpdateResponse{
		PlanKey:    hash,
		Created:    created,
		Applied:    len(req.Delta.Cells),
		Patches:    stats.Patches,
		Recomputes: stats.Recomputes,
	})
}

// fail reports err through the shared typed-error mapping.
func (s *Server) fail(w http.ResponseWriter, err error) {
	s.errorCount.Add(1)
	status, code := statusFor(err)
	writeError(w, status, code, err.Error(), nil)
}
