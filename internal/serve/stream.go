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
	var req updateWire
	s.preamble(w, r, &req, func(a admission) {
		entry, err := s.planFor(a.specRef)
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
		if err := a.ctx.Err(); err != nil {
			s.fail(w, err)
			return
		}
		resp, body, err := s.updateStream(entry, a, &req)
		if err != nil {
			s.fail(w, err)
			return
		}
		s.updates.Add(1)
		if a.ikey != "" {
			writeRecorded(w, &idemEntry{Status: http.StatusOK, Body: body}, false)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
}

// fail reports err through the shared typed-error mapping.
func (s *Server) fail(w http.ResponseWriter, err error) {
	s.errorCount.Add(1)
	status, code := statusFor(err)
	writeError(w, status, code, err.Error(), nil)
}
