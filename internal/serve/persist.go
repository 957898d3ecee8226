package serve

// This file is the durability layer of the daemon, active only when
// Config.DataDir is set. It builds on internal/persist's generation Store:
//
//   - Every budget charge and every stream mutation writes its WAL record
//     under walMu, so the log order is the apply order. Charges and unkeyed
//     updates write ahead of the in-memory change; a keyed update writes
//     one record after its apply, before the reply (see updateStream).
//   - Charge records carry the absolute post-charge ledger state, not the
//     delta, so replay is an idempotent overwrite — re-applying the record a
//     crash left as the last durable thing cannot double-spend.
//   - Recover replays snapshot + WAL before the daemon reports ready, then
//     immediately rotates a fresh snapshot so the replayed WAL is retired.
//   - Any disk failure flips the daemon read-only: updates 503, answers keep
//     serving with plain in-memory accounting. Privacy is never the casualty
//     of a full disk — availability of the ingest path is.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	blowfish "github.com/privacylab/blowfish"
	"github.com/privacylab/blowfish/internal/persist"
)

// errReadOnly rejects durable mutations after a disk failure.
var errReadOnly = errors.New("serve: daemon is read-only after a disk failure")

// errStreamExists maps to HTTP 409 when a base is supplied for a stream
// that already exists.
var errStreamExists = errors.New("serve: stream already exists; base only seeds a new stream")

// walRecord is one durable mutation. Op selects which fields are live:
//
//	"charge": Tenant, State   — absolute post-charge ledger (idempotent)
//	"open":   Tenant, Key, Base — a stream was created (nil Base = zeros)
//	"apply":  Tenant, Key, Cells, Values — a delta was folded in
//	"idem_answer": Tenant, IdemKey, State, Status, Body, At — one
//	    idempotent charged release: the post-charge ledger AND the exact
//	    response bytes commit together, so a replayed request returns the
//	    original bytes with zero additional spend.
//	"idem_update": Tenant, IdemKey, Key, Created, Base, Cells, Values,
//	    Status, Body, At — one idempotent stream mutation plus its
//	    response, committed as a unit (exactly-once deltas).
type walRecord struct {
	Op      string                    `json:"op"`
	Tenant  string                    `json:"tenant,omitempty"`
	Key     string                    `json:"key,omitempty"`
	State   *blowfish.AccountantState `json:"state,omitempty"`
	Base    []float64                 `json:"base,omitempty"`
	Cells   []int                     `json:"cells,omitempty"`
	Values  []float64                 `json:"values,omitempty"`
	IdemKey string                    `json:"idem_key,omitempty"`
	Created bool                      `json:"created,omitempty"`
	Status  int                       `json:"status,omitempty"`
	Body    []byte                    `json:"body,omitempty"`
	At      int64                     `json:"at,omitempty"`
}

// streamSnap is one maintained stream in a snapshot, identified by its
// tenant and exact plan key (the canonical planKeySpec JSON — parseable, so
// recovery can re-prepare the plan).
type streamSnap struct {
	Tenant string                `json:"tenant"`
	Key    string                `json:"key"`
	State  *blowfish.StreamState `json:"state"`
}

// idemSnap is one recorded idempotent response in a snapshot, so the
// dedupe table survives WAL rotation: a retry arriving after a snapshot
// retired the original idem_* record still replays the original bytes.
type idemSnap struct {
	Tenant string `json:"tenant"`
	Key    string `json:"key"`
	Status int    `json:"status"`
	Body   []byte `json:"body"`
	At     int64  `json:"at"`
}

// snapshotData is the full daemon image one snapshot generation holds.
type snapshotData struct {
	Tenants map[string]blowfish.AccountantState `json:"tenants"`
	Streams []streamSnap                        `json:"streams"`
	Idem    []idemSnap                          `json:"idem,omitempty"`
}

// splitStreamKey undoes streamKey (and idemKey). Tenants containing a NUL
// are rejected before any key is built, so the first NUL is always the
// separator.
func splitStreamKey(k string) (tenant, plankey string, ok bool) {
	i := strings.IndexByte(k, 0)
	if i < 0 {
		return "", "", false
	}
	return k[:i], k[i+1:], true
}

// enterReadOnly flips the daemon read-only after a disk failure (once).
func (s *Server) enterReadOnly(err error) {
	if s.readOnly.CompareAndSwap(false, true) && s.cfg.Logf != nil {
		s.cfg.Logf("serve: entering read-only mode: %v", err)
	}
}

// notReady gates a handler on recovery: a durable daemon answers 503
// "not_ready" until Recover has replayed the WAL. Returns true when the
// request may proceed.
func (s *Server) notReady(w http.ResponseWriter) bool {
	if s.ready.Load() {
		return true
	}
	s.errorCount.Add(1)
	writeError(w, http.StatusServiceUnavailable, "not_ready",
		"daemon is replaying its write-ahead log; retry shortly", nil)
	return false
}

// appendWAL marshals and durably appends one record. A store failure flips
// the daemon read-only and reports errReadOnly (callers map it to 503).
// Must be called with walMu held.
func (s *Server) appendWAL(rec walRecord) error {
	raw, err := json.Marshal(rec)
	if err != nil {
		return invalid("unencodable WAL record: %v", err)
	}
	if err := s.store.Append(raw); err != nil {
		s.enterReadOnly(err)
		return fmt.Errorf("%w: %v", errReadOnly, err)
	}
	s.walRecords.Add(1)
	return nil
}

// charge commits one release of per to the tenant's ledger and fills
// resp.Budget from the post-charge state. When the daemon is durable the
// WAL record is appended and synced before the spend becomes observable
// (ChargeLogged holds the ledger mutex across the commit). Without an
// idempotency key the record is a plain "charge" and the caller encodes
// resp after the locks are released, so large answers never serialize
// behind walMu. With one, the canonical response body is encoded inside
// the commit and lands in the same "idem_answer" record as the charge: a
// crash loses either the whole request (the retry executes fresh, charged
// once) or nothing (the retry replays these bytes, charged zero more). The
// body is then recorded in the dedupe table and returned for the reply.
// A disk failure flips the daemon read-only and falls back to plain
// in-memory accounting (and an in-memory dedupe entry) so answers keep
// serving — budget is still enforced, it just won't survive a crash, which
// the operator learns from /readyz and the read_only stat.
func (s *Server) charge(tenant, ikey string, acct *blowfish.Accountant, per blowfish.Budget, resp *AnswerResponse) ([]byte, error) {
	var body []byte
	fill := func(st blowfish.AccountantState) error {
		resp.Budget = budgetInfo(st)
		if ikey == "" {
			return nil
		}
		var err error
		if body, err = json.Marshal(resp); err != nil {
			return invalid("unencodable response: %v", err)
		}
		return nil
	}
	durable := s.store != nil && !s.readOnly.Load()
	if durable {
		s.walMu.Lock()
		defer s.walMu.Unlock()
		durable = !s.readOnly.Load()
	}
	var err error
	if durable {
		err = acct.ChargeLogged(per, 1, func(st blowfish.AccountantState) error {
			if err := fill(st); err != nil {
				return err
			}
			rec := walRecord{Op: "charge", Tenant: tenant, State: &st}
			if ikey != "" {
				rec = walRecord{Op: "idem_answer", Tenant: tenant, IdemKey: ikey, State: &st,
					Status: http.StatusOK, Body: body, At: s.idem.now().UnixNano()}
			}
			return s.appendWAL(rec)
		})
	}
	if !durable || errors.Is(err, errReadOnly) {
		// In memory, or only the disk failed: the charge itself is admissible.
		err = acct.ChargeLogged(per, 1, fill)
	}
	if err != nil {
		return nil, err
	}
	if ikey != "" {
		s.idem.finish(idemKey(tenant, ikey), http.StatusOK, body)
	}
	return body, nil
}

// updateStream opens (if needed) and mutates the (tenant, plan) maintained
// stream and returns the response. When the daemon is durable, the WAL
// records and the in-memory mutations happen under walMu in the same order,
// so replay reconstructs exactly the acknowledged state. The
// Idempotency-Key decides only which records are written:
//
//   - Unkeyed updates are write-ahead: an "open" record before OpenStream
//     and an "apply" record before Apply. The returned body is nil; the
//     caller encodes resp after walMu is released.
//   - A keyed update commits the open, the delta and the canonical response
//     body as ONE "idem_update" record, appended after the in-memory apply
//     (the body carries post-apply counters) but before the reply is
//     visible. A crash before the append loses both the record and the
//     in-memory state together, so the retry re-executes — still exactly
//     once. A disk failure after the apply leaves the delta in memory but
//     unacknowledged; the daemon goes read-only and rejects further
//     updates, so no divergent history is ever acknowledged. The body is
//     recorded in the dedupe table and returned for the reply.
func (s *Server) updateStream(entry *planEntry, a admission, req *updateWire) (UpdateResponse, []byte, error) {
	pl := entry.plan
	durable := s.store != nil
	if durable {
		s.walMu.Lock()
		defer s.walMu.Unlock()
		if s.readOnly.Load() {
			return UpdateResponse{}, nil, errReadOnly
		}
	}
	ahead := durable && a.ikey == ""
	st, cached, err := s.streams.getOrCreate(streamKey(a.tenant, a.key), func() (*blowfish.Stream, error) {
		if ahead {
			if err := s.appendWAL(walRecord{Op: "open", Tenant: a.tenant, Key: a.key, Base: req.Base}); err != nil {
				return nil, err
			}
		}
		base := req.Base
		if base == nil {
			base = make([]float64, pl.Domain())
		}
		return entry.eng.OpenStream(pl, base, blowfish.StreamOptions{})
	})
	if err != nil {
		return UpdateResponse{}, nil, err
	}
	if cached && req.Base != nil {
		// A base on an existing stream would silently fork histories; make
		// the caller drop it (or wait for the stream to age out of the LRU).
		return UpdateResponse{}, nil, errStreamExists
	}
	if len(req.Delta.Cells) > 0 {
		if ahead {
			if err := s.appendWAL(walRecord{Op: "apply", Tenant: a.tenant, Key: a.key, Cells: req.Delta.Cells, Values: req.Delta.Values}); err != nil {
				return UpdateResponse{}, nil, err
			}
		}
		if err := st.Apply(blowfish.Delta{Cells: req.Delta.Cells, Values: req.Delta.Values}); err != nil {
			return UpdateResponse{}, nil, err
		}
	}
	stats := st.Stats()
	resp := UpdateResponse{
		PlanKey:    a.hash,
		Created:    !cached,
		Applied:    len(req.Delta.Cells),
		Patches:    stats.Patches,
		Recomputes: stats.Recomputes,
	}
	if a.ikey == "" {
		return resp, nil, nil
	}
	body, err := json.Marshal(resp)
	if err != nil {
		return UpdateResponse{}, nil, invalid("unencodable response: %v", err)
	}
	if durable {
		if err := s.appendWAL(walRecord{
			Op: "idem_update", Tenant: a.tenant, IdemKey: a.ikey, Key: a.key,
			Created: !cached, Base: req.Base, Cells: req.Delta.Cells, Values: req.Delta.Values,
			Status: http.StatusOK, Body: body, At: s.idem.now().UnixNano(),
		}); err != nil {
			return UpdateResponse{}, nil, err
		}
	}
	s.idem.finish(idemKey(a.tenant, a.ikey), http.StatusOK, body)
	return resp, body, nil
}

// planFromKey re-prepares the plan a persisted plan key names. The second
// result is the key recomputed from the parsed specs, which scopes the
// plan's restored streams.
func (s *Server) planFromKey(raw string) (*planEntry, string, error) {
	var spec planKeySpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		return nil, "", fmt.Errorf("serve: unparseable plan key %q: %w", raw, err)
	}
	key, _, err := planKey(spec.Policy, spec.Workload, spec.Options)
	if err != nil {
		return nil, "", err
	}
	entry, err := s.plan(key)
	if err != nil {
		return nil, "", fmt.Errorf("serve: re-preparing plan for recovery: %w", err)
	}
	return entry, key, nil
}

// restoreStream rebuilds one maintained stream from its snapshot image and
// installs it in the cache, re-preparing the plan from the parseable key.
func (s *Server) restoreStream(tenant, key string, st *blowfish.StreamState) error {
	entry, exactKey, err := s.planFromKey(key)
	if err != nil {
		return err
	}
	stream, err := entry.eng.RestoreStream(entry.plan, st)
	if err != nil {
		return fmt.Errorf("serve: restoring stream for tenant %q: %w", tenant, err)
	}
	s.streams.put(streamKey(tenant, exactKey), stream)
	return nil
}

// replayRecord applies one WAL record during Recover. Replay failures are
// startup failures: a record the daemon acknowledged must apply, and one
// that doesn't is corruption the operator has to see.
func (s *Server) replayRecord(raw []byte) error {
	var rec walRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return fmt.Errorf("serve: undecodable WAL record: %w", err)
	}
	switch rec.Op {
	case "charge", "idem_answer":
		if rec.State == nil {
			return fmt.Errorf("serve: %s record for tenant %q has no state", rec.Op, rec.Tenant)
		}
		// Absolute post-charge state: overwrite, idempotently.
		if err := s.Accountant(rec.Tenant).RestoreState(*rec.State); err != nil {
			return err
		}
	case "open", "idem_update":
		entry, exactKey, err := s.planFromKey(rec.Key)
		if err != nil {
			return err
		}
		skey := streamKey(rec.Tenant, exactKey)
		if rec.Op == "open" || rec.Created {
			base := rec.Base
			if base == nil {
				base = make([]float64, entry.plan.Domain())
			}
			// put (not getOrCreate): replaying a create after the stream was
			// already restored from the snapshot means the crash landed between
			// the WAL append and the acknowledgment — the fresh stream is the
			// acknowledged state only if no snapshot captured it, and a snapshot
			// is always rotated after replay folds the log in, so an overwrite
			// here replays the same history the original daemon saw.
			stream, err := entry.eng.OpenStream(entry.plan, base, blowfish.StreamOptions{})
			if err != nil {
				return fmt.Errorf("serve: reopening stream for %s replay: %w", rec.Op, err)
			}
			s.streams.put(skey, stream)
		}
		if rec.Op == "idem_update" {
			st, ok := s.streams.get(skey)
			if !ok {
				return fmt.Errorf("serve: idem_update record for tenant %q references a stream neither snapshot nor log opened", rec.Tenant)
			}
			if len(rec.Cells) > 0 {
				if err := st.Apply(blowfish.Delta{Cells: rec.Cells, Values: rec.Values}); err != nil {
					return err
				}
			}
		}
	case "apply":
		st, ok := s.streams.get(streamKey(rec.Tenant, rec.Key))
		if !ok {
			return fmt.Errorf("serve: apply record for tenant %q references a stream neither snapshot nor log opened", rec.Tenant)
		}
		return st.Apply(blowfish.Delta{Cells: rec.Cells, Values: rec.Values})
	default:
		return fmt.Errorf("serve: unknown WAL op %q", rec.Op)
	}
	if rec.Op == "idem_answer" || rec.Op == "idem_update" {
		s.idem.install(idemKey(rec.Tenant, rec.IdemKey), idemEntry{Status: rec.Status, Body: rec.Body, At: rec.At})
	}
	return nil
}

// Recover attaches the daemon to its data directory, restores the latest
// snapshot, replays the WAL, rotates a fresh snapshot, and marks the
// daemon ready. Without a DataDir it only marks ready. cmd/blowfishd calls
// it synchronously before accepting traffic; tests call it directly.
func (s *Server) Recover() error {
	if s.cfg.DataDir == "" {
		s.ready.Store(true)
		return nil
	}
	store, rec, err := persist.Open(s.cfg.DataDir, persist.Options{Injector: s.cfg.Injector, NoSync: s.cfg.WALNoSync})
	if err != nil {
		return err
	}
	s.store = store
	if rec.Snapshot != nil {
		var data snapshotData
		if err := json.Unmarshal(rec.Snapshot, &data); err != nil {
			return fmt.Errorf("serve: undecodable snapshot payload: %w", err)
		}
		for tenant, st := range data.Tenants {
			if err := s.Accountant(tenant).RestoreState(st); err != nil {
				return fmt.Errorf("serve: restoring tenant %q ledger: %w", tenant, err)
			}
		}
		for _, ss := range data.Streams {
			if err := s.restoreStream(ss.Tenant, ss.Key, ss.State); err != nil {
				return err
			}
		}
		for _, is := range data.Idem {
			s.idem.install(idemKey(is.Tenant, is.Key), idemEntry{Status: is.Status, Body: is.Body, At: is.At})
		}
	}
	for _, raw := range rec.Records {
		if err := s.replayRecord(raw); err != nil {
			return err
		}
		s.walReplayed.Add(1)
	}
	// Fold the replayed log into a fresh generation immediately: the WAL the
	// daemon just replayed is retired, and a failure here means the disk is
	// already misbehaving — start read-only rather than refuse to start.
	_ = s.Snapshot()
	s.ready.Store(true)

	interval := s.cfg.SnapshotInterval
	if interval == 0 {
		interval = time.Minute
	}
	s.stopSnap = make(chan struct{})
	s.snapDone = make(chan struct{})
	go func() {
		defer close(s.snapDone)
		if interval < 0 {
			<-s.stopSnap
			return
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.stopSnap:
				return
			case <-t.C:
				_ = s.Snapshot()
			}
		}
	}()
	return nil
}

// Snapshot rotates the current full daemon state into a new snapshot
// generation, retiring the WAL. Safe to call concurrently with serving.
func (s *Server) Snapshot() error {
	if s.store == nil {
		return nil
	}
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.readOnly.Load() {
		return errReadOnly
	}
	if err := s.snapshotLocked(); err != nil {
		s.enterReadOnly(err)
		return err
	}
	return nil
}

// snapshotLocked exports every tenant ledger and every completed stream and
// rotates the store to a new generation. Streams evicted from the LRU since
// the last snapshot are simply absent, matching their in-memory fate.
// Must be called with walMu held.
func (s *Server) snapshotLocked() error {
	data := snapshotData{Tenants: map[string]blowfish.AccountantState{}}
	s.tenantMu.Lock()
	accts := make(map[string]*blowfish.Accountant, len(s.tenants))
	for t, a := range s.tenants {
		accts[t] = a
	}
	s.tenantMu.Unlock()
	for t, a := range accts {
		data.Tenants[t] = a.ExportState()
	}
	s.streams.each(func(key string, st *blowfish.Stream) {
		tenant, plankey, ok := splitStreamKey(key)
		if !ok {
			return
		}
		data.Streams = append(data.Streams, streamSnap{Tenant: tenant, Key: plankey, State: st.ExportState()})
	})
	s.idem.each(func(key string, ent idemEntry) {
		tenant, ikey, ok := splitStreamKey(key)
		if !ok {
			return
		}
		data.Idem = append(data.Idem, idemSnap{Tenant: tenant, Key: ikey, Status: ent.Status, Body: ent.Body, At: ent.At})
	})
	payload, err := json.Marshal(data)
	if err != nil {
		return fmt.Errorf("serve: unencodable snapshot: %w", err)
	}
	if err := s.store.Rotate(payload); err != nil {
		return err
	}
	s.snapshots.Add(1)
	return nil
}

// Close shuts the durability layer down: the snapshot ticker stops, a final
// snapshot rotates (so a clean shutdown restarts with an empty WAL), and
// the store's file handles close. Idempotent; a no-op without a DataDir.
func (s *Server) Close() error {
	var err error
	s.closed.Do(func() {
		if s.stopSnap != nil {
			close(s.stopSnap)
			<-s.snapDone
		}
		if s.store == nil {
			return
		}
		if !s.readOnly.Load() {
			s.walMu.Lock()
			if serr := s.snapshotLocked(); serr != nil {
				s.enterReadOnly(serr)
				err = serr
			}
			s.walMu.Unlock()
		}
		if cerr := s.store.Close(); cerr != nil && err == nil {
			err = cerr
		}
	})
	return err
}

// handleReady is GET /readyz: 200 once recovery has replayed the WAL and
// the disk is healthy, 503 "not_ready" during replay, 503 "read_only"
// after a disk failure. Distinct from /healthz, which stays 200 as long as
// the process serves at all — orchestrators restart on liveness and hold
// traffic on readiness.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	switch {
	case !s.ready.Load():
		writeError(w, http.StatusServiceUnavailable, "not_ready",
			"daemon is replaying its write-ahead log", nil)
	case s.readOnly.Load():
		writeError(w, http.StatusServiceUnavailable, "read_only",
			"daemon is read-only after a disk failure", nil)
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}
