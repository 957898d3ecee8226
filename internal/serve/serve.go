// Package serve is the multi-tenant serving core behind cmd/blowfishd: a
// long-lived HTTP answer service on top of the compile-once Engine/Plan API.
//
// The daemon keeps LRU caches for compiled engines, plans, and maintained
// streams — keyed by (policy, workload, options) with single-flight builds,
// so a strategy compiles once and serves every tenant — and one budget
// Accountant per tenant. Every release, static or stream, keyed or not,
// takes one path: a cheap over-budget pre-check against the tenant's
// (ε, δ) ledger (a request that would overspend is rejected with HTTP 429
// and the remaining budget before any noise is drawn), the release itself,
// a context check, one charge, and an unconditional reply — so ε is spent
// only for a response that is delivered or recorded. An optional
// per-tenant token bucket rate-limits ahead of the ledger.
//
// POST /v1/update feeds the streaming path: each (tenant, plan) pair owns a
// maintained Stream whose deltas refresh the cached state without charging
// any budget (ingesting data releases nothing); /v1/answer with
// "stream": true then releases over the maintained state under the tenant's
// ledger. /v1/budget exposes a ledger, /v1/stats the cache/panic
// counters, /healthz liveness, /readyz readiness (503 while a durable
// daemon replays its write-ahead log, and in read-only mode).
//
// With Config.DataDir set, serving is durable (see persist.go in this
// package and internal/persist): tenant ledgers and stream state snapshot
// periodically, every charge and delta is written ahead to a synced WAL,
// and Recover replays both on startup before the daemon reports ready —
// a crash can neither re-grant spent budget nor lose acknowledged deltas.
//
// Typed library errors map to HTTP statuses and stable wire codes
// consistently (see statusFor and writeError — budget_exhausted and
// rate_limited are 429, domain_mismatch/invalid_request/bad_json 400,
// too_large 413 (a body over the 64 MiB cap), disconnected_policy 422,
// stream_exists 409, no_stream 404, deadline_exceeded 504, canceled and
// not_ready and read_only 503, panic/internal 500), and every handler runs
// behind a recover barrier so a panicking request degrades to a 500
// response instead of killing the process.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	blowfish "github.com/privacylab/blowfish"
	"github.com/privacylab/blowfish/internal/faultinject"
	"github.com/privacylab/blowfish/internal/persist"
)

// Config sizes a Server. The zero value serves with the defaults below.
type Config struct {
	// TenantBudget is the cumulative (ε, δ) allowance each tenant gets on
	// first use. The zero value means unlimited (spend tracked, never
	// enforced).
	TenantBudget blowfish.Budget
	// PlanCacheSize caps the compiled-plan LRU (default 64 entries), and
	// the plan alias that maps raw request spec bytes to plan keys.
	PlanCacheSize int
	// EngineCacheSize caps the per-policy engine LRU (default 16 entries).
	EngineCacheSize int
	// StreamCacheSize caps the LRU of maintained per-(tenant, plan) streams
	// created by POST /v1/update (default 64 entries).
	StreamCacheSize int
	// TenantQPS rate-limits each tenant to this many /v1/answer and
	// /v1/update requests per second through a token bucket; excess requests
	// get HTTP 429 with code "rate_limited" (distinct from
	// "budget_exhausted"). 0 disables rate limiting.
	TenantQPS float64
	// TenantBurst is the token-bucket depth behind TenantQPS; <= 0 defaults
	// to ceil(TenantQPS), at least 1.
	TenantBurst int
	// BatchWindow is ignored: the daemon no longer coalesces requests.
	//
	// Deprecated: kept only so existing callers still compile.
	BatchWindow time.Duration
	// MaxInFlight caps concurrently executing /v1/answer and /v1/update
	// requests. Excess requests wait in a bounded deadline-aware queue (see
	// MaxQueue) or are shed with HTTP 503, code "overloaded", and a
	// Retry-After hint; requests needing a cold plan compile are shed before
	// queued ones so cheap answers keep flowing under pressure. 0 disables
	// the gate (unbounded concurrency).
	MaxInFlight int
	// MaxQueue bounds how many admitted-but-waiting requests may queue
	// behind the in-flight cap; <= 0 defaults to 4×MaxInFlight. Ignored
	// without MaxInFlight.
	MaxQueue int
	// IdemTTL bounds how long a recorded idempotent response stays
	// replayable; 0 defaults to 15 minutes, negative keeps entries until
	// IdemMax evicts them.
	IdemTTL time.Duration
	// IdemMax caps the number of recorded idempotent responses (oldest
	// evicted first); <= 0 defaults to 4096.
	IdemMax int
	// Seed seeds the daemon's root noise source; 0 derives a seed from the
	// wall clock. Fixed seeds make serving deterministic for tests.
	Seed int64
	// Parallelism is passed through to every Engine the daemon opens: the
	// width of the pool its sharded grid compiles (query clipping, blocked
	// table rebuilds) run on; <= 0 uses the process-wide shared pool.
	// Kernels always run on the shared pool.
	Parallelism int
	// Logf, when non-nil, receives serving diagnostics (recovered panics
	// with their stacks). cmd/blowfishd passes log.Printf.
	Logf func(format string, args ...any)
	// DataDir, when set, makes serving durable: tenant ledgers and stream
	// state snapshot into this directory and every budget charge and stream
	// delta is written ahead to a synced WAL. The daemon answers 503
	// "not_ready" until Recover has replayed the log; a disk failure flips
	// the daemon read-only (updates 503 "read_only", answers keep serving
	// with in-memory accounting). Empty disables persistence entirely.
	DataDir string
	// SnapshotInterval is how often the durable daemon folds its WAL into a
	// fresh snapshot generation; 0 defaults to one minute, negative disables
	// timed snapshots (Snapshot can still be called explicitly, and Close
	// always writes a final one). Ignored without DataDir.
	SnapshotInterval time.Duration
	// Injector threads deterministic fault injection into every disk
	// operation of the persistence layer. Tests only; nil injects nothing.
	Injector *faultinject.Injector
	// WALNoSync skips the fsync syscalls in the persistence layer (the
	// injection points still fire). Recovery tests sweeping hundreds of
	// crash coordinates use it; production daemons must not.
	WALNoSync bool
}

func (c Config) withDefaults() Config {
	if c.PlanCacheSize < 1 {
		c.PlanCacheSize = 64
	}
	if c.EngineCacheSize < 1 {
		c.EngineCacheSize = 16
	}
	if c.StreamCacheSize < 1 {
		c.StreamCacheSize = 64
	}
	if c.IdemTTL == 0 {
		c.IdemTTL = 15 * time.Minute
	}
	if c.IdemMax < 1 {
		c.IdemMax = 4096
	}
	if c.Seed == 0 {
		c.Seed = time.Now().UnixNano()
	}
	return c
}

// Stats is a point-in-time snapshot of the daemon's serving counters,
// exposed at GET /v1/stats.
type Stats struct {
	Requests        int64 `json:"requests"`
	Answered        int64 `json:"answered"`
	Updates         int64 `json:"updates"`
	StreamAnswers   int64 `json:"stream_answers"`
	Streams         int64 `json:"streams"`
	RejectedBudget  int64 `json:"rejected_budget"`
	RejectedRate    int64 `json:"rejected_rate"`
	Errors          int64 `json:"errors"`
	Panics          int64 `json:"panics"`
	Batches         int64 `json:"batches"` // always 0: requests are no longer coalesced
	PlanCacheHits   int64 `json:"plan_cache_hits"`
	PlanCacheMisses int64 `json:"plan_cache_misses"`
	PlanCacheSize   int64 `json:"plan_cache_size"`
	PlanEvictions   int64 `json:"plan_cache_evictions"`
	// Plan alias lookups: a hit skipped decoding the request's specs and
	// computing the plan key, because the same spec bytes arrived before.
	PlanAliasHits   int64 `json:"plan_alias_hits"`
	PlanAliasMisses int64 `json:"plan_alias_misses"`
	Tenants         int64 `json:"tenants"`
	// Failure-resilience counters: admitted-but-executing requests, work
	// shed at the admission gate (queue full / cold compile under pressure
	// vs deadline expired while queued), and the idempotency dedupe table
	// (replayed responses, recorded responses, live entries).
	InFlight     int64 `json:"in_flight"`
	ShedOverload int64 `json:"shed_overload"`
	ShedExpired  int64 `json:"shed_expired"`
	IdemHits     int64 `json:"idem_hits"`
	IdemRecorded int64 `json:"idem_recorded"`
	IdemEntries  int64 `json:"idem_entries"`
	// Durability counters; all zero when the daemon runs without a DataDir.
	ReadOnly    bool  `json:"read_only"`
	Snapshots   int64 `json:"snapshots"`
	WALRecords  int64 `json:"wal_records"`
	WALReplayed int64 `json:"wal_replayed"`
}

// Server is the http.Handler implementing the blowfishd API:
//
//	GET  /healthz     liveness probe
//	GET  /readyz      readiness probe (503 during WAL replay and read-only)
//	POST /v1/answer   release a workload over a database for one tenant
//	POST /v1/update   feed a delta into a tenant's maintained stream
//	GET  /v1/budget   a tenant's budget ledger (?tenant=name)
//	GET  /v1/stats    serving counters
//
// It is safe for concurrent use by any number of requests.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	plans   *lru[string, *planEntry]
	aliases *lru[uint64, aliasEntry] // raw spec bytes → canonical plan key (see wire.go)
	engines *lru[string, *blowfish.Engine]
	streams *lru[string, *blowfish.Stream]
	limiter *rateLimiter // nil when rate limiting is disabled
	gate    *gate        // nil when the in-flight cap is disabled
	idem    *idemTable
	maxBody int64 // request body cap: maxBodyBytes; tests lower it

	// testHook, when non-nil, runs with the request's context at named
	// points of every admitted answer request: "admit" after the gate,
	// "plan" after the plan lookup, "compute" as the release starts and
	// "charge" just before the charge. Tests use it to hold gate slots and
	// to cancel or expire requests mid-flight; always nil in production.
	testHook func(ctx context.Context, point string)

	tenantMu sync.Mutex
	tenants  map[string]*blowfish.Accountant

	srcMu sync.Mutex
	src   *blowfish.Source

	// walMu serializes the durable mutation order: every budget charge and
	// stream delta appends its WAL record under walMu before the in-memory
	// state changes, and snapshot rotation exports under the same mutex —
	// so the WAL order equals the apply order and a rotation can never lose
	// a record or double-apply one. walMu is always taken before any
	// accountant, cache or stream lock, never after. Nil store (no DataDir)
	// skips it entirely.
	walMu    sync.Mutex
	store    *persist.Store
	ready    atomic.Bool
	readOnly atomic.Bool
	stopSnap chan struct{}
	snapDone chan struct{}
	closed   sync.Once

	shedOverload atomic.Int64
	shedExpired  atomic.Int64

	answered       atomic.Int64
	requests       atomic.Int64
	updates        atomic.Int64
	streamAnswers  atomic.Int64
	rejectedBudget atomic.Int64
	rejectedRate   atomic.Int64
	errorCount     atomic.Int64
	panics         atomic.Int64
	snapshots      atomic.Int64
	walRecords     atomic.Int64
	walReplayed    atomic.Int64
}

// planEntry is one cached compiled plan plus the engine that prepared it
// (needed to open streams against it).
type planEntry struct {
	plan *blowfish.Plan
	eng  *blowfish.Engine
}

// New returns a Server for cfg. Like a Must constructor it panics when
// cfg.TenantBudget is invalid (negative, NaN or +Inf): such a budget must
// never fall back to unlimited ledgers. Callers taking the budget from user
// input validate it with blowfish.NewAccountant first.
func New(cfg Config) *Server {
	if _, err := blowfish.NewAccountant(cfg.TenantBudget); err != nil {
		panic(fmt.Sprintf("serve: invalid tenant budget: %v", err))
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		plans:   newLRU[string, *planEntry](cfg.PlanCacheSize),
		aliases: newLRU[uint64, aliasEntry](cfg.PlanCacheSize),
		engines: newLRU[string, *blowfish.Engine](cfg.EngineCacheSize),
		streams: newLRU[string, *blowfish.Stream](cfg.StreamCacheSize),
		limiter: newRateLimiter(cfg.TenantQPS, cfg.TenantBurst, nil),
		gate:    newGate(cfg.MaxInFlight, cfg.MaxQueue),
		idem:    newIdemTable(cfg.IdemMax, cfg.IdemTTL, nil),
		maxBody: maxBodyBytes,
		tenants: map[string]*blowfish.Accountant{},
		src:     blowfish.NewSource(cfg.Seed),
	}
	// A durable daemon is born not-ready: answers and updates 503 until
	// Recover has replayed the WAL, so no release can slip past a ledger
	// that is still mid-restore.
	s.ready.Store(cfg.DataDir == "")
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("POST /v1/answer", s.handleAnswer)
	s.mux.HandleFunc("POST /v1/update", s.handleUpdate)
	s.mux.HandleFunc("GET /v1/budget", s.handleBudget)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	return s
}

// ServeHTTP dispatches to the API handlers behind the recover barrier.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			// Graceful degradation: one bad request must not take the daemon
			// down. The panic is reported as a 500 and the worker keeps
			// serving.
			s.panics.Add(1)
			if s.cfg.Logf != nil {
				s.cfg.Logf("serve: recovered panic: %v\n%s", rec, debug.Stack())
			}
			writeError(w, http.StatusInternalServerError, "panic",
				fmt.Sprintf("internal panic: %v", rec), nil)
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// Stats snapshots the serving counters.
func (s *Server) Stats() Stats {
	s.tenantMu.Lock()
	tenants := int64(len(s.tenants))
	s.tenantMu.Unlock()
	return Stats{
		Requests:        s.requests.Load(),
		Answered:        s.answered.Load(),
		Updates:         s.updates.Load(),
		StreamAnswers:   s.streamAnswers.Load(),
		Streams:         int64(s.streams.len()),
		RejectedBudget:  s.rejectedBudget.Load(),
		RejectedRate:    s.rejectedRate.Load(),
		Errors:          s.errorCount.Load(),
		Panics:          s.panics.Load(),
		PlanCacheHits:   s.plans.hits.Load(),
		PlanCacheMisses: s.plans.misses.Load(),
		PlanCacheSize:   int64(s.plans.len()),
		PlanEvictions:   s.plans.evictions.Load(),
		PlanAliasHits:   s.aliases.hits.Load(),
		PlanAliasMisses: s.aliases.misses.Load(),
		Tenants:         tenants,
		InFlight:        int64(s.gate.inFlight()),
		ShedOverload:    s.shedOverload.Load(),
		ShedExpired:     s.shedExpired.Load(),
		IdemHits:        s.idem.hits.Load(),
		IdemRecorded:    s.idem.recorded.Load(),
		IdemEntries:     int64(s.idem.size()),
		ReadOnly:        s.readOnly.Load(),
		Snapshots:       s.snapshots.Load(),
		WALRecords:      s.walRecords.Load(),
		WALReplayed:     s.walReplayed.Load(),
	}
}

// Accountant returns (creating on first use) the named tenant's accountant.
func (s *Server) Accountant(tenant string) *blowfish.Accountant {
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	if a, ok := s.tenants[tenant]; ok {
		return a
	}
	a, _ := blowfish.NewAccountant(s.cfg.TenantBudget) // New validated the budget
	s.tenants[tenant] = a
	return a
}

// allowTenant runs the per-tenant rate limit, writing the 429
// "rate_limited" rejection itself when the tenant's bucket is empty. It
// runs before plan compilation and budget admission, so a rate-limited
// request costs the daemon nothing. The rejection carries a Retry-After
// header set to the bucket's refill time.
func (s *Server) allowTenant(w http.ResponseWriter, tenant string) bool {
	ok, wait := s.limiter.allow(tenant)
	if ok {
		return true
	}
	s.rejectedRate.Add(1)
	setRetryAfter(w, wait)
	writeError(w, http.StatusTooManyRequests, "rate_limited",
		fmt.Sprintf("tenant %q exceeded the %g req/s rate limit; retry later", tenant, s.cfg.TenantQPS), nil)
	return false
}

// retryAfterBudget is the Retry-After hint on 429 "budget_exhausted". The
// exhaustion is permanent — retrying the same release can never succeed —
// so the hint is a day: long enough that a naive retry loop effectively
// stops, while the typed wire code tells real clients not to retry at all.
const retryAfterBudget = 24 * time.Hour

// retryAfterOverload is the Retry-After hint on 503 "overloaded" sheds.
// Load shedding is transient; clients should back off briefly and retry.
const retryAfterOverload = time.Second

// setRetryAfter emits a Retry-After header of at least one second (the
// header is integer delta-seconds; the daemon's own client also accepts
// fractional values, but well-behaved third parties may not send them).
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

// idemKeyMaxLen bounds the Idempotency-Key header so the dedupe table and
// its WAL records cannot be ballooned by a single request.
const idemKeyMaxLen = 256

// requestContext applies the request's deadline field: timeoutMS > 0 wraps
// ctx with that deadline (the cancel must be deferred by the caller), and a
// negative value is a validation error.
func requestContext(ctx context.Context, timeoutMS int64) (context.Context, context.CancelFunc, error) {
	switch {
	case timeoutMS < 0:
		return ctx, func() {}, invalid("timeout_ms must be >= 0, got %d", timeoutMS)
	case timeoutMS == 0:
		return ctx, func() {}, nil
	default:
		ctx, cancel := context.WithTimeout(ctx, time.Duration(timeoutMS)*time.Millisecond)
		return ctx, cancel, nil
	}
}

// admit passes the request through the admission gate. cold requests (plan
// not yet compiled) are shed first under pressure. It writes the 503
// "overloaded" shed response (with Retry-After) itself; callers must call
// release exactly once when it returns true.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter, planKey string) (release func(), ok bool) {
	release, err := s.gate.acquire(ctx, !s.plans.contains(planKey))
	if err == nil {
		return release, true
	}
	if errors.Is(err, errShedExpired) {
		s.shedExpired.Add(1)
	} else {
		s.shedOverload.Add(1)
	}
	status, code := statusFor(err)
	if code == "overloaded" {
		setRetryAfter(w, retryAfterOverload)
	}
	writeError(w, status, code, err.Error(), nil)
	return nil, false
}

// split derives one independent noise stream from the daemon's root source.
func (s *Server) split() *blowfish.Source {
	s.srcMu.Lock()
	defer s.srcMu.Unlock()
	return s.src.Split()
}

// --- request/response schema ---

// PolicySpec names a policy graph in an answer request.
type PolicySpec struct {
	// Kind is one of "unbounded", "bounded", "line", "grid", "distance".
	Kind string `json:"kind"`
	// K is the domain size ("grid" reads it as the side of a k×k map).
	K int `json:"k,omitempty"`
	// Dims are the per-attribute domain sizes for "distance" policies.
	Dims []int `json:"dims,omitempty"`
	// Theta is the distance threshold for "distance" policies.
	Theta int `json:"theta,omitempty"`
}

// RectSpec is one inclusive hyper-rectangle query.
type RectSpec struct {
	Lo []int `json:"lo"`
	Hi []int `json:"hi"`
}

// WorkloadSpec names the linear-query workload of an answer request.
type WorkloadSpec struct {
	// Kind is one of "histogram", "cumulative", "allranges", "ranges"
	// (1-D, via Ranges) or "rects" (k-d, via Rects).
	Kind string `json:"kind"`
	// Ranges lists inclusive [lo, hi] pairs for Kind "ranges".
	Ranges [][2]int `json:"ranges,omitempty"`
	// Rects lists hyper-rectangles for Kind "rects".
	Rects []RectSpec `json:"rects,omitempty"`
}

// OptionsSpec mirrors blowfish.Options over the wire.
type OptionsSpec struct {
	// Estimator is "", "laplace", "consistent", "dawa", "dawa-consistent",
	// "gaussian" or "geometric".
	Estimator string  `json:"estimator,omitempty"`
	Delta     float64 `json:"delta,omitempty"`
	Theta     int     `json:"theta,omitempty"`
}

// AnswerRequest is the body of POST /v1/answer.
type AnswerRequest struct {
	Tenant   string       `json:"tenant"`
	Policy   PolicySpec   `json:"policy"`
	Workload WorkloadSpec `json:"workload"`
	Options  OptionsSpec  `json:"options"`
	Epsilon  float64      `json:"epsilon"`
	X        []float64    `json:"x,omitempty"`
	// Stream answers over the tenant's maintained stream for this plan
	// (created and fed by POST /v1/update) instead of a request-supplied
	// database; X must then be absent. 404 "no_stream" when none exists.
	Stream bool `json:"stream,omitempty"`
	// TimeoutMS is the caller's deadline for this request in milliseconds;
	// work still unfinished when it expires is abandoned with HTTP 504
	// "deadline_exceeded" (queued work is shed 503 "overloaded" instead).
	// 0 means no request-level deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// BudgetInfo reports a tenant's ledger; the Remaining fields are omitted for
// unlimited budgets.
type BudgetInfo struct {
	Limited          bool     `json:"limited"`
	SpentEpsilon     float64  `json:"spent_epsilon"`
	SpentDelta       float64  `json:"spent_delta"`
	RemainingEpsilon *float64 `json:"remaining_epsilon,omitempty"`
	RemainingDelta   *float64 `json:"remaining_delta,omitempty"`
	Releases         int64    `json:"releases"`
}

// AnswerResponse is the body of a successful POST /v1/answer.
type AnswerResponse struct {
	Algorithm string     `json:"algorithm"`
	Answers   []float64  `json:"answers"`
	Batched   int        `json:"batched"` // always 1; kept for wire compatibility
	PlanKey   string     `json:"plan_key"`
	Budget    BudgetInfo `json:"budget"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error  string      `json:"error"`
	Code   string      `json:"code"`
	Budget *BudgetInfo `json:"budget,omitempty"`
}

// statusFor maps the library's typed errors to HTTP statuses, one place so
// every handler reports them identically.
func statusFor(err error) (int, string) {
	switch {
	case errors.Is(err, blowfish.ErrBudgetExhausted):
		return http.StatusTooManyRequests, "budget_exhausted"
	case errors.Is(err, blowfish.ErrDomainMismatch):
		return http.StatusBadRequest, "domain_mismatch"
	case errors.Is(err, blowfish.ErrInvalidOptions):
		return http.StatusBadRequest, "invalid_request"
	case errors.Is(err, blowfish.ErrDisconnectedPolicy):
		return http.StatusUnprocessableEntity, "disconnected_policy"
	case errors.Is(err, errStreamExists):
		return http.StatusConflict, "stream_exists"
	case errors.Is(err, errReadOnly):
		return http.StatusServiceUnavailable, "read_only"
	case errors.Is(err, errOverloaded), errors.Is(err, errShedExpired):
		return http.StatusServiceUnavailable, "overloaded"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline_exceeded"
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, "canceled"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, msg string, budget *BudgetInfo) {
	writeJSON(w, status, ErrorResponse{Error: msg, Code: code, Budget: budget})
}

// invalid wraps a serve-level validation failure so it maps to HTTP 400 via
// the same typed-error path as the library's own rejections.
func invalid(format string, args ...any) error {
	args = append(args, blowfish.ErrInvalidOptions)
	return fmt.Errorf("serve: "+format+": %w", args...)
}

// --- spec construction ---

func (ps PolicySpec) build() (*blowfish.Policy, error) {
	switch ps.Kind {
	case "unbounded", "bounded", "line", "grid":
		if ps.K < 1 {
			return nil, invalid("policy %q needs k >= 1, got %d", ps.Kind, ps.K)
		}
	}
	switch ps.Kind {
	case "unbounded":
		return blowfish.UnboundedPolicy(ps.K), nil
	case "bounded":
		return blowfish.BoundedPolicy(ps.K), nil
	case "line":
		return blowfish.LinePolicy(ps.K), nil
	case "grid":
		return blowfish.GridPolicy(ps.K), nil
	case "distance":
		if len(ps.Dims) == 0 || ps.Theta < 1 {
			return nil, invalid("policy \"distance\" needs dims and theta >= 1")
		}
		for i, d := range ps.Dims {
			if d < 1 {
				return nil, invalid("policy \"distance\" dim %d must be >= 1, got %d", i, d)
			}
		}
		return blowfish.DistanceThresholdPolicy(ps.Dims, ps.Theta)
	default:
		return nil, invalid("unknown policy kind %q", ps.Kind)
	}
}

func (ws WorkloadSpec) build(k int) (*blowfish.Workload, error) {
	switch ws.Kind {
	case "histogram":
		return blowfish.Histogram(k), nil
	case "cumulative":
		return blowfish.CumulativeHistogram(k), nil
	case "allranges":
		return blowfish.AllRanges1D(k), nil
	case "ranges":
		if len(ws.Ranges) == 0 {
			return nil, invalid("workload \"ranges\" needs at least one range")
		}
		w := &blowfish.Workload{Name: "ranges", K: k}
		for i, r := range ws.Ranges {
			lo, hi := r[0], r[1]
			if lo < 0 || hi < lo || hi >= k {
				return nil, invalid("range %d [%d, %d] out of domain [0, %d)", i, lo, hi, k)
			}
			w.Queries = append(w.Queries, blowfish.Range1D{L: lo, R: hi})
		}
		return w, nil
	case "rects":
		if len(ws.Rects) == 0 {
			return nil, invalid("workload \"rects\" needs at least one rectangle")
		}
		w := &blowfish.Workload{Name: "rects", K: k}
		for i, r := range ws.Rects {
			if len(r.Lo) == 0 || len(r.Lo) != len(r.Hi) {
				return nil, invalid("rect %d has mismatched lo/hi arity", i)
			}
			w.Queries = append(w.Queries, blowfish.RangeKd{Lo: r.Lo, Hi: r.Hi})
		}
		return w, nil
	default:
		return nil, invalid("unknown workload kind %q", ws.Kind)
	}
}

func (os OptionsSpec) build() (blowfish.Options, error) {
	opts := blowfish.Options{Delta: os.Delta, Theta: os.Theta}
	switch os.Estimator {
	case "", "laplace":
		opts.Estimator = blowfish.EstimatorLaplace
	case "consistent":
		opts.Estimator = blowfish.EstimatorConsistent
	case "dawa":
		opts.Estimator = blowfish.EstimatorDAWA
	case "dawa-consistent":
		opts.Estimator = blowfish.EstimatorDAWAConsistent
	case "gaussian":
		opts.Estimator = blowfish.EstimatorGaussian
	case "geometric":
		opts.Estimator = blowfish.EstimatorGeometric
	default:
		return opts, invalid("unknown estimator %q", os.Estimator)
	}
	return opts, nil
}

// --- plan cache ---

// planKeySpec is the canonical identity of a compiled plan. Marshaling it
// yields a deterministic key: struct fields encode in declaration order.
type planKeySpec struct {
	Policy   PolicySpec   `json:"policy"`
	Workload WorkloadSpec `json:"workload"`
	Options  OptionsSpec  `json:"options"`
}

// planKey returns the exact cache key and its short printable hash.
func planKey(pol PolicySpec, wl WorkloadSpec, o OptionsSpec) (string, string, error) {
	raw, err := json.Marshal(planKeySpec{Policy: pol, Workload: wl, Options: o})
	if err != nil {
		return "", "", invalid("unencodable plan key: %v", err)
	}
	h := fnv.New64a()
	h.Write(raw)
	return string(raw), fmt.Sprintf("%016x", h.Sum64()), nil
}

// streamKey scopes a maintained stream to one tenant and one plan. The
// preamble rejects tenants containing a NUL, so the first NUL in the
// composite is always this separator — no two (tenant, plan) pairs collide
// and splitStreamKey recovers both parts.
func streamKey(tenant, plankey string) string { return tenant + "\x00" + plankey }

// engineKey is the policy-level part of the cache identity.
func engineKey(ps PolicySpec) (string, error) {
	raw, err := json.Marshal(ps)
	if err != nil {
		return "", invalid("unencodable policy spec: %v", err)
	}
	return string(raw), nil
}

// plan returns the cached compiled plan for a canonical plan key, compiling
// it (and caching the policy's Engine) on first use. A miss parses the
// specs back out of the key, so requests and WAL replay share this one
// build entry.
func (s *Server) plan(key string) (*planEntry, error) {
	entry, _, err := s.plans.getOrCreate(key, func() (*planEntry, error) {
		var spec planKeySpec
		if err := json.Unmarshal([]byte(key), &spec); err != nil {
			return nil, fmt.Errorf("serve: unparseable plan key %q: %w", key, err)
		}
		ekey, err := engineKey(spec.Policy)
		if err != nil {
			return nil, err
		}
		eng, _, err := s.engines.getOrCreate(ekey, func() (*blowfish.Engine, error) {
			p, err := spec.Policy.build()
			if err != nil {
				return nil, err
			}
			return blowfish.Open(p, blowfish.EngineOptions{Parallelism: s.cfg.Parallelism})
		})
		if err != nil {
			return nil, err
		}
		w, err := spec.Workload.build(eng.Policy().K)
		if err != nil {
			return nil, err
		}
		opts, err := spec.Options.build()
		if err != nil {
			return nil, err
		}
		pl, err := eng.Prepare(w, opts)
		if err != nil {
			return nil, err
		}
		return &planEntry{plan: pl, eng: eng}, nil
	})
	return entry, err
}

// --- handlers ---

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleBudget(w http.ResponseWriter, r *http.Request) {
	tenant := r.URL.Query().Get("tenant")
	if tenant == "" {
		tenant = "default"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"tenant": tenant,
		"budget": budgetInfo(s.Accountant(tenant).ExportState()),
	})
}

// admission is a request that passed the preamble.
type admission struct {
	ctx     context.Context // carries the request's deadline
	tenant  string          // "default" when the request names none
	ikey    string          // Idempotency-Key; "" for unkeyed requests
	specRef                 // the canonical plan key, its hash and alias bytes
}

// preamble runs the steps /v1/answer and /v1/update share, in order: count
// the request, readiness, decode into req and resolve its plan key (see
// wire.go), deadline, tenant, Idempotency-Key cap, rate limit, idempotent
// replay or claim, admission gate. Each step writes its own rejection.
// Then handle runs with the admitted request; the gate slot, the
// idempotency claim and the deadline are released after it returns (or
// panics), in that order.
func (s *Server) preamble(w http.ResponseWriter, r *http.Request, req wireBody, handle func(admission)) {
	s.requests.Add(1)
	if !s.notReady(w) {
		return
	}
	ref, err := s.decode(w, r, req)
	if err != nil {
		s.errorCount.Add(1)
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "too_large",
				fmt.Sprintf("request body exceeds the %d-byte cap", tooLarge.Limit), nil)
			return
		}
		writeError(w, http.StatusBadRequest, "bad_json", fmt.Sprintf("decoding request: %v", err), nil)
		return
	}
	head := req.wire()
	tenant := head.Tenant
	ctx, cancel, err := requestContext(r.Context(), head.TimeoutMS)
	defer cancel()
	if err != nil {
		s.fail(w, err)
		return
	}
	if tenant == "" {
		tenant = "default"
	}
	if strings.IndexByte(tenant, 0) >= 0 {
		// streamKey and idemKey join tenant and key at the first NUL.
		s.fail(w, invalid("tenant %q contains a NUL byte", tenant))
		return
	}
	ikey := r.Header.Get("Idempotency-Key")
	if len(ikey) > idemKeyMaxLen {
		s.fail(w, invalid("Idempotency-Key of %d bytes exceeds the %d-byte cap", len(ikey), idemKeyMaxLen))
		return
	}
	if !s.allowTenant(w, tenant) {
		return
	}
	if ikey != "" {
		// Replay or claim before admission: a replay costs no gate slot,
		// and duplicate executions wait on the leader without holding one.
		replay, _, err := s.idem.begin(ctx, idemKey(tenant, ikey))
		if err != nil {
			s.fail(w, err)
			return
		}
		if replay != nil {
			writeRecorded(w, replay, true)
			return
		}
		// The claim stands until finish records a response; abandoning a
		// recorded key is a no-op, so the deferred release is unconditional
		// and also covers panics (waiters take over instead of hanging).
		defer s.idem.abandon(idemKey(tenant, ikey))
	}
	release, admitted := s.admit(ctx, w, ref.key)
	if !admitted {
		return
	}
	defer release()
	handle(admission{ctx: ctx, tenant: tenant, ikey: ikey, specRef: ref})
}

func (s *Server) handleAnswer(w http.ResponseWriter, r *http.Request) {
	var req answerWire
	s.preamble(w, r, &req, func(a admission) {
		s.at(a.ctx, "admit")
		entry, err := s.planFor(a.specRef)
		if err != nil {
			s.fail(w, err)
			return
		}
		pl := entry.plan
		s.at(a.ctx, "plan")
		// Validate the request fully, then pre-check the budget, before any
		// computation: a rejected request draws no noise and spends nothing.
		var st *blowfish.Stream
		switch {
		case req.Stream && req.X != nil:
			s.fail(w, invalid(`a "stream": true request answers the maintained stream; x must be absent`))
			return
		case req.Stream:
			var ok bool
			if st, ok = s.streams.get(streamKey(a.tenant, a.key)); !ok {
				s.errorCount.Add(1)
				writeError(w, http.StatusNotFound, "no_stream",
					fmt.Sprintf("tenant %q has no stream for this plan; create one with POST /v1/update", a.tenant), nil)
				return
			}
		case len(req.X) != pl.Domain():
			s.fail(w, fmt.Errorf("serve: database size %d != policy domain %d: %w",
				len(req.X), pl.Domain(), blowfish.ErrDomainMismatch))
			return
		}
		acct := s.Accountant(a.tenant)
		per := pl.Cost(req.Epsilon)
		if err := affordable(acct, per); err != nil {
			s.chargeFail(w, acct, err)
			return
		}
		// Compute before charging: noise is drawn but nothing leaves yet. A
		// caller that gave up by the end gets no answer, so it is not charged;
		// once the charge commits, the reply is unconditional.
		s.at(a.ctx, "compute")
		var out []float64
		if st != nil {
			out, err = st.AnswerWith(a.ctx, nil, req.Epsilon, s.split())
		} else {
			out, err = pl.AnswerWith(a.ctx, nil, req.X, req.Epsilon, s.split())
		}
		if err != nil {
			s.fail(w, err)
			return
		}
		s.at(a.ctx, "charge")
		if err := a.ctx.Err(); err != nil {
			s.fail(w, err)
			return
		}
		resp := AnswerResponse{Algorithm: pl.Algorithm(), Answers: out, Batched: 1, PlanKey: a.hash}
		body, err := s.charge(a.tenant, a.ikey, acct, per, &resp)
		if err != nil {
			s.chargeFail(w, acct, err)
			return
		}
		s.answered.Add(1)
		if st != nil {
			s.streamAnswers.Add(1)
		}
		if a.ikey != "" {
			writeRecorded(w, &idemEntry{Status: http.StatusOK, Body: body}, false)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
}

// at runs the test hook, if any, at the named point of an answer request.
func (s *Server) at(ctx context.Context, point string) {
	if s.testHook != nil {
		s.testHook(ctx, point)
	}
}

// errDryRun aborts the commit hook of affordable's probe charge.
var errDryRun = errors.New("serve: dry run")

// affordable is the cheap over-budget pre-check: it prices one release of
// per against acct exactly as the real charge will, then aborts the commit,
// so nothing is spent. A concurrent charge may still use up the budget
// before this request's own charge, which then decides.
func affordable(acct *blowfish.Accountant, per blowfish.Budget) error {
	err := acct.ChargeLogged(per, 1, func(blowfish.AccountantState) error { return errDryRun })
	if errors.Is(err, errDryRun) {
		return nil
	}
	return err
}

// chargeFail reports a failed budget charge: exhaustion carries the
// remaining ledger (so clients can tell "out of budget" from "slow down")
// plus a long Retry-After — the exhaustion is permanent and retrying can
// never help.
func (s *Server) chargeFail(w http.ResponseWriter, acct *blowfish.Accountant, err error) {
	status, code := statusFor(err)
	if errors.Is(err, blowfish.ErrBudgetExhausted) {
		s.rejectedBudget.Add(1)
		setRetryAfter(w, retryAfterBudget)
	} else {
		s.errorCount.Add(1)
	}
	info := budgetInfo(acct.ExportState())
	writeError(w, status, code, err.Error(), &info)
}

// writeRecorded writes a canonical recorded response verbatim; replays are
// marked with an Idempotent-Replay header so clients (and tests) can tell
// a dedupe hit from a fresh execution.
func writeRecorded(w http.ResponseWriter, ent *idemEntry, replay bool) {
	w.Header().Set("Content-Type", "application/json")
	if replay {
		w.Header().Set("Idempotent-Replay", "true")
	}
	w.WriteHeader(ent.Status)
	_, _ = w.Write(ent.Body)
}

// budgetInfo reports an exported ledger state. The answer path builds it
// from the tentative post-charge state inside the commit hook, before the
// spend is visible.
func budgetInfo(st blowfish.AccountantState) BudgetInfo {
	info := BudgetInfo{
		SpentEpsilon: st.Spent.Epsilon,
		SpentDelta:   st.Spent.Delta,
		Releases:     st.Releases,
	}
	if st.Budget.Epsilon != 0 || st.Budget.Delta != 0 {
		info.Limited = true
		re := st.Budget.Epsilon - st.Spent.Epsilon
		rd := st.Budget.Delta - st.Spent.Delta
		if re < 0 {
			re = 0
		}
		if rd < 0 {
			rd = 0
		}
		info.RemainingEpsilon = &re
		info.RemainingDelta = &rd
	}
	return info
}
