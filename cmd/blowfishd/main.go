// Command blowfishd is a multi-tenant answer service over the blowfish
// Engine/Plan API. Each tenant gets an independent (ε, δ) budget ledger;
// requests that would overdraw it are rejected with HTTP 429 before any
// noise is drawn. Plans are compiled once per distinct (policy, workload,
// options) triple and cached, and every request is answered on its own:
// released, then charged, then replied to, so ε is spent only for a
// response that is delivered or recorded.
//
// Usage:
//
//	blowfishd -addr :8080 -tenant-eps 2.0
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/answer -d '{
//	    "tenant": "alice",
//	    "policy": {"kind": "line", "k": 8},
//	    "workload": {"kind": "histogram"},
//	    "epsilon": 0.5,
//	    "x": [3, 1, 4, 1, 5, 9, 2, 6]}'
//	curl -s 'localhost:8080/v1/budget?tenant=alice'
//	curl -s localhost:8080/v1/stats
//
// Streaming: POST /v1/update feeds a per-(tenant, plan) maintained stream
// with incremental deltas (refreshing the cached plan instead of dropping
// it), and /v1/answer with "stream": true releases over that maintained
// state:
//
//	curl -s -X POST localhost:8080/v1/update -d '{
//	    "tenant": "alice",
//	    "policy": {"kind": "line", "k": 8},
//	    "workload": {"kind": "histogram"},
//	    "base": [3, 1, 4, 1, 5, 9, 2, 6],
//	    "delta": {"cells": [2], "values": [1]}}'
//	curl -s -X POST localhost:8080/v1/answer -d '{
//	    "tenant": "alice",
//	    "policy": {"kind": "line", "k": 8},
//	    "workload": {"kind": "histogram"},
//	    "epsilon": 0.5,
//	    "stream": true}'
//
// With -tenant-qps each tenant's /v1/answer and /v1/update traffic is
// token-bucket rate limited; excess requests get HTTP 429 with code
// "rate_limited", distinct from the budget-admission 429 "budget_exhausted".
//
// With -data-dir serving is durable: tenant ledgers and stream state are
// snapshotted into the directory, every budget charge and stream delta is
// written ahead to a synced WAL, and a restart replays both before the
// daemon reports ready on GET /readyz (503 "not_ready" during replay). A
// disk failure flips the daemon read-only — updates get 503 "read_only",
// answers keep serving with in-memory accounting — and SIGTERM drains
// in-flight requests, writes a final snapshot, and exits cleanly:
//
//	blowfishd -addr :8080 -data-dir /var/lib/blowfishd -snapshot-interval 30s
//	curl -s localhost:8080/readyz
//
// Endpoints: GET /healthz, GET /readyz, POST /v1/answer, POST /v1/update,
// GET /v1/budget?tenant=NAME, GET /v1/stats. See internal/serve for the
// wire formats and the typed error → status mapping.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	blowfish "github.com/privacylab/blowfish"
	"github.com/privacylab/blowfish/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		tenantEps   = flag.Float64("tenant-eps", 0, "per-tenant ε budget (0 = unlimited)")
		tenantDelta = flag.Float64("tenant-delta", 0, "per-tenant δ budget")
		planCache   = flag.Int("plan-cache", 64, "compiled plans kept per LRU")
		engineCache = flag.Int("engine-cache", 16, "opened engines kept per LRU")
		streamCache = flag.Int("stream-cache", 64, "maintained per-(tenant, plan) streams kept per LRU")
		tenantQPS   = flag.Float64("tenant-qps", 0, "per-tenant request rate limit in req/s (0 = unlimited)")
		tenantBurst = flag.Int("tenant-burst", 0, "token-bucket burst behind -tenant-qps (0 = ceil(qps))")
		seed        = flag.Int64("seed", 0, "noise seed (0 = from the clock; set only for reproducible tests)")
		parallel    = flag.Int("parallel", 0, "width of each engine's worker pool for sharded grid compiles (0 = the shared pool, one per CPU)")
		dataDir     = flag.String("data-dir", "", "directory for durable ledgers and stream snapshots (empty = in-memory only)")
		snapEvery   = flag.Duration("snapshot-interval", 0, "how often to fold the WAL into a fresh snapshot (0 = 1m, negative = only at shutdown)")
		maxInFlight = flag.Int("max-inflight", 0, "max concurrently executing answer/update requests; excess is queued or shed 503 \"overloaded\" (0 = unlimited)")
		maxQueue    = flag.Int("max-queue", 0, "bounded wait queue behind -max-inflight (0 = 4x max-inflight)")
		idemTTL     = flag.Duration("idem-ttl", 0, "how long a recorded idempotent response stays replayable (0 = 15m, negative = until evicted)")
		idemMax     = flag.Int("idem-max", 0, "max recorded idempotent responses, oldest evicted first (0 = 4096)")
		drainWait   = flag.Duration("drain-timeout", 10*time.Second, "max time to drain in-flight requests on SIGTERM before forcing connections closed")
	)
	flag.Parse()

	budget := blowfish.Budget{Epsilon: *tenantEps, Delta: *tenantDelta}
	if _, err := blowfish.NewAccountant(budget); err != nil {
		fmt.Fprintf(os.Stderr, "blowfishd: -tenant-eps/-tenant-delta: %v\n", err)
		os.Exit(2)
	}
	srv := serve.New(serve.Config{
		TenantBudget:     budget,
		PlanCacheSize:    *planCache,
		EngineCacheSize:  *engineCache,
		StreamCacheSize:  *streamCache,
		TenantQPS:        *tenantQPS,
		TenantBurst:      *tenantBurst,
		MaxInFlight:      *maxInFlight,
		MaxQueue:         *maxQueue,
		IdemTTL:          *idemTTL,
		IdemMax:          *idemMax,
		Seed:             *seed,
		Parallelism:      *parallel,
		Logf:             log.Printf,
		DataDir:          *dataDir,
		SnapshotInterval: *snapEvery,
	})

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Bind the listener before recovery so health probes reach the daemon
	// while it replays (the handlers answer 503 "not_ready" until Recover
	// finishes), then recover synchronously: no answer or update is served
	// off a half-restored ledger.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "blowfishd: %v\n", err)
		os.Exit(1)
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	if err := srv.Recover(); err != nil {
		fmt.Fprintf(os.Stderr, "blowfishd: recovery: %v\n", err)
		os.Exit(1)
	}
	switch {
	case *dataDir != "" && (*tenantEps > 0 || *tenantDelta > 0):
		log.Printf("blowfishd: listening on %s (per-tenant budget ε=%g δ=%g, durable in %s)", *addr, *tenantEps, *tenantDelta, *dataDir)
	case *dataDir != "":
		log.Printf("blowfishd: listening on %s (unlimited tenant budgets, durable in %s)", *addr, *dataDir)
	case *tenantEps > 0 || *tenantDelta > 0:
		log.Printf("blowfishd: listening on %s (per-tenant budget ε=%g δ=%g)", *addr, *tenantEps, *tenantDelta)
	default:
		log.Printf("blowfishd: listening on %s (unlimited tenant budgets)", *addr)
	}

	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "blowfishd: %v\n", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		// Graceful shutdown: drain in-flight requests — bounded by
		// -drain-timeout, because an unbounded drain (one stuck client) would
		// hold the final snapshot hostage — then fold the WAL into a final
		// snapshot so the next start replays nothing. If the drain deadline
		// expires, remaining connections are forced closed and the snapshot
		// still runs: a slow client must not cost durability.
		log.Printf("blowfishd: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			log.Printf("blowfishd: drain timed out (%v); forcing connections closed", err)
			_ = hs.Close()
		}
		if err := srv.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "blowfishd: final snapshot: %v\n", err)
			os.Exit(1)
		}
	}
}
