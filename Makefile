# Development and CI targets. .github/workflows/ci.yml calls `make docs`,
# `make test`, `make fuzz`, `make chaos`, `make crash`, `make gate` and
# `make e2e` rather than repeating their commands; its other steps (build,
# examples and bench smokes) are written out in the workflow.

GO ?= go
BENCH_JSON ?= BENCH_eval.json

.PHONY: all build test bench fuzz gate lint docs crash chaos e2e clean

all: lint build test

build:
	$(GO) build ./...

# The plain run comes first: tests built `!race` (the decode allocation
# pin, which -race's sync.Pool would break) only run there.
test:
	$(GO) test ./...
	$(GO) test -race ./...

# Benchmarks: a 1-iteration smoke pass over every Benchmark* (so they cannot
# bit-rot), then the experiment driver writing the machine-readable reports
# used for the perf trajectory. Both reports are untracked: the gate
# baselines are only ever rewritten by hand.
bench:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...
	$(GO) run ./cmd/blowfishbench -exp table1,fig3,fig10a,fig10b,fig10spectral,planreuse -json $(BENCH_JSON)
	$(GO) run ./cmd/blowfishbench -exp stream,shard -full -json BENCH_full.json

# Wire-format fuzzers for the daemon's JSON surface plus the durable
# snapshot/WAL decoders (typed errors, never a panic, on arbitrary bytes).
# CI runs a short smoke; crank FUZZTIME locally to dig.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/serve -run '^$$' -fuzz 'FuzzAnswerWire' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -run '^$$' -fuzz 'FuzzUpdateWire' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -run '^$$' -fuzz 'FuzzWALReplayRecord' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/persist -run '^$$' -fuzz 'FuzzSnapshotLoad' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/persist -run '^$$' -fuzz 'FuzzWALReplay' -fuzztime $(FUZZTIME)

# Kill -9 / restart smoke against a real daemon process (driven through
# blowfishctl, the retrying client): ledgers, stream state, and recorded
# idempotent responses must survive a hard kill (WAL replay) and a SIGTERM
# (final snapshot).
crash:
	./scripts/crash_smoke.sh

# Chaos suite under the race detector: the retrying client against a faulty
# daemon (dropped requests, lost responses, latency, kill -9 mid-request)
# must land on exactly the fault-free ledger and stream state.
chaos:
	$(GO) test -race -run 'TestChaos' ./internal/serve
	$(GO) test -race ./client

# End-to-end benchmark: a freshly built blowfishd over loopback, driven for
# each gated workload at its checked-in length. The run's wire checks
# (ε=0 answers equal W·x, ledgers equal the 200s received, one WAL record
# per charge or update, ...) make it exit non-zero on "correct": false.
e2e:
	bash e2ebench/run.sh --workload static-mem --seed 1
	bash e2ebench/run.sh --workload stream-durable --seed 1

# Regression gate: `blowfishbench -gate` reruns each tracked baseline's
# experiments at the GOMAXPROCS, parallelism, seed and scale the baseline
# records, writes the fresh report to BENCH_*.fresh.json, and fails on a
# ratio column that regressed beyond GATE_TOLERANCE. Every baseline is gated
# even after a failure. CI runs this target with GATE_TOLERANCE=0.6.
GATE_BASELINES = BENCH_sparse.json BENCH_fig10spectral.json BENCH_stream.json BENCH_shard.json
GATE_TOLERANCE ?= 0.5
gate:
	@status=0; for b in $(GATE_BASELINES); do \
		$(GO) run ./cmd/blowfishbench -gate $$b -tolerance $(GATE_TOLERANCE) -json $${b%.json}.fresh.json || status=1; \
	done; exit $$status

# e2ebench/ is its own module, outside ./..., and imports the root package,
# internal/serve and internal/persist: vet it so an API change there fails
# here, not at the benchmark's first build. GOPROXY=off as in e2ebench/run.sh.
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...
	cd e2ebench && GOPROXY=off GOFLAGS= $(GO) vet ./...

# Documentation hygiene: format + vet, then fail if any internal package is
# missing a package comment (the godoc landing text for that package).
docs: lint
	@missing="$$($(GO) list -f '{{if not .Doc}}{{.ImportPath}}{{end}}' ./internal/...)"; \
	if [ -n "$$missing" ]; then \
		echo "packages missing a package comment:" >&2; echo "$$missing" >&2; exit 1; fi
	@echo "docs: all internal packages documented"

clean:
	rm -f BENCH_*.fresh.json BENCH_smoke.json BENCH_eval.json BENCH_full.json
