# Development and CI targets. .github/workflows/ci.yml calls `make test`,
# `make fuzz`, `make chaos`, `make crash`, `make gate` and `make e2e` rather
# than repeating their commands; its other steps (gofmt, vet, doc lint,
# examples and bench smokes) are written out in the workflow.

GO ?= go
BENCH_JSON ?= BENCH_eval.json

.PHONY: all build test bench fuzz gate lint docs crash chaos e2e clean

all: lint build test

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# Benchmarks: a 1-iteration smoke pass over every Benchmark* (so they cannot
# bit-rot), then the experiment driver writing the machine-readable report
# used for the perf trajectory.
bench:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...
	$(GO) run ./cmd/blowfishbench -exp table1,fig3,fig10a,fig10b,fig10spectral,planreuse -json $(BENCH_JSON)
	$(GO) run ./cmd/blowfishbench -exp stream -full -json BENCH_stream.json
	$(GO) run ./cmd/blowfishbench -exp shard -full -json BENCH_shard.json

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

# Regression gate: regenerate the benchmark reports at the same scale and
# GOMAXPROCS as the checked-in baselines (benchgate refuses a pair that
# differs in either), then compare the machine-portable ratio columns. CI
# runs this target with GATE_TOLERANCE=0.6.
GATE_TOLERANCE ?= 0.5
gate:
	GOMAXPROCS=1 $(GO) run ./cmd/blowfishbench -exp sparse -json BENCH_sparse.fresh.json
	GOMAXPROCS=1 $(GO) run ./cmd/blowfishbench -exp fig10spectral -json BENCH_fig10spectral.fresh.json
	GOMAXPROCS=1 $(GO) run ./cmd/blowfishbench -exp stream -full -json BENCH_stream.fresh.json
	GOMAXPROCS=2 $(GO) run ./cmd/blowfishbench -exp shard -full -json BENCH_shard.fresh.json
	$(GO) run ./cmd/benchgate -baseline BENCH_sparse.json -current BENCH_sparse.fresh.json -tolerance $(GATE_TOLERANCE)
	$(GO) run ./cmd/benchgate -baseline BENCH_fig10spectral.json -current BENCH_fig10spectral.fresh.json -tolerance $(GATE_TOLERANCE)
	$(GO) run ./cmd/benchgate -baseline BENCH_stream.json -current BENCH_stream.fresh.json -tolerance $(GATE_TOLERANCE)
	$(GO) run ./cmd/benchgate -baseline BENCH_shard.json -current BENCH_shard.fresh.json -tolerance $(GATE_TOLERANCE)

lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...

# Documentation hygiene: format + vet, then fail if any internal package is
# missing a package comment (the godoc landing text for that package).
docs: lint
	@missing="$$($(GO) list -f '{{if not .Doc}}{{.ImportPath}}{{end}}' ./internal/...)"; \
	if [ -n "$$missing" ]; then \
		echo "packages missing a package comment:" >&2; echo "$$missing" >&2; exit 1; fi
	@echo "docs: all internal packages documented"

clean:
	rm -f BENCH_*.fresh.json BENCH_smoke.json BENCH_eval.json
