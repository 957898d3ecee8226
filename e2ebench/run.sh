#!/usr/bin/env bash
# Builds cmd/blowfishd and the benchmark from this checkout, then runs one
# workload. Run from the repository root:
#
#   bash e2ebench/run.sh --workload static-mem --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, data directories and daemon logs all go
# under .bench_build/ in the checkout; so does the go command's config
# directory (XDG_CONFIG_HOME), where it would otherwise write telemetry.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/blowfishd || ! -f e2ebench/go.mod ]]; then
	echo "e2ebench: run from the repository root (needs go.mod, cmd/blowfishd and e2ebench/)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/blowfishd" ./cmd/blowfishd
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -daemon "$out/blowfishd" -work "$out/run" "$@"
