#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload cold-groceries --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build product, Go cache entry and
# generated dataset stays under $CARGO_TARGET_DIR (default .bench_build).
# A failed build exits non-zero before anything is printed on stdout.
set -euo pipefail

if [[ ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --dir "$out" "$@"
