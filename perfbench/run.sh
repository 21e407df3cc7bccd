#!/usr/bin/env bash
# run.sh — build the benchmark and samplealignsrv from source, then run
# one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload dist-genome2000 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the repository root (Go build cache included).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (no go.mod here)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" GOTOOLCHAIN=local GOWORK=off

go build -o "$build/samplealignsrv" ./cmd/samplealignsrv >&2
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --server-bin "$build/samplealignsrv" --work-dir "$build/work" "$@"
