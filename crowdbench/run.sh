#!/usr/bin/env bash
# Builds the crowddb end-to-end benchmark from the source tree and runs it.
#
#   bash crowdbench/run.sh --workload serve_point --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the runs leave
# behind (Go build cache, binary, temporary data directories, trace
# files) stays under .bench_build/ in the current directory. A failed
# build exits non-zero without printing a result.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/crowdbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOWORK=off
export GOENV=off
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"

if ! (cd "$root/crowdbench" && go build -o "$out/crowdbench" .) >&2; then
	echo "crowdbench: build failed" >&2
	exit 2
fi
exec "$out/crowdbench" "$@"
