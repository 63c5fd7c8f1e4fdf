#!/usr/bin/env bash
# Builds perfbench from source and runs it; every argument is passed
# through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload engine --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build in
# the current directory: the Go build cache, the binary, and the
# servers' data directories (removed when the run ends).
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
