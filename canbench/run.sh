#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash canbench/run.sh --workload fleet-blind --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files and the harness binary.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/home/go"
export GOFLAGS="-mod=mod -buildvcs=false" GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off GOWORK=off CGO_ENABLED=0
(cd "$root/canbench" && go build -o "$out/canbench" .)
exec "$out/canbench" "$@"
