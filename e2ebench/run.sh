#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it from the root
# of a checkout:
#
#   bash e2ebench/run.sh --workload saturated --seed 1 --seconds 30 --trace 0
#
# Everything it writes (Go build cache, binary, graph snapshot, span
# files) goes under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/e2ebench"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/config" XDG_CACHE_HOME="$out/home/cache"
(cd "$(dirname "$0")" && go build -o "$out/e2ebench" .)
"$out/e2ebench" --prepare --dir "$out"
exec "$out/e2ebench" --dir "$out" "$@"
