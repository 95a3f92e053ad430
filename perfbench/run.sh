#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it is run from, then
# runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload kv-read --seed 1 --seconds 5 --trace 0
#
# The Go build cache, module cache and the binary stay under .bench_build/
# in the checkout; nothing is fetched or written elsewhere.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod \
	GOPROXY=off GOSUMDB=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
