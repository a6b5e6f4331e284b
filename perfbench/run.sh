#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the
# arguments given, e.g.
#
#   bash perfbench/run.sh --workload point --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write stays under .bench_build/ in that directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= \
	GOWORK=off CGO_ENABLED=0
bin="$out/perfbench.$$"
(cd "$root/perfbench" && go build -o "$bin" .)
status=0
"$bin" "$@" || status=$?
rm -f "$bin"
exit "$status"
