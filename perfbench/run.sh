#!/usr/bin/env bash
# Builds perfbench from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload grid --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, the toolchain's config
# and telemetry files (XDG_CONFIG_HOME), governor spill files (TMPDIR)
# and span files.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
