#!/usr/bin/env bash
# Builds the benchmark and the apserve/aprouter binaries from the checkout it
# is run in, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload point --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. Everything it builds or writes goes
# under .bench_build/ there, the Go build cache included.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$out/bin/" . repro/cmd/apserve repro/cmd/aprouter) >&2
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
