#!/usr/bin/env bash
# Builds the benchmark from the sources in the current directory (the
# root of a checkout) and runs it with the given arguments:
#
#   bash benchmark/run.sh --workload cold-cmo --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build
# directory ($CARGO_TARGET_DIR, default .bench_build): the Go build
# cache, the binary, temporary files, cache directories and the
# written-out spans.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=

(cd "$root/benchmark" && go build -o "$out/cmo-benchmark" .)
# The workloads are sized for two CPUs: run Go code on at most two at
# once, also on a larger machine.
export GOMAXPROCS=2
exec "$out/cmo-benchmark" --out "$out" "$@"
