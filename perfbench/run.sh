#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload r1cs-batch --seed 1 --seconds 25 --trace 0
#
# Every build product (Go build cache, binary, traces, result files) stays
# under $CARGO_TARGET_DIR, or .bench_build when it is unset.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
  /*) ;;
  *) out="$root/$out" ;;
esac
mkdir -p "$out"

# The go command's caches, path and config (its telemetry counters too)
# live under $out, so nothing is written outside the checkout.
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
# The benchmark needs no module from outside the checkout; never fetch one.
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out/perfbench-results" "$@"
