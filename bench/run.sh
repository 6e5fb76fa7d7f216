#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments, e.g.
#
#   bash bench/run.sh --workload hot-reads --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The binary, the Go build cache and the
# backends' data directories stay under $CARGO_TARGET_DIR (default
# .bench_build/), so nothing is written outside the checkout; the local
# Go toolchain is pinned and the module proxy is off, so the build never
# touches the network.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd bench && go build -o "$out/ocqa-bench" .)
exec "$out/ocqa-bench" --data "$out/data" "$@"
