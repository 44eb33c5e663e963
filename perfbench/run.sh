#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs one workload.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload ssb-inproc --seed 42 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, spill
# files, spans, result files) goes under $CARGO_TARGET_DIR, default
# .bench_build, inside the checkout.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/go/cache" "$out/go/path" "$out/go/tmp" "$out/go/home" "$out/perfbench"
export GOCACHE=$out/go/cache GOPATH=$out/go/path GOTMPDIR=$out/go/tmp TMPDIR=$out/go/tmp \
	HOME=$out/go/home XDG_CONFIG_HOME=$out/go/home/.config XDG_CACHE_HOME=$out/go/home/.cache \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd perfbench && go build -o "$out/perfbench/perfbench" .) >&2
exec "$out/perfbench/perfbench" --out "$out/perfbench" "$@"
