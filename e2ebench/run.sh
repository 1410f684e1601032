#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it runs
# in, then runs it with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload build-cold --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache stay inside the checkout, under
# $CARGO_TARGET_DIR (default .bench_build). A checkout without the module's
# sources fails the build, so the benchmark exits non-zero and prints no
# result.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath TMPDIR=$out/tmp
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/e2ebench" && go build -buildvcs=false -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" "$@"
