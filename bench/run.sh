#!/usr/bin/env bash
# Builds bench/fppnbench from the checkout this script sits in and runs it
# with the given arguments, e.g.
#
#   bash bench/run.sh --workload compile-cold --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and every temporary file stay under
# $CARGO_TARGET_DIR (default .bench_build) at the checkout root, so a run
# writes nothing outside the checkout. The build needs the repository's
# own module one directory up; without it the script fails before running.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench_dir")
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp" "$out/config"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export GOTMPDIR=$out/tmp TMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$bench_dir" && go build -o "$out/fppnbench" ./fppnbench)
exec "$out/fppnbench" "$@"
