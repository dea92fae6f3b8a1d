#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and runs
# it, passing every argument through:
#
#   bash perfbench/run.sh --workload cluster-kdtree --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Build outputs, the Go build cache and
# the traced run's span files go to $CARGO_TARGET_DIR (default .bench_build),
# so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off

# Fall back to the Go distribution's default install location.
command -v go >/dev/null || PATH=$PATH:/usr/local/go/bin
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -spans-dir "$out/spans" "$@"
