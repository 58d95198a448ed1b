#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload da-tree --seed 0 --seconds 20 --trace 0
#
# Run it from the checkout's root. Build caches, the binary and the
# daemon's scratch checkpoint logs all stay under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout. A failed build exits non-zero
# without printing a result.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/home"
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOPATH=$build/gopath
export HOME=$build/home XDG_CONFIG_HOME=$build/home/.config XDG_CACHE_HOME=$build/home/.cache
export GOENV=off GOTOOLCHAIN=local GOFLAGS=
commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
(cd "$here" && go build -buildvcs=false -o "$build/perfbench" .) >&2
exec "$build/perfbench" -root "$root" -tmp "$build" -commit "$commit" "$@"
