#!/usr/bin/env bash
# Builds the repository benchmark from the sources in this checkout and runs
# it with the given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload fleet-shared --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files) goes
# under .bench_build/ in the checkout, or under $CARGO_TARGET_DIR when set.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/benchmark" ]]; then
	echo "benchmark/run.sh: run from the repository root (no go.mod or benchmark/ here)" >&2
	exit 2
fi

build=${CARGO_TARGET_DIR:-.bench_build}
[[ $build == /* ]] || build="$root/$build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/home"

# Keep the go command inside the checkout: its caches, temporary files and
# user configuration all live under $build, and it never fetches anything.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" HOME="$build/home" XDG_CONFIG_HOME="$build/home" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/benchmark" && go build -o "$build/ptile360-bench" .) >&2
exec "$build/ptile360-bench" "$@"
