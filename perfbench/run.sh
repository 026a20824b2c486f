#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload contended --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --steady 10 --seconds 10
#
# The build lands in .bench_build at the root of the checkout, and the Go
# build cache, temporary files and tool state are kept there too, so a run
# writes nothing outside the checkout. The benchmark is its own module that
# takes the runtime from the parent directory; without the repository
# around it the build fails and the script exits non-zero.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
	GOPATH="$out/home/go" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
