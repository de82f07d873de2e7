#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload construct --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache and the runs' scratch files all stay under
# .bench_build in the current directory (or $CARGO_TARGET_DIR when set).
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/home"
out="$(cd "$out" && pwd)"

# Keep the toolchain's caches and config inside the build directory, and
# never let it reach for a network module proxy or another toolchain.
HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOCACHE="$out/gocache" \
	GOPATH="$out/home/go" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
