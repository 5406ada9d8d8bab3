#!/usr/bin/env bash
# Builds the serving benchmark from the source tree it sits in and runs
# it; every argument is passed through. Run from the repository root:
#
#   bash _perfbench/run.sh --workload hit_zipf --seed 1 --seconds 32 --trace 0
#
# Everything the build and the run write (binary, Go build cache,
# temporary stores, span dumps) goes under $CARGO_TARGET_DIR, default
# .bench_build, relative to the current directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly CGO_ENABLED=0

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --workdir "$out" "$@"
