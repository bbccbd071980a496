#!/usr/bin/env bash
# Builds tripbench from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash tripbench/run.sh --workload stream-warm --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build writes (the
# Go build cache and the binary) stays under .bench_build/ there; the
# build is offline and uses only the local toolchain.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false CGO_ENABLED=0

(cd "$here" && go build -o "$out/tripbench" .)
exec "$out/tripbench" "$@"
