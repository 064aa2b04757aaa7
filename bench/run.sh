#!/usr/bin/env bash
# The driver's entry point. By hand, `go run ./bench` does the same; this
# wrapper exists because a driver run may read and write only inside its
# checkout, so the Go build cache, temporary files and the binaries are kept
# under bench/out/.build/ instead of $HOME/.cache and /tmp.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/bench/out/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
