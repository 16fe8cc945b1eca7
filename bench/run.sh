#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root
# (Go's build cache and GOPATH included, so nothing is written outside the
# checkout; the module has no dependency to download) and
# runs it there. Arguments pass through: see bench/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
(cd "$here" && go build -o "$build/mlec-bench" .) >&2
cd "$root"
exec "$build/mlec-bench" -commit "$commit" "$@"
