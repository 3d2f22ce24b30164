#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes — the binary, Go's build cache and its
# temporary files — stays in .bench_build/ at the root of the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off

# The benchmark is a module of its own that replaces `gengc` with the
# checkout around it, so the build fails — and nothing runs — where the
# repository is missing.
(cd "$here" && go build -o "$build/benchmark" .) >&2

cd "$root"
exec "$build/benchmark" "$@"
