#!/usr/bin/env bash
# Builds bench/ from source and runs it with the arguments given. Everything
# go writes — build cache, module cache, temporary files, its own counters, the
# binary — stays in .bench_build/ at the root of the checkout; traces go to
# bench/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
cd "$root/bench"
# The commit is stamped into the binary when git can say what it is.
go build -o "$build/pythia-bench" . 2>/dev/null || go build -buildvcs=false -o "$build/pythia-bench" .
exec "$build/pythia-bench" "$@"
