#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark and the program
# under test from source into .bench_build/ (inside the checkout, like every
# other file this touches) and runs it from the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# Everything the go command reads or writes stays in the checkout too: its
# caches, its scratch space, its per-user configuration and counters.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS=-modcacherw GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/moqobench" .
cd "$root"
exec "$build/moqobench" "$@"
