#!/usr/bin/env bash
# Builds the benchmark (a Go module of its own, so the repository's build
# files stay untouched) into .bench_build/ under the checkout and runs it
# from the checkout's root with the arguments given. Everything the build
# writes — the Go build cache and temporary files too — stays inside the
# checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME: the go command keeps its telemetry counters under the
# user's configuration directory.
(cd "$here" && GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off \
	go build -o "$build/gallium-bench" .)
cd "$root"
exec "$build/gallium-bench" "$@"
