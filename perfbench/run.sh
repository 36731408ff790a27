#!/usr/bin/env bash
# Builds the perfbench binary from this checkout's sources and runs it with
# the given arguments. Everything the build writes (Go build cache, binary,
# span files) stays under .bench_build/ at the checkout root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOFLAGS="" GOWORK=off GOTOOLCHAIN=local GOENV=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
