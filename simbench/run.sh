#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash simbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything the Go toolchain writes
# (build cache, module cache, its own config) stays under .bench_build.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS=
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off CGO_ENABLED=0
(cd "$root/simbench" && go build -o "$out/simbench" .)
exec "$out/simbench" --out "$out" "$@"
