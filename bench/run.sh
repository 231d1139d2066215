#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the benchmark from source
# inside the checkout (build cache and binary under .bench_build/, which
# .gitignore names) and runs it with the arguments given:
#
#   bash bench/run.sh --workload exact_tree --seed 7 --seconds 22 --trace 0
#
# Nothing is read or written outside the checkout: the Go build cache,
# GOPATH and Go's own config directory are pointed into .bench_build/,
# and GOTOOLCHAIN=local forbids fetching a toolchain. In a directory
# without the module's go.mod the build fails and so does this script,
# before any result is printed.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/pesto-bench" ./bench
exec "$out/pesto-bench" "$@"
