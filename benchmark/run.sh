#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ (Go build cache included, so nothing is written outside the
# checkout) and runs it from the checkout root with the caller's arguments.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOPATH="$PWD/.bench_build/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -C benchmark -o ../.bench_build/beasbench .
exec .bench_build/beasbench "$@"
