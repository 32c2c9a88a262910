#!/usr/bin/env bash
# Entry point named in BENCHMARK.json. Builds abbench from source into
# .bench_build at the root of the checkout (go's build cache included, so
# nothing is written outside the checkout) and runs it with the arguments
# given: --workload <name> --seed <n> --seconds <s> --trace <0|1>.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/abbench" ./cmd/abbench
cd "$root"
exec "$build/abbench" -out bench/out "$@"
