#!/usr/bin/env bash
# Driver entry point (BENCHMARK.json "command"): build the benchmark program
# from this checkout, keeping the Go build cache inside the checkout, and run
# it with the driver's arguments. The program itself builds ./cmd/craftykv
# from the same tree. Fails, printing no result, where the repository's source
# is absent.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$root/bench" && go build -o "$build/bin/bench" .)
exec "$build/bin/bench" -root "$root" "$@"
