#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json's
# command. Everything it writes — Go build cache, binary, datasets —
# stays under .bench_build/ at the root of the checkout, and trace
# files under benchmark/out/.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" -data "$build/data" -out benchmark/out "$@"
