#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout it is
# run from, then runs it with the arguments given. The Go build cache lives
# there too, so nothing outside the checkout is written.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/flexio-benchmark" .)
exec "$build/flexio-benchmark" "$@"
