#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs it with the given arguments, e.g.
#
#   bash .perfbench/run.sh --workload still-fpga --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, binary, trace files) goes under .bench_build/
# in the current directory.
set -euo pipefail

root=$PWD
here=$(cd "$(dirname "$0")" && pwd)
out=$root/.bench_build/perfbench
mkdir -p "$out/tmp" "$out/config"

export GOCACHE=$out/gocache
export GOTMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local
export GOFLAGS=

go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
