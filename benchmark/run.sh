#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# and runs one workload,
#
#   bash benchmark/run.sh --workload ferret-extend --seed 7 --seconds 12 --trace 0
#
# from the root of a checkout. Everything the build writes (binary, Go
# build cache, temp and config files) stays in .bench_build/ inside the
# checkout. For interactive use, `go run ./benchmark` is the same
# program; see README.md.
set -eu
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod here: run from the root of a checkout that holds the program" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
# The go command otherwise starts a detached telemetry child that
# outlives it; with the mode off it starts none, so every process of a
# run has ended when the run returns.
echo off >"$build/config/go/telemetry/mode"
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
