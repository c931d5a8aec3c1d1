#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in and runs it with
# the arguments given. Everything the Go toolchain writes (build cache,
# module cache, telemetry, temporary files) is kept under .bench_build in
# the checkout, so a run reads and writes nothing outside it.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f benchmark/main.go ]; then
	echo "benchmark/run.sh: start me from the root of a checkout of the repository" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
env HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
	GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOTOOLCHAIN=local \
	go build -o "$build/benchmark" ./benchmark

exec "$build/benchmark" "$@"
