#!/usr/bin/env bash
# The driver's command: build the benchmark inside the checkout, then run it
# with the driver's arguments.  Everything the Go toolchain writes (build
# cache, module cache) stays under .bench_build in the checkout.
set -eu
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
