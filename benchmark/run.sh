#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping everything the Go
# toolchain writes (build cache, temporary files, telemetry) inside the
# checkout: the driver's command is `bash benchmark/run.sh --workload ...`
# from the repository root. The benchmark is a module of its own
# (benchmark/go.mod) that takes the program from the checkout around it.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	# Say so before the toolchain is started at all.
	echo "benchmark: no go.mod beside benchmark/: the program to measure is not in this checkout" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/xdg-config/go/telemetry"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CACHE_HOME="$build/xdg-cache" XDG_CONFIG_HOME="$build/xdg-config"
export GOTOOLCHAIN=local GOWORK=off
# With a configuration directory it has not seen before, the go command
# starts a detached child of itself to tend its telemetry files, and that
# child outlives the run. Mode "off" keeps it from being started.
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
# The benchmark asks git for the commit; it is not to look above the checkout.
export GIT_CEILING_DIRECTORIES="$(dirname "$PWD")"
go build -C benchmark -o "$build/espresso-benchmark" .
exec "$build/espresso-benchmark" "$@"
