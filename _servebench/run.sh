#!/usr/bin/env bash
# Builds dplearn-serve and the benchmark from the checkout's sources,
# then runs one measurement:
#
#   bash _servebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Every build product, cache and
# scratch file stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
# With telemetry on, the go command forks a detached child that outlives
# it; turn telemetry off so the benchmark leaves no process behind.
echo off >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOENV=off GOWORK=off

go build -o "$out/dplearn-serve" ./cmd/dplearn-serve >&2
go -C _servebench build -o "$out/servebench" . >&2
exec "$out/servebench" -serve-bin "$out/dplearn-serve" -work "$out" "$@"
