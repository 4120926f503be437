#!/usr/bin/env bash
# Builds cadd and the push-ledger harness from the checkout, then runs
# one benchmark pass. Run from the repository root:
#
#   bash pushbench/run.sh --workload edit1 --seed 1 --seconds 20 --trace 0
#
# Builds, Go caches, daemon data dirs and traces stay under .bench_build/
# in the checkout. Build output goes to stderr, so the harness's JSON
# result stays the last line of stdout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/cadd ]]; then
	echo "pushbench: run from the repository root (go.mod and cmd/cadd not found)" >&2
	exit 1
fi

out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/config/go/telemetry"
# XDG_CONFIG_HOME keeps the toolchain's config in the checkout. Telemetry
# is switched off there: in its default mode the go command forks a
# detached sidecar process that outlives the build.
echo off >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOENV=off

go build -o "$out/bin/cadd" ./cmd/cadd >&2
go build -o "$out/bin/pushbench" ./pushbench >&2
exec "$out/bin/pushbench" -cadd "$out/bin/cadd" -work "$out/work" -traces "$out/traces" "$@"
