#!/usr/bin/env bash
# Builds perfbench from the source tree it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload host-write-small --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The binary and the Go build cache go to
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside
# the tree. Build output goes to standard error; the last line of standard
# output is the result.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR= GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off \
	GOTELEMETRY=off XDG_CONFIG_HOME=$out/config
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
