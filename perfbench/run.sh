#!/usr/bin/env bash
# Builds the workload benchmark from the checkout's sources and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload kshape-wide --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, the go command's temporary files and
# its config directory (go env file, telemetry counters) all stay inside
# .bench_build/, so the benchmark writes nothing outside the checkout.
# Without the repository's sources next to perfbench/ the build fails and
# the script exits nonzero before printing any result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
