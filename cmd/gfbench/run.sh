#!/usr/bin/env bash
# Builds gfbench and the asyncmap CLI from the sources of the checkout it is
# run in, then runs gfbench with the given arguments:
#
#   bash cmd/gfbench/run.sh --workload map-actel --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a gfmap checkout. Every build artefact (binaries,
# Go build cache, temporary files, trace output) goes under .bench_build/ in
# that checkout; nothing is read or written outside it.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/core" ] || [ ! -f "$root/cmd/gfbench/go.mod" ]; then
	echo "gfbench: run from the root of a gfmap checkout (go.mod, internal/ and cmd/gfbench/ must exist)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command's settings and telemetry counters live under the user
# config directory; keep them in the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

go build -o "$out/bin/asyncmap" ./cmd/asyncmap
(cd cmd/gfbench && go build -o "$out/bin/gfbench" .)
exec "$out/bin/gfbench" --asyncmap "$out/bin/asyncmap" --out "$out" "$@"
