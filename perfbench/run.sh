#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing
# every argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload fleet-live --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the toolchain's own state stay
# under .bench_build/ in the checkout; nothing is fetched.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOMODCACHE="$out/go-path/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off \
	GOFLAGS=-mod=readonly
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
