#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the root of a
# wearwild checkout:
#
#   bash _perfbench/run.sh --workload reproduce --seed 1234 --seconds 15 --trace 0
#
# Everything the build writes (binary, Go build cache, the go command's
# temporary and config files) stays under .bench_build in the checkout.
# Build output goes to stderr, so the last line of stdout is the
# benchmark's JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"

go_bin=$(command -v go || true)
if [ -z "$go_bin" ] && [ -x /usr/local/go/bin/go ]; then
	go_bin=/usr/local/go/bin/go # the toolchain's standard install location
fi
if [ -z "$go_bin" ]; then
	echo "run.sh: no Go toolchain on PATH" >&2
	exit 2
fi

mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/_perfbench" && "$go_bin" build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
