#!/usr/bin/env bash
# Builds the serving benchmark from this checkout's sources and runs it.
#
#   bash servebench/run.sh --workload plan-cold --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. The binary, the Go build cache and the
# benchmark's scratch files (job stores, span dumps) all stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/serve || ! -f servebench/go.mod ]]; then
	echo "servebench: run from the repository root: go.mod, internal/serve and servebench/ are required" >&2
	exit 2
fi

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" \
	XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd servebench && go build -o "$out/servebench" .)
exec "$out/servebench" -out "$out" "$@"
