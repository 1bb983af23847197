#!/usr/bin/env bash
# Builds the serve benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash servebench/run.sh --workload kids-edit --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it writes (Go build
# cache, binary, temporary files, journals, datasets) stays under
# .bench_build in that directory.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/servebench" .)
cd "$root"
exec "$build/servebench" "$@"
