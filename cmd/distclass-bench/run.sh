#!/usr/bin/env bash
# Builds distclass-bench from source and runs it with the given flags:
#
#   bash cmd/distclass-bench/run.sh --workload fig2-round --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files) goes
# to .bench_build/ at the repository root, so the benchmark reads and
# writes nothing outside its checkout. The benchmark is a module of its
# own that imports the repository's packages through a replace
# directive; without the repository around it the build fails and the
# script exits nonzero.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

(cd "$here" && go build -o "$build/distclass-bench" .)
cd "$root"
exec "$build/distclass-bench" "$@"
