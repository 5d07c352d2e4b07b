#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs one workload. Run it
# from the repository root; every argument is passed to the benchmark:
#
#   bash perfbench/run.sh --workload attack --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write (Go build cache, binary, unix
# sockets, span dumps) stays under .bench_build/perfbench in the working
# directory. Outside a full checkout the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail

out=.bench_build/perfbench
mkdir -p "$out/tmp"
abs=$(cd "$out" && pwd)
export GOCACHE="$abs/gocache" GOPATH="$abs/gopath" GOTMPDIR="$abs/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$abs/config" GOENV=off

(cd perfbench && go build -buildvcs=false -o "$abs/perfbench" .) >&2
exec "$abs/perfbench" "$@"
