#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it from the checkout root. Everything the build and the run leave
# behind (Go build cache, binary, scratch files, span logs) goes under
# .bench_build/ at the checkout root.
#
#   bash perfbench/run.sh --workload fit-spark-sparse --seed 1 --seconds 30 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
# The go command keeps its telemetry counters under the user's config
# directory; XDG_CONFIG_HOME keeps them in the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
