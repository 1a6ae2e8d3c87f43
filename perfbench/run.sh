#!/usr/bin/env bash
# Builds the pipeline benchmark, and with it the topmine module of the
# checkout it runs in, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload pipeline-abstracts --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare runs-a.jsonl runs-b.jsonl
#
# Run it from the root of the checkout. Every file it writes (Go build
# cache, binary, generated inputs, trace files) lands in .bench_build/
# (or $CARGO_TARGET_DIR when set) under that root.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/gotmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
commit=none
if [ "$(git rev-parse --show-toplevel 2>/dev/null)" = "$(pwd -P)" ]; then
	commit="$(git rev-parse HEAD)"
fi
(cd perfbench && go build -o "$out/perfbench" .) >&2
PERFBENCH_COMMIT="$commit" exec "$out/perfbench" --workdir "$out" "$@"
