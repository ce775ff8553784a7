#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from,
# then runs it with the given arguments. Run it from the checkout root:
#
#   bash perfbench/run.sh --workload ingest-wal --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the
# binary) and every run's scratch state stays under .bench_build/ in the
# checkout. Without the program's sources next to perfbench/ the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)

if [ -z "${PERFBENCH_COMMIT:-}" ]; then
	PERFBENCH_COMMIT=unknown
	if top=$(git -C "$root" rev-parse --show-toplevel 2>/dev/null) && [ "$top" = "$root" ]; then
		PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD)
	fi
fi
PERFBENCH_STATE_FS=$(stat -f -c %T "$build" 2>/dev/null || echo unknown)
export PERFBENCH_COMMIT PERFBENCH_STATE_FS
exec "$build/perfbench" "$@"
