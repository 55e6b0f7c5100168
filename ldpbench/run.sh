#!/usr/bin/env bash
# Builds ldpbench from the sources of the checkout it is run from, then runs
# it with every argument passed through. Run it from the repository root:
#
#   bash ldpbench/run.sh --workload ingest --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the run's scratch files all stay inside
# the checkout, under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/ldpbench" && go build -o "$out/bin/ldpbench" .)
if [ -z "${LDPBENCH_COMMIT:-}" ] && [ -d "$root/.git" ]; then
	LDPBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
fi
export LDPBENCH_COMMIT="${LDPBENCH_COMMIT:-}"
exec "$out/bin/ldpbench" "$@"
