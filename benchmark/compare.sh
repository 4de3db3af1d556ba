#!/usr/bin/env bash
# Compares two reports written by `run.sh --out`: one row per (workload,
# end-to-end metric) with both values, the ratio with its base, and
# ok / worse / unresolved. Exits non-zero if any row is worse.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
if [ "$#" -ne 2 ]; then
    echo "usage: benchmark/compare.sh A.json B.json" >&2
    exit 2
fi
exec "$here/run.sh" compare "$@"
