#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it with the arguments given.
#
#   benchmark/run.sh [--seed S] [--seconds N] [--runs R] [--out report.json]
#       the whole report: five workloads untraced, layer kernels, five traced
#   benchmark/run.sh --selfcheck [--seed S] [--runs R]
#       two untraced sets of R (default 3) interleaved runs each; fails if
#       their medians disagree beyond the bounds
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#       one run of one workload (what BENCHMARK.json's command invokes)
#
# Everything the build writes goes under CARGO_TARGET_DIR, or under
# benchmark/target when that is unset.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" 1>&2
exec "$target/release/cupft-benchmark" "$@"
