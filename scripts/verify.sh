#!/usr/bin/env bash
# Repo verification: lock files, formatting, lints, and the tier-1
# build+test gate.
#
#   scripts/verify.sh          # everything (what the CI `full` path runs),
#                              # including the standalone benchmark/
#                              # package's build and tests
#   scripts/verify.sh --quick  # skip the release build (fast local loop,
#                              # and the CI `quick` job); fronts the
#                              # sink-search gates (the cupft-graph unit
#                              # tests, incl. the exhaustive fallback's
#                              # feasible-part enumeration, the cupft-core
#                              # unit tests, incl. the Core guard and the
#                              # one identification gate per view change,
#                              # and the proptest_graph kernel-vs-oracle
#                              # properties), the cupft-committee unit
#                              # tests (the signed-field and cross-kind
#                              # replay tables, the replica state machine),
#                              # the cupft-adversary unit tests (combinators,
#                              # traces, invariants, shrinking), the
#                              # cupft-net unit tests (the delay wheel, the
#                              # send gate, the worker pool's fairness
#                              # batch and mailbox cap, both links) and the
#                              # adversary_catch / churn_catch
#                              # inject-trace-flag-shrink loops,
#                              # the paper claims
#                              # (table1_matrix, impossibility, theorems:
#                              # Table I, Figs. 1-4, §III), the
#                              # trajectory_pins exact constants (sweep
#                              # payload + virtual-time phase marks), the
#                              # core_search_parity
#                              # pinned executions (the sink/core search
#                              # returns what it always returned), the
#                              # wire_roundtrip codec proptests, the
#                              # proptest_protocol properties (signed-PD
#                              # tamper evidence, consensus under random
#                              # faults), the suite_grid and
#                              # adversary_sweep grids, the family_sweep
#                              # (each graph family once at modest n), the
#                              # delta-gossip discovery_equivalence sweep,
#                              # the threaded_link parity suite and the
#                              # socket_parity suite (one link-conformance
#                              # body on both wall-clock links, worker
#                              # pool included), the
#                              # verify_pipeline shared-verdict-memo suite
#                              # (same fixpoint as private verification,
#                              # forgeries counted once),
#                              # the obs_determinism observability suite
#                              # (byte-identical observed traces, no
#                              # observer effect), and the churn gates
#                              # (churn_invariants family×runtime sweep,
#                              # proptest_churn snapshot/agreement
#                              # properties) as early gates before the
#                              # full test run
#
# CI ↔ verify.sh contract (.github/workflows/ci.yml relies on this):
#   * every gate propagates its exit code — the script runs under
#     `set -euo pipefail` AND checks `cargo doc` explicitly, so a failure
#     anywhere (including rustdoc) exits nonzero;
#   * on success the LAST line printed is exactly `VERIFY OK` — CI greps
#     for it, so a truncated or crashed run can never pass silently;
#   * no step touches the network: dependencies are vendored in shims/
#     and pinned by the committed Cargo.lock.
#
# Tier-1 (from ROADMAP.md): cargo build --release && cargo test -q
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

# Lock gates first: every later cargo command would quietly rewrite a
# stale root Cargo.lock, so check it before anything else resolves.
# --locked fails whenever a manifest's dependency edit no longer matches
# the committed lock (cargo tolerates a lock entry for a package that left
# the graph entirely, not a changed edge of one that stays).
echo "==> cargo metadata --locked (root Cargo.lock matches the manifests)"
if ! cargo metadata --locked --offline --format-version 1 > /dev/null; then
    echo "verify.sh: a Cargo.toml's dependencies changed and the root Cargo.lock no longer matches; run cargo metadata --offline and commit the refreshed Cargo.lock in the same change" >&2
    exit 1
fi

# benchmark/ pins its own Cargo.lock. --locked fails here, instead of
# cargo silently rewriting that lock later, whenever a crate's dependency
# edit no longer matches it.
echo "==> cargo metadata --locked (benchmark/Cargo.lock still resolves)"
if ! cargo metadata --locked --offline --format-version 1 --manifest-path benchmark/Cargo.toml > /dev/null; then
    echo "verify.sh: a crate's [dependencies] changed and benchmark/Cargo.lock no longer matches; refresh that lock in the same change (ROADMAP item 3(c))" >&2
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo build --examples"
cargo build --examples

echo "==> cargo doc --no-deps -q"
# Explicit exit-code check: `set -e` covers this today, but the doc gate
# has been silently lost before by refactors that piped or backgrounded
# the command — keep the failure path explicit in both modes.
if ! cargo doc --no-deps -q; then
    echo "verify.sh: cargo doc failed" >&2
    exit 1
fi

if [[ "$quick" -eq 0 ]]; then
    echo "==> cargo build --release"
    cargo build --release
else
    echo "==> cargo test -q -p cupft-graph --lib (quick gate)"
    cargo test -q -p cupft-graph --lib
    echo "==> cargo test -q -p cupft-core --lib (quick gate)"
    cargo test -q -p cupft-core --lib
    echo "==> cargo test -q -p cupft-committee --lib (quick gate)"
    cargo test -q -p cupft-committee --lib
    echo "==> cargo test -q -p cupft-adversary --lib (quick gate)"
    cargo test -q -p cupft-adversary --lib
    echo "==> cargo test -q -p cupft-net --lib (quick gate)"
    cargo test -q -p cupft-net --lib
    echo "==> cargo test -q --test adversary_catch --test churn_catch (quick gate)"
    cargo test -q --test adversary_catch --test churn_catch
    echo "==> cargo test -q --test proptest_graph (quick gate)"
    cargo test -q --test proptest_graph
    echo "==> cargo test -q --test table1_matrix --test impossibility --test theorems (paper claims)"
    cargo test -q --test table1_matrix --test impossibility --test theorems
    echo "==> cargo test -q --test trajectory_pins (quick gate)"
    cargo test -q --test trajectory_pins
    echo "==> cargo test -q --test core_search_parity (quick gate)"
    cargo test -q --test core_search_parity
    echo "==> cargo test -q --test wire_roundtrip (quick gate)"
    cargo test -q --test wire_roundtrip
    echo "==> cargo test -q --test proptest_protocol (quick gate)"
    cargo test -q --test proptest_protocol
    echo "==> cargo test -q --test suite_grid (quick gate)"
    cargo test -q --test suite_grid
    echo "==> cargo test -q --test adversary_sweep (quick gate)"
    cargo test -q --test adversary_sweep
    echo "==> cargo test -q --test family_sweep (quick gate)"
    cargo test -q --test family_sweep
    echo "==> cargo test -q --test discovery_equivalence (quick gate)"
    cargo test -q --test discovery_equivalence
    echo "==> cargo test -q --test threaded_link (quick gate)"
    cargo test -q --test threaded_link
    echo "==> cargo test -q --test socket_parity (quick gate)"
    cargo test -q --test socket_parity
    echo "==> cargo test -q --test verify_pipeline (quick gate)"
    cargo test -q --test verify_pipeline
    echo "==> cargo test -q --test obs_determinism (quick gate)"
    cargo test -q --test obs_determinism
    echo "==> cargo test -q --test churn_invariants (quick gate)"
    cargo test -q --test churn_invariants
    echo "==> cargo test -q --test proptest_churn (quick gate)"
    cargo test -q --test proptest_churn
fi

echo "==> cargo test -q"
cargo test -q

if [[ "$quick" -eq 0 ]]; then
    # benchmark/ is a workspace of its own, so nothing above compiles it;
    # it builds against the public Runtime / config surface by name.
    echo "==> cargo test -q --locked --manifest-path benchmark/Cargo.toml"
    cargo test -q --locked --manifest-path benchmark/Cargo.toml
fi

echo "verify.sh: all green"
echo "VERIFY OK"
