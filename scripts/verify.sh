#!/usr/bin/env bash
# Repo verification: the one definition of the gates CI runs.
#
#   scripts/verify.sh --quick  # both Cargo.lock checks, fmt, clippy, the
#                              # example builds and a run of adversary_demo,
#                              # rustdoc, then `cargo test -q --no-fail-fast`:
#                              # every test target of the workspace, once,
#                              # even after one fails, so a red run lists
#                              # every failing target (the CI `quick` job)
#   scripts/verify.sh          # the same, plus the release build and the
#                              # standalone benchmark/ package's tests (the
#                              # CI `full` job, before its smoke runs)
#
# What each test target covers is in its own file's `//!` header.
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

# The demo's asserts are its own test; `cargo test` does not run examples.
echo "==> cargo run -q --example adversary_demo"
cargo run -q --example adversary_demo

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
fi

# --no-fail-fast: a failing target does not stop the others; cargo still
# exits nonzero if any failed.
echo "==> cargo test -q --no-fail-fast"
cargo test -q --no-fail-fast

if [[ "$quick" -eq 0 ]]; then
    # benchmark/ is a workspace of its own, so nothing above compiles it;
    # it builds against the public Runtime / config surface by name.
    echo "==> cargo test -q --locked --manifest-path benchmark/Cargo.toml"
    cargo test -q --locked --manifest-path benchmark/Cargo.toml
fi

echo "verify.sh: all green"
echo "VERIFY OK"
