//! Table I as an enforced test matrix: every cell of the paper's
//! (im)possibility table must hold on every `cargo test` run.
//! (The printable version with timings is `cargo run -p cupft-bench --bin
//! table1`.)
//!
//! The nine cells are `cupft_bench::table1_suite()` — the one definition
//! the binary prints and this test asserts on — run in parallel on the
//! deterministic simulator.

use bft_cupft::core::RuntimeKind;

#[test]
fn table1_matrix_holds() {
    let report = cupft_bench::table1_suite().run(RuntimeKind::Sim);
    assert_eq!(report.verdicts.len(), 9);
    for verdict in &report.verdicts {
        if verdict.label.contains("/async/") {
            assert!(
                !verdict.check.termination,
                "{} must not decide: {:?}",
                verdict.label, verdict.check
            );
            assert!(
                verdict.check.agreement,
                "{} must stay safe: {:?}",
                verdict.label, verdict.check
            );
        } else {
            assert!(
                verdict.solved(),
                "{} must solve consensus: {:?}",
                verdict.label,
                verdict.check
            );
        }
    }
    assert_eq!(report.solved_count(), 6, "six possibility cells");
}
