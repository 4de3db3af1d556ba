//! Table I — the (im)possibility of solving Byzantine consensus
//! deterministically under different system models.
//!
//! Nine cells: {synchronous, partially synchronous, asynchronous} ×
//! {known n & f, unknown n & known f, unknown n & f}. Possibility cells
//! must solve consensus on a witness system with one Byzantine process;
//! impossibility cells must show no decision within the horizon under the
//! adversarial (never-stabilizing) schedule.
//!
//! The nine cells are [`cupft_bench::table1_suite`] (also asserted on every
//! `cargo test` by `tests/table1_matrix.rs`), executed in parallel on the
//! deterministic simulator.

use cupft_bench::{header, table1_suite, Row};
use cupft_core::{RuntimeKind, SuiteVerdict};

fn print_cells<'a>(cells: impl Iterator<Item = &'a SuiteVerdict>) {
    for verdict in cells {
        Row::from_outcome(&verdict.label, &verdict.outcome).print();
    }
}

fn main() {
    println!("Table I — deterministic Byzantine consensus per system model");
    println!("(paper: ✓ ✓ ✓ / ✓ ✓ ✓(this work) / ✗ ✗ ✗)");

    let report = table1_suite().run(RuntimeKind::Sim);

    let row = |policy: &str| {
        let needle = format!("/{policy}/");
        report
            .verdicts
            .iter()
            .filter(move |v| v.label.contains(&needle))
    };

    header("Synchronous");
    print_cells(row("sync"));
    for verdict in row("sync") {
        assert!(
            verdict.solved(),
            "synchronous cells must solve consensus: {}",
            verdict.label
        );
    }

    header("Partially synchronous");
    print_cells(row("psync"));
    for verdict in row("psync") {
        assert!(
            verdict.solved(),
            "partially synchronous cells must solve consensus: {}",
            verdict.label
        );
    }

    header("Asynchronous (adversarial schedule, horizon 10^5)");
    print_cells(row("async"));
    for verdict in row("async") {
        assert!(
            !verdict.check.termination,
            "async cells must not terminate within the horizon: {}",
            verdict.label
        );
        assert!(
            verdict.check.agreement,
            "async cells may stall but never disagree: {}",
            verdict.label
        );
    }

    println!();
    println!(
        "Table I reproduced: 6/6 possibility cells solved, 3/3 async cells stalled safely ({})",
        report.summary()
    );
}
