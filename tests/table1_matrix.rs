//! Table I as an enforced test matrix: every cell of the paper's
//! (im)possibility table must hold on every `cargo test` run. The nine
//! cells run side by side on the deterministic simulator; `--nocapture`
//! prints one line per cell.

mod sweep;

use bft_cupft::core::{ByzantineStrategy, ProtocolMode, RuntimeKind, Scenario};
use bft_cupft::graph::{fig1b, fig4a, process_set, DiGraph};
use bft_cupft::net::DelayPolicy;

/// Table I: {known n & f, unknown n & known f (BFT-CUP), unknown n & f
/// (BFT-CUPFT)} × {synchronous, partially synchronous, asynchronous}, each
/// column on a witness graph with one silent Byzantine process. Labels are
/// `<column>/<sync|psync|async>`.
///
/// The asynchronous policy never stabilizes within its horizon (delays
/// up to 10^6 on a 10^5 horizon) — the checkable shadow of FLP: those
/// three cells must stall without disagreeing, the other six must solve
/// consensus.
fn table1_cells() -> Vec<(String, Scenario)> {
    let columns = [
        // "Known n and f": every process's PD is the full membership.
        (
            "known n, known f",
            DiGraph::complete(&process_set(1..=4)),
            ProtocolMode::KnownThreshold(1),
            4,
        ),
        (
            "unknown n, known f (BFT-CUP)",
            fig1b().graph().clone(),
            ProtocolMode::KnownThreshold(1),
            4,
        ),
        (
            "unknown n, unknown f (BFT-CUPFT)",
            fig4a().graph().clone(),
            ProtocolMode::UnknownThreshold,
            9,
        ),
    ];
    let policies = [
        ("sync", DelayPolicy::Synchronous { delta: 10 }, 100_000),
        (
            "psync",
            DelayPolicy::PartialSynchrony {
                gst: 300,
                delta: 10,
                pre_gst_max: 200,
            },
            200_000,
        ),
        (
            "async",
            DelayPolicy::Asynchronous {
                delta: 10,
                unbounded_max: 1_000_000,
            },
            100_000,
        ),
    ];
    let mut cells = Vec::new();
    for (column, graph, mode, byzantine) in columns {
        for (policy_label, policy, horizon) in &policies {
            let scenario = Scenario::new(graph.clone(), mode)
                .with_byzantine(byzantine, ByzantineStrategy::Silent)
                .with_policy(policy.clone())
                .with_horizon(*horizon);
            cells.push((format!("{column}/{policy_label}"), scenario));
        }
    }
    cells
}

#[test]
fn table1_matrix_holds() {
    let cells = table1_cells();
    assert_eq!(cells.len(), 9);
    let outcomes = sweep::fan_out(&cells, |(_, scenario)| scenario.run_on(RuntimeKind::Sim));
    for ((label, _), outcome) in cells.iter().zip(&outcomes) {
        let check = outcome.check();
        println!("{label:<40} solved={}", check.consensus_solved());
        assert!(
            check.agreement && check.committee_agreement,
            "{label} must stay safe: {check:?}"
        );
        if label.ends_with("/async") {
            assert!(!check.termination, "{label} must not decide: {check:?}");
        } else {
            assert!(
                check.consensus_solved(),
                "{label} must solve consensus: {check:?}"
            );
        }
    }
}
