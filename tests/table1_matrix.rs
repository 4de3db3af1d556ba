//! Table I as an enforced test matrix: every cell of the paper's
//! (im)possibility table must hold on every `cargo test` run. The nine
//! cells run in parallel on the deterministic simulator; `--nocapture`
//! prints the suite summary.

use bft_cupft::core::{FaultCase, ProtocolMode, RuntimeKind, ScenarioGrid, ScenarioSuite};
use bft_cupft::graph::{fig1b, fig4a, process_set, DiGraph};
use bft_cupft::net::DelayPolicy;

/// Table I as one suite: {known n & f, unknown n & known f (BFT-CUP),
/// unknown n & f (BFT-CUPFT)} × {synchronous, partially synchronous,
/// asynchronous}, each column on a witness graph with one silent
/// Byzantine process. Labels are `<column>/…/<sync|psync|async>/…`.
///
/// The asynchronous policy never stabilizes within its horizon (delays
/// up to 10^6 on a 10^5 horizon) — the checkable shadow of FLP: those
/// three cells must stall without disagreeing, the other six must solve
/// consensus.
fn table1_suite() -> ScenarioSuite {
    let column = |label: &str, graph: DiGraph, mode: ProtocolMode, byzantine: u64| {
        ScenarioGrid::new()
            .graph(label, graph, mode)
            .fault(FaultCase::silent(byzantine))
            .policy("sync", DelayPolicy::Synchronous { delta: 10 }, 100_000)
            .policy(
                "psync",
                DelayPolicy::PartialSynchrony {
                    gst: 300,
                    delta: 10,
                    pre_gst_max: 200,
                },
                200_000,
            )
            .policy(
                "async",
                DelayPolicy::Asynchronous {
                    delta: 10,
                    unbounded_max: 1_000_000,
                },
                100_000,
            )
            .build()
    };
    // "Known n and f": every process's PD is the full membership.
    let mut suite = column(
        "known n, known f",
        DiGraph::complete(&process_set(1..=4)),
        ProtocolMode::KnownThreshold(1),
        4,
    );
    suite.extend(column(
        "unknown n, known f (BFT-CUP)",
        fig1b().graph().clone(),
        ProtocolMode::KnownThreshold(1),
        4,
    ));
    suite.extend(column(
        "unknown n, unknown f (BFT-CUPFT)",
        fig4a().graph().clone(),
        ProtocolMode::UnknownThreshold,
        9,
    ));
    suite
}

#[test]
fn table1_matrix_holds() {
    let report = table1_suite().run(RuntimeKind::Sim);
    println!("{}", report.summary());
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
