//! The fault-injection engine's acceptance sweep: a 64-cell grid whose
//! fault axis carries strategy specs (graph × strategy × policy × seed),
//! plus injection parity on the threaded substrate and a within-model
//! network tamper.
//!
//! Both swept graphs satisfy their knowledge-connectivity requirements,
//! so every cell must solve consensus no matter how the single Byzantine
//! process (4, outside both cores) composes its strategy.

use bft_cupft::core::{
    ByzantineStrategy, FaultCase, ProtocolMode, RuntimeKind, Scenario, ScenarioGrid, ScenarioSuite,
    TamperSpec,
};
use bft_cupft::graph::{fig1b, fig4b, process_set, ProcessId};
use bft_cupft::net::DelayPolicy;

/// The four swept strategies: one plain leaf, one protocol attack, and
/// two combinator compositions.
fn strategies() -> Vec<FaultCase> {
    vec![
        FaultCase::single(4, ByzantineStrategy::Silent),
        FaultCase::single(
            4,
            ByzantineStrategy::ForgeUnsignedPd {
                victim: ProcessId::new(1),
                claimed: process_set([4]),
            },
        ),
        FaultCase::single(
            4,
            ByzantineStrategy::DelayRelease {
                until: 300,
                inner: Box::new(ByzantineStrategy::FakePd {
                    claimed: process_set([1, 2, 3]),
                }),
            },
        ),
        FaultCase::single(
            4,
            ByzantineStrategy::FlipAfter {
                at: 400,
                before: Box::new(ByzantineStrategy::FakePd {
                    claimed: process_set([1, 2, 3]),
                }),
                after: Box::new(ByzantineStrategy::Silent),
            },
        ),
    ]
}

fn policies(grid: ScenarioGrid) -> ScenarioGrid {
    grid.policy("sync", DelayPolicy::Synchronous { delta: 10 }, 200_000)
        .policy(
            "psync",
            DelayPolicy::PartialSynchrony {
                gst: 200,
                delta: 10,
                pre_gst_max: 120,
            },
            200_000,
        )
        .seeds(0..4)
}

/// graph {fig1b, fig4b} × strategy {4} × policy {sync, psync} × seed
/// {0..4} = 64 scenarios.
fn sweep() -> ScenarioSuite {
    let with_strategies = |mut grid: ScenarioGrid| {
        for case in strategies() {
            grid = grid.fault(case);
        }
        policies(grid)
    };
    let mut suite = with_strategies(ScenarioGrid::new().graph(
        "fig1b",
        fig1b().graph().clone(),
        ProtocolMode::KnownThreshold(1),
    ))
    .build();
    suite.extend(
        with_strategies(ScenarioGrid::new().graph(
            "fig4b",
            fig4b().graph().clone(),
            ProtocolMode::UnknownThreshold,
        ))
        .build(),
    );
    suite
}

#[test]
fn sixty_four_cell_strategy_grid_solves_on_sim() {
    let suite = sweep();
    assert_eq!(suite.len(), 64);
    let report = suite.run(RuntimeKind::Sim);
    assert!(report.all_solved(), "failed cells: {:?}", report.failures());
    // the fault segment carries the strategy label
    assert!(report.verdicts[0].label.contains("/silent@4/"));
    assert!(report
        .verdicts
        .iter()
        .any(|v| v.label.contains("delay@300(fakepd{1,2,3})@4")));
}

#[test]
fn strategy_grid_is_deterministic_across_worker_counts() {
    let suite = sweep();
    let parallel = suite.run(RuntimeKind::Sim);
    for (p, entry) in parallel.verdicts.iter().zip(suite.entries()) {
        let s = entry.scenario.run_on(RuntimeKind::Sim);
        assert_eq!(p.label, entry.label);
        assert_eq!(p.check, s.check());
        assert_eq!(p.outcome.decisions, s.decisions);
        assert_eq!(p.outcome.end_time, s.end_time);
    }
}

/// Fault *injection* must work on both substrates: the same composite
/// spec compiled once runs threaded, and the sufficient graph still
/// solves consensus there.
#[test]
fn composite_strategy_injection_runs_threaded() {
    let scenario = Scenario::new(fig1b().graph().clone(), ProtocolMode::KnownThreshold(1))
        .with_byzantine(
            4,
            ByzantineStrategy::DelayRelease {
                until: 50, // milliseconds on the threaded substrate
                inner: Box::new(ByzantineStrategy::FakePd {
                    claimed: process_set([1, 2, 3]),
                }),
            },
        );
    let outcome = scenario.run_on(RuntimeKind::Threaded);
    assert!(
        outcome.check().consensus_solved(),
        "{:?}",
        outcome.decisions
    );
}

/// A within-model tamper (dropping only the Byzantine process's output)
/// runs through the same hook on both substrates.
#[test]
fn tamper_spec_runs_on_both_substrates() {
    let scenario = Scenario::new(fig1b().graph().clone(), ProtocolMode::KnownThreshold(1))
        .with_byzantine(
            4,
            ByzantineStrategy::FakePd {
                claimed: process_set([1, 2, 3]),
            },
        )
        .with_tamper(TamperSpec::DropFrom {
            senders: process_set([4]),
        });
    for kind in [RuntimeKind::Sim, RuntimeKind::Threaded] {
        let outcome = scenario.run_on(kind);
        assert!(
            outcome.check().consensus_solved(),
            "{kind:?}: {:?}",
            outcome.decisions
        );
        assert!(
            outcome.stats.messages_dropped > 0,
            "{kind:?} honored the tamper"
        );
    }
}
