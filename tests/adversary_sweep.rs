//! The fault-injection engine's acceptance sweep: a 64-cell grid whose
//! fault axis carries strategy specs (graph × strategy × policy × seed),
//! plus injection parity on the threaded substrate and a within-model
//! network tamper.
//!
//! Both swept graphs satisfy their knowledge-connectivity requirements,
//! so every cell must solve consensus no matter how the single Byzantine
//! process (4, outside both cores) composes its strategy.

mod sweep;

use bft_cupft::core::{
    ByzantineStrategy, ProtocolMode, RuntimeKind, Scenario, ScenarioOutcome, TamperSpec,
};
use bft_cupft::graph::{fig1b, fig4b, process_set, ProcessId};
use bft_cupft::net::DelayPolicy;

/// The four swept strategies of process 4: one plain leaf, one protocol
/// attack, and two combinator compositions.
fn strategies() -> Vec<ByzantineStrategy> {
    vec![
        ByzantineStrategy::Silent,
        ByzantineStrategy::ForgeUnsignedPd {
            victim: ProcessId::new(1),
            claimed: process_set([4]),
        },
        ByzantineStrategy::DelayRelease {
            until: 300,
            inner: Box::new(ByzantineStrategy::FakePd {
                claimed: process_set([1, 2, 3]),
            }),
        },
        ByzantineStrategy::FlipAfter {
            at: 400,
            before: Box::new(ByzantineStrategy::FakePd {
                claimed: process_set([1, 2, 3]),
            }),
            after: Box::new(ByzantineStrategy::Silent),
        },
    ]
}

/// graph {fig1b, fig4b} × strategy {4} × policy {sync, psync} × seed
/// {0..4} = 64 scenarios. `psync` is `Scenario::new`'s default policy and
/// horizon.
fn sweep() -> Vec<(String, Scenario)> {
    let graphs = [
        ("fig1b", fig1b(), ProtocolMode::KnownThreshold(1)),
        ("fig4b", fig4b(), ProtocolMode::UnknownThreshold),
    ];
    let mut cells = Vec::new();
    for (graph_label, witness, mode) in graphs {
        for strategy in strategies() {
            for sync in [true, false] {
                for seed in 0..4 {
                    let mut scenario = Scenario::new(witness.graph().clone(), mode)
                        .with_seed(seed)
                        .with_byzantine(4, strategy.clone());
                    if sync {
                        scenario = scenario.with_policy(DelayPolicy::Synchronous { delta: 10 });
                    }
                    let policy = if sync { "sync" } else { "psync" };
                    let label = format!("{graph_label}/{}@4/{policy}/s{seed}", strategy.label());
                    cells.push((label, scenario));
                }
            }
        }
    }
    assert_eq!(cells.len(), 64);
    cells
}

fn run_sim(cells: &[(String, Scenario)]) -> Vec<ScenarioOutcome> {
    sweep::fan_out(cells, |(_, scenario)| scenario.run_on(RuntimeKind::Sim))
}

#[test]
fn sixty_four_cell_strategy_grid_solves_on_sim() {
    let cells = sweep();
    for ((label, _), outcome) in cells.iter().zip(run_sim(&cells)) {
        let check = outcome.check();
        assert!(
            check.consensus_solved() && check.committee_agreement,
            "{label}: {check:?}"
        );
    }
}

/// Simulations run side by side in one process equal the same
/// simulations run one after another.
#[test]
fn strategy_grid_is_deterministic_across_worker_counts() {
    let cells = sweep();
    for ((label, scenario), side_by_side) in cells.iter().zip(run_sim(&cells)) {
        let alone = scenario.run_on(RuntimeKind::Sim);
        assert_eq!(side_by_side.check(), alone.check(), "{label}");
        assert_eq!(side_by_side.decisions, alone.decisions, "{label}");
        assert_eq!(side_by_side.end_time, alone.end_time, "{label}");
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
    let check = scenario.run_on(RuntimeKind::Threaded).check();
    assert!(
        check.consensus_solved() && check.committee_agreement,
        "{check:?}"
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
        let check = outcome.check();
        assert!(
            check.consensus_solved() && check.committee_agreement,
            "{kind:?}: {check:?}"
        );
        assert!(
            outcome.stats.messages_dropped > 0,
            "{kind:?} honored the tamper"
        );
    }
}
