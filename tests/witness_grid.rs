//! The witness-graph acceptance grid: a 32-scenario cross product (witness
//! graph × fault assignment × delay policy × seed) run side by side
//! through *both* substrates behind the shared `Runtime` trait.

mod sweep;

use bft_cupft::core::{ByzantineStrategy, ProtocolMode, RuntimeKind, Scenario};
use bft_cupft::graph::{fig1b, fig4a};
use bft_cupft::net::DelayPolicy;

/// graph {fig1b, fig4a} × fault {correct, silent} × policy {sync, psync}
/// × seed {0..4} = 32 scenarios. Each witness graph has its own
/// Byzantine process (4 on `fig1b`, 9 on `fig4a`). `psync` is
/// `Scenario::new`'s default policy and horizon.
fn acceptance_grid() -> Vec<(String, Scenario)> {
    let graphs = [
        ("fig1b", fig1b(), ProtocolMode::KnownThreshold(1), 4),
        ("fig4a", fig4a(), ProtocolMode::UnknownThreshold, 9),
    ];
    let mut cells = Vec::new();
    for (graph_label, witness, mode, byzantine) in graphs {
        for silent in [false, true] {
            for sync in [true, false] {
                for seed in 0..4 {
                    let mut scenario = Scenario::new(witness.graph().clone(), mode).with_seed(seed);
                    if silent {
                        scenario = scenario.with_byzantine(byzantine, ByzantineStrategy::Silent);
                    }
                    if sync {
                        scenario = scenario.with_policy(DelayPolicy::Synchronous { delta: 10 });
                    }
                    let fault = if silent { "silent" } else { "correct" };
                    let policy = if sync { "sync" } else { "psync" };
                    cells.push((format!("{graph_label}/{fault}/{policy}/s{seed}"), scenario));
                }
            }
        }
    }
    assert_eq!(cells.len(), 32);
    cells
}

#[test]
fn grid_of_32_solves_consensus_on_simulation() {
    let cells = acceptance_grid();
    let outcomes = sweep::fan_out(&cells, |(_, scenario)| scenario.run_on(RuntimeKind::Sim));
    for ((label, _), outcome) in cells.iter().zip(&outcomes) {
        let check = outcome.check();
        assert!(
            check.consensus_solved() && check.committee_agreement,
            "{label} on sim: {check:?}"
        );
    }
}

#[test]
fn grid_runs_are_deterministic_on_simulation() {
    let cells = acceptance_grid();
    let run = || sweep::fan_out(&cells, |(_, scenario)| scenario.run_on(RuntimeKind::Sim));
    for ((label, _), (a, b)) in cells.iter().zip(run().iter().zip(&run())) {
        assert_eq!(a.decisions, b.decisions, "{label}");
        assert_eq!(a.end_time, b.end_time, "{label}");
        assert_eq!(a.stats, b.stats, "{label}");
    }
}

#[test]
fn grid_of_32_solves_consensus_on_threads() {
    let mut cells = acceptance_grid();
    // Tick-denominated knobs are read as milliseconds on the threaded
    // substrate: shorten discovery, lengthen the view timeout so real
    // scheduling jitter cannot trigger spurious view changes.
    for (_, scenario) in &mut cells {
        scenario.discovery_period = 10;
        scenario.view_timeout_base = 2_000;
    }
    let outcomes = sweep::fan_out(&cells, |(_, scenario)| {
        scenario.run_on(RuntimeKind::Threaded)
    });
    for ((label, _), outcome) in cells.iter().zip(&outcomes) {
        let check = outcome.check();
        // Agreement on a single value, by one committee.
        assert!(
            check.consensus_solved() && check.committee_agreement,
            "{label} on threads: {check:?}"
        );
        assert_eq!(check.decided_values.len(), 1, "{label}: {check:?}");
    }
}
