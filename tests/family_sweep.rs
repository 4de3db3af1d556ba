//! The family × size acceptance sweep: four topology families, each
//! generated at three sizes, run through consensus on *both* runtimes,
//! and a per-family fault sweep silences a structurally expendable vertex
//! (one whose removal keeps the safe subgraph inside the family's
//! advertised conditions) to confirm the generated systems tolerate the
//! faults their parameters promise.
//!
//! One `#[ignore]`d release-mode test carries the n = 1000 sim-vs-threaded
//! parity rows (CI job `scale-parity`):
//! `cargo test --release --test family_sweep -- --ignored --nocapture`.

mod sweep;

use std::time::{Duration, Instant};

use bft_cupft::core::{ByzantineStrategy, ProtocolMode, RuntimeKind, Scenario, ScenarioOutcome};
use bft_cupft::graph::{GraphFamily, ProcessId};
use sweep::{fan_out, sweep_families, SIZES};

/// Every sweep family at every size (topology seed 11) × `seeds`, all
/// correct, under the default partial synchrony on a 400 000 horizon.
fn honest_cells(seeds: std::ops::Range<u64>) -> Vec<(String, Scenario)> {
    let mut cells = Vec::new();
    for family in sweep_families() {
        for size in SIZES {
            let graph = family.scaled(size).generate(11).unwrap().system.graph;
            for seed in seeds.clone() {
                let scenario = Scenario::new(graph.clone(), ProtocolMode::KnownThreshold(1))
                    .with_seed(seed)
                    .with_horizon(400_000);
                cells.push((format!("{}@n{size}/s{seed}", family.name()), scenario));
            }
        }
    }
    cells
}

fn assert_all_solved(cells: &[(String, Scenario)], outcomes: &[ScenarioOutcome], kind: &str) {
    for ((label, _), outcome) in cells.iter().zip(outcomes) {
        let check = outcome.check();
        assert!(
            check.consensus_solved() && check.committee_agreement,
            "{label} on {kind}: {check:?}"
        );
    }
}

/// Seed 1 only: the seed-0 cells are the twelve that
/// `tests/discovery_equivalence.rs`'s
/// `delta_decisions_match_full_baseline_on_simulation` already runs and
/// judges the same way.
#[test]
fn four_families_three_sizes_solve_on_simulation() {
    let cells = honest_cells(1..2);
    assert_eq!(cells.len(), 12); // 4 families x 3 sizes x 1 seed
    let outcomes = fan_out(&cells, |(_, scenario)| scenario.run_on(RuntimeKind::Sim));
    assert_all_solved(&cells, &outcomes, "sim");
}

#[test]
fn four_families_three_sizes_solve_on_threads() {
    let mut cells = honest_cells(0..1);
    assert_eq!(cells.len(), 12); // 4 families x 3 sizes x 1 seed

    // Tick-denominated knobs read as milliseconds on the threaded
    // substrate. Identification re-runs on every view change, so a generous
    // discovery period costs little latency while keeping the per-tick
    // candidate search (expensive on whole-graph sinks like the ring) off
    // the CPU; the long view timeout keeps real scheduling jitter from
    // triggering spurious view changes.
    for (_, scenario) in &mut cells {
        scenario.discovery_period = 200;
        scenario.view_timeout_base = 4_000;
    }
    let outcomes = fan_out(&cells, |(_, scenario)| {
        scenario.run_on(RuntimeKind::Threaded)
    });
    assert_all_solved(&cells, &outcomes, "threads");
}

/// Silencing the highest vertex ID — always a periphery/apex/outer-block
/// member under the families' core-first ID layout — must leave consensus
/// solvable: the sweep families are parameterized so one vertex removal
/// keeps the safe subgraph within the advertised conditions.
#[test]
fn families_tolerate_a_silent_expendable_vertex() {
    let mut cells = Vec::new();
    for family in sweep_families() {
        for size in [10usize, 14] {
            let scaled = family.scaled(size);
            let system = scaled.generate(11).unwrap().system;
            let victim = system.graph.vertices().map(|v| v.raw()).max().unwrap();
            assert!(
                !system.sink.contains(&ProcessId::new(victim))
                    || system.sink.len() == system.graph.vertex_count(),
                "{}: victim must be expendable",
                scaled.label()
            );
            let correct =
                Scenario::new(system.graph, ProtocolMode::KnownThreshold(1)).with_horizon(400_000);
            let silent = correct
                .clone()
                .with_byzantine(victim, ByzantineStrategy::Silent);
            let label = format!("{}@n{size}", family.name());
            cells.push((format!("{label}/correct"), correct));
            cells.push((format!("{label}/silent{victim}"), silent));
        }
    }
    assert_eq!(cells.len(), 16); // 4 families x 2 sizes x {correct, silent}
    let outcomes = fan_out(&cells, |(_, scenario)| scenario.run_on(RuntimeKind::Sim));
    assert_all_solved(&cells, &outcomes, "sim");
}

/// The four planted-committee families at n = 1000 (the ring is left out:
/// its sink is the whole graph), once on the simulator and once on OS
/// threads. Too slow for a debug `cargo test`, hence `#[ignore]`. The
/// printed rows are where ROADMAP item 8's two anomalies are read from:
/// threaded `messages_sent` on scale-free and threaded `payload_units` on
/// Erdős–Rényi, each against the simulator's row above it.
#[test]
#[ignore = "n = 1000 on both runtimes: run in release"]
fn thousand_vertex_cells_match_sim_decisions() {
    for family in [
        GraphFamily::erdos_renyi(100, 1),
        GraphFamily::k_diamond(100, 1),
        GraphFamily::scale_free(100, 1),
        GraphFamily::bridged_partition(100, 1),
    ] {
        let graph = family.scaled(1_000).generate(1_000).unwrap().system.graph;
        let n = graph.vertex_count();
        let scenario = Scenario::new(graph, ProtocolMode::KnownThreshold(1))
            .with_seed(1)
            .with_horizon(2_000_000);
        // Tick knobs read as milliseconds on threads: a slow polling
        // cadence keeps a thousand nodes from swamping the router plane
        // during the discovery transient, and the wall budget matches it
        // (the run still stops the instant every correct node decides).
        let mut threaded = scenario
            .clone()
            .with_threaded_wall_timeout(Duration::from_secs(600));
        threaded.discovery_period = 100;
        threaded.view_timeout_base = 4_000;

        let run = |scenario: &Scenario, kind: RuntimeKind| {
            let started = Instant::now();
            let outcome = scenario.run_on(kind);
            println!(
                "  {:<18} n={n:<5} {:<8} wall={:>7.2}s messages_sent={:<9} payload_units={}",
                family.name(),
                kind.label(),
                started.elapsed().as_secs_f64(),
                outcome.stats.messages_sent,
                outcome.stats.payload_units,
            );
            let check = outcome.check();
            assert!(
                check.consensus_solved() && check.committee_agreement,
                "{} n={n} must solve on {}",
                family.name(),
                kind.label()
            );
            outcome.decisions
        };
        let sim = run(&scenario, RuntimeKind::Sim);
        assert_eq!(
            run(&threaded, RuntimeKind::Threaded),
            sim,
            "{} n={n}: threaded decisions must equal the simulator's",
            family.name()
        );
    }
}
