//! The family × size acceptance sweep: `ScenarioGrid::family` drives four
//! topology families at three sizes through consensus on *both* runtimes,
//! and a per-family fault/strategy sweep silences a structurally
//! expendable vertex (one whose removal keeps the safe subgraph inside
//! the family's advertised conditions) to confirm the generated systems
//! tolerate the faults their parameters promise.
//!
//! `scripts/verify.sh --quick` fronts this test as the family-sweep gate.
//!
//! One `#[ignore]`d release-mode test carries the n = 1000 sim-vs-threaded
//! parity rows (CI job `scale-parity`):
//! `cargo test --release --test family_sweep -- --ignored --nocapture`.

use std::time::{Duration, Instant};

use bft_cupft::core::{
    ByzantineStrategy, FaultCase, ProtocolMode, RuntimeKind, Scenario, ScenarioGrid, ScenarioSuite,
};
use bft_cupft::graph::GraphFamily;
use bft_cupft::net::DelayPolicy;

const SIZES: [usize; 3] = [10, 14, 18];

fn psync() -> DelayPolicy {
    DelayPolicy::PartialSynchrony {
        gst: 200,
        delta: 10,
        pre_gst_max: 120,
    }
}

/// The sweep families. Ring and bridge widths are `f + 2` so that the
/// fault sweep can remove one vertex and stay within the `(f+1)`-OSR
/// conditions; Erdős–Rényi and k-diamond are already one-periphery-vertex
/// resilient (peripheries never route through each other's victims).
fn sweep_families() -> Vec<GraphFamily> {
    vec![
        GraphFamily::erdos_renyi(16, 1),
        GraphFamily::RingOfCliques {
            cliques: 3,
            clique_size: 4,
            bridges: 3,
            fault_threshold: 1,
        },
        GraphFamily::k_diamond(16, 1),
        GraphFamily::BridgedPartition {
            a_size: 8,
            sink_size: 3,
            bridge_width: 3,
            fault_threshold: 1,
        },
    ]
}

fn honest_grid(seeds: std::ops::Range<u64>, sizes: &[usize]) -> ScenarioSuite {
    let mut grid = ScenarioGrid::new();
    for family in sweep_families() {
        grid = grid.family(
            &family,
            sizes.iter().copied(),
            11,
            ProtocolMode::KnownThreshold(1),
        );
    }
    grid.policy("psync", psync(), 400_000).seeds(seeds).build()
}

#[test]
fn four_families_three_sizes_solve_on_simulation() {
    let suite = honest_grid(0..2, &SIZES);
    assert_eq!(suite.len(), 24); // 4 families x 3 sizes x 2 seeds
    let report = suite.run(RuntimeKind::Sim);
    assert!(
        report.all_solved(),
        "failures on sim: {:?}",
        report.failures()
    );
}

#[test]
fn four_families_three_sizes_solve_on_threads() {
    let mut suite = honest_grid(0..1, &SIZES);
    assert_eq!(suite.len(), 12); // 4 families x 3 sizes x 1 seed

    // Tick-denominated knobs read as milliseconds on the threaded
    // substrate. Identification re-runs on every view change, so a generous
    // discovery period costs little latency while keeping the per-tick
    // candidate search (expensive on whole-graph sinks like the ring) off
    // the CPU; the long view timeout keeps real scheduling jitter from
    // triggering spurious view changes.
    for entry in suite.entries_mut() {
        entry.scenario.discovery_period = 200;
        entry.scenario.view_timeout_base = 4_000;
    }
    let report = suite.run(RuntimeKind::Threaded);
    assert!(
        report.all_solved(),
        "failures on threads: {:?}",
        report.failures()
    );
}

/// Silencing the highest vertex ID — always a periphery/apex/outer-block
/// member under the families' core-first ID layout — must leave consensus
/// solvable: the sweep families are parameterized so one vertex removal
/// keeps the safe subgraph within the advertised conditions.
#[test]
fn families_tolerate_a_silent_expendable_vertex() {
    let mut suite = ScenarioSuite::new();
    for family in sweep_families() {
        for size in [10usize, 14] {
            let scaled = family.scaled(size);
            let sample = scaled.generate(11).unwrap();
            let victim = sample
                .system
                .graph
                .vertices()
                .map(|v| v.raw())
                .max()
                .unwrap();
            assert!(
                !sample
                    .system
                    .sink
                    .contains(&bft_cupft::graph::ProcessId::new(victim))
                    || sample.system.sink.len() == sample.system.graph.vertex_count(),
                "{}: victim must be expendable",
                scaled.label()
            );
            suite.extend(
                ScenarioGrid::new()
                    .graph(
                        format!("{}@n{size}", family.name()),
                        sample.system.graph,
                        ProtocolMode::KnownThreshold(1),
                    )
                    .fault(FaultCase::none())
                    .fault(FaultCase::single(victim, ByzantineStrategy::Silent))
                    .policy("psync", psync(), 400_000)
                    .seeds(0..1)
                    .build(),
            );
        }
    }
    assert_eq!(suite.len(), 16); // 4 families x 2 sizes x {correct, silent}
    let report = suite.run(RuntimeKind::Sim);
    assert!(
        report.all_solved(),
        "failures with silent vertex: {:?}",
        report.failures()
    );
}

/// The four planted-committee families at n = 1000 (the ring is left out:
/// its sink is the whole graph), once on the simulator and once on OS
/// threads. Too slow for a debug `cargo test`, hence `#[ignore]`. The
/// printed rows are where ROADMAP item 2's two anomalies are read from:
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
            .with_policy(psync())
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
            assert!(
                outcome.check().consensus_solved(),
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
