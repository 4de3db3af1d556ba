//! The delta-gossip equivalence sweep: across the four family-sweep
//! topologies at three sizes, delta-gossip discovery must reach
//! **byte-identical** final [`KnowledgeView`]s and the full protocol must
//! reach **identical decisions** as the full-`S_PD` baseline — on both
//! runtimes — while delivering an order of magnitude less `SETPDS`
//! payload. This is the observational-equivalence bar the delta rework
//! (shared cert pool, requester-described deltas, sync-state suppression,
//! memoized verification) has to clear; the invariant argument lives in
//! the `cupft_discovery` crate docs.

mod discovery_sim;
mod sweep;

use bft_cupft::core::{ProtocolMode, RuntimeKind, Scenario, ScenarioOutcome};
use bft_cupft::detector::SystemSetup;
use bft_cupft::discovery::{DiscoveryActor, DiscoveryMsg, DiscoveryState, GossipMode};
use bft_cupft::graph::{DiGraph, KnowledgeView, ProcessId};
use bft_cupft::net::threaded::{Board, ThreadedConfig, ThreadedRuntime};
use bft_cupft::net::Runtime;
use discovery_sim::{final_views, DiscoverySim};
use std::collections::BTreeMap;
use std::time::Duration;
use sweep::{fan_out, sweep_families, SIZES};

/// Every sweep family at every size, generated from topology seed 11.
fn family_graphs() -> Vec<(String, DiGraph)> {
    let mut out = Vec::new();
    for family in sweep_families() {
        for size in SIZES {
            let sample = family.scaled(size).generate(11).unwrap();
            out.push((format!("{}@n{size}", family.name()), sample.system.graph));
        }
    }
    out
}

/// Runs discovery-only actors on the simulator to a generous horizon and
/// returns every process's final view plus the delivered SETPDS payload.
fn sim_views(
    graph: &DiGraph,
    mode: GossipMode,
    seed: u64,
) -> (BTreeMap<ProcessId, KnowledgeView>, u64) {
    let mut sim = DiscoverySim::new(graph, seed, 10_000)
        .with_gossip(mode)
        .build();
    sim.run_until(|s| s.now() > 6_000);
    let payload = sim.stats().label_payload("SETPDS");
    (final_views(sim), payload)
}

/// Byte-identical final views per process on the simulator, and ≥10x less
/// SETPDS payload, across 4 families × 3 sizes.
#[test]
fn delta_views_match_full_baseline_on_simulation() {
    let mut full_total = 0u64;
    let mut delta_total = 0u64;
    for (label, graph) in family_graphs() {
        let (full_views, full_payload) = sim_views(&graph, GossipMode::Full, 5);
        let (delta_views, delta_payload) = sim_views(&graph, GossipMode::Delta, 5);
        assert_eq!(
            full_views, delta_views,
            "{label}: delta-gossip views must be byte-identical to the baseline"
        );
        full_total += full_payload;
        delta_total += delta_payload;
    }
    assert!(
        delta_total * 10 <= full_total,
        "expected ≥10x sweep payload reduction, got full={full_total} delta={delta_total}"
    );
}

/// Threaded runtime: convergence is observed through a progress board
/// (the actors are unreachable mid-run). The knowledge fixpoint is a pure
/// function of the topology — pull-based dissemination closes over the
/// knowledge edges regardless of timing — so the deterministic simulator
/// supplies the expected per-process views and both threaded modes must
/// land on exactly them. One size per family keeps the wall cost sane.
#[test]
fn delta_views_match_full_baseline_on_threads() {
    for family in sweep_families() {
        let sample = family.scaled(12).generate(11).unwrap();
        let graph = &sample.system.graph;
        // Ground truth: the simulator's fixpoint (already proven equal
        // across modes by the sim sweep above). Not every process learns
        // the whole system — e.g. bridged-partition sink members never
        // hear of the outer block — so the expectation is per-process.
        let (expected, _) = sim_views(graph, GossipMode::Full, 5);
        let expected_counts: BTreeMap<ProcessId, usize> = expected
            .iter()
            .map(|(&id, view)| (id, view.received_count()))
            .collect();
        let run = |mode: GossipMode| -> BTreeMap<ProcessId, KnowledgeView> {
            let setup = SystemSetup::new(graph);
            let board: Board<usize> = Board::new();
            let mut rt: ThreadedRuntime<DiscoveryMsg> = ThreadedRuntime::new(ThreadedConfig {
                wall_timeout: Duration::from_secs(30),
                ..ThreadedConfig::default()
            });
            for v in graph.vertices() {
                let state = DiscoveryState::from_setup(&setup, v)
                    .unwrap()
                    .with_gossip(mode);
                rt.add_actor(Box::new(
                    DiscoveryActor::new(state, 10).with_board(board.clone()),
                ));
            }
            let report = rt.run_until_stopped(&mut || {
                let snapshot = board.snapshot();
                expected_counts
                    .iter()
                    .all(|(id, &want)| snapshot.get(id).is_some_and(|&have| have >= want))
            });
            assert!(
                report.stopped,
                "{} ({mode:?}): discovery must converge before the wall timeout",
                family.name()
            );
            graph
                .vertices()
                .map(|v| {
                    let actor: &DiscoveryActor = rt.actor_as(v).expect("actor returned");
                    (v, actor.state().view().clone())
                })
                .collect()
        };
        assert_eq!(
            run(GossipMode::Full),
            expected,
            "{}: threaded full-mode fixpoint must match the simulator's",
            family.name()
        );
        assert_eq!(
            run(GossipMode::Delta),
            expected,
            "{}: threaded delta-mode fixpoint must match the simulator's",
            family.name()
        );
    }
}

/// Consensus on every family graph (seed 0, default partial synchrony,
/// 400 000 horizon) with the full-`S_PD` baseline or delta gossip. Every
/// run must solve consensus with one committee. On threads the tick knobs
/// read as milliseconds: a 200 ms discovery period and a 4 s view timeout.
fn consensus_outcomes(gossip: GossipMode, kind: RuntimeKind) -> Vec<(String, ScenarioOutcome)> {
    let cells: Vec<(String, Scenario)> = family_graphs()
        .into_iter()
        .map(|(label, graph)| {
            let mut scenario = Scenario::new(graph, ProtocolMode::KnownThreshold(1))
                .with_horizon(400_000)
                .with_gossip(gossip);
            if kind == RuntimeKind::Threaded {
                scenario.discovery_period = 200;
                scenario.view_timeout_base = 4_000;
            }
            (label, scenario)
        })
        .collect();
    let outcomes = fan_out(&cells, |(_, scenario)| scenario.run_on(kind));
    cells
        .into_iter()
        .zip(outcomes)
        .map(|((label, _), outcome)| {
            let check = outcome.check();
            assert!(
                check.consensus_solved() && check.committee_agreement,
                "{label} ({gossip:?} gossip) on {}: {check:?}",
                kind.label()
            );
            (label, outcome)
        })
        .collect()
}

/// Identical decisions and identifications between modes on the simulator.
#[test]
fn delta_decisions_match_full_baseline_on_simulation() {
    let full = consensus_outcomes(GossipMode::Full, RuntimeKind::Sim);
    let delta = consensus_outcomes(GossipMode::Delta, RuntimeKind::Sim);
    for ((label, f), (_, d)) in full.iter().zip(&delta) {
        assert_eq!(
            f.decisions, d.decisions,
            "{label}: decisions must be identical across gossip modes"
        );
        assert_eq!(f.detections, d.detections, "{label}");
    }
}

/// Identical decided values between modes on the threaded runtime (whose
/// interleavings are nondeterministic, so values — determined by the
/// identified committee — are compared, not timings).
#[test]
fn delta_decisions_match_full_baseline_on_threads() {
    let full = consensus_outcomes(GossipMode::Full, RuntimeKind::Threaded);
    let delta = consensus_outcomes(GossipMode::Delta, RuntimeKind::Threaded);
    for ((label, f), (_, d)) in full.iter().zip(&delta) {
        assert_eq!(
            f.check().decided_values,
            d.check().decided_values,
            "{label}: decided values must agree across gossip modes"
        );
    }
}
