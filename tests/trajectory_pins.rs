//! The deterministic trajectory of the stack, pinned exactly.
//!
//! Nineteen scalars a simulator run reproduces bit for bit on any
//! machine: the `SETPDS` payload of the delta-gossip sweep, and the
//! virtual-time phase marks (S_PD fixpoint, sink identified, decided) of
//! four n = 100 planted-committee cells and two churned ones. A change
//! that moves one of them has changed what the protocol sends or when it
//! decides; it edits the constant here and says why in CHANGES.md.

mod discovery_sim;
mod sweep;

use bft_cupft::core::{ChurnEvent, ChurnSpec, ProtocolMode, RuntimeKind, Scenario};
use bft_cupft::discovery::GossipMode;
use bft_cupft::graph::{
    process_set, DiGraph, GeneratedSystem, GraphFamily, KnowledgeView, ProcessId,
};
use bft_cupft::obs::{ObsReport, PhaseMark};
use discovery_sim::{final_views, psync, DiscoverySim};
use std::collections::BTreeMap;
use sweep::sweep_families;

const SWEEP_HORIZON: u64 = 4_000;

/// Discovery-only actors over `graph` to the sweep horizon: delivered
/// `SETPDS` payload and every node's final view.
fn discovery_run(
    graph: &DiGraph,
    mode: GossipMode,
    seed: u64,
) -> (u64, BTreeMap<ProcessId, KnowledgeView>) {
    let mut sim = DiscoverySim::new(graph, seed, SWEEP_HORIZON + 100)
        .with_gossip(mode)
        .build();
    sim.run_until(|s| s.now() > SWEEP_HORIZON);
    let payload = sim.stats().label_payload("SETPDS");
    (payload, final_views(sim))
}

#[test]
fn sweep_setpds_payload_is_pinned() {
    let (mut full_total, mut delta_total) = (0, 0);
    for family in sweep_families() {
        for size in [12usize, 18, 24] {
            let graph = family
                .scaled(size)
                .generate(11)
                .expect("valid family parameterization")
                .system
                .graph;
            let (full, full_views) = discovery_run(&graph, GossipMode::Full, size as u64);
            let (delta, delta_views) = discovery_run(&graph, GossipMode::Delta, size as u64);
            assert_eq!(
                full_views,
                delta_views,
                "{}@n{size}: delta gossip must end in the full-S_PD views",
                family.name()
            );
            full_total += full;
            delta_total += delta;
        }
    }
    assert_eq!(full_total, 8_372_342, "full-S_PD SETPDS payload");
    assert_eq!(delta_total, 37_071, "delta SETPDS payload");
}

/// The n = 100 cell of `family`: its generated system and scenario.
fn cell(family: &GraphFamily) -> (GeneratedSystem, Scenario) {
    let system = family
        .scaled(100)
        .generate(100)
        .expect("valid family parameterization")
        .system;
    let scenario = Scenario::new(system.graph.clone(), ProtocolMode::KnownThreshold(1))
        .with_seed(1)
        .with_policy(psync())
        .with_horizon(2_000_000);
    (system, scenario)
}

fn observed(scenario: Scenario) -> ObsReport {
    let outcome = scenario.with_observe(true).run_on(RuntimeKind::Sim);
    assert!(outcome.check().consensus_solved(), "cell must solve");
    outcome.obs.expect("observed run carries a report")
}

/// Latest (S_PD fixpoint, sink identified, decided) mark over all nodes.
fn phase_marks(report: &ObsReport) -> (u64, u64, u64) {
    let at = |mark| report.phase_max(mark).expect("phase reached by some node");
    (
        at(PhaseMark::SpdFixpoint),
        at(PhaseMark::SinkIdentified),
        at(PhaseMark::Decided),
    )
}

#[test]
fn phase_marks_at_n100_are_pinned() {
    for (family, pinned) in [
        (GraphFamily::erdos_renyi(100, 1), (265, 200, 267)),
        (GraphFamily::k_diamond(100, 1), (229, 240, 312)),
        (GraphFamily::scale_free(100, 1), (262, 220, 283)),
        (GraphFamily::bridged_partition(100, 1), (277, 220, 278)),
    ] {
        let (_, scenario) = cell(&family);
        assert_eq!(
            phase_marks(&observed(scenario)),
            pinned,
            "{}",
            family.name()
        );
    }
}

#[test]
fn churned_phase_marks_at_n100_are_pinned() {
    for (family, pinned) in [
        (GraphFamily::k_diamond(100, 1), (614, 620, 631)),
        (GraphFamily::erdos_renyi(100, 1), (608, 420, 615)),
    ] {
        let (GeneratedSystem { graph, sink, .. }, scenario) = cell(&family);
        // Churn the two highest periphery ids: the planted committee
        // stays intact.
        let mut periphery: Vec<ProcessId> =
            graph.vertices().filter(|v| !sink.contains(v)).collect();
        periphery.sort_unstable();
        let recoverer = periphery.pop().expect("periphery vertex");
        let joiner = periphery.pop().expect("second periphery vertex");
        let seed_peer = graph.vertices().min().expect("graph has vertices");
        let report = observed(scenario.with_churn(ChurnSpec::new(vec![
            ChurnEvent::JoinAt {
                tick: 400,
                node: joiner,
                seed_peers: process_set([seed_peer.raw()]),
            },
            ChurnEvent::CrashRecoverAt {
                tick: 200,
                node: recoverer,
                down_for: 400,
            },
        ])));
        for counter in ["churn_joins", "churn_crashes", "churn_recoveries"] {
            assert_eq!(report.counter(counter), 1, "{}: {counter}", family.name());
        }
        assert_eq!(phase_marks(&report), pinned, "{}", family.name());
    }
}
