//! The per-peer poll gate (`cupft_discovery::PollGate`) end to end: one
//! request in flight per peer, and a silent peer re-polled after 1, 2,
//! 4 … skipped rounds.
//!
//! 1. A `Silent` Byzantine peer costs each correct poller O(log rounds)
//!    `GETPDS`, read off the simulator trace — not one per round, and
//!    not a single poll either.
//! 2. Losing the first `SETPDS` replies on a requester's only link costs
//!    rounds, never a certificate: the requester still ends on the
//!    full-`S_PD` views.

mod discovery_sim;

use bft_cupft::core::{run_scenario_recorded, ByzantineStrategy, ProtocolMode, Scenario};
use bft_cupft::discovery::{DiscoveryMsg, GossipMode};
use bft_cupft::graph::{fig1b, DiGraph, KnowledgeView, ProcessId};
use bft_cupft::net::{Fate, Tamper, Time, TraceKind};
use discovery_sim::DiscoverySim;
use std::collections::BTreeMap;

fn p(n: u64) -> ProcessId {
    ProcessId::new(n)
}

/// `⌊log₂ n⌋` and `⌈log₂ n⌉` for `n ≥ 1`.
fn log2_floor_ceil(n: u64) -> (u64, u64) {
    let floor = u64::from(n.ilog2());
    (floor, floor + u64::from(!n.is_power_of_two()))
}

#[test]
fn silent_peer_is_polled_log_rounds_times() {
    let silent = p(4);
    let mut pollers = 0;
    for seed in 1..=4 {
        let scenario = Scenario::new(fig1b().graph().clone(), ProtocolMode::KnownThreshold(1))
            .with_byzantine(silent.raw(), ByzantineStrategy::Silent)
            .with_seed(seed);
        let period = scenario.discovery_period;
        let (outcome, trace) = run_scenario_recorded(&scenario);
        assert!(outcome.check().consensus_solved(), "seed {seed}");
        for (&id, detected) in &outcome.detection_times {
            let polls: Vec<Time> = trace
                .iter()
                .filter(|e| e.from == id && e.to == silent && e.label == "GETPDS")
                .filter(|e| matches!(e.kind, TraceKind::Sent { .. }))
                .map(|e| e.time)
                .collect();
            let Some(&first) = polls.first() else {
                continue; // `id` never learned of 4
            };
            // Discovery rounds run until the round that identifies the
            // committee; count them from the first poll of 4.
            let detected = detected.expect("every correct process identifies");
            let rounds = (detected - first) / period + 1;
            let (floor, ceil) = log2_floor_ceil(rounds);
            let sent = polls.len() as u64;
            assert!(
                floor <= sent && sent <= ceil + 2,
                "seed {seed}: {id} sent {sent} GETPDS to silent 4 over {rounds} rounds"
            );
            if rounds >= 4 {
                pollers += 1;
            }
        }
    }
    assert!(pollers >= 8, "only {pollers} pollers ran 4+ rounds");
}

/// Drops the first `left` `SETPDS` on the link `from → to`.
struct DropFirstReplies {
    from: ProcessId,
    to: ProcessId,
    left: u32,
}

impl Tamper<DiscoveryMsg> for DropFirstReplies {
    fn disposition(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        label: &'static str,
        _: Time,
    ) -> Fate {
        if (from, to) == (self.from, self.to) && label == "SETPDS" && self.left > 0 {
            self.left -= 1;
            return Fate::Drop;
        }
        Fate::Deliver
    }
}

/// Discovery-only actors over `graph` to a fixed horizon: the messages
/// dropped and every process's final view.
fn final_views(
    graph: &DiGraph,
    mode: GossipMode,
    tamper: Option<DropFirstReplies>,
) -> (u64, BTreeMap<ProcessId, KnowledgeView>) {
    let mut sim = DiscoverySim::new(graph, 5, 4_100)
        .with_gossip(mode)
        .with_tamper(tamper.map(|t| Box::new(t) as Box<dyn Tamper<DiscoveryMsg>>))
        .build();
    sim.run_until(|s| s.now() > 4_000);
    let dropped = sim.stats().messages_dropped;
    (dropped, discovery_sim::final_views(sim))
}

#[test]
fn dropped_replies_cost_rounds_not_certificates() {
    // Fig. 1b plus a process 9 that knows only 5: everything 9 learns
    // comes back in 5's replies to 9's own GETPDS.
    let mut edges: Vec<(u64, u64)> = fig1b()
        .graph()
        .edges()
        .map(|(a, b)| (a.raw(), b.raw()))
        .collect();
    edges.push((9, 5));
    let graph = DiGraph::from_edges(edges);
    let (_, reference) = final_views(&graph, GossipMode::Full, None);
    for dropped in [1, 3, 6] {
        let tamper = DropFirstReplies {
            from: p(5),
            to: p(9),
            left: dropped,
        };
        let (lost, views) = final_views(&graph, GossipMode::Delta, Some(tamper));
        assert_eq!(lost, u64::from(dropped));
        assert_eq!(
            views, reference,
            "{dropped} dropped replies must cost rounds, not certificates"
        );
    }
}
