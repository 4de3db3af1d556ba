//! The Discovery algorithm (Algorithm 1 of the paper), with a
//! delta-gossip fast path.
//!
//! Every correct process periodically asks the processes it knows for the
//! PDs they have collected (`GETPDS`), answers such requests with its own
//! collection (`SETPDS`), and merges verified records into its
//! [`cupft_graph::KnowledgeView`]. Theorem 2 guarantees that in a graph
//! from `G_di` every correct process eventually knows all correct sink
//! members and holds their PDs; the tests reproduce that convergence.
//!
//! # Delta gossip
//!
//! The literal Algorithm 1 ships the **whole** `S_PD` in every `SETPDS`,
//! which makes the protocol's payload complexity `O(rounds · n³)` records
//! system-wide — the wall every end-to-end experiment beyond a few dozen
//! processes hits. [`GossipMode::Delta`] (the default) changes
//! *how much* is shipped, never *what is eventually known*:
//!
//! 1. **Requester-described deltas.** A `GETPDS` carries the authors the
//!    requester already holds certificates for ([`DiscoveryMsg::GetPds`]'s
//!    `have` set) and the responder replies with only the missing
//!    records, in author order. The responder holds its certificates in
//!    one table sorted by author, so the reply is one merge walk of that
//!    table against the sorted `have` set. The delta is recomputed
//!    *statelessly* from each request: the responder never marks anything
//!    "already sent" on its own, so a dropped or reordered reply costs one
//!    round, never a certificate.
//! 2. **Sync-state suppression.** Every message carries a [`SyncState`] —
//!    count plus commutative fingerprint of the sender's certificate set.
//!    A process skips its `GETPDS` toward a peer exactly while the peer's
//!    last reported state equals its own current state (identical sets,
//!    up to a ~2⁻¹²⁸ fingerprint collision). The moment either side
//!    learns anything, its state changes, the equality breaks on the next
//!    exchanged message, and polling resumes.
//! 3. **Memoized verification.** [`DiscoveryState::absorb_batch`]
//!    discards exact duplicates of held records *before* hashing or
//!    signature verification (one binary search of the author-sorted
//!    table and one equality check per shipped record; on dense graphs
//!    nearly every shipped record is such a duplicate, so this filter,
//!    not verification, is the cost of a bundle) and settles the rest
//!    through the state's [`cupft_detector::CertPool`] verdict memo, so
//!    each distinct certificate pays for at most one HMAC check; a
//!    per-process set of forged fingerprints counts each replayed forgery
//!    once.
//! 4. **One request in flight per peer.** A round skips a peer whose last
//!    `GETPDS` is still unanswered; any `SETPDS` from that peer answers
//!    it. A peer that stays silent is polled again after 1, 2, 4, 8 …
//!    skipped rounds: the wait doubles on each unanswered poll and resets
//!    when the peer answers ([`PollGate`], which Algorithm 3's learning
//!    rounds use too). Without it, a round before GST re-polled every
//!    peer whose reply was still in flight, and each duplicate reply
//!    carried the same certificates again.
//!
//! ## Why Algorithm 1's invariants survive
//!
//! The paper's termination lemma for Algorithm 1 (and everything built on
//! it: Theorem 2's "S_PD eventually common" across correct sink members)
//! needs exactly one dissemination property:
//!
//! > **(P)** If correct `j` holds certificate `c` and correct `i` reaches
//! > `j` along correct processes, then `i` eventually holds a certificate
//! > from `c`'s author.
//!
//! Delta mode preserves (P) hop by hop, because **`i` polls `j`
//! infinitely often** while `i` lacks `c`'s author: rule 2 cannot silence
//! the pair, because `j`'s state (which counts `c`) cannot equal `i`'s
//! state (which does not — the per-element fingerprints sum over
//! *distinct* records), and rule 4 only spaces the polls out — an
//! unanswered `j` is polled again after finitely many rounds, however
//! long it stays silent. So some reply reaches `i` (on reliable links
//! every reply does; after finitely many drops a later poll's does), and
//! while `i` lacks `c`'s author, `i`'s `have` set omits it, so **every**
//! reply `j` computes for `i` includes `c` — rule 1 cannot suppress an
//! unreceived author. Dropped messages only delay the next request/reply
//! pair: a drop costs at most as many rounds as the silence before it,
//! never a certificate. The single semantic
//! difference is benign: a second, *conflicting* certificate from an
//! equivocating (hence Byzantine) author may not be re-shipped to a
//! process that already holds one from that author — and Algorithm 1
//! discards such conflicts anyway ("first record wins"), so every
//! reachable `KnowledgeView` is byte-identical to the baseline's
//! fixpoint. `tests/discovery_equivalence.rs` and
//! `tests/proptest_discovery.rs` hold both modes to that claim, including
//! under message-reordering and dropping adversaries.
//!
//! # Shared verification
//!
//! Rule 3 generalizes across processes: the verdict of a certificate is a
//! pure function of its bytes (an *oracle*), so **which process** computes
//! it cannot affect Algorithm 1's fixpoint. Every state verifies through
//! one [`cupft_detector::CertPool`]: a private pool by default, or the
//! run's pool after [`DiscoveryState::with_shared_pool`].
//! [`DiscoveryState::absorb_batch`] hands the not-held certificates of
//! each inbound `SETPDS` to one [`cupft_detector::CertPool::verify_batch`]
//! call, which verifies each memo miss once against the registry, so
//! with the shared pool each distinct certificate costs one HMAC
//! system-wide. This is the only place a certificate is verified.
//!
//! The module exposes the protocol twice:
//!
//! * [`DiscoveryState`] — a runtime-agnostic state machine (messages in,
//!   messages out), embedded by the full BFT-CUP/BFT-CUPFT nodes in
//!   `cupft-core`;
//! * [`DiscoveryActor`] — a standalone actor for discovery-only
//!   experiments and benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gate;
mod msgs;
mod state;

pub use gate::PollGate;
pub use msgs::{DiscoveryMsg, SyncState};
pub use state::{DiscoveryState, GossipMode, DISCOVERY_TICK};

use cupft_graph::ProcessId;
use cupft_net::threaded::Board;
use cupft_net::{Actor, Context};

/// A standalone discovery participant: runs Algorithm 1 forever (the
/// `discovery` task has no termination condition of its own — the Sink and
/// Core algorithms simply stop consulting it once they return).
#[derive(Debug)]
pub struct DiscoveryActor {
    state: DiscoveryState,
    period: u64,
    board: Option<Board<usize>>,
}

impl DiscoveryActor {
    /// Creates an actor around an initialized state with the given tick
    /// period.
    pub fn new(state: DiscoveryState, period: u64) -> Self {
        DiscoveryActor {
            state,
            period,
            board: None,
        }
    }

    /// Attaches a progress board: the actor publishes its
    /// `S_received` count whenever it grows, so a driver can stop a run
    /// once every actor reports the expected count (the only portable way
    /// to observe convergence on the threaded runtime, whose actors are
    /// unreachable mid-run).
    pub fn with_board(mut self, board: Board<usize>) -> Self {
        self.board = Some(board);
        self
    }

    /// Read access to the protocol state.
    pub fn state(&self) -> &DiscoveryState {
        &self.state
    }

    fn publish_progress(&self) {
        if let Some(board) = &self.board {
            board.publish(self.state.id(), self.state.view().received_count());
        }
    }
}

impl Actor<DiscoveryMsg> for DiscoveryActor {
    fn id(&self) -> ProcessId {
        self.state.id()
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut Context<DiscoveryMsg>) {
        for (to, msg) in self.state.tick() {
            ctx.send(to, msg);
        }
        self.publish_progress();
        ctx.set_timer(DISCOVERY_TICK, self.period);
    }

    fn on_message(&mut self, from: ProcessId, msg: DiscoveryMsg, ctx: &mut Context<DiscoveryMsg>) {
        for (to, out) in self.state.handle(from, msg) {
            ctx.send(to, out);
        }
        if self.state.take_changed() {
            self.publish_progress();
        }
    }

    fn on_timer(&mut self, _timer: u64, ctx: &mut Context<DiscoveryMsg>) {
        for (to, msg) in self.state.tick() {
            ctx.send(to, msg);
        }
        ctx.set_timer(DISCOVERY_TICK, self.period);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cupft_detector::SystemSetup;
    use cupft_graph::{fig1b, process_set, DiGraph, ProcessSet};
    use cupft_net::sim::Simulation;
    use cupft_net::{DelayPolicy, SimConfig};

    fn p(n: u64) -> ProcessId {
        ProcessId::new(n)
    }

    /// Builds a simulation where every process in `graph` runs discovery;
    /// `silent` processes are registered but never started (the silent-
    /// Byzantine behavior).
    fn discovery_sim(
        graph: &DiGraph,
        silent: &ProcessSet,
        seed: u64,
    ) -> (Simulation<DiscoveryMsg>, SystemSetup) {
        discovery_sim_with(graph, silent, seed, GossipMode::Delta)
    }

    fn discovery_sim_with(
        graph: &DiGraph,
        silent: &ProcessSet,
        seed: u64,
        mode: GossipMode,
    ) -> (Simulation<DiscoveryMsg>, SystemSetup) {
        let setup = SystemSetup::new(graph);
        let mut sim = Simulation::new(SimConfig {
            seed,
            max_time: 50_000,
            policy: DelayPolicy::PartialSynchrony {
                gst: 200,
                delta: 10,
                pre_gst_max: 150,
            },
        });
        for v in graph.vertices() {
            if silent.contains(&v) {
                continue;
            }
            let state = DiscoveryState::from_setup(&setup, v)
                .unwrap()
                .with_gossip(mode);
            sim.add_actor(Box::new(DiscoveryActor::new(state, 20)));
        }
        (sim, setup)
    }

    /// Extracts the concrete actor type back from the simulator.
    fn as_discovery(actor: &dyn Actor<DiscoveryMsg>) -> &DiscoveryActor {
        actor
            .as_any()
            .downcast_ref::<DiscoveryActor>()
            .expect("all test actors are DiscoveryActor")
    }

    /// Theorem 2 on Fig. 1b: every correct process eventually discovers and
    /// receives the PDs of all correct sink members, even with the
    /// Byzantine process silent.
    #[test]
    fn theorem2_on_fig1b_with_silent_byzantine() {
        let fig = fig1b();
        let (mut sim, _setup) = discovery_sim(fig.graph(), fig.byzantine(), 1);
        sim.run_until(|s| s.now() > 2_000);
        let correct_sink = process_set([1, 2, 3]);
        for (id, actor) in sim.into_actors() {
            if fig.byzantine().contains(&id) {
                continue;
            }
            let discovery = as_discovery(actor.as_ref());
            let view = discovery.state().view();
            for &member in &correct_sink {
                assert!(
                    view.knows(member),
                    "{id} must discover sink member {member}"
                );
                assert!(
                    view.has_pd_of(member),
                    "{id} must receive PD of sink member {member}"
                );
            }
        }
    }

    /// With the bridge process of Fig. 1a silent, the two halves never
    /// learn of each other — the premise of the Fig. 1a impossibility.
    #[test]
    fn fig1a_partition_under_silent_bridge() {
        let fig = cupft_graph::fig1a();
        let (mut sim, _setup) = discovery_sim(fig.graph(), fig.byzantine(), 2);
        sim.run_until(|s| s.now() > 2_000);
        for (id, actor) in sim.into_actors() {
            let discovery = as_discovery(actor.as_ref());
            let view = discovery.state().view();
            if [1, 2, 3].map(p).contains(&id) {
                for other in [5, 6, 7, 8].map(p) {
                    assert!(!view.knows(other), "{id} must not learn of {other}");
                }
            }
            if [5, 6, 7, 8].map(p).contains(&id) {
                for other in [1, 2, 3].map(p) {
                    assert!(!view.knows(other), "{id} must not learn of {other}");
                }
            }
        }
    }

    /// Discovery converges within O(diameter) rounds after GST.
    #[test]
    fn convergence_time_bounded_by_diameter() {
        // A 6-process bidirectional chain: diameter 5.
        let graph = DiGraph::from_edges([
            (1, 2),
            (2, 1),
            (2, 3),
            (3, 2),
            (3, 4),
            (4, 3),
            (4, 5),
            (5, 4),
            (5, 6),
            (6, 5),
        ]);
        let (mut sim, _setup) = discovery_sim(&graph, &ProcessSet::new(), 3);
        // gst=200, delta=10, tick=20: full propagation needs a handful of
        // round trips; 6 * (20 + 2*10) per hop is a generous bound.
        let deadline = 200 + 6 * 60;
        sim.run_until(|s| s.now() > deadline);
        for (_id, actor) in sim.into_actors() {
            let discovery = as_discovery(actor.as_ref());
            assert_eq!(discovery.state().view().received_count(), 6);
        }
    }

    /// Delta mode converges to byte-identical views at a fraction of the
    /// delivered SETPDS payload, and its traffic dries up after the
    /// fixpoint while the baseline keeps re-shipping whole S_PDs forever.
    #[test]
    fn delta_matches_full_views_with_less_payload() {
        let graph = fig1b().graph().clone();
        let horizon = 5_000;
        let run = |mode: GossipMode| {
            let (mut sim, _setup) = discovery_sim_with(&graph, &ProcessSet::new(), 9, mode);
            sim.run_until(|s| s.now() > horizon);
            let payload = sim.stats().label_payload("SETPDS");
            let views: Vec<_> = sim
                .into_actors()
                .into_iter()
                .map(|(id, a)| (id, as_discovery(a.as_ref()).state().view().clone()))
                .collect();
            (views, payload)
        };
        let (full_views, full_payload) = run(GossipMode::Full);
        let (delta_views, delta_payload) = run(GossipMode::Delta);
        assert_eq!(full_views, delta_views, "views must be byte-identical");
        assert!(
            delta_payload * 10 <= full_payload,
            "expected ≥10x payload reduction, got {full_payload} vs {delta_payload}"
        );
    }
}
