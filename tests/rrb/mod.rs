//! Reachable reliable broadcast — the *unauthenticated* communication
//! primitive of the original BFT-CUP protocol \[10\], built as the baseline
//! for the paper's central simplification claim (Section III / Remark 1):
//! with digital signatures a process trusts a PD record directly, whereas
//! without signatures it must receive the record over **more than `f`
//! node-disjoint paths** before delivering it.
//!
//! The implementation is *disjoint-path flooding*:
//!
//! * the origin sends its message to every process it knows, tagged with
//!   the path `[origin]`;
//! * a relay forwards each distinct received copy to its own known
//!   processes, up to a relay budget of `4(f+1)` copies per message
//!   (bounding the flood while letting enough distinct routes through to
//!   complete `f + 1` disjoint ones downstream);
//! * a receiver delivers the message once the union of received paths
//!   contains more than `f` node-disjoint routes from the origin (computed
//!   exactly, by max-flow, on the union graph).
//!
//! Full fidelity to the 120-line protocol suite of \[10\] is out of scope
//! (the paper's point is precisely that signatures make it unnecessary);
//! delivery is validated empirically on the `G_di` graph families in the
//! tests below, and `section3_signatures_outscale_reliable_broadcast` in
//! `tests/theorems.rs` (the only user of this module) compares its message
//! cost against the signed Discovery protocol.

use std::collections::BTreeMap;

use bft_cupft::graph::{DiGraph, KnowledgeView, ProcessId, ProcessSet};
use bft_cupft::net::{Actor, Context, Labeled, TimerKind};

/// A broadcast payload: opaque bytes identified by `(origin, tag)`.
///
/// For the discovery baseline the payload is an encoded PD; the primitive
/// itself does not interpret it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RrbPayload {
    /// Originating process.
    pub origin: ProcessId,
    /// Per-origin message tag (e.g. 0 = "my PD").
    pub tag: u64,
    /// Opaque content.
    pub content: Vec<u64>,
}

/// The single message kind: a flooded copy carrying its route so far
/// (origin first, most recent relay last; the receiver is *not* included).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RrbMsg {
    /// The flooded payload.
    pub payload: RrbPayload,
    /// Route the copy travelled, starting at the origin.
    pub path: Vec<ProcessId>,
}

impl Labeled for RrbMsg {
    fn label(&self) -> &'static str {
        "RRB-FLOOD"
    }
}

/// Per-process state of the reachable-reliable-broadcast primitive.
#[derive(Debug, Clone)]
pub struct RrbState {
    id: ProcessId,
    fault_threshold: usize,
    /// Processes this node may send to (its knowledge).
    neighbors: ProcessSet,
    /// Paths received per payload (full routes ending at this process).
    received_paths: BTreeMap<RrbPayload, Vec<Vec<ProcessId>>>,
    /// Paths already forwarded per payload (relay budget bookkeeping).
    forwarded: BTreeMap<RrbPayload, Vec<Vec<ProcessId>>>,
    delivered: BTreeMap<RrbPayload, ()>,
}

impl RrbState {
    /// Creates the state for process `id` with fault threshold `f` and the
    /// set of processes it knows (its PD).
    pub fn new(id: ProcessId, fault_threshold: usize, neighbors: ProcessSet) -> Self {
        RrbState {
            id,
            fault_threshold,
            neighbors,
            received_paths: BTreeMap::new(),
            forwarded: BTreeMap::new(),
            delivered: BTreeMap::new(),
        }
    }

    /// This process's ID.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Expands the neighbor set (knowledge grows as PDs are delivered).
    pub fn add_neighbors(&mut self, new: &ProcessSet) {
        self.neighbors.extend(new.iter().copied());
        self.neighbors.remove(&self.id);
    }

    /// Originates a broadcast of `payload` (must have `origin == id`).
    pub fn broadcast(&mut self, payload: RrbPayload) -> Vec<(ProcessId, RrbMsg)> {
        debug_assert_eq!(payload.origin, self.id);
        // own message: trivially delivered
        self.delivered.entry(payload.clone()).or_default();
        let msg = RrbMsg {
            payload,
            path: vec![self.id],
        };
        self.neighbors.iter().map(|&n| (n, msg.clone())).collect()
    }

    /// Payloads delivered so far.
    pub fn delivered(&self) -> impl Iterator<Item = &RrbPayload> + '_ {
        self.delivered.keys()
    }

    /// Handles a flooded copy; returns forwards to send plus the payloads
    /// newly delivered by this copy.
    pub fn handle(&mut self, msg: RrbMsg) -> (Vec<(ProcessId, RrbMsg)>, Vec<RrbPayload>) {
        let mut forwards = Vec::new();
        let mut newly_delivered = Vec::new();
        let RrbMsg { payload, path } = msg;
        // sanity: route must start at the origin and not contain us
        if path.first() != Some(&payload.origin) || path.contains(&self.id) {
            return (forwards, newly_delivered);
        }
        // record the full route (ending here)
        let mut full = path.clone();
        full.push(self.id);
        let paths = self.received_paths.entry(payload.clone()).or_default();
        if !paths.contains(&full) {
            paths.push(full);
        }

        // delivery check: > f node-disjoint routes in the union graph
        if !self.delivered.contains_key(&payload) {
            let disjoint = self.disjoint_route_count(&payload);
            if disjoint > self.fault_threshold {
                self.delivered.insert(payload.clone(), ());
                newly_delivered.push(payload.clone());
            }
        }

        // Relay rule: forward each *distinct* incoming route while the
        // per-payload budget lasts. Requiring forwarded routes to be
        // pairwise disjoint looks like an optimization but is wrong: a
        // short route arriving after a longer overlapping one would be
        // suppressed even though only the short one completes a disjoint
        // pair at some downstream receiver. Redundant routes merely add to
        // the receiver's union graph; the budget bounds the flood at
        // `4(f+1) · deg` messages per relay per payload.
        let budget = 4 * (self.fault_threshold + 1);
        let forwarded = self.forwarded.entry(payload.clone()).or_default();
        if forwarded.len() < budget && !forwarded.contains(&path) {
            forwarded.push(path.clone());
            let mut new_path = path;
            new_path.push(self.id);
            let out = RrbMsg {
                payload,
                path: new_path,
            };
            for &n in &self.neighbors {
                if !out.path.contains(&n) {
                    forwards.push((n, out.clone()));
                }
            }
        }
        (forwards, newly_delivered)
    }

    /// Exact count of node-disjoint origin→self routes in the union of
    /// received routes (Menger on the union graph).
    fn disjoint_route_count(&self, payload: &RrbPayload) -> usize {
        let Some(paths) = self.received_paths.get(payload) else {
            return 0;
        };
        let mut union = DiGraph::new();
        for path in paths {
            for w in path.windows(2) {
                union.add_edge(w[0], w[1]);
            }
        }
        if !union.contains_vertex(payload.origin) || !union.contains_vertex(self.id) {
            return 0;
        }
        union.disjoint_path_count(payload.origin, self.id)
    }
}

/// A standalone actor flooding one payload (its own PD) and collecting
/// deliveries — the unauthenticated counterpart of
/// `bft_cupft::discovery::DiscoveryActor`, which the Section III test
/// measures it against.
#[derive(Debug)]
pub struct RrbActor {
    state: RrbState,
    own_payload: RrbPayload,
}

impl RrbActor {
    /// Creates an actor that will broadcast `content` under tag 0.
    pub fn new(
        id: ProcessId,
        fault_threshold: usize,
        neighbors: ProcessSet,
        content: Vec<u64>,
    ) -> Self {
        RrbActor {
            state: RrbState::new(id, fault_threshold, neighbors),
            own_payload: RrbPayload {
                origin: id,
                tag: 0,
                content,
            },
        }
    }

    /// The protocol state (deliveries, routes).
    pub fn state(&self) -> &RrbState {
        &self.state
    }
}

impl Actor<RrbMsg> for RrbActor {
    fn id(&self) -> ProcessId {
        self.state.id()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut Context<RrbMsg>) {
        for (to, msg) in self.state.broadcast(self.own_payload.clone()) {
            ctx.send(to, msg);
        }
    }

    fn on_message(&mut self, _from: ProcessId, msg: RrbMsg, ctx: &mut Context<RrbMsg>) {
        let (forwards, delivered) = self.state.handle(msg);
        // Growing knowledge: a delivered PD teaches us its contents.
        for payload in &delivered {
            let new: ProcessSet = payload.content.iter().map(|&r| ProcessId::new(r)).collect();
            self.state.add_neighbors(&new);
        }
        for (to, out) in forwards {
            ctx.send(to, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_cupft::graph::{fig1b, process_set, GdiParams, Generator};
    use bft_cupft::net::sim::Simulation;
    use bft_cupft::net::{DelayPolicy, SimConfig};

    fn p(n: u64) -> ProcessId {
        ProcessId::new(n)
    }

    fn payload(origin: u64) -> RrbPayload {
        RrbPayload {
            origin: p(origin),
            tag: 0,
            content: vec![],
        }
    }

    #[test]
    fn direct_neighbor_needs_more_paths_with_f1() {
        // With f = 1, one direct copy is not enough (1 path, need > 1).
        let mut s = RrbState::new(p(2), 1, process_set([1, 3]));
        let (_, delivered) = s.handle(RrbMsg {
            payload: payload(1),
            path: vec![p(1)],
        });
        assert!(delivered.is_empty());
        assert_eq!(s.disjoint_route_count(&payload(1)), 1);
        // A second, disjoint route through 3 completes delivery.
        let (_, delivered) = s.handle(RrbMsg {
            payload: payload(1),
            path: vec![p(1), p(3)],
        });
        assert_eq!(delivered, vec![payload(1)]);
    }

    #[test]
    fn f0_delivers_on_first_copy() {
        let mut s = RrbState::new(p(2), 0, process_set([1]));
        let (_, delivered) = s.handle(RrbMsg {
            payload: payload(1),
            path: vec![p(1)],
        });
        assert_eq!(delivered.len(), 1);
    }

    #[test]
    fn shared_relay_does_not_count_twice() {
        // Two routes through the same relay 9: still only 1 disjoint path.
        let mut s = RrbState::new(p(2), 1, process_set([]));
        s.handle(RrbMsg {
            payload: payload(1),
            path: vec![p(1), p(9), p(5)],
        });
        let (_, delivered) = s.handle(RrbMsg {
            payload: payload(1),
            path: vec![p(1), p(9), p(6)],
        });
        assert!(delivered.is_empty());
        assert_eq!(s.disjoint_route_count(&payload(1)), 1);
    }

    #[test]
    fn cycle_and_spoofed_paths_rejected() {
        let mut s = RrbState::new(p(2), 0, process_set([]));
        // path containing the receiver
        let (fwd, del) = s.handle(RrbMsg {
            payload: payload(1),
            path: vec![p(1), p(2), p(3)],
        });
        assert!(fwd.is_empty() && del.is_empty());
        // path not starting at the origin
        let (fwd, del) = s.handle(RrbMsg {
            payload: payload(1),
            path: vec![p(7)],
        });
        assert!(fwd.is_empty() && del.is_empty());
    }

    #[test]
    fn relay_budget_bounds_forwards() {
        let mut s = RrbState::new(p(2), 0, process_set([5]));
        // budget = 4(0+1) = 4: first four distinct copies forwarded, the
        // fifth is dropped; duplicates never forwarded.
        let routes = [
            vec![p(1)],
            vec![p(1), p(3)],
            vec![p(1), p(4)],
            vec![p(1)], // duplicate
            vec![p(1), p(6)],
            vec![p(1), p(7)],
        ];
        let mut total_forwards = 0;
        for r in routes {
            let (fwd, _) = s.handle(RrbMsg {
                payload: payload(1),
                path: r,
            });
            total_forwards += fwd.len();
        }
        // each forwarded copy goes to 1 neighbor; budget 4
        assert_eq!(total_forwards, 4);
    }

    /// End-to-end on Fig. 1b (f = 1): every correct process delivers every
    /// correct process's PD broadcast, despite the Byzantine process 4
    /// staying silent.
    #[test]
    fn rrb_delivers_on_fig1b_with_silent_byzantine() {
        let fig = fig1b();
        let mut sim: Simulation<RrbMsg> = Simulation::new(SimConfig {
            seed: 5,
            max_time: 100_000,
            policy: DelayPolicy::PartialSynchrony {
                gst: 100,
                delta: 10,
                pre_gst_max: 60,
            },
        });
        for v in fig.graph().vertices() {
            if fig.byzantine().contains(&v) {
                continue;
            }
            let pd = fig.graph().out_neighbors(v);
            let content: Vec<u64> = pd.iter().map(|q| q.raw()).collect();
            sim.add_actor(Box::new(RrbActor::new(v, 1, pd, content)));
        }
        sim.run_until(|s| s.now() > 20_000);
        // Correct *sink* members must deliver each other's PDs: they are
        // the processes with > f disjoint incoming routes in G_safe.
        let sink = process_set([1, 2, 3]);
        for &receiver in &sink {
            let actor: &RrbActor = sim.actor_as(receiver).unwrap();
            for &origin in &sink {
                if origin == receiver {
                    continue;
                }
                let got = actor
                    .state()
                    .delivered()
                    .any(|pl| pl.origin == origin && pl.tag == 0);
                assert!(got, "{receiver} must deliver {origin}'s PD");
            }
        }
    }

    /// On generated G_di systems the sink members deliver each other's
    /// broadcasts (empirical validation of the baseline).
    #[test]
    fn rrb_delivers_on_generated_gdi() {
        for seed in 0..3 {
            let sys = Generator::from_seed(seed)
                .generate(&GdiParams::new(1))
                .unwrap();
            let mut sim: Simulation<RrbMsg> = Simulation::new(SimConfig {
                seed,
                max_time: 200_000,
                policy: DelayPolicy::PartialSynchrony {
                    gst: 100,
                    delta: 10,
                    pre_gst_max: 60,
                },
            });
            for v in sys.correct() {
                let pd = sys.graph.out_neighbors(v);
                let content: Vec<u64> = pd.iter().map(|q| q.raw()).collect();
                sim.add_actor(Box::new(RrbActor::new(v, 1, pd, content)));
            }
            sim.run_until(|s| s.now() > 50_000);
            for &receiver in &sys.sink {
                let actor: &RrbActor = sim.actor_as(receiver).unwrap();
                for &origin in &sys.sink {
                    if origin == receiver {
                        continue;
                    }
                    assert!(
                        actor.state().delivered().any(|pl| pl.origin == origin),
                        "seed {seed}: {receiver} missing {origin}'s broadcast"
                    );
                }
            }
        }
    }
}

/// The *unauthenticated* discovery pipeline of the original BFT-CUP \[10\]:
/// every process floods its PD via reachable reliable broadcast, and a PD
/// enters the local [`KnowledgeView`] only once delivered over more than
/// `f` node-disjoint routes — the multi-path delivery standing in for the
/// signature check of the authenticated protocol.
///
/// Sink identification on the resulting views uses the same predicates as
/// the authenticated stack, reproducing Alchieri et al.'s result (cited as
/// \[9\] in the paper) that the knowledge connectivity *requirements* are
/// unchanged by removing signatures — only the protocol complexity grows.
#[derive(Debug)]
pub struct UnauthDiscoveryActor {
    rrb: RrbState,
    view: KnowledgeView,
    own_payload: RrbPayload,
    period: u64,
}

/// Timer kind for the unauthenticated re-flood round.
pub const REFLOOD_TICK: TimerKind = 0xF100D;

impl UnauthDiscoveryActor {
    /// Creates the actor for process `id` with fault threshold `f` and its
    /// participant detector output `pd`.
    pub fn new(id: ProcessId, fault_threshold: usize, pd: ProcessSet, period: u64) -> Self {
        let content: Vec<u64> = pd.iter().map(|q| q.raw()).collect();
        UnauthDiscoveryActor {
            rrb: RrbState::new(id, fault_threshold, pd.clone()),
            view: KnowledgeView::new(id, pd),
            own_payload: RrbPayload {
                origin: id,
                tag: 0,
                content,
            },
            period,
        }
    }

    /// The knowledge view assembled from delivered PDs.
    pub fn view(&self) -> &KnowledgeView {
        &self.view
    }
}

impl Actor<RrbMsg> for UnauthDiscoveryActor {
    fn id(&self) -> ProcessId {
        self.rrb.id()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut Context<RrbMsg>) {
        for (to, msg) in self.rrb.broadcast(self.own_payload.clone()) {
            ctx.send(to, msg);
        }
        ctx.set_timer(REFLOOD_TICK, self.period);
    }

    fn on_message(&mut self, _from: ProcessId, msg: RrbMsg, ctx: &mut Context<RrbMsg>) {
        let (forwards, delivered) = self.rrb.handle(msg);
        for payload in &delivered {
            // A delivered PD is trusted exactly like a verified signature.
            let pd: ProcessSet = payload.content.iter().map(|&r| ProcessId::new(r)).collect();
            self.view.record_pd(payload.origin, pd.clone());
            self.rrb.add_neighbors(&pd);
            self.rrb
                .add_neighbors(&[payload.origin].into_iter().collect());
        }
        for (to, out) in forwards {
            ctx.send(to, out);
        }
    }

    fn on_timer(&mut self, timer: TimerKind, ctx: &mut Context<RrbMsg>) {
        if timer != REFLOOD_TICK {
            return;
        }
        // Knowledge may have grown: (re-)offer our own PD to everyone we
        // now know. RrbState dedups routes, so this is idempotent per
        // receiver; the flood re-arms only while knowledge can still grow.
        let msg = RrbMsg {
            payload: self.own_payload.clone(),
            path: vec![self.rrb.id()],
        };
        for n in self.view.known().clone() {
            if n != self.rrb.id() {
                ctx.send(n, msg.clone());
            }
        }
        ctx.set_timer(REFLOOD_TICK, self.period);
    }
}

#[cfg(test)]
mod unauth_tests {
    use super::*;
    use bft_cupft::graph::{fig1b, process_set, CandidateSearch, FigureGraph};
    use bft_cupft::net::sim::Simulation;
    use bft_cupft::net::{DelayPolicy, SimConfig};

    fn run_unauth(fig: &FigureGraph, f: usize, seed: u64) -> Simulation<RrbMsg> {
        let mut sim: Simulation<RrbMsg> = Simulation::new(SimConfig {
            seed,
            max_time: 100_000,
            policy: DelayPolicy::PartialSynchrony {
                gst: 100,
                delta: 10,
                pre_gst_max: 60,
            },
        });
        for v in fig.graph().vertices() {
            if fig.byzantine().contains(&v) {
                continue;
            }
            let pd = fig.graph().out_neighbors(v);
            sim.add_actor(Box::new(UnauthDiscoveryActor::new(v, f, pd, 40)));
        }
        sim.run_until(|s| s.now() > 30_000);
        sim
    }

    /// The original-BFT-CUP pipeline: unauthenticated discovery feeds the
    /// same sink predicate and identifies the same sink as the signed
    /// stack (Alchieri et al.'s requirement-equivalence, here with the
    /// Byzantine member silent so the views contain correct PDs only).
    #[test]
    fn unauthenticated_sink_identification_on_fig1b() {
        let fig = fig1b();
        let sim = run_unauth(&fig, 1, 11);
        let search = CandidateSearch;
        for &member in &process_set([1, 2, 3]) {
            let actor: &UnauthDiscoveryActor = sim.actor_as(member).unwrap();
            let detection = search
                .sink_with_threshold(actor.view(), 1)
                .unwrap_or_else(|| panic!("{member} must identify the sink"));
            // Without 4's (unsignable) PD the sink resolves to the correct
            // members plus 4 absorbed via S2, exactly like the signed run.
            assert_eq!(detection.members(), process_set([1, 2, 3, 4]));
        }
    }

    /// Views assembled over RRB match the authenticated ground truth for
    /// every correct sink member's PD.
    #[test]
    fn unauth_views_match_real_pds() {
        let fig = fig1b();
        let sim = run_unauth(&fig, 1, 12);
        for &member in &process_set([1, 2, 3]) {
            let actor: &UnauthDiscoveryActor = sim.actor_as(member).unwrap();
            for &other in &process_set([1, 2, 3]) {
                if other == member {
                    continue;
                }
                assert_eq!(
                    actor.view().pd_of(other),
                    Some(&fig.graph().out_neighbors(other)),
                    "{member}'s delivered PD of {other} must be authentic"
                );
            }
        }
    }
}
