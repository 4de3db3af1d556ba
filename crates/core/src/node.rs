//! The full protocol node: Algorithm 3 around the identification step
//! its [`ProtocolMode`] selects (Sink, Core, or the naive guesser), run on
//! entry and then once per discovery tick whose view changed.

use std::collections::BTreeMap;
use std::sync::Arc;

use cupft_committee::{view_of_timer, Committee, CommitteeMsg, Replica, ReplicaConfig, Value};
use cupft_crypto::{KeyRegistry, SigningKey};
use cupft_detector::SystemSetup;
use cupft_discovery::{DiscoveryState, GossipMode, PollGate, DISCOVERY_TICK};
use cupft_graph::{ProcessId, ProcessSet, SinkDecomposition};
use cupft_net::threaded::Board;
use cupft_net::{Actor, Context, Time};
use cupft_obs::{PhaseMark, Recorder};

use crate::detect::ProtocolMode;
use crate::msgs::NodeMsg;

/// Timer kind for a scheduled late join (see [`NodeConfig::join_at`]).
/// The churn timer kinds live below the committee view-timer base and
/// away from [`DISCOVERY_TICK`], so the three timer namespaces never
/// collide.
pub const CHURN_JOIN_TICK: u64 = 0xC4A1;
/// Timer kind for a scheduled silent departure
/// (see [`NodeConfig::leave_at`]).
pub const CHURN_LEAVE_TICK: u64 = 0xC4A2;
/// Timer kind for a scheduled crash of a crash-recovering node
/// (see [`NodeConfig::crash_recover`]).
pub const CHURN_CRASH_TICK: u64 = 0xC4A3;
/// Timer kind for the recovery of a crashed node, armed by the crash
/// handler with the configured down time.
pub const CHURN_RECOVER_TICK: u64 = 0xC4A4;

/// Node tuning knobs.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Identification mode.
    pub mode: ProtocolMode,
    /// Discovery/learning tick period.
    pub discovery_period: u64,
    /// Committee replica configuration.
    pub replica: ReplicaConfig,
    /// Run discovery with the literal full-`S_PD` dissemination of
    /// Algorithm 1 ([`cupft_discovery::GossipMode::Full`]) instead of the
    /// default delta gossip — the baseline the equivalence sweep and the
    /// payload benches compare against.
    pub full_gossip: bool,
    /// Observability recorder (see [`cupft_obs`]): when set, the node
    /// stamps its [`PhaseMark`] timeline (first gossip → `S_PD` fixpoint →
    /// sink identified → view installed → decided) and records discovery /
    /// detection instruments. `None` (the default) records nothing — the
    /// per-event cost of the disabled path is one `Option` check.
    pub recorder: Option<Arc<Recorder>>,
    /// If set, the node is a *late joiner*: it stays dormant (sending and
    /// receiving nothing) until this tick, then bootstraps discovery from
    /// [`NodeConfig::seed_peers`] and participates normally.
    pub join_at: Option<Time>,
    /// Out-of-band bootstrap hints for a late joiner: processes seeded
    /// into `S_known` (without a PD record) at join time, so the joiner
    /// has someone to poll even when its own PD is sparse.
    pub seed_peers: ProcessSet,
    /// If set, the node departs silently at this tick: it halts forever
    /// with no goodbye message — indistinguishable, to the rest of the
    /// system, from a crash.
    pub leave_at: Option<Time>,
    /// If set as `(crash_tick, down_for)`, the node crashes at
    /// `crash_tick`, snapshots its durable discovery state
    /// ([`DiscoveryState::to_bytes`]), stays down for `down_for` ticks,
    /// then restores from the snapshot with a bumped membership epoch and
    /// rejoins discovery.
    pub crash_recover: Option<(Time, Time)>,
    /// Test-only fault: a crash-recovering node restores from a *fresh*
    /// discovery state instead of its snapshot, deliberately violating
    /// recovery-consistency. Exists so the adversarial churn tests can
    /// demonstrate the inject → flag → shrink loop on a real defect.
    pub broken_recovery: bool,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            mode: ProtocolMode::UnknownThreshold,
            discovery_period: 20,
            replica: ReplicaConfig::default(),
            full_gossip: false,
            recorder: None,
            join_at: None,
            seed_peers: ProcessSet::new(),
            leave_at: None,
            crash_recover: None,
            broken_recovery: false,
        }
    }
}

/// The protocol phase a node is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Running discovery, identification pending (Algorithm 3 line 2).
    Discovering,
    /// Identified as a member; running committee consensus (line 4), and
    /// until it decides, polling the other members as a backstop: `g + 1`
    /// matching `DecidedVal` answers decide it.
    Member,
    /// Identified as a non-member; learning the decision (lines 6–7).
    Learning,
}

/// A correct BFT-CUP / BFT-CUPFT process.
///
/// # Example
///
/// ```
/// use cupft_core::{Node, NodeConfig, Phase, ProtocolMode};
/// use cupft_detector::SystemSetup;
/// use cupft_graph::{fig4b, ProcessId};
///
/// let fig = fig4b();
/// let setup = SystemSetup::new(fig.graph());
/// let node = Node::from_setup(
///     &setup,
///     ProcessId::new(5),
///     cupft_committee::Value::from_static(b"proposal"),
///     NodeConfig {
///         mode: ProtocolMode::UnknownThreshold,
///         ..NodeConfig::default()
///     },
/// )
/// .expect("process 5 is in the graph");
/// assert_eq!(node.phase(), Phase::Discovering);
/// assert!(node.decision().is_none());
/// ```
#[derive(Debug)]
pub struct Node {
    id: ProcessId,
    key: SigningKey,
    registry: KeyRegistry,
    config: NodeConfig,
    my_value: Value,

    discovery: DiscoveryState,
    phase: Phase,
    detection: Option<SinkDecomposition>,
    committee: Option<Committee>,
    replica: Option<Replica>,
    committee_backlog: Vec<(ProcessId, CommitteeMsg)>,
    decided: Option<Value>,
    pending_requests: ProcessSet,
    answers: BTreeMap<Vec<u8>, ProcessSet>,
    /// The committee members with an unanswered `GetDecidedVal`.
    learning_gate: PollGate,
    /// Whether the view changed since the last identification attempt.
    /// Identification is a pure function of the view in every mode, so
    /// re-running it on an unchanged view is wasted work — and running it
    /// on *every* view change (instead of once per discovery tick) is what
    /// made the candidate search the end-to-end bottleneck at n ≥ a few
    /// hundred.
    detect_dirty: bool,

    /// Simulated time at which identification succeeded.
    pub detection_time: Option<Time>,
    /// Simulated time at which the node decided.
    pub decided_time: Option<Time>,
    board: Option<Board<Vec<u8>>>,

    // Churn lifecycle (see the CHURN_* timer kinds).
    awaiting_join: bool,
    departed: bool,
    down: bool,
    recovered: bool,
    crash_snapshot: Option<Vec<u8>>,
    /// `(tick, S_received)` at the moment of a churn crash — the
    /// recovery-consistency invariant's "before" sample.
    pub crash_view: Option<(Time, ProcessSet)>,
    /// `(tick, S_received)` right after restoring from the crash
    /// snapshot — the invariant's "after" sample.
    pub recovery_view: Option<(Time, ProcessSet)>,
}

impl Node {
    fn gossip_of(config: &NodeConfig) -> GossipMode {
        if config.full_gossip {
            GossipMode::Full
        } else {
            GossipMode::Delta
        }
    }

    /// Creates a node from its key, the shared registry, its PD, and its
    /// proposal value.
    pub fn new(
        key: SigningKey,
        registry: KeyRegistry,
        pd: ProcessSet,
        my_value: Value,
        config: NodeConfig,
    ) -> Self {
        let discovery =
            DiscoveryState::new(&key, registry.clone(), pd).with_gossip(Node::gossip_of(&config));
        Node::with_discovery(key, registry, my_value, config, discovery)
    }

    fn with_discovery(
        key: SigningKey,
        registry: KeyRegistry,
        my_value: Value,
        config: NodeConfig,
        discovery: DiscoveryState,
    ) -> Self {
        Node {
            id: ProcessId::new(key.id()),
            key,
            registry,
            config,
            my_value,
            discovery,
            phase: Phase::Discovering,
            detection: None,
            committee: None,
            replica: None,
            committee_backlog: Vec::new(),
            decided: None,
            pending_requests: ProcessSet::new(),
            answers: BTreeMap::new(),
            learning_gate: PollGate::default(),
            detect_dirty: false,
            detection_time: None,
            decided_time: None,
            board: None,
            awaiting_join: false,
            departed: false,
            down: false,
            recovered: false,
            crash_snapshot: None,
            crash_view: None,
            recovery_view: None,
        }
    }

    /// Convenience constructor from a [`SystemSetup`]; the node's own
    /// certificate is the one the setup signed, and discovery verifies
    /// every certificate through the setup's shared verdict memo
    /// ([`cupft_detector::CertPool`]), so each distinct certificate costs
    /// one HMAC check system-wide rather than one per process.
    pub fn from_setup(
        setup: &SystemSetup,
        id: ProcessId,
        my_value: Value,
        config: NodeConfig,
    ) -> Option<Self> {
        let key = setup.key_of(id)?.clone();
        let discovery = DiscoveryState::from_setup(setup, id)?
            .with_gossip(Node::gossip_of(&config))
            .with_shared_pool(setup.pool().clone());
        Some(Node::with_discovery(
            key,
            setup.registry().clone(),
            my_value,
            config,
            discovery,
        ))
    }

    /// Attaches a decision board (threaded runtime observability).
    pub fn with_board(mut self, board: Board<Vec<u8>>) -> Self {
        self.board = Some(board);
        self
    }

    /// The node's decision, if reached.
    pub fn decision(&self) -> Option<&Value> {
        self.decided.as_ref()
    }

    /// The node's current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// The identification result, if reached.
    pub fn detection(&self) -> Option<&SinkDecomposition> {
        self.detection.as_ref()
    }

    /// The committee the identification fixed (members and threshold
    /// `g`), if reached.
    pub(crate) fn committee(&self) -> Option<&Committee> {
        self.committee.as_ref()
    }

    /// The discovery state (for assertions on `S_known` / `S_received`).
    pub fn discovery(&self) -> &DiscoveryState {
        &self.discovery
    }

    /// The committee replica's current view, when this node is a member.
    pub fn replica_view(&self) -> Option<u64> {
        self.replica.as_ref().map(|r| r.view())
    }

    /// Whether the node departed via a scheduled churn leave.
    pub fn departed(&self) -> bool {
        self.departed
    }

    /// Whether the node has been through a churn crash-recovery.
    pub fn recovered(&self) -> bool {
        self.recovered
    }

    /// Whether the node is currently outside the system: not yet joined,
    /// silently departed, or down between a churn crash and its recovery.
    /// A dormant node sends and receives nothing.
    fn dormant(&self) -> bool {
        self.awaiting_join || self.departed || self.down
    }

    /// Stamps one phase-timeline mark when a recorder is attached.
    fn mark(&self, mark: PhaseMark, at: Time) {
        if let Some(rec) = &self.config.recorder {
            rec.mark(self.id.raw(), mark, at);
        }
    }

    fn send_discovery_round(&mut self, ctx: &mut Context<NodeMsg>) {
        let mut sent = 0u64;
        for (to, msg) in self.discovery.tick() {
            ctx.send(to, NodeMsg::Discovery(msg));
            sent += 1;
        }
        let deferred = self.discovery.take_polls_deferred();
        if let Some(rec) = &self.config.recorder {
            rec.counter_add("discovery_ticks", 1);
            rec.hist_record("discovery_round_msgs", sent);
            rec.counter_add("polls_deferred", deferred);
        }
    }

    /// Enters the system: stamps first gossip, sends the opening discovery
    /// round, and arms the discovery tick. Runs at start for ordinary
    /// nodes and at the join tick for late joiners.
    fn begin_participation(&mut self, ctx: &mut Context<NodeMsg>) {
        self.mark(PhaseMark::FirstGossip, ctx.now());
        self.send_discovery_round(ctx);
        self.try_detect(ctx);
        ctx.set_timer(DISCOVERY_TICK, self.config.discovery_period);
    }

    fn churn_event(&self, counter: &'static str) {
        if let Some(rec) = &self.config.recorder {
            rec.counter_add(counter, 1);
        }
    }

    fn on_churn_join(&mut self, ctx: &mut Context<NodeMsg>) {
        if !self.awaiting_join {
            return;
        }
        self.awaiting_join = false;
        let seeds = self.config.seed_peers.clone();
        self.discovery.seed_known(&seeds);
        self.churn_event("churn_joins");
        self.begin_participation(ctx);
    }

    fn on_churn_leave(&mut self, ctx: &mut Context<NodeMsg>) {
        self.departed = true;
        self.churn_event("churn_leaves");
        ctx.halt();
    }

    fn on_churn_crash(&mut self, ctx: &mut Context<NodeMsg>) {
        if self.dormant() {
            return; // a crash tick cannot hit a node that is not up
        }
        let Some((_, down_for)) = self.config.crash_recover else {
            return;
        };
        // Durable state: the discovery snapshot and the decision (a decided
        // value is write-once and survives the crash — the decide-once
        // guard makes contradicting it structurally impossible). Everything
        // else is volatile and lost.
        self.crash_snapshot = Some(self.discovery.to_bytes());
        self.crash_view = Some((ctx.now(), self.discovery.view().received()));
        self.detection = None;
        self.committee = None;
        self.replica = None;
        self.committee_backlog.clear();
        self.pending_requests = ProcessSet::new();
        self.answers.clear();
        self.learning_gate.clear();
        self.detect_dirty = false;
        self.phase = Phase::Discovering;
        self.down = true;
        self.churn_event("churn_crashes");
        ctx.set_timer(CHURN_RECOVER_TICK, down_for.max(1));
    }

    fn on_churn_recover(&mut self, ctx: &mut Context<NodeMsg>) {
        if !self.down {
            return;
        }
        self.down = false;
        self.recovered = true;
        let snapshot = self.crash_snapshot.take().unwrap_or_default();
        let restored = if self.config.broken_recovery {
            // Deliberate defect (test-only): forget everything learned
            // before the crash and restart discovery from the bare PD.
            let own_pd = self
                .discovery
                .view()
                .pd_of(self.id)
                .cloned()
                .unwrap_or_default();
            DiscoveryState::new(&self.key, self.registry.clone(), own_pd)
                .with_gossip(Node::gossip_of(&self.config))
        } else {
            DiscoveryState::from_bytes(&snapshot, self.registry.clone())
                .expect("crash snapshot was produced by to_bytes")
        };
        let mut restored = restored.with_shared_pool(self.discovery.pool().clone());
        // New incarnation: peers' sync-skip memo must not suppress the
        // rejoined node, and its own peer memos are gone with the restore.
        restored.bump_epoch();
        self.recovery_view = Some((ctx.now(), restored.view().received()));
        self.discovery = restored;
        self.phase = Phase::Discovering;
        self.detect_dirty = true;
        self.churn_event("churn_recoveries");
        self.send_discovery_round(ctx);
        self.try_detect(ctx);
        ctx.set_timer(DISCOVERY_TICK, self.config.discovery_period);
    }

    fn try_detect(&mut self, ctx: &mut Context<NodeMsg>) {
        if self.detection.is_some() {
            return;
        }
        if let Some(rec) = &self.config.recorder {
            rec.counter_add("detect_attempts", 1);
            rec.hist_record(
                "detect_view_known",
                self.discovery.view().known().len() as u64,
            );
        }
        if let Some(detection) = self.config.mode.identify(self.discovery.view()) {
            self.adopt_detection(detection, ctx);
        }
    }

    fn adopt_detection(&mut self, detection: SinkDecomposition, ctx: &mut Context<NodeMsg>) {
        self.detection_time = Some(ctx.now());
        self.mark(PhaseMark::SinkIdentified, ctx.now());
        let committee = Committee::new(detection.members(), detection.threshold);
        // A recovered node never resumes the replica role: per-view vote
        // state is volatile, so a member that crashed mid-consensus could
        // equivocate against its own pre-crash votes if it restarted the
        // replica. It rejoins passively and adopts the committee's
        // decision through the ⌈(|S|+1)/2⌉ learning backstop instead.
        let is_member = committee.contains(self.id) && !self.recovered;
        self.detection = Some(detection);
        self.committee = Some(committee.clone());
        if is_member {
            self.phase = Phase::Member;
            let mut replica = Replica::new(
                self.key.clone(),
                self.registry.clone(),
                committee,
                self.my_value.clone(),
                self.config.replica,
            );
            let fx = replica.start();
            self.replica = Some(replica);
            // View 0 is installed the moment the replica starts; learners
            // install the committee (their "view") at adoption too.
            self.mark(PhaseMark::ViewInstalled, ctx.now());
            self.apply_replica_effects(fx, ctx);
            // Drain committee messages that arrived before identification.
            let backlog = std::mem::take(&mut self.committee_backlog);
            for (from, msg) in backlog {
                let fx = self
                    .replica
                    .as_mut()
                    .expect("replica just created")
                    .handle(from, msg);
                self.apply_replica_effects(fx, ctx);
            }
        } else {
            self.phase = Phase::Learning;
            self.mark(PhaseMark::ViewInstalled, ctx.now());
            self.send_learning_round(ctx);
        }
    }

    /// Algorithm 3 line 6: `GetDecidedVal` to every other committee
    /// member, minus the members whose last request is still unanswered
    /// and not yet due for a re-poll ([`PollGate`]).
    fn send_learning_round(&mut self, ctx: &mut Context<NodeMsg>) {
        let Some(committee) = &self.committee else {
            return;
        };
        for &member in committee.members() {
            if member != self.id && self.learning_gate.poll(member) {
                ctx.send(member, NodeMsg::GetDecidedVal);
            }
        }
        let deferred = self.learning_gate.take_deferred();
        if let Some(rec) = &self.config.recorder {
            rec.counter_add("polls_deferred", deferred);
        }
    }

    fn apply_replica_effects(&mut self, fx: cupft_committee::Effects, ctx: &mut Context<NodeMsg>) {
        for (to, msg) in fx.msgs {
            ctx.send(to, msg.into());
        }
        if let Some((kind, delay)) = fx.timer {
            ctx.set_timer(kind, delay);
        }
        if let Some(value) = fx.decided {
            self.set_decided(value, ctx);
        }
    }

    fn set_decided(&mut self, value: Value, ctx: &mut Context<NodeMsg>) {
        if self.decided.is_some() {
            return; // Integrity: decide at most once
        }
        self.decided_time = Some(ctx.now());
        self.mark(PhaseMark::Decided, ctx.now());
        if let Some(board) = &self.board {
            board.publish(self.id, value.to_vec());
        }
        self.decided = Some(value.clone());
        let pending = std::mem::take(&mut self.pending_requests);
        for requester in pending {
            ctx.send(requester, NodeMsg::DecidedVal(value.clone()));
        }
    }

    fn on_decided_val(&mut self, from: ProcessId, value: Value, ctx: &mut Context<NodeMsg>) {
        self.learning_gate.answered(from);
        if self.decided.is_some() || self.phase == Phase::Discovering {
            return;
        }
        let Some(committee) = &self.committee else {
            return;
        };
        if !committee.contains(from) {
            return;
        }
        // Algorithm 3 line 7: a learner needs ⌈(|S|+1)/2⌉ identical
        // answers from distinct members. An undecided member needs g + 1:
        // its quorums already assume at most g Byzantine members, so g + 1
        // answers include a correct member's decision, and a member whose
        // own vote is missing may never see ⌈(|S|+1)/2⌉ others answer
        // (docs/PAPER_MAP.md, Algorithm 3).
        let needed = match self.phase {
            Phase::Member => committee.fault_threshold() + 1,
            Phase::Discovering | Phase::Learning => committee.learning_threshold(),
        };
        let tally = self.answers.entry(value.to_vec()).or_default();
        tally.insert(from);
        if tally.len() >= needed {
            self.set_decided(value, ctx);
        }
    }
}

impl Actor<NodeMsg> for Node {
    fn id(&self) -> ProcessId {
        self.id
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut Context<NodeMsg>) {
        if let Some(at) = self.config.leave_at {
            ctx.set_timer(CHURN_LEAVE_TICK, at.saturating_sub(ctx.now()));
        }
        if let Some((at, _)) = self.config.crash_recover {
            ctx.set_timer(CHURN_CRASH_TICK, at.saturating_sub(ctx.now()));
        }
        if let Some(at) = self.config.join_at {
            // Dormant until the join tick: no first-gossip mark, no
            // discovery round, and every delivery is swallowed.
            self.awaiting_join = true;
            ctx.set_timer(CHURN_JOIN_TICK, at.saturating_sub(ctx.now()));
            return;
        }
        self.begin_participation(ctx);
    }

    fn on_message(&mut self, from: ProcessId, msg: NodeMsg, ctx: &mut Context<NodeMsg>) {
        if self.dormant() {
            return;
        }
        match msg {
            NodeMsg::Discovery(m) => {
                for (to, out) in self.discovery.handle(from, m) {
                    ctx.send(to, NodeMsg::Discovery(out));
                }
                // Identification is deferred to the next discovery tick:
                // at scale the view changes on nearly every delivery, and
                // the candidate search is far too expensive to re-run per
                // message. Identification is a pure function of the view, so
                // batching attempts per tick changes *when* a node
                // identifies (by < one period), never *what*.
                if self.discovery.take_changed() {
                    // Last write wins in the timeline: the final view
                    // change this node ever absorbs *is* its local `S_PD`
                    // fixpoint time.
                    self.mark(PhaseMark::SpdFixpoint, ctx.now());
                    if self.phase == Phase::Discovering {
                        self.detect_dirty = true;
                    }
                }
            }
            NodeMsg::Committee(m) => match &mut self.replica {
                Some(replica) => {
                    let fx = replica.handle(from, *m);
                    self.apply_replica_effects(fx, ctx);
                }
                None => {
                    const BACKLOG_CAP: usize = 8192;
                    if self.committee_backlog.len() < BACKLOG_CAP {
                        self.committee_backlog.push((from, *m));
                    }
                }
            },
            NodeMsg::GetDecidedVal => match &self.decided {
                Some(value) => ctx.send(from, NodeMsg::DecidedVal(value.clone())),
                None => {
                    // Algorithm 3 line 9: wait until val ≠ ⊥, then answer.
                    self.pending_requests.insert(from);
                }
            },
            NodeMsg::DecidedVal(value) => self.on_decided_val(from, value, ctx),
        }
    }

    fn on_timer(&mut self, timer: u64, ctx: &mut Context<NodeMsg>) {
        // Churn timers fire *through* dormancy: the join tick is what ends
        // the pre-join dormancy, and the recover tick is what ends the
        // down window.
        match timer {
            CHURN_JOIN_TICK => return self.on_churn_join(ctx),
            CHURN_LEAVE_TICK => return self.on_churn_leave(ctx),
            CHURN_CRASH_TICK => return self.on_churn_crash(ctx),
            CHURN_RECOVER_TICK => return self.on_churn_recover(ctx),
            _ => {}
        }
        if self.dormant() {
            // Pre-crash discovery/view timers landing in the down window
            // (or before a join) die here; recovery re-arms its own tick.
            return;
        }
        match timer {
            DISCOVERY_TICK => {
                match self.phase {
                    Phase::Discovering => {
                        self.send_discovery_round(ctx);
                        if std::mem::take(&mut self.detect_dirty) {
                            self.try_detect(ctx);
                        }
                    }
                    Phase::Learning => {
                        if self.decided.is_none() {
                            self.send_learning_round(ctx);
                        }
                    }
                    Phase::Member => {
                        // The committee drives itself via view timers; as a
                        // liveness backstop, an undecided member also polls
                        // its peers for the decided value (the state-
                        // transfer role of checkpoints in full PBFT —
                        // g + 1 matching answers are safe to adopt, see
                        // `on_decided_val`). A decided replica drops every
                        // committee message, so this is the only way a
                        // member that missed the commit quorum catches up.
                        if self.decided.is_none() {
                            self.send_learning_round(ctx);
                        }
                    }
                }
                // Keep ticking until decided (members keep it armed too so
                // a node that decides keeps serving nothing new; learning
                // retries need it).
                if self.decided.is_none() {
                    ctx.set_timer(DISCOVERY_TICK, self.config.discovery_period);
                }
            }
            kind => {
                if let (Some(view), Some(replica)) = (view_of_timer(kind), &mut self.replica) {
                    let fx = replica.on_timeout(view);
                    self.apply_replica_effects(fx, ctx);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_initial_state() {
        let mut registry = KeyRegistry::new();
        let key = registry.register(1);
        let node = Node::new(
            key,
            registry,
            [ProcessId::new(2)].into_iter().collect(),
            Value::from_static(b"v"),
            NodeConfig::default(),
        );
        assert_eq!(node.phase(), Phase::Discovering);
        assert!(node.decision().is_none());
        assert!(node.detection().is_none());
        assert_eq!(node.id(), ProcessId::new(1));
    }

    fn test_node(config: NodeConfig) -> Node {
        let mut registry = KeyRegistry::new();
        let key = registry.register(1);
        Node::new(
            key,
            registry,
            [ProcessId::new(2)].into_iter().collect(),
            Value::from_static(b"v"),
            config,
        )
    }

    #[test]
    fn late_joiner_is_dormant_until_join_tick() {
        let mut node = test_node(NodeConfig {
            join_at: Some(100),
            seed_peers: [ProcessId::new(3)].into_iter().collect(),
            ..NodeConfig::default()
        });
        let mut ctx = Context::new(0, ProcessId::new(1));
        node.on_start(&mut ctx);
        assert!(ctx.queued_sends().is_empty(), "dormant joiner sent");
        assert_eq!(ctx.queued_timers(), &[(CHURN_JOIN_TICK, 100)]);
        // Deliveries before the join tick are swallowed.
        let mut ctx = Context::new(10, ProcessId::new(1));
        node.on_message(ProcessId::new(2), NodeMsg::GetDecidedVal, &mut ctx);
        assert!(ctx.queued_sends().is_empty());
        // The join tick seeds knowledge and opens discovery.
        let mut ctx = Context::new(100, ProcessId::new(1));
        node.on_timer(CHURN_JOIN_TICK, &mut ctx);
        assert!(!ctx.queued_sends().is_empty(), "joiner did not gossip");
        assert!(node.discovery().view().known().contains(&ProcessId::new(3)));
    }

    #[test]
    fn leaver_halts_at_leave_tick() {
        let mut node = test_node(NodeConfig {
            leave_at: Some(50),
            ..NodeConfig::default()
        });
        let mut ctx = Context::new(0, ProcessId::new(1));
        node.on_start(&mut ctx);
        assert!(ctx.queued_timers().contains(&(CHURN_LEAVE_TICK, 50)));
        let mut ctx = Context::new(50, ProcessId::new(1));
        node.on_timer(CHURN_LEAVE_TICK, &mut ctx);
        assert!(ctx.is_halted());
        assert!(node.departed());
    }

    #[test]
    fn crash_recovery_restores_the_pre_crash_view() {
        let mut node = test_node(NodeConfig {
            crash_recover: Some((30, 50)),
            ..NodeConfig::default()
        });
        let mut ctx = Context::new(0, ProcessId::new(1));
        node.on_start(&mut ctx);
        let mut ctx = Context::new(30, ProcessId::new(1));
        node.on_timer(CHURN_CRASH_TICK, &mut ctx);
        assert_eq!(ctx.queued_timers(), &[(CHURN_RECOVER_TICK, 50)]);
        let (crash_at, crash_set) = node.crash_view.clone().expect("crash sampled");
        assert_eq!(crash_at, 30);
        // Down: deliveries are swallowed.
        let mut ctx = Context::new(40, ProcessId::new(1));
        node.on_message(ProcessId::new(2), NodeMsg::GetDecidedVal, &mut ctx);
        assert!(ctx.queued_sends().is_empty());
        // Recovery restores the snapshot view exactly.
        let mut ctx = Context::new(80, ProcessId::new(1));
        node.on_timer(CHURN_RECOVER_TICK, &mut ctx);
        assert!(node.recovered());
        let (rec_at, rec_set) = node.recovery_view.clone().expect("recovery sampled");
        assert_eq!(rec_at, 80);
        assert_eq!(rec_set, crash_set);
        assert!(!ctx.queued_sends().is_empty(), "rejoiner did not gossip");
    }

    #[test]
    fn broken_recovery_loses_the_pre_crash_view() {
        let mut node = test_node(NodeConfig {
            crash_recover: Some((30, 50)),
            broken_recovery: true,
            ..NodeConfig::default()
        });
        let mut ctx = Context::new(0, ProcessId::new(1));
        node.on_start(&mut ctx);
        // Absorb a PD record so there is something to lose — simulate by
        // learning a peer directly through the crash/recover cycle check:
        // the restored state must start from the bare own PD again.
        let mut ctx = Context::new(30, ProcessId::new(1));
        node.on_timer(CHURN_CRASH_TICK, &mut ctx);
        let mut ctx = Context::new(80, ProcessId::new(1));
        node.on_timer(CHURN_RECOVER_TICK, &mut ctx);
        assert!(node.recovered());
        // Fresh state: only the node's own record is present.
        assert_eq!(node.discovery().view().received().len(), 1);
    }

    #[test]
    fn unanswered_member_is_repolled_after_1_2_4_rounds() {
        let fig = cupft_graph::fig1b();
        let setup = SystemSetup::new(fig.graph());
        let me = ProcessId::new(5);
        let recorder = Arc::new(Recorder::new());
        let mut node = Node::from_setup(
            &setup,
            me,
            Value::from_static(b"v"),
            NodeConfig {
                mode: ProtocolMode::KnownThreshold(1),
                recorder: Some(recorder.clone()),
                crash_recover: Some((220, 50)),
                ..NodeConfig::default()
            },
        )
        .expect("process 5 is in the graph");
        for v in fig.graph().vertices() {
            node.discovery
                .absorb(setup.shared_certificate_for(v).expect("registered"));
        }
        let polled = |ctx: &Context<NodeMsg>| -> ProcessSet {
            ctx.queued_sends()
                .iter()
                .filter(|(_, m)| matches!(m, NodeMsg::GetDecidedVal))
                .map(|(to, _)| *to)
                .collect()
        };
        // Round 0: 5 identifies the committee {1, 2, 3, 4}, is not in it,
        // and polls every member.
        let mut ctx = Context::new(0, me);
        node.try_detect(&mut ctx);
        assert_eq!(node.phase(), Phase::Learning);
        assert_eq!(polled(&ctx), cupft_graph::process_set([1, 2, 3, 4]));
        // Member 1 answers (with too few matching answers to decide).
        node.on_message(
            ProcessId::new(1),
            NodeMsg::DecidedVal(Value::from_static(b"v")),
            &mut Context::new(5, me),
        );
        let mut rounds: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for round in 1..=10 {
            let mut ctx = Context::new(round * 20, me);
            node.on_timer(DISCOVERY_TICK, &mut ctx);
            for member in polled(&ctx) {
                rounds.entry(member.raw()).or_default().push(round);
            }
        }
        // The answered member is polled at once and then waits like the
        // rest; the silent ones are re-polled after 1, 2, 4 rounds.
        assert_eq!(rounds[&1], [1, 3, 6]);
        for member in [2, 3, 4] {
            assert_eq!(rounds[&member], [2, 5, 10], "member {member}");
        }
        let report = recorder.snapshot();
        assert_eq!(report.counter("polls_deferred"), 3 * 7 + 7);
        // A churn crash forgets every unanswered request: the recovered
        // learner polls every member at once.
        node.on_timer(CHURN_CRASH_TICK, &mut Context::new(220, me));
        let mut ctx = Context::new(270, me);
        node.on_timer(CHURN_RECOVER_TICK, &mut ctx);
        assert_eq!(node.phase(), Phase::Learning);
        assert_eq!(polled(&ctx), cupft_graph::process_set([1, 2, 3, 4]));
    }

    #[test]
    fn unchanged_view_is_identified_once() {
        for mode in [
            ProtocolMode::KnownThreshold(1),
            ProtocolMode::UnknownThreshold,
            ProtocolMode::NaiveGuess,
        ] {
            let recorder = Arc::new(Recorder::new());
            let mut node = test_node(NodeConfig {
                mode,
                recorder: Some(recorder.clone()),
                ..NodeConfig::default()
            });
            node.on_start(&mut Context::new(0, ProcessId::new(1)));
            for at in [20, 40] {
                node.on_timer(DISCOVERY_TICK, &mut Context::new(at, ProcessId::new(1)));
            }
            assert_eq!(node.phase(), Phase::Discovering, "{mode:?}");
            let attempts = recorder.snapshot().counter("detect_attempts");
            assert_eq!(attempts, 1, "{mode:?}");
        }
    }
}
