//! The full protocol node: Algorithm 3 around the identification step
//! its [`ProtocolMode`] selects (Sink, Core, or the naive guesser), run on
//! entry and then once per discovery tick whose view changed.

use std::collections::BTreeMap;
use std::sync::Arc;

use cupft_adversary::ChurnEvent;
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

/// Private churn timer kinds, below the committee view timers and away
/// from [`DISCOVERY_TICK`]: event `i` of [`NodeConfig::churn`] fires as
/// `CHURN_TICK + i`, and a crash arms `RECOVER_TICK`.
const RECOVER_TICK: u64 = 0xC4A0;
const CHURN_TICK: u64 = 0xC4A1;

/// Node tuning knobs.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Identification mode.
    pub mode: ProtocolMode,
    /// Discovery/learning tick period.
    pub discovery_period: u64,
    /// Committee replica configuration.
    pub replica: ReplicaConfig,
    /// How discovery disseminates `S_PD`: delta gossip (the default), or
    /// the literal full-`S_PD` dissemination of Algorithm 1
    /// ([`GossipMode::Full`]) — the baseline the equivalence sweep and the
    /// payload benches compare against.
    pub gossip: GossipMode,
    /// Observability recorder (see [`cupft_obs`]): when set, the node
    /// stamps its [`PhaseMark`] timeline (first gossip → `S_PD` fixpoint →
    /// sink identified → view installed → decided) and records discovery /
    /// detection instruments. `None` (the default) records nothing — the
    /// per-event cost of the disabled path is one `Option` check.
    pub recorder: Option<Arc<Recorder>>,
    /// The churn events this node honours, at most one per kind (see
    /// [`cupft_adversary::ChurnSpec::events_of`]). `JoinAt`: dormant
    /// (sending and receiving nothing) until its tick, then seeds `S_known`
    /// with the seed peers and starts discovery. `LeaveAt`: halts for good
    /// with no goodbye — to the others, a crash. `CrashRecoverAt`: down at
    /// its tick holding only the durable record (see [`Node`]), then after
    /// `down_for` ticks restores discovery from its snapshot
    /// ([`DiscoveryState::to_bytes`]) with a bumped membership epoch.
    /// Empty (the default): up from start to end.
    pub churn: Vec<ChurnEvent>,
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
            gossip: GossipMode::default(),
            recorder: None,
            churn: Vec::new(),
            broken_recovery: false,
        }
    }
}

/// The protocol phase a node is in, read off its committee and replica.
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

/// Where a node stands in its churn lifecycle.
#[derive(Debug)]
enum Presence {
    /// A late joiner before its join tick.
    AwaitingJoin,
    /// Taking part in the protocol.
    Up,
    /// Crashed, holding the discovery snapshot it recovers from.
    Down(Vec<u8>),
    /// Left the system for good.
    Departed,
}

/// The state a crash loses: everything identification and the committee
/// built on top of discovery. A crash resets it in one assignment.
#[derive(Debug, Default)]
struct Volatile {
    detection: Option<SinkDecomposition>,
    committee: Option<Committee>,
    replica: Option<Replica>,
    /// Committee messages that arrived before identification, in arrival
    /// order, and how many each sender queued (see `Node::backlog`).
    committee_backlog: Vec<(ProcessId, CommitteeMsg)>,
    backlog_by_sender: BTreeMap<ProcessId, usize>,
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
}

/// A correct BFT-CUP / BFT-CUPFT process.
///
/// Its state splits the way a crash does (see
/// [`NodeConfig::churn`]): the volatile part — identification, the
/// committee replica, the learning tallies — is lost; the durable record
/// is the discovery state (kept as a snapshot while the node is down),
/// the decision with its detection and decision times, and whether the
/// node has recovered. The [`Phase`] is not stored: it follows from the
/// volatile committee and replica.
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
    presence: Presence,
    volatile: Volatile,
    decided: Option<Value>,
    /// Simulated time at which identification succeeded.
    pub detection_time: Option<Time>,
    /// Simulated time at which the node decided.
    pub decided_time: Option<Time>,
    /// Whether the node has been through a churn crash-recovery.
    recovered: bool,
    board: Option<Board<Vec<u8>>>,

    /// `(tick, S_received)` at the moment of a churn crash — the
    /// recovery-consistency invariant's "before" sample.
    pub crash_view: Option<(Time, ProcessSet)>,
    /// `(tick, S_received)` right after restoring from the crash
    /// snapshot — the invariant's "after" sample.
    pub recovery_view: Option<(Time, ProcessSet)>,
}

impl Node {
    /// Creates a node from its key, the shared registry, its PD, and its
    /// proposal value.
    pub fn new(
        key: SigningKey,
        registry: KeyRegistry,
        pd: ProcessSet,
        my_value: Value,
        config: NodeConfig,
    ) -> Self {
        let discovery = DiscoveryState::new(&key, registry.clone(), pd).with_gossip(config.gossip);
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
            presence: Presence::Up,
            volatile: Volatile::default(),
            decided: None,
            detection_time: None,
            decided_time: None,
            recovered: false,
            board: None,
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
            .with_gossip(config.gossip)
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

    /// The node's current phase: discovering until it holds a committee,
    /// then a member if it runs a replica and a learner otherwise.
    pub fn phase(&self) -> Phase {
        match (&self.volatile.committee, &self.volatile.replica) {
            (None, _) => Phase::Discovering,
            (Some(_), Some(_)) => Phase::Member,
            (Some(_), None) => Phase::Learning,
        }
    }

    /// The identification result, if reached.
    pub fn detection(&self) -> Option<&SinkDecomposition> {
        self.volatile.detection.as_ref()
    }

    /// The committee the identification fixed (members and threshold
    /// `g`), if reached.
    pub(crate) fn committee(&self) -> Option<&Committee> {
        self.volatile.committee.as_ref()
    }

    /// The discovery state (for assertions on `S_known` / `S_received`).
    pub fn discovery(&self) -> &DiscoveryState {
        &self.discovery
    }

    /// The committee replica's current view, when this node is a member.
    pub fn replica_view(&self) -> Option<u64> {
        self.volatile.replica.as_ref().map(|r| r.view())
    }

    /// Whether the node departed via a scheduled churn leave.
    pub fn departed(&self) -> bool {
        matches!(self.presence, Presence::Departed)
    }

    /// Whether the node has been through a churn crash-recovery.
    pub fn recovered(&self) -> bool {
        self.recovered
    }

    /// Whether the node is currently outside the system: not yet joined,
    /// silently departed, or down between a churn crash and its recovery.
    /// A dormant node sends and receives nothing.
    fn dormant(&self) -> bool {
        !matches!(self.presence, Presence::Up)
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

    fn on_churn(&mut self, event: ChurnEvent, ctx: &mut Context<NodeMsg>) {
        match event {
            ChurnEvent::JoinAt { seed_peers, .. } => {
                if !matches!(self.presence, Presence::AwaitingJoin) {
                    return;
                }
                self.presence = Presence::Up;
                self.discovery.seed_known(&seed_peers);
                self.churn_event("churn_joins");
                self.begin_participation(ctx);
            }
            ChurnEvent::LeaveAt { .. } => {
                self.presence = Presence::Departed;
                self.churn_event("churn_leaves");
                ctx.halt();
            }
            ChurnEvent::CrashRecoverAt { down_for, .. } => {
                if self.dormant() {
                    return; // a crash tick cannot hit a node that is not up
                }
                // The durable record stays: the discovery snapshot, and the
                // decision (write-once — the decide-once guard makes
                // contradicting it structurally impossible) with its times.
                self.crash_view = Some((ctx.now(), self.discovery.view().received()));
                self.presence = Presence::Down(self.discovery.to_bytes());
                self.volatile = Volatile::default();
                self.churn_event("churn_crashes");
                ctx.set_timer(RECOVER_TICK, down_for.max(1));
            }
        }
    }

    fn on_churn_recover(&mut self, ctx: &mut Context<NodeMsg>) {
        let Presence::Down(snapshot) = &mut self.presence else {
            return;
        };
        let snapshot = std::mem::take(snapshot);
        self.presence = Presence::Up;
        self.recovered = true;
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
                .with_gossip(self.config.gossip)
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
        self.volatile.detect_dirty = true;
        self.churn_event("churn_recoveries");
        self.send_discovery_round(ctx);
        self.try_detect(ctx);
        ctx.set_timer(DISCOVERY_TICK, self.config.discovery_period);
    }

    fn try_detect(&mut self, ctx: &mut Context<NodeMsg>) {
        if self.volatile.detection.is_some() {
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
        self.volatile.detection = Some(detection);
        self.volatile.committee = Some(committee.clone());
        // View 0 is installed the moment the replica starts; learners
        // install the committee (their "view") at adoption too.
        if is_member {
            let mut replica = Replica::new(
                self.key.clone(),
                self.registry.clone(),
                committee,
                self.my_value.clone(),
                self.config.replica,
            );
            let fx = replica.start();
            self.volatile.replica = Some(replica);
            self.mark(PhaseMark::ViewInstalled, ctx.now());
            self.apply_replica_effects(fx, ctx);
            // Drain committee messages that arrived before identification.
            let backlog = std::mem::take(&mut self.volatile.committee_backlog);
            for (from, msg) in backlog {
                let fx = self
                    .volatile
                    .replica
                    .as_mut()
                    .expect("replica just created")
                    .handle(from, msg);
                self.apply_replica_effects(fx, ctx);
            }
        } else {
            self.mark(PhaseMark::ViewInstalled, ctx.now());
            self.send_learning_round(ctx);
        }
    }

    /// Queues a committee message that arrived before identification,
    /// within a whole-backlog cap and a per-sender bound, so one
    /// flooding sender cannot crowd out the leader's pre-prepare.
    fn backlog(&mut self, from: ProcessId, msg: CommitteeMsg) {
        const BACKLOG_CAP: usize = 8192;
        // An honest member never reaches this before the receiver
        // identifies: it sends at most four committee messages per view
        // (pre-prepare, prepare, commit, view change), and no correct
        // member enters view `v` before some correct member's timer ran
        // out in every earlier view. Those timers double up to 256 × the
        // base, so 1 024 messages take over 250 views: more than 25 M
        // ticks at the default base of 400.
        const BACKLOG_PER_SENDER: usize = 1024;
        let v = &mut self.volatile;
        if v.committee_backlog.len() >= BACKLOG_CAP {
            return;
        }
        let queued = v.backlog_by_sender.entry(from).or_default();
        if *queued < BACKLOG_PER_SENDER {
            *queued += 1;
            v.committee_backlog.push((from, msg));
        }
    }

    /// Algorithm 3 line 6: `GetDecidedVal` to every other committee
    /// member, minus the members whose last request is still unanswered
    /// and not yet due for a re-poll ([`PollGate`]).
    fn send_learning_round(&mut self, ctx: &mut Context<NodeMsg>) {
        let v = &mut self.volatile;
        let Some(committee) = &v.committee else {
            return;
        };
        for &member in committee.members() {
            if member != self.id && v.learning_gate.poll(member) {
                ctx.send(member, NodeMsg::GetDecidedVal);
            }
        }
        let deferred = v.learning_gate.take_deferred();
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
        let pending = std::mem::take(&mut self.volatile.pending_requests);
        for requester in pending {
            ctx.send(requester, NodeMsg::DecidedVal(value.clone()));
        }
    }

    fn on_decided_val(&mut self, from: ProcessId, value: Value, ctx: &mut Context<NodeMsg>) {
        self.volatile.learning_gate.answered(from);
        // Algorithm 3 line 7: a learner needs ⌈(|S|+1)/2⌉ identical
        // answers from distinct members. An undecided member needs g + 1:
        // its quorums already assume at most g Byzantine members, so g + 1
        // answers include a correct member's decision, and a member whose
        // own vote is missing may never see ⌈(|S|+1)/2⌉ others answer
        // (docs/PAPER_MAP.md, Algorithm 3).
        let phase = self.phase();
        let v = &mut self.volatile;
        let Some(committee) = &v.committee else {
            return;
        };
        if self.decided.is_some() || !committee.contains(from) {
            return;
        }
        let needed = match phase {
            Phase::Member => committee.fault_threshold() + 1,
            Phase::Discovering | Phase::Learning => committee.learning_threshold(),
        };
        let tally = v.answers.entry(value.to_vec()).or_default();
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
        for (i, event) in self.config.churn.iter().enumerate() {
            ctx.set_timer(
                CHURN_TICK + i as u64,
                event.tick().saturating_sub(ctx.now()),
            );
        }
        // A late joiner is dormant until its join tick: no first-gossip
        // mark, no discovery round, and every delivery is swallowed.
        let joins = |e: &ChurnEvent| matches!(e, ChurnEvent::JoinAt { .. });
        if self.config.churn.iter().any(joins) {
            self.presence = Presence::AwaitingJoin;
        } else {
            self.begin_participation(ctx);
        }
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
                    if self.phase() == Phase::Discovering {
                        self.volatile.detect_dirty = true;
                    }
                }
            }
            NodeMsg::Committee(m) => match &mut self.volatile.replica {
                Some(replica) => {
                    let fx = replica.handle(from, *m);
                    self.apply_replica_effects(fx, ctx);
                }
                None => self.backlog(from, *m),
            },
            NodeMsg::GetDecidedVal => match &self.decided {
                Some(value) => ctx.send(from, NodeMsg::DecidedVal(value.clone())),
                None => {
                    // Algorithm 3 line 9: wait until val ≠ ⊥, then answer.
                    self.volatile.pending_requests.insert(from);
                }
            },
            NodeMsg::DecidedVal(value) => self.on_decided_val(from, value, ctx),
        }
    }

    fn on_timer(&mut self, timer: u64, ctx: &mut Context<NodeMsg>) {
        // Churn timers fire *through* dormancy: the join tick is what ends
        // the pre-join dormancy, and the recover tick is what ends the
        // down window.
        if timer == RECOVER_TICK {
            return self.on_churn_recover(ctx);
        }
        let churn = timer.checked_sub(CHURN_TICK);
        if let Some(event) = churn.and_then(|i| self.config.churn.get(i as usize)) {
            return self.on_churn(event.clone(), ctx);
        }
        if self.dormant() {
            // Pre-crash discovery/view timers landing in the down window
            // (or before a join) die here; recovery re-arms its own tick.
            return;
        }
        match timer {
            DISCOVERY_TICK => {
                match self.phase() {
                    Phase::Discovering => {
                        self.send_discovery_round(ctx);
                        if std::mem::take(&mut self.volatile.detect_dirty) {
                            self.try_detect(ctx);
                        }
                    }
                    Phase::Learning | Phase::Member => {
                        // A learner polls the committee until it decides.
                        // A member's committee drives itself via view
                        // timers; as a liveness backstop, an undecided
                        // member polls its peers too (the state-transfer
                        // role of checkpoints in full PBFT — g + 1 matching
                        // answers are safe to adopt, see `on_decided_val`).
                        // A decided replica drops every committee message,
                        // so this is the only way a member that missed the
                        // commit quorum catches up.
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
                if let (Some(view), Some(replica)) =
                    (view_of_timer(kind), &mut self.volatile.replica)
                {
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

    fn crash_recover(tick: Time, down_for: Time) -> ChurnEvent {
        ChurnEvent::CrashRecoverAt {
            tick,
            node: ProcessId::new(1),
            down_for,
        }
    }

    #[test]
    fn late_joiner_is_dormant_until_join_tick() {
        let mut node = test_node(NodeConfig {
            churn: vec![ChurnEvent::JoinAt {
                tick: 100,
                node: ProcessId::new(1),
                seed_peers: [ProcessId::new(3)].into_iter().collect(),
            }],
            ..NodeConfig::default()
        });
        let mut ctx = Context::new(0, ProcessId::new(1));
        node.on_start(&mut ctx);
        assert!(ctx.queued_sends().is_empty(), "dormant joiner sent");
        assert_eq!(ctx.queued_timers(), &[(CHURN_TICK, 100)]);
        // Deliveries before the join tick are swallowed.
        let mut ctx = Context::new(10, ProcessId::new(1));
        node.on_message(ProcessId::new(2), NodeMsg::GetDecidedVal, &mut ctx);
        assert!(ctx.queued_sends().is_empty());
        // The join tick seeds knowledge and opens discovery.
        let mut ctx = Context::new(100, ProcessId::new(1));
        node.on_timer(CHURN_TICK, &mut ctx);
        assert!(!ctx.queued_sends().is_empty(), "joiner did not gossip");
        assert!(node.discovery().view().known().contains(&ProcessId::new(3)));
    }

    #[test]
    fn leaver_halts_at_leave_tick() {
        let mut node = test_node(NodeConfig {
            churn: vec![ChurnEvent::LeaveAt {
                tick: 50,
                node: ProcessId::new(1),
            }],
            ..NodeConfig::default()
        });
        let mut ctx = Context::new(0, ProcessId::new(1));
        node.on_start(&mut ctx);
        assert!(ctx.queued_timers().contains(&(CHURN_TICK, 50)));
        let mut ctx = Context::new(50, ProcessId::new(1));
        node.on_timer(CHURN_TICK, &mut ctx);
        assert!(ctx.is_halted());
        assert!(node.departed());
    }

    #[test]
    fn crash_recovery_restores_the_pre_crash_view() {
        let mut node = test_node(NodeConfig {
            churn: vec![crash_recover(30, 50)],
            ..NodeConfig::default()
        });
        let mut ctx = Context::new(0, ProcessId::new(1));
        node.on_start(&mut ctx);
        let mut ctx = Context::new(30, ProcessId::new(1));
        node.on_timer(CHURN_TICK, &mut ctx);
        assert_eq!(ctx.queued_timers(), &[(RECOVER_TICK, 50)]);
        let (crash_at, crash_set) = node.crash_view.clone().expect("crash sampled");
        assert_eq!(crash_at, 30);
        // Down: deliveries are swallowed.
        let mut ctx = Context::new(40, ProcessId::new(1));
        node.on_message(ProcessId::new(2), NodeMsg::GetDecidedVal, &mut ctx);
        assert!(ctx.queued_sends().is_empty());
        // Recovery restores the snapshot view exactly.
        let mut ctx = Context::new(80, ProcessId::new(1));
        node.on_timer(RECOVER_TICK, &mut ctx);
        assert!(node.recovered());
        let (rec_at, rec_set) = node.recovery_view.clone().expect("recovery sampled");
        assert_eq!(rec_at, 80);
        assert_eq!(rec_set, crash_set);
        assert!(!ctx.queued_sends().is_empty(), "rejoiner did not gossip");
    }

    #[test]
    fn broken_recovery_loses_the_pre_crash_view() {
        let mut node = test_node(NodeConfig {
            churn: vec![crash_recover(30, 50)],
            broken_recovery: true,
            ..NodeConfig::default()
        });
        let mut ctx = Context::new(0, ProcessId::new(1));
        node.on_start(&mut ctx);
        // Absorb a PD record so there is something to lose — simulate by
        // learning a peer directly through the crash/recover cycle check:
        // the restored state must start from the bare own PD again.
        let mut ctx = Context::new(30, ProcessId::new(1));
        node.on_timer(CHURN_TICK, &mut ctx);
        let mut ctx = Context::new(80, ProcessId::new(1));
        node.on_timer(RECOVER_TICK, &mut ctx);
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
                churn: vec![ChurnEvent::CrashRecoverAt {
                    tick: 220,
                    node: me,
                    down_for: 50,
                }],
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
        node.on_timer(CHURN_TICK, &mut Context::new(220, me));
        let mut ctx = Context::new(270, me);
        node.on_timer(RECOVER_TICK, &mut ctx);
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
