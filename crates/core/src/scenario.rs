//! Whole-system scenario runner: graph + fault assignment + delay policy
//! in, consensus-property verdicts out.
//!
//! The paper-artifact tests (Table I, Figures 1–4) and most other
//! integration tests are expressed as [`Scenario`]s run through the
//! deterministic simulator.
//!
//! Every correct node of a run verifies certificates through the run's
//! one shared [`cupft_detector::CertPool`] (built by [`SystemSetup`]), so
//! each distinct certificate costs one HMAC system-wide, on every
//! substrate.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

use cupft_adversary::{ChurnEvent, ChurnSpec, TamperSpec};
use cupft_committee::{Committee, Value};
use cupft_detector::SystemSetup;
use cupft_discovery::GossipMode;
use cupft_graph::{DiGraph, ProcessId, ProcessSet};
use cupft_net::sim::Simulation;
use cupft_net::socket::{SocketConfig, SocketRuntime};
use cupft_net::threaded::{Board, ThreadedConfig, ThreadedRuntime};
use cupft_net::{Actor, DelayPolicy, NetStats, Runtime, SimConfig, Time, TraceEntry};
use cupft_obs::{ObsReport, Recorder};

use crate::byzantine::{build_strategy, ByzantineStrategy};
use crate::detect::ProtocolMode;
use crate::msgs::NodeMsg;
use crate::node::{Node, NodeConfig};

/// A complete experiment description.
///
/// # Example
///
/// ```
/// use cupft_core::{run_scenario, ByzantineStrategy, ProtocolMode, Scenario};
/// use cupft_graph::fig1b;
///
/// let scenario = Scenario::new(fig1b().graph().clone(), ProtocolMode::KnownThreshold(1))
///     .with_byzantine(4, ByzantineStrategy::Silent)
///     .with_seed(7);
/// let outcome = run_scenario(&scenario);
/// assert!(outcome.check().consensus_solved());
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The knowledge connectivity graph.
    pub graph: DiGraph,
    /// Identification mode every correct node runs.
    pub mode: ProtocolMode,
    /// Byzantine assignment (absent processes are correct).
    pub byzantine: BTreeMap<ProcessId, ByzantineStrategy>,
    /// Proposal per process (defaults to `v<id>`).
    pub values: BTreeMap<ProcessId, Value>,
    /// Optional network-level adversary (installed on either substrate via
    /// the [`cupft_net::Tamper`] hook).
    pub tamper: Option<TamperSpec>,
    /// Optional dynamic-membership schedule ([`ChurnSpec`]): late joins,
    /// silent departures, crash-recoveries, executed at the actor level so
    /// both substrates honor the same schedule identically. Events naming
    /// Byzantine processes are ignored — churn is a correct-process model.
    pub churn: Option<ChurnSpec>,
    /// Test-only fault switch: crash-recovering nodes restore a *fresh*
    /// discovery state instead of their snapshot (see
    /// [`NodeConfig::broken_recovery`]) — the planted defect the
    /// adversarial churn tests catch and shrink.
    pub broken_recovery: bool,
    /// Simulator configuration (seed, horizon, delay policy).
    pub sim: SimConfig,
    /// Discovery tick period.
    pub discovery_period: u64,
    /// Committee view-timeout base.
    pub view_timeout_base: u64,
    /// How correct nodes disseminate `S_PD` (see [`NodeConfig::gossip`]).
    pub gossip: GossipMode,
    /// Wall-clock budget when run on the threaded substrate (default
    /// 60 s). Generous budgets are a scale knob, not a correctness one —
    /// the run still stops the moment every correct node has decided.
    pub threaded_wall_timeout: Option<Duration>,
    /// Attach an observability [`Recorder`] to the run (off by default).
    /// On the simulator the recorder runs in the **virtual** clock domain
    /// — two runs of the same scenario produce byte-identical
    /// [`ObsReport`]s — and on the wall-clock runtime in the wall domain
    /// (elapsed milliseconds; a profile, not a trace). Observation never
    /// changes protocol behavior: decisions, detections, and [`NetStats`]
    /// are identical with the flag on or off.
    pub observe: bool,
}

impl Scenario {
    /// A scenario over `graph` with the given mode and defaults everywhere
    /// else.
    pub fn new(graph: DiGraph, mode: ProtocolMode) -> Self {
        Scenario {
            graph,
            mode,
            byzantine: BTreeMap::new(),
            values: BTreeMap::new(),
            tamper: None,
            churn: None,
            broken_recovery: false,
            sim: SimConfig {
                seed: 0,
                max_time: 200_000,
                policy: DelayPolicy::PartialSynchrony {
                    gst: 200,
                    delta: 10,
                    pre_gst_max: 120,
                },
            },
            discovery_period: 20,
            view_timeout_base: 400,
            gossip: GossipMode::default(),
            threaded_wall_timeout: None,
            observe: false,
        }
    }

    /// Assigns a Byzantine strategy.
    pub fn with_byzantine(mut self, id: u64, strategy: ByzantineStrategy) -> Self {
        self.byzantine.insert(ProcessId::new(id), strategy);
        self
    }

    /// Sets a proposal value.
    pub fn with_value(mut self, id: u64, value: &'static [u8]) -> Self {
        self.values
            .insert(ProcessId::new(id), Value::from_static(value));
        self
    }

    /// Sets the delay policy.
    pub fn with_policy(mut self, policy: DelayPolicy) -> Self {
        self.sim.policy = policy;
        self
    }

    /// Installs a network-level adversary (see [`TamperSpec`] for the
    /// within-model discipline).
    pub fn with_tamper(mut self, tamper: TamperSpec) -> Self {
        self.tamper = Some(tamper);
        self
    }

    /// Installs a dynamic-membership schedule (see [`Scenario::churn`]).
    pub fn with_churn(mut self, churn: ChurnSpec) -> Self {
        self.churn = Some(churn);
        self
    }

    /// Switches the planted recovery defect on (see
    /// [`Scenario::broken_recovery`]); test-only.
    pub fn with_broken_recovery(mut self, broken: bool) -> Self {
        self.broken_recovery = broken;
        self
    }

    /// Overrides the threaded/socket-substrate wall-clock budget.
    pub fn with_threaded_wall_timeout(mut self, timeout: Duration) -> Self {
        self.threaded_wall_timeout = Some(timeout);
        self
    }

    /// Inert: returns the scenario unchanged. The wall-clock runtime has
    /// no router shards; this stays only while `benchmark/` still calls
    /// it, and ROADMAP item 3(b) deletes it.
    pub fn with_router_shards(self, _shards: usize) -> Self {
        self
    }

    /// Switches structured-event observation on or off (see
    /// [`Scenario::observe`]).
    pub fn with_observe(mut self, observe: bool) -> Self {
        self.observe = observe;
        self
    }

    /// Selects how correct nodes disseminate `S_PD` (see
    /// [`Scenario::gossip`]).
    pub fn with_gossip(mut self, gossip: GossipMode) -> Self {
        self.gossip = gossip;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.sim.seed = seed;
        self
    }

    /// Sets the simulation horizon.
    pub fn with_horizon(mut self, max_time: Time) -> Self {
        self.sim.max_time = max_time;
        self
    }

    /// The correct processes of this scenario: every vertex without a
    /// Byzantine assignment.
    pub fn correct(&self) -> ProcessSet {
        self.graph
            .vertices()
            .filter(|v| !self.byzantine.contains_key(v))
            .collect()
    }

    fn value_of(&self, id: ProcessId) -> Value {
        self.values
            .get(&id)
            .cloned()
            .unwrap_or_else(|| Value::from(format!("v{}", id.raw()).into_bytes()))
    }

    /// Values that could legitimately be decided: every process's proposal
    /// plus any value a Byzantine equivocator may inject.
    fn allowed_values(&self) -> BTreeSet<Vec<u8>> {
        let mut allowed: BTreeSet<Vec<u8>> = self
            .graph
            .vertices()
            .map(|v| self.value_of(v).to_vec())
            .collect();
        for strategy in self.byzantine.values() {
            for value in strategy.injected_values() {
                allowed.insert(value.to_vec());
            }
        }
        allowed
    }

    /// The correct processes scheduled to depart under this scenario's
    /// churn (empty without churn). A departed process is still *correct*
    /// — it just may leave before deciding, so the stop condition and the
    /// termination verdict excuse it.
    pub fn leavers(&self) -> ProcessSet {
        self.churn
            .as_ref()
            .map(ChurnSpec::leavers)
            .unwrap_or_default()
    }
}

/// A correct process's terminal status in one run — distinguishes "never
/// decided" from "departed before deciding", which a bare `Option<Vec<u8>>`
/// decision cannot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeStatus {
    /// The process decided (possibly before a later departure).
    Decided,
    /// The process departed via scheduled churn without deciding.
    Departed,
    /// The process neither decided nor departed within the horizon.
    Undecided,
}

/// Per-process observations of one run.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Decisions of the correct processes (`None` = undecided at horizon).
    pub decisions: BTreeMap<ProcessId, Option<Vec<u8>>>,
    /// Terminal status per correct process (see [`NodeStatus`]).
    pub statuses: BTreeMap<ProcessId, NodeStatus>,
    /// `(tick, S_received)` sampled at each churn crash.
    pub crash_views: BTreeMap<ProcessId, (Time, ProcessSet)>,
    /// `(tick, S_received)` sampled right after each churn recovery.
    pub recovery_views: BTreeMap<ProcessId, (Time, ProcessSet)>,
    /// Final `S_received` view per correct process.
    pub final_views: BTreeMap<ProcessId, ProcessSet>,
    /// The committee (sink/core members and their threshold `g`) each
    /// correct process identified.
    pub detections: BTreeMap<ProcessId, Option<Committee>>,
    /// Identification times.
    pub detection_times: BTreeMap<ProcessId, Option<Time>>,
    /// Decision times.
    pub decided_times: BTreeMap<ProcessId, Option<Time>>,
    /// When the run ended: simulated ticks on the simulator, elapsed
    /// milliseconds on the wall-clock runtime.
    pub end_time: Time,
    /// Network statistics.
    pub stats: NetStats,
    /// Observability snapshot, present iff [`Scenario::observe`] was on.
    /// Taken *after* the run's certificate-pool gauges are dumped, so it
    /// is a superset of the [`cupft_net::RuntimeReport`]'s own snapshot.
    pub obs: Option<ObsReport>,
    allowed_values: BTreeSet<Vec<u8>>,
    churn: ChurnSpec,
}

/// Verdicts on the consensus properties (Section II-B), and on the two
/// knowledge properties a churn schedule adds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsensusCheck {
    /// No two correct processes decided differently. A process that
    /// decided and then departed still counts.
    pub agreement: bool,
    /// Every correct process decided within the horizon.
    pub termination: bool,
    /// Every decided value was proposed by some process.
    pub validity: bool,
    /// Every correct late joiner that did not also depart ended the run
    /// holding the reference knowledge: the intersection of the final
    /// `S_received` views of the stable correct processes (no scheduled
    /// join, departure or crash). With no stable process the reference is
    /// empty. A join naming a Byzantine process is ignored, as the
    /// scenario ignores it. Vacuously true without churn.
    pub join_convergence: bool,
    /// Every crash-recovered process's restored and final `S_received`
    /// both contain its view at the crash: recovery forgets nothing.
    /// Vacuously true without churn.
    pub recovery_consistency: bool,
    /// Every correct process that identified a sink or core identified
    /// the same members with the same threshold `g` (see
    /// [`ScenarioOutcome::detections`]): the unique committee that
    /// Algorithm 3's agreement rests on. Vacuously true when at most one
    /// process identified.
    pub committee_agreement: bool,
    /// The distinct values decided by correct processes.
    pub decided_values: BTreeSet<Vec<u8>>,
}

impl ConsensusCheck {
    /// Agreement, termination and validity hold (Integrity holds by
    /// construction: nodes set their decision at most once). The churn
    /// verdicts stay apart: a schedule can cost knowledge without costing
    /// consensus. So does [`Self::committee_agreement`], which judges the
    /// identification step rather than the decision.
    pub fn consensus_solved(&self) -> bool {
        self.agreement && self.termination && self.validity
    }
}

impl ScenarioOutcome {
    /// Evaluates the consensus properties over the recorded decisions and
    /// identifications.
    pub fn check(&self) -> ConsensusCheck {
        let decided_values: BTreeSet<Vec<u8>> =
            self.decisions.values().flatten().cloned().collect();
        ConsensusCheck {
            agreement: decided_values.len() <= 1,
            // Under churn, a process that departed before deciding is
            // excused from termination (it is not "every correct process
            // *eventually* decides" material once it has left the system);
            // without churn every status is Decided/Undecided and this is
            // the classic all-decided check.
            termination: self.statuses.values().all(|s| *s != NodeStatus::Undecided),
            validity: decided_values
                .iter()
                .all(|v| self.allowed_values.contains(v)),
            join_convergence: self.joiners_converged(),
            recovery_consistency: self.recoveries_consistent(),
            committee_agreement: {
                let mut identified = self.detections.values().flatten();
                let first = identified.next();
                identified.all(|members| Some(members) == first)
            },
            decided_values,
        }
    }

    /// See [`ConsensusCheck::join_convergence`]. A correct joiner with no
    /// final view has not converged.
    fn joiners_converged(&self) -> bool {
        let leavers = self.churn.leavers();
        let mut staying = self.churn.joiners();
        staying.retain(|j| self.statuses.contains_key(j) && !leavers.contains(j));
        if staying.is_empty() {
            return true;
        }
        let churned = self.churn.nodes();
        let mut stable = self
            .final_views
            .iter()
            .filter(|(id, _)| !churned.contains(id))
            .map(|(_, view)| view);
        let reference = match stable.next() {
            Some(first) => stable.fold(first.clone(), |acc, view| {
                acc.intersection(view).copied().collect()
            }),
            None => ProcessSet::new(),
        };
        staying.iter().all(|j| {
            self.final_views
                .get(j)
                .is_some_and(|view| reference.is_subset(view))
        })
    }

    /// See [`ConsensusCheck::recovery_consistency`].
    fn recoveries_consistent(&self) -> bool {
        self.crash_views.iter().all(|(id, (_, crashed))| {
            let restored = self.recovery_views.get(id).map(|(_, view)| view);
            [restored, self.final_views.get(id)]
                .into_iter()
                .flatten()
                .all(|later| crashed.is_subset(later))
        })
    }

    /// The unique sink/core member sets identified across correct
    /// processes.
    pub fn distinct_detections(&self) -> BTreeSet<ProcessSet> {
        self.detections
            .values()
            .flatten()
            .map(|c| c.members().iter().copied().collect())
            .collect()
    }

    /// Latest decision time among deciders, in [`Self::end_time`]'s unit.
    pub fn last_decision_time(&self) -> Option<Time> {
        self.decided_times.values().flatten().copied().max()
    }
}

/// Which execution substrate a scenario runs on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RuntimeKind {
    /// The deterministic discrete-event simulator ([`Simulation`]).
    #[default]
    Sim,
    /// The OS-thread runtime ([`ThreadedRuntime`]) — nondeterministic
    /// real-time interleavings, for wall-clock validation.
    Threaded,
    /// The real-socket runtime ([`SocketRuntime`]) — every send encoded
    /// in the versioned [`cupft_wire`] frame format and carried over
    /// loopback TCP, so a run validates the whole codec path on top of
    /// the protocols.
    Socket,
}

impl RuntimeKind {
    /// A short display label (`"sim"` / `"threaded"` / `"socket"`).
    pub fn label(self) -> &'static str {
        match self {
            RuntimeKind::Sim => "sim",
            RuntimeKind::Threaded => "threaded",
            RuntimeKind::Socket => "socket",
        }
    }
}

impl Scenario {
    /// Panics unless the delay policy has a wall-clock equivalent (see
    /// [`Self::threaded_config`]); `substrate` names the runtime asked for.
    fn reject_scripted_adversary(&self, substrate: &str) {
        match self.sim.policy {
            DelayPolicy::Synchronous { .. } | DelayPolicy::PartialSynchrony { .. } => {}
            DelayPolicy::Asynchronous { .. } | DelayPolicy::Partitioned { .. } => panic!(
                "delay policy {:?} is a scripted simulator adversary with no \
                 {substrate}-runtime equivalent; run this scenario on RuntimeKind::Sim",
                self.sim.policy
            ),
        }
    }

    /// The [`ThreadedConfig`] equivalent of this scenario's simulator
    /// configuration: the seed carries over, the delay spread maps the
    /// policy's post-GST bound `δ` onto milliseconds (capped so sim-scale
    /// tick values stay in wall-clock-test range), and the horizon becomes
    /// a generous wall timeout — the scenario runner stops the run as soon
    /// as every correct node has decided, so the timeout only bounds
    /// failing runs.
    ///
    /// The mapping is *lossy*: the threaded link only applies a uniform
    /// random delay, so the pre-GST adversarial phase of
    /// [`DelayPolicy::PartialSynchrony`] is dropped (the threaded network
    /// behaves as if GST were 0). That weakens the adversary but cannot
    /// invert a possibility verdict.
    ///
    /// # Panics
    ///
    /// Panics for [`DelayPolicy::Asynchronous`] and
    /// [`DelayPolicy::Partitioned`]: those are scripted simulator
    /// adversaries (impossibility horizons, the Theorem 7 construction)
    /// with no threaded equivalent — running them under a benign uniform
    /// delay would silently invert impossibility results. Run such
    /// scenarios on [`RuntimeKind::Sim`].
    pub fn threaded_config(&self) -> ThreadedConfig {
        self.reject_scripted_adversary("threaded");
        ThreadedConfig {
            min_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(self.sim.policy.delta().clamp(1, 20)),
            wall_timeout: self
                .threaded_wall_timeout
                .unwrap_or(Duration::from_secs(60)),
            seed: self.sim.seed,
            ..ThreadedConfig::default()
        }
    }

    /// The [`SocketConfig`] equivalent of this scenario's configuration:
    /// loopback bind on an ephemeral port, the threaded wall-timeout knob
    /// carried over. The socket substrate applies no artificial delay —
    /// real TCP latency is the network — so, like the threaded mapping,
    /// scripted simulator adversaries are rejected rather than silently
    /// weakened.
    ///
    /// # Panics
    ///
    /// Panics for [`DelayPolicy::Asynchronous`] and
    /// [`DelayPolicy::Partitioned`], same contract as
    /// [`Self::threaded_config`].
    pub fn socket_config(&self) -> SocketConfig {
        self.reject_scripted_adversary("socket");
        SocketConfig {
            wall_timeout: self
                .threaded_wall_timeout
                .unwrap_or(Duration::from_secs(60)),
            ..SocketConfig::default()
        }
    }

    /// Runs this scenario on a fresh runtime of the given kind.
    ///
    /// # Panics
    ///
    /// For [`RuntimeKind::Threaded`] and [`RuntimeKind::Socket`], panics
    /// if the scenario's delay policy has no wall-clock equivalent — see
    /// [`Self::threaded_config`] — or, for `Socket`, if the loopback
    /// listener cannot bind.
    pub fn run_on(&self, kind: RuntimeKind) -> ScenarioOutcome {
        match kind {
            RuntimeKind::Sim => {
                let mut sim: Simulation<NodeMsg> = Simulation::new(self.sim.clone());
                run_scenario_on(self, &mut sim)
            }
            RuntimeKind::Threaded => {
                let mut runtime: ThreadedRuntime<NodeMsg> =
                    ThreadedRuntime::new(self.threaded_config());
                run_scenario_on(self, &mut runtime)
            }
            RuntimeKind::Socket => {
                let mut runtime: SocketRuntime<NodeMsg> =
                    SocketRuntime::new(self.socket_config()).expect("bind socket runtime");
                run_scenario_on(self, &mut runtime)
            }
        }
    }

    /// The actor process `v` runs: for a Byzantine process, the actor
    /// [`build_strategy`] compiles from its spec; for a correct one, a
    /// [`Node`] with the recorder, its churn events and the test-only
    /// faults, wired to `board` unless it is a scheduled leaver. Every
    /// runtime a scenario runs on, and every process of a multi-process
    /// deployment, gets its actors from here.
    pub fn actor_for(
        &self,
        setup: &SystemSetup,
        v: ProcessId,
        board: &Board<Vec<u8>>,
        recorder: Option<&Arc<Recorder>>,
    ) -> Box<dyn Actor<NodeMsg>> {
        // The protocol knobs. Correct nodes add the recorder, churn and
        // test-only faults; a Byzantine process's twin nodes run without them.
        let protocol = NodeConfig {
            mode: self.mode,
            discovery_period: self.discovery_period,
            replica: cupft_committee::ReplicaConfig {
                timeout_base: self.view_timeout_base,
            },
            gossip: self.gossip,
            ..NodeConfig::default()
        };
        if let Some(strategy) = self.byzantine.get(&v) {
            return build_strategy(strategy, setup, v, &self.value_of(v), &protocol);
        }
        let churn = self
            .churn
            .as_ref()
            .map(|c| c.events_of(v))
            .unwrap_or_default();
        let is_leaver = churn
            .iter()
            .any(|e| matches!(e, ChurnEvent::LeaveAt { .. }));
        let config = NodeConfig {
            recorder: recorder.cloned(),
            churn,
            broken_recovery: self.broken_recovery,
            ..protocol
        };
        let mut node =
            Node::from_setup(setup, v, self.value_of(v), config).expect("vertex registered");
        if !is_leaver {
            // A scheduled leaver does not report to the board: it may
            // decide before departing, but the run must not stop (or
            // keep waiting) on its account.
            node = node.with_board(board.clone());
        }
        Box::new(node)
    }
}

/// Reads the per-node observations back out of a finished runtime.
fn collect<R: Runtime<NodeMsg>>(
    scenario: &Scenario,
    correct: &ProcessSet,
    end_time: Time,
    runtime: &R,
) -> ScenarioOutcome {
    let mut decisions = BTreeMap::new();
    let mut statuses = BTreeMap::new();
    let mut crash_views = BTreeMap::new();
    let mut recovery_views = BTreeMap::new();
    let mut final_views = BTreeMap::new();
    let mut detections = BTreeMap::new();
    let mut detection_times = BTreeMap::new();
    let mut decided_times = BTreeMap::new();
    for &id in correct {
        let node: &Node = runtime.actor_as(id).expect("correct actors are Nodes");
        decisions.insert(id, node.decision().map(|v| v.to_vec()));
        let status = if node.decision().is_some() {
            NodeStatus::Decided
        } else if node.departed() {
            NodeStatus::Departed
        } else {
            NodeStatus::Undecided
        };
        statuses.insert(id, status);
        if let Some(sample) = &node.crash_view {
            crash_views.insert(id, sample.clone());
        }
        if let Some(sample) = &node.recovery_view {
            recovery_views.insert(id, sample.clone());
        }
        final_views.insert(id, node.discovery().view().received());
        detections.insert(id, node.committee().cloned());
        detection_times.insert(id, node.detection_time);
        decided_times.insert(id, node.decided_time);
    }
    ScenarioOutcome {
        decisions,
        statuses,
        crash_views,
        recovery_views,
        final_views,
        detections,
        detection_times,
        decided_times,
        end_time,
        stats: runtime.stats().clone(),
        obs: None,
        allowed_values: scenario.allowed_values(),
        churn: scenario.churn.clone().unwrap_or_default(),
    }
}

/// Runs `scenario` on any [`Runtime`] until every correct process has
/// decided (observed through a shared decision [`Board`]) or the runtime's
/// bound — simulated horizon or wall timeout — is reached.
///
/// This is the runtime-agnostic core: [`run_scenario`] instantiates it
/// with the deterministic simulator, [`Scenario::run_on`] with either
/// substrate.
pub fn run_scenario_on<R: Runtime<NodeMsg>>(
    scenario: &Scenario,
    runtime: &mut R,
) -> ScenarioOutcome {
    let setup = SystemSetup::new(&scenario.graph);
    let board: Board<Vec<u8>> = Board::new();
    let recorder = scenario.observe.then(|| Arc::new(Recorder::new()));
    for v in scenario.graph.vertices() {
        runtime.add_actor(scenario.actor_for(&setup, v, &board, recorder.as_ref()));
    }
    if let Some(spec) = &scenario.tamper {
        runtime.set_tamper(spec.build());
    }
    if let Some(rec) = &recorder {
        runtime.set_recorder(rec.clone());
    }
    // Scheduled leavers are not wired to the board (they may depart before
    // deciding), so the stop condition counts only the staying correct set.
    let correct = scenario.correct();
    let leavers = scenario.leavers();
    let expected = correct.iter().filter(|v| !leavers.contains(v)).count();
    let report = runtime.run_until_stopped(&mut || board.len() >= expected);
    let obs = recorder.map(|rec| {
        // Dump the certificates the setup signed and the shared verdict
        // memo's end-of-run state as gauges, then snapshot — this
        // snapshot supersedes the RuntimeReport's.
        let pool = setup.pool();
        rec.gauge_set("cert_pool_len", setup.processes().len() as u64);
        rec.gauge_set("cert_forged_records", pool.forged_records());
        rec.gauge_set("cert_memo_hits", pool.memo_hits());
        rec.gauge_set("cert_memo_misses", pool.memo_misses());
        rec.snapshot()
    });
    let mut outcome = collect(scenario, &correct, report.end_time, runtime);
    outcome.obs = obs;
    outcome
}

/// Runs a scenario to completion (all correct decided) or to the horizon
/// on the deterministic simulator.
pub fn run_scenario(scenario: &Scenario) -> ScenarioOutcome {
    scenario.run_on(RuntimeKind::Sim)
}

/// Runs a scenario on the deterministic simulator with full execution
/// recording: the simulator's own trace of every send (marked when the
/// scenario's tamper dropped it) and every delivery, in execution order.
/// Decisions are in the outcome ([`ScenarioOutcome::decisions`] and
/// [`ScenarioOutcome::decided_times`]).
///
/// The trace is a pure function of the scenario (including its seed):
/// recording the same scenario twice yields identical traces — the
/// replay guarantee record/replay tests compare. The verdicts come from
/// the outcome's [`ScenarioOutcome::check`], as on every other run.
/// Simulator-only; fault *injection* itself runs on either substrate.
pub fn run_scenario_recorded(scenario: &Scenario) -> (ScenarioOutcome, Vec<TraceEntry>) {
    let mut sim: Simulation<NodeMsg> = Simulation::new(scenario.sim.clone());
    sim.enable_trace();
    let outcome = run_scenario_on(scenario, &mut sim);
    (outcome, sim.trace().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cupft_graph::{fig1b, fig4a, fig4b, process_set};
    use cupft_net::TraceKind;

    #[test]
    fn bft_cup_on_fig1b_with_silent_byzantine() {
        let fig = fig1b();
        let scenario = Scenario::new(fig.graph().clone(), ProtocolMode::KnownThreshold(1))
            .with_byzantine(4, ByzantineStrategy::Silent);
        let outcome = run_scenario(&scenario);
        let check = outcome.check();
        assert!(check.consensus_solved(), "{outcome:?}");
        // only correct processes are judged: Byzantine 4 is not recorded
        assert!(!outcome.decisions.contains_key(&ProcessId::new(4)));
        // every correct process identified the paper's sink {1,2,3,4}
        assert_eq!(
            outcome.distinct_detections(),
            [process_set([1, 2, 3, 4])].into_iter().collect()
        );
    }

    #[test]
    fn byzantine_decisions_do_not_count() {
        // A twinned leader injects two values into the committee; the
        // outcome records (and check() judges) the correct processes only.
        let fig = fig4b();
        let scenario = Scenario::new(fig.graph().clone(), ProtocolMode::UnknownThreshold)
            .with_byzantine(
                5,
                ByzantineStrategy::Twins {
                    side_a: process_set([6, 7]),
                    value_b: Value::from_static(b"evil-B"),
                    pd_b: None,
                },
            );
        let outcome = run_scenario(&scenario);
        let correct = scenario.correct();
        assert!(outcome
            .decisions
            .keys()
            .copied()
            .eq(correct.iter().copied()));
        assert!(outcome.statuses.keys().copied().eq(correct.iter().copied()));
        let check = outcome.check();
        assert!(check.consensus_solved(), "{outcome:?}");
    }

    #[test]
    fn bft_cupft_on_fig4a_all_correct() {
        let fig = fig4a();
        let scenario = Scenario::new(fig.graph().clone(), ProtocolMode::UnknownThreshold);
        let outcome = run_scenario(&scenario);
        let check = outcome.check();
        assert!(check.consensus_solved(), "{:?}", outcome.decisions);
        assert_eq!(
            outcome.distinct_detections(),
            [process_set([1, 2, 3, 4, 5])].into_iter().collect()
        );
    }

    #[test]
    fn bft_cupft_on_fig4b_with_silent_byzantine_outside_core() {
        let fig = fig4b();
        let scenario = Scenario::new(fig.graph().clone(), ProtocolMode::UnknownThreshold)
            .with_byzantine(4, ByzantineStrategy::Silent);
        let outcome = run_scenario(&scenario);
        let check = outcome.check();
        assert!(check.consensus_solved(), "{:?}", outcome.decisions);
        assert_eq!(
            outcome.distinct_detections(),
            [process_set([5, 6, 7, 8, 9])].into_iter().collect()
        );
    }

    #[test]
    #[should_panic(expected = "no threaded-runtime equivalent")]
    fn scripted_adversary_rejected_on_threaded_runtime() {
        let scenario = Scenario::new(fig1b().graph().clone(), ProtocolMode::KnownThreshold(1))
            .with_policy(DelayPolicy::Asynchronous {
                delta: 10,
                unbounded_max: 1_000_000,
            });
        let _ = scenario.threaded_config();
    }

    #[test]
    fn late_leaver_decider_does_not_end_run_early() {
        // Process 4 decides long before its (late) leave tick and would
        // inflate a naive decided-count; the run must still continue until
        // every process that stays has decided (regression test: the board
        // stop condition does not count leavers).
        use cupft_adversary::ChurnEvent;
        let fig = fig1b();
        let scenario = Scenario::new(fig.graph().clone(), ProtocolMode::KnownThreshold(1))
            .with_churn(ChurnSpec::new(vec![ChurnEvent::LeaveAt {
                tick: 50_000,
                node: ProcessId::new(4),
            }]));
        let outcome = run_scenario(&scenario);
        assert!(outcome.check().consensus_solved(), "{outcome:?}");
    }

    /// A stable FNV-1a fingerprint of a simulator trace, for exact pins.
    fn trace_fingerprint(trace: &[TraceEntry]) -> u64 {
        let mut hash: u64 = 0xcbf29ce484222325;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= b as u64;
                hash = hash.wrapping_mul(0x100000001b3);
            }
        };
        for e in trace {
            mix(&e.time.to_be_bytes());
            mix(&e.from.raw().to_be_bytes());
            mix(&e.to.raw().to_be_bytes());
            mix(e.label.as_bytes());
            match e.kind {
                TraceKind::Sent { dropped } => mix(&[b'S', dropped as u8]),
                TraceKind::Delivered => mix(b"D"),
            }
        }
        hash
    }

    #[test]
    fn recorded_run_traces_and_passes_invariants() {
        let fig = fig1b();
        let scenario = Scenario::new(fig.graph().clone(), ProtocolMode::KnownThreshold(1))
            .with_byzantine(4, ByzantineStrategy::Silent)
            .with_seed(7);
        let (outcome, trace) = run_scenario_recorded(&scenario);
        assert!(outcome.check().consensus_solved());
        // the whole recorded execution is pinned: traffic and decisions
        assert_eq!(trace.len(), 669);
        assert_eq!(trace_fingerprint(&trace), 0xcee2758ea483a141);
        assert_eq!(outcome.decisions.values().flatten().count(), 7);
        let decided: Vec<(u64, Time)> = outcome
            .decided_times
            .iter()
            .map(|(id, time)| (id.raw(), time.expect("decided")))
            .collect();
        assert_eq!(
            decided,
            [
                (1, 292),
                (2, 289),
                (3, 287),
                (5, 296),
                (6, 300),
                (7, 296),
                (8, 296)
            ]
        );
        // sends and deliveries were captured
        assert!(trace
            .iter()
            .any(|e| matches!(e.kind, TraceKind::Sent { .. })));
        assert!(trace.iter().any(|e| e.kind == TraceKind::Delivered));
        // record → replay is identical
        let (replay_outcome, replay) = run_scenario_recorded(&scenario);
        assert_eq!(trace, replay);
        assert_eq!(outcome.decisions, replay_outcome.decisions);
        assert_eq!(outcome.decided_times, replay_outcome.decided_times);
    }

    #[test]
    fn tamper_runs_on_scenario_and_is_recorded() {
        use cupft_adversary::TamperSpec;
        let fig = fig1b();
        // Dropping everything the (already Byzantine) process 4 sends is
        // within-model: equivalent to process 4 staying silent.
        let scenario = Scenario::new(fig.graph().clone(), ProtocolMode::KnownThreshold(1))
            .with_byzantine(
                4,
                ByzantineStrategy::FakePd {
                    claimed: process_set([1, 2, 3]),
                },
            )
            .with_tamper(TamperSpec::DropFrom {
                senders: process_set([4]),
            });
        let (outcome, trace) = run_scenario_recorded(&scenario);
        assert!(outcome.check().consensus_solved(), "{outcome:?}");
        assert!(outcome.stats.messages_dropped > 0);
        let count =
            |pred: fn(TraceKind) -> bool| trace.iter().filter(|e| pred(e.kind)).count() as u64;
        let dropped = count(|k| k == TraceKind::Sent { dropped: true });
        assert_eq!(dropped, outcome.stats.messages_dropped);
        let sent = count(|k| matches!(k, TraceKind::Sent { .. }));
        assert_eq!(sent, outcome.stats.messages_sent);
        let delivered = count(|k| k == TraceKind::Delivered);
        assert_eq!(delivered, outcome.stats.messages_delivered);
    }

    #[test]
    fn leaver_is_excused_from_termination() {
        use cupft_adversary::ChurnEvent;
        let fig = fig1b();
        // Learner 7 departs before it can decide; the run must still stop
        // (the board never waits on it) and termination must excuse it.
        let scenario = Scenario::new(fig.graph().clone(), ProtocolMode::KnownThreshold(1))
            .with_byzantine(4, ByzantineStrategy::Silent)
            .with_churn(ChurnSpec::new(vec![ChurnEvent::LeaveAt {
                tick: 5,
                node: ProcessId::new(7),
            }]));
        let outcome = run_scenario(&scenario);
        let check = outcome.check();
        assert!(check.consensus_solved(), "{outcome:?}");
        assert_eq!(
            outcome.statuses[&ProcessId::new(7)],
            crate::scenario::NodeStatus::Departed
        );
        assert!(outcome.decisions[&ProcessId::new(7)].is_none());
    }

    #[test]
    fn churn_run_passes_weakened_invariants() {
        use cupft_adversary::ChurnEvent;
        let fig = fig1b();
        // Learner 8 joins late; learner 5 crash-recovers mid-run, before it
        // has decided (it decides at 269 in the run without churn).
        let scenario = Scenario::new(fig.graph().clone(), ProtocolMode::KnownThreshold(1))
            .with_byzantine(4, ByzantineStrategy::Silent)
            .with_seed(3)
            .with_churn(ChurnSpec::new(vec![
                ChurnEvent::JoinAt {
                    tick: 400,
                    node: ProcessId::new(8),
                    seed_peers: cupft_graph::process_set([5]),
                },
                ChurnEvent::CrashRecoverAt {
                    tick: 200,
                    node: ProcessId::new(5),
                    down_for: 200,
                },
            ]));
        let (outcome, trace) = run_scenario_recorded(&scenario);
        let check = outcome.check();
        assert!(check.consensus_solved(), "{outcome:?}");
        // The crash and the recovery fired, and both churn verdicts hold.
        assert!(outcome.crash_views.contains_key(&ProcessId::new(5)));
        assert!(outcome.recovery_views.contains_key(&ProcessId::new(5)));
        // Node 5 decided only after it recovered.
        let recovered_at = outcome.recovery_views[&ProcessId::new(5)].0;
        assert!(outcome.decided_times[&ProcessId::new(5)] > Some(recovered_at));
        assert!(check.join_convergence && check.recovery_consistency);
        // Same seed, same schedule → identical trace and decisions.
        let (replay_outcome, replay) = run_scenario_recorded(&scenario);
        assert_eq!(trace, replay);
        assert_eq!(outcome.decisions, replay_outcome.decisions);
        assert_eq!(outcome.decided_times, replay_outcome.decided_times);
    }

    /// A hand-made outcome: each `(id, value)` is a correct process that
    /// decided `value`, with no views sampled; `a` and `b` are the
    /// proposals.
    fn outcome_of(decisions: &[(u64, &[u8])], churn: ChurnSpec) -> ScenarioOutcome {
        ScenarioOutcome {
            decisions: decisions
                .iter()
                .map(|&(id, value)| (ProcessId::new(id), Some(value.to_vec())))
                .collect(),
            statuses: decisions
                .iter()
                .map(|&(id, _)| (ProcessId::new(id), NodeStatus::Decided))
                .collect(),
            crash_views: BTreeMap::new(),
            recovery_views: BTreeMap::new(),
            final_views: BTreeMap::new(),
            detections: BTreeMap::new(),
            detection_times: BTreeMap::new(),
            decided_times: BTreeMap::new(),
            end_time: 100,
            stats: NetStats::default(),
            obs: None,
            allowed_values: [b"a".to_vec(), b"b".to_vec()].into(),
            churn,
        }
    }

    #[test]
    fn clean_outcome_passes() {
        let clean = outcome_of(&[(1, b"a"), (2, b"a")], ChurnSpec::default()).check();
        assert!(clean.consensus_solved(), "{clean:?}");
        assert!(clean.join_convergence && clean.recovery_consistency);
    }

    #[test]
    fn disagreement_is_flagged() {
        let split = outcome_of(&[(1, b"a"), (2, b"b")], ChurnSpec::default()).check();
        assert!(!split.agreement);
        assert!(split.validity && split.termination);
    }

    #[test]
    fn split_identification_is_flagged() {
        let mut outcome = outcome_of(&[(1, b"a"), (2, b"a"), (3, b"a")], ChurnSpec::default());
        let committee = |members: [u64; 3], g| Some(Committee::new(process_set(members), g));
        outcome.detections = [
            (ProcessId::new(1), committee([1, 2, 3], 1)),
            (ProcessId::new(2), None),
            (ProcessId::new(3), committee([1, 2, 3], 1)),
        ]
        .into();
        assert!(outcome.check().committee_agreement);
        // Different members, then the same members with a different `g`.
        for other in [committee([1, 2, 4], 1), committee([1, 2, 3], 0)] {
            outcome.detections.insert(ProcessId::new(2), other);
            let split = outcome.check();
            assert!(!split.committee_agreement, "{:?}", outcome.detections);
            assert!(
                split.consensus_solved(),
                "values alone still agree: {split:?}"
            );
        }
    }

    #[test]
    fn invalid_value_is_flagged() {
        let check = outcome_of(&[(1, b"zz"), (2, b"zz")], ChurnSpec::default()).check();
        assert!(!check.validity);
        assert!(check.agreement);
    }

    #[test]
    fn leaver_decision_counts_for_agreement() {
        // Process 9 decided, then departed: its value still counts.
        use cupft_adversary::ChurnEvent;
        let churn = ChurnSpec::new(vec![ChurnEvent::LeaveAt {
            tick: 50,
            node: ProcessId::new(9),
        }]);
        let check = outcome_of(&[(1, b"a"), (9, b"b")], churn).check();
        assert!(!check.agreement);
    }

    #[test]
    fn join_convergence_requires_reference_knowledge() {
        use cupft_adversary::ChurnEvent;
        let join = ChurnEvent::JoinAt {
            tick: 10,
            node: ProcessId::new(2),
            seed_peers: process_set([1]),
        };
        let with_views = |churn: &ChurnSpec, joiner: Option<&[u64]>| {
            let mut outcome = outcome_of(&[(1, b"a"), (2, b"a")], churn.clone());
            outcome
                .final_views
                .insert(ProcessId::new(1), process_set([1, 2, 3]));
            if let Some(view) = joiner {
                outcome
                    .final_views
                    .insert(ProcessId::new(2), process_set(view.iter().copied()));
            }
            outcome.check().join_convergence
        };
        let joined = ChurnSpec::new(vec![join.clone()]);
        assert!(with_views(&joined, Some(&[1, 2, 3])), "converged joiner");
        assert!(!with_views(&joined, Some(&[1, 2])), "missing PD 3");
        assert!(!with_views(&joined, None), "no final view");
        // A joiner that later departed is exempt.
        let left = ChurnSpec::new(vec![
            join,
            ChurnEvent::LeaveAt {
                tick: 20,
                node: ProcessId::new(2),
            },
        ]);
        assert!(with_views(&left, Some(&[1, 2])));
        assert!(with_views(&left, None));
    }

    #[test]
    fn byzantine_joiner_is_ignored() {
        // The scenario ignores a churn event naming a Byzantine process,
        // and so does the verdict: a silent 4 "joining" is no joiner.
        use cupft_adversary::ChurnEvent;
        let scenario = Scenario::new(fig1b().graph().clone(), ProtocolMode::KnownThreshold(1))
            .with_byzantine(4, ByzantineStrategy::Silent)
            .with_churn(ChurnSpec::new(vec![ChurnEvent::JoinAt {
                tick: 100,
                node: ProcessId::new(4),
                seed_peers: process_set([1]),
            }]));
        let check = run_scenario(&scenario).check();
        assert!(check.consensus_solved(), "{check:?}");
        assert!(check.join_convergence, "{check:?}");
    }

    #[test]
    fn no_stable_process_makes_the_reference_vacuous() {
        use cupft_adversary::ChurnEvent;
        let churn = ChurnSpec::new(vec![
            ChurnEvent::JoinAt {
                tick: 10,
                node: ProcessId::new(2),
                seed_peers: process_set([1]),
            },
            ChurnEvent::CrashRecoverAt {
                tick: 10,
                node: ProcessId::new(1),
                down_for: 5,
            },
        ]);
        let mut outcome = outcome_of(&[(1, b"a"), (2, b"a")], churn);
        outcome
            .final_views
            .insert(ProcessId::new(1), process_set([1, 2]));
        outcome
            .final_views
            .insert(ProcessId::new(2), process_set([]));
        assert!(outcome.check().join_convergence);
    }

    #[test]
    fn recovery_consistency_flags_view_regression() {
        use cupft_adversary::ChurnEvent;
        let churn = ChurnSpec::new(vec![ChurnEvent::CrashRecoverAt {
            tick: 20,
            node: ProcessId::new(1),
            down_for: 20,
        }]);
        let consistent = |restored: &[u64], last: &[u64]| {
            let mut outcome = outcome_of(&[(1, b"a")], churn.clone());
            let p1 = ProcessId::new(1);
            outcome.crash_views.insert(p1, (20, process_set([1, 2, 3])));
            let restored = process_set(restored.iter().copied());
            outcome.recovery_views.insert(p1, (40, restored));
            outcome
                .final_views
                .insert(p1, process_set(last.iter().copied()));
            outcome.check().recovery_consistency
        };
        assert!(consistent(&[1, 2, 3], &[1, 2, 3, 4]), "clean recovery");
        assert!(!consistent(&[1], &[1, 2, 3]), "restored view regressed");
        assert!(!consistent(&[1, 2, 3], &[1, 2]), "final view regressed");
        // A recoverer that never reached its crash is vacuously consistent.
        let never_crashed = outcome_of(&[(1, b"a")], churn.clone());
        assert!(never_crashed.check().recovery_consistency);
    }

    #[test]
    fn socket_runtime_matches_sim_decisions_on_fig1b() {
        let fig = fig1b();
        let scenario = Scenario::new(fig.graph().clone(), ProtocolMode::KnownThreshold(1))
            .with_byzantine(4, ByzantineStrategy::Silent)
            .with_threaded_wall_timeout(Duration::from_secs(30));
        let socket = scenario.run_on(RuntimeKind::Socket);
        assert!(socket.check().consensus_solved(), "{socket:?}");
        let sim = scenario.run_on(RuntimeKind::Sim);
        assert_eq!(
            socket.decisions, sim.decisions,
            "socket and sim must decide identically"
        );
    }

    #[test]
    fn deterministic_outcomes_by_seed() {
        let fig = fig1b();
        let s1 = Scenario::new(fig.graph().clone(), ProtocolMode::KnownThreshold(1))
            .with_byzantine(4, ByzantineStrategy::Silent)
            .with_seed(7);
        let s2 = Scenario::new(fig.graph().clone(), ProtocolMode::KnownThreshold(1))
            .with_byzantine(4, ByzantineStrategy::Silent)
            .with_seed(7);
        let o1 = run_scenario(&s1);
        let o2 = run_scenario(&s2);
        assert_eq!(o1.decisions, o2.decisions);
        assert_eq!(o1.end_time, o2.end_time);
        assert_eq!(o1.stats, o2.stats);
    }
}
