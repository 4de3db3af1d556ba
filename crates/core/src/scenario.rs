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

use cupft_adversary::{
    ChurnContext, ChurnSpec, ExecutionTrace, KnowledgeMoment, TamperSpec, TraceChecker, TraceEvent,
    TraceEventKind,
};
use cupft_committee::Value;
use cupft_detector::SystemSetup;
use cupft_graph::{DiGraph, ProcessId, ProcessSet};
use cupft_net::sim::Simulation;
use cupft_net::socket::{SocketConfig, SocketRuntime};
use cupft_net::threaded::{Board, ThreadedConfig, ThreadedRuntime};
use cupft_net::{DelayPolicy, NetStats, Runtime, SimConfig, Time, TraceKind};
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
    /// Run correct nodes with the full-`S_PD` baseline dissemination
    /// instead of delta gossip (see [`NodeConfig::full_gossip`]).
    pub full_gossip: bool,
    /// Wall-clock budget when run on the threaded substrate (default
    /// 60 s). Generous budgets are a scale knob, not a correctness one —
    /// the run still stops the moment every correct node has decided.
    pub threaded_wall_timeout: Option<Duration>,
    /// Attach an observability [`Recorder`] to the run (off by default).
    /// On the simulator the recorder runs in the **virtual** clock domain
    /// — two runs of the same scenario produce byte-identical
    /// [`ObsReport`]s — and on the threaded runtime in the wall domain (a
    /// profile, not a trace). Observation never changes protocol
    /// behavior: decisions, detections, and [`NetStats`] are identical
    /// with the flag on or off.
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
            full_gossip: false,
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
    /// it, and ROADMAP item 3(a) deletes it.
    pub fn with_router_shards(self, _shards: usize) -> Self {
        self
    }

    /// Switches structured-event observation on or off (see
    /// [`Scenario::observe`]).
    pub fn with_observe(mut self, observe: bool) -> Self {
        self.observe = observe;
        self
    }

    /// Selects the full-`S_PD` baseline dissemination for correct nodes
    /// (delta gossip is the default) — what the equivalence sweep and the
    /// payload benches compare against.
    pub fn with_full_gossip(mut self, full: bool) -> Self {
        self.full_gossip = full;
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

    /// A [`TraceChecker`] judging this scenario's correct set and allowed
    /// values (no termination bound; add one with
    /// [`TraceChecker::with_termination_bound`] — `sim.max_time` is the
    /// natural choice for simulator runs).
    pub fn trace_checker(&self) -> TraceChecker {
        TraceChecker::new(self.correct(), self.allowed_values())
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

    /// A [`TraceChecker`] armed with the weakened churn invariants
    /// (churn-agreement, join-convergence, recovery-consistency) for this
    /// scenario's churn schedule, judged against `outcome`.
    ///
    /// The join-convergence reference knowledge is the intersection of the
    /// final `S_received` views of the *stable* correct processes (no
    /// scheduled join, departure, or crash) — what every joiner alive past
    /// the fixpoint must also have pulled through gossip. With no stable
    /// process the reference is empty and the invariant is vacuous.
    pub fn churn_trace_checker(&self, outcome: &ScenarioOutcome) -> TraceChecker {
        let spec = self.churn.clone().unwrap_or_default();
        let joiners = spec.joiners();
        let leavers = spec.leavers();
        let recoverers = spec.recoverers();
        let mut reference: Option<ProcessSet> = None;
        for (id, view) in &outcome.final_views {
            if joiners.contains(id) || leavers.contains(id) || recoverers.contains(id) {
                continue;
            }
            reference = Some(match reference {
                None => view.clone(),
                Some(acc) => acc.iter().filter(|p| view.contains(p)).copied().collect(),
            });
        }
        self.trace_checker().with_churn(ChurnContext {
            joiners,
            leavers,
            recoverers,
            reference_knowledge: reference.unwrap_or_default(),
        })
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
    /// Sink/core sets identified by the correct processes.
    pub detections: BTreeMap<ProcessId, Option<ProcessSet>>,
    /// Identification times.
    pub detection_times: BTreeMap<ProcessId, Option<Time>>,
    /// Decision times.
    pub decided_times: BTreeMap<ProcessId, Option<Time>>,
    /// Simulated end time.
    pub end_time: Time,
    /// Network statistics.
    pub stats: NetStats,
    /// Observability snapshot, present iff [`Scenario::observe`] was on.
    /// Taken *after* the run's certificate-pool gauges are dumped, so it
    /// is a superset of the [`cupft_net::RuntimeReport`]'s own snapshot.
    pub obs: Option<ObsReport>,
    allowed_values: BTreeSet<Vec<u8>>,
}

/// Verdicts on the four consensus properties (Section II-B).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsensusCheck {
    /// No two correct processes decided differently.
    pub agreement: bool,
    /// Every correct process decided within the horizon.
    pub termination: bool,
    /// Every decided value was proposed by some process.
    pub validity: bool,
    /// The distinct values decided by correct processes.
    pub decided_values: BTreeSet<Vec<u8>>,
}

impl ConsensusCheck {
    /// All properties hold (Integrity holds by construction: nodes set
    /// their decision at most once).
    pub fn consensus_solved(&self) -> bool {
        self.agreement && self.termination && self.validity
    }
}

impl ScenarioOutcome {
    /// Evaluates the consensus properties over the recorded decisions.
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
            decided_values,
        }
    }

    /// The unique sink/core sets identified across correct processes.
    pub fn distinct_detections(&self) -> BTreeSet<ProcessSet> {
        self.detections.values().flatten().cloned().collect()
    }

    /// Latest decision time among deciders (simulated ticks).
    pub fn last_decision_time(&self) -> Option<Time> {
        self.decided_times.values().flatten().copied().max()
    }
}

/// Which execution substrate a scenario (or suite) runs on.
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
}

/// Registers the scenario's actors on `runtime`: correct processes as
/// [`Node`]s wired to `board` (scheduled leavers excepted), Byzantine
/// processes as the actors [`build_strategy`] compiles from their spec.
/// Returns the correct process set.
fn populate<R: Runtime<NodeMsg>>(
    scenario: &Scenario,
    setup: &SystemSetup,
    board: &Board<Vec<u8>>,
    recorder: Option<&Arc<Recorder>>,
    runtime: &mut R,
) -> ProcessSet {
    for v in scenario.graph.vertices() {
        if let Some(strategy) = scenario.byzantine.get(&v) {
            let key = setup.key_of(v).expect("registered");
            runtime.add_actor(build_strategy(
                strategy,
                key,
                setup.registry(),
                &setup.oracle().pd_of(v),
                scenario.discovery_period,
            ));
        } else {
            let churn = scenario.churn.as_ref();
            let join = churn.and_then(|c| c.join_of(v));
            let config = NodeConfig {
                mode: scenario.mode,
                discovery_period: scenario.discovery_period,
                replica: cupft_committee::ReplicaConfig {
                    timeout_base: scenario.view_timeout_base,
                },
                full_gossip: scenario.full_gossip,
                recorder: recorder.cloned(),
                join_at: join.map(|(tick, _)| tick),
                seed_peers: join.map(|(_, seeds)| seeds.clone()).unwrap_or_default(),
                leave_at: churn.and_then(|c| c.leave_of(v)),
                crash_recover: churn.and_then(|c| c.crash_recover_of(v)),
                broken_recovery: scenario.broken_recovery,
            };
            let mut node = Node::from_setup(setup, v, scenario.value_of(v), config)
                .expect("vertex registered");
            let is_leaver = churn.is_some_and(|c| c.leave_of(v).is_some());
            if !is_leaver {
                // A scheduled leaver does not report to the board: it may
                // decide before departing, but the run must not stop (or
                // keep waiting) on its account.
                node = node.with_board(board.clone());
            }
            runtime.add_actor(Box::new(node));
        }
    }
    scenario.correct()
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
        detections.insert(id, node.detection().map(|d| d.members()));
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
    }
}

/// Runs `scenario` on any [`Runtime`] until every correct process has
/// decided (observed through a shared decision [`Board`]) or the runtime's
/// bound — simulated horizon or wall timeout — is reached.
///
/// This is the runtime-agnostic core: [`run_scenario`] instantiates it
/// with the deterministic simulator, [`Scenario::run_on`] with either
/// substrate, and the [`crate::suite::ScenarioSuite`] batch engine fans it
/// across worker threads.
pub fn run_scenario_on<R: Runtime<NodeMsg>>(
    scenario: &Scenario,
    runtime: &mut R,
) -> ScenarioOutcome {
    let setup = SystemSetup::new(&scenario.graph);
    let board: Board<Vec<u8>> = Board::new();
    let recorder = scenario.observe.then(|| Arc::new(Recorder::new()));
    let correct = populate(scenario, &setup, &board, recorder.as_ref(), runtime);
    if let Some(spec) = &scenario.tamper {
        runtime.set_tamper(spec.build());
    }
    if let Some(rec) = &recorder {
        runtime.set_recorder(rec.clone());
    }
    // Scheduled leavers are not wired to the board (they may depart before
    // deciding), so the stop condition counts only the staying correct set.
    let leavers = scenario.leavers();
    let expected = correct.iter().filter(|v| !leavers.contains(v)).count();
    let report = runtime.run_until_stopped(&mut || board.len() >= expected);
    let obs = recorder.map(|rec| {
        // Dump the shared certificate pool's end-of-run state as gauges,
        // then snapshot — this snapshot supersedes the RuntimeReport's.
        let pool = setup.pool();
        rec.gauge_set("cert_pool_len", pool.len() as u64);
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
/// recording: every send and every delivery (the simulator's own trace,
/// sends marked when the scenario's tamper dropped them), and every
/// decision of a correct process, merged into one [`ExecutionTrace`].
///
/// The trace is a pure function of the scenario (including its seed):
/// recording the same scenario twice yields byte-identical traces — the
/// replay guarantee the invariant checker and the shrinker build on.
/// Simulator-only; fault *injection* itself runs on either substrate.
pub fn run_scenario_recorded(scenario: &Scenario) -> (ScenarioOutcome, ExecutionTrace) {
    let mut sim: Simulation<NodeMsg> = Simulation::new(scenario.sim.clone());
    sim.enable_trace();
    let outcome = run_scenario_on(scenario, &mut sim);

    let traffic: Vec<TraceEvent> = sim
        .trace()
        .iter()
        .map(|e| TraceEvent {
            time: e.time,
            kind: match e.kind {
                TraceKind::Sent { dropped } => TraceEventKind::Sent {
                    from: e.from,
                    to: e.to,
                    label: e.label,
                    dropped,
                },
                TraceKind::Delivered => TraceEventKind::Delivered {
                    from: e.from,
                    to: e.to,
                    label: e.label,
                },
            },
        })
        .collect();
    let mut decisions: Vec<(Time, ProcessId, Vec<u8>)> = outcome
        .decisions
        .iter()
        .filter_map(|(&id, decision)| {
            let value = decision.clone()?;
            let time = outcome.decided_times.get(&id).copied().flatten()?;
            Some((time, id, value))
        })
        .collect();
    decisions.sort();
    let decisions = decisions
        .into_iter()
        .map(|(time, process, value)| TraceEvent {
            time,
            kind: TraceEventKind::Decided { process, value },
        })
        .collect();
    let mut trace = ExecutionTrace::assemble(traffic, decisions);
    if scenario.churn.is_some() {
        // Knowledge samples feed the weakened churn invariants; they are
        // only merged for churn scenarios so churn-free trace fingerprints
        // stay exactly what they were before the churn axis existed.
        let mut samples = Vec::new();
        for (&id, (time, view)) in &outcome.crash_views {
            samples.push(TraceEvent {
                time: *time,
                kind: TraceEventKind::Knowledge {
                    process: id,
                    received: view.clone(),
                    moment: KnowledgeMoment::AtCrash,
                },
            });
        }
        for (&id, (time, view)) in &outcome.recovery_views {
            samples.push(TraceEvent {
                time: *time,
                kind: TraceEventKind::Knowledge {
                    process: id,
                    received: view.clone(),
                    moment: KnowledgeMoment::AtRecovery,
                },
            });
        }
        for (&id, view) in &outcome.final_views {
            samples.push(TraceEvent {
                time: outcome.end_time,
                kind: TraceEventKind::Knowledge {
                    process: id,
                    received: view.clone(),
                    moment: KnowledgeMoment::Final,
                },
            });
        }
        trace = trace.with_knowledge(samples);
    }
    (outcome, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cupft_graph::{fig1b, fig4a, fig4b, process_set};

    #[test]
    fn bft_cup_on_fig1b_with_silent_byzantine() {
        let fig = fig1b();
        let scenario = Scenario::new(fig.graph().clone(), ProtocolMode::KnownThreshold(1))
            .with_byzantine(4, ByzantineStrategy::Silent);
        let outcome = run_scenario(&scenario);
        let check = outcome.check();
        assert!(check.consensus_solved(), "{outcome:?}");
        // every correct process identified the paper's sink {1,2,3,4}
        assert_eq!(
            outcome.distinct_detections(),
            [process_set([1, 2, 3, 4])].into_iter().collect()
        );
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

    #[test]
    fn recorded_run_traces_and_passes_invariants() {
        let fig = fig1b();
        let scenario = Scenario::new(fig.graph().clone(), ProtocolMode::KnownThreshold(1))
            .with_byzantine(4, ByzantineStrategy::Silent)
            .with_seed(7);
        let (outcome, trace) = run_scenario_recorded(&scenario);
        assert!(outcome.check().consensus_solved());
        // the whole recorded execution is pinned
        assert_eq!(trace.len(), 1246);
        assert_eq!(trace.fingerprint(), 0xead3a9cd358202dd);
        // every correct decision shows up as a trace event
        assert_eq!(trace.decisions().count(), scenario.correct().len());
        // sends and deliveries were captured
        use cupft_adversary::TraceEventKind;
        assert!(trace
            .events
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::Sent { .. })));
        assert!(trace
            .events
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::Delivered { .. })));
        // the checker agrees with the outcome-level verdicts
        let violations = scenario
            .trace_checker()
            .with_termination_bound(scenario.sim.max_time)
            .check(&trace);
        assert!(violations.is_empty(), "{violations:?}");
        // record → replay is byte-identical
        let (_, replay) = run_scenario_recorded(&scenario);
        assert_eq!(trace.fingerprint(), replay.fingerprint());
        assert_eq!(trace, replay);
    }

    #[test]
    fn tamper_runs_on_scenario_and_is_recorded() {
        use cupft_adversary::{TamperSpec, TraceEventKind};
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
        let count = |pred: fn(&TraceEventKind) -> bool| {
            trace.events.iter().filter(|e| pred(&e.kind)).count() as u64
        };
        let dropped = count(|k| matches!(k, TraceEventKind::Sent { dropped: true, .. }));
        assert_eq!(dropped, outcome.stats.messages_dropped);
        let sent = count(|k| matches!(k, TraceEventKind::Sent { .. }));
        assert_eq!(sent, outcome.stats.messages_sent);
        let delivered = count(|k| matches!(k, TraceEventKind::Delivered { .. }));
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
        // Learner 8 joins late; learner 5 crash-recovers mid-run.
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
                    tick: 300,
                    node: ProcessId::new(5),
                    down_for: 200,
                },
            ]));
        let (outcome, trace) = run_scenario_recorded(&scenario);
        assert!(outcome.check().consensus_solved(), "{outcome:?}");
        // Knowledge samples rode into the trace (crash + recovery + finals).
        assert!(trace.knowledge().count() >= outcome.final_views.len());
        let violations = scenario.churn_trace_checker(&outcome).check(&trace);
        assert!(violations.is_empty(), "{violations:?}");
        // Same seed, same schedule → byte-identical trace.
        let (_, replay) = run_scenario_recorded(&scenario);
        assert_eq!(trace.fingerprint(), replay.fingerprint());
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
