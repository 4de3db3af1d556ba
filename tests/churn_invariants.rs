//! The churn axis acceptance sweep: join / leave / crash-rejoin schedules
//! on all five graph families, on both runtimes, judged by
//! `ScenarioOutcome::check`: agreement over every process that ever
//! decided, plus its two churn verdicts, join convergence and recovery
//! consistency, and one identified committee (`committee_agreement`).
//!
//! Three claims:
//!
//! 1. **Family sweep** — every family solves consensus under a schedule
//!    that joins one periphery vertex late, crash-recovers another, and
//!    departs a third, and both churn verdicts hold (the recovery events
//!    demonstrably fire: the outcome carries crash and recovery
//!    knowledge samples).
//! 2. **Substrate parity** — the same schedules on the threaded runtime
//!    reach the simulator's decided value (churn executes at the actor
//!    level, so both substrates honor a spec identically by construction).
//! 3. **Determinism at scale** — a seeded join + crash-rejoin schedule on
//!    k-diamond at n ≥ 100 produces byte-identical decisions *and*
//!    [`ObsReport`]s across two same-seed observed sim runs.

use bft_cupft::adversary::{ChurnEvent, ChurnSpec};
use bft_cupft::core::{
    run_scenario, NodeStatus, ProtocolMode, RuntimeKind, Scenario, ScenarioOutcome,
};
use bft_cupft::graph::{process_set, GraphFamily, ProcessId};
use bft_cupft::net::DelayPolicy;
use bft_cupft::obs::ObsReport;

fn psync() -> DelayPolicy {
    DelayPolicy::PartialSynchrony {
        gst: 200,
        delta: 10,
        pre_gst_max: 120,
    }
}

/// All five topology families (the four family-sweep parameterizations
/// plus scale-free, which `tests/trajectory_pins.rs` solves at n=100).
fn five_families() -> Vec<GraphFamily> {
    vec![
        GraphFamily::erdos_renyi(16, 1),
        GraphFamily::RingOfCliques {
            cliques: 3,
            clique_size: 4,
            bridges: 3,
            fault_threshold: 1,
        },
        GraphFamily::k_diamond(16, 1),
        GraphFamily::scale_free(16, 1),
        GraphFamily::BridgedPartition {
            a_size: 8,
            sink_size: 3,
            bridge_width: 3,
            fault_threshold: 1,
        },
    ]
}

/// The three churned vertices of a family sample, as
/// `(joiner, recoverer, leaver)`: the highest non-sink IDs (periphery
/// under the families' core-first layout) when the sample has any, the
/// highest IDs outright when strong connectivity qualified the *whole*
/// graph as sink (dense Erdős–Rényi, ring-of-cliques).
fn churn_victims(sample: &bft_cupft::graph::FamilySample) -> (u64, u64, u64) {
    let mut candidates: Vec<u64> = sample
        .system
        .graph
        .vertices()
        .filter(|v| !sample.system.sink.contains(v))
        .map(|v| v.raw())
        .collect();
    if candidates.len() < 3 {
        candidates = sample.system.graph.vertices().map(|v| v.raw()).collect();
    }
    candidates.sort_unstable();
    assert!(candidates.len() >= 3, "need ≥3 vertices to churn");
    let leaver = candidates.pop().unwrap();
    let recoverer = candidates.pop().unwrap();
    let joiner = candidates.pop().unwrap();
    (joiner, recoverer, leaver)
}

/// The sweep schedule: crash early enough that it always fires (the run
/// must at least outlive the join tick), join mid-discovery, depart
/// immediately — but only when the departure is structurally survivable.
///
/// The early leave needs an expendable vertex: a sink-member leaver would
/// stack a second permanent silence on top of the crash-recoverer (who
/// rejoins passively, never resuming its replica seat) and blow the
/// `f = 1` committee budget; scale-free does not promise one-vertex
/// resilience even on its periphery. In those cases the leave is
/// scheduled far past any plausible decision time and stays inert.
fn sweep_schedule(sample: &bft_cupft::graph::FamilySample) -> ChurnSpec {
    let (joiner, recoverer, leaver) = churn_victims(sample);
    let scale_free = matches!(sample.family, GraphFamily::ScaleFree { .. });
    let leave_early = !scale_free && !sample.system.sink.contains(&ProcessId::new(leaver));
    ChurnSpec::new(vec![
        ChurnEvent::LeaveAt {
            tick: if leave_early { 5 } else { 300_000 },
            node: ProcessId::new(leaver),
        },
        ChurnEvent::CrashRecoverAt {
            tick: 150,
            node: ProcessId::new(recoverer),
            down_for: 300,
        },
        ChurnEvent::JoinAt {
            tick: 250,
            node: ProcessId::new(joiner),
            seed_peers: process_set([1]),
        },
    ])
}

fn sweep_scenario(family: &GraphFamily, size: usize) -> (Scenario, ChurnSpec) {
    let scaled = family.scaled(size);
    let sample = scaled
        .generate(11)
        .unwrap_or_else(|e| panic!("{}: {e}", scaled.label()));
    let spec = sweep_schedule(&sample);
    let scenario = Scenario::new(sample.system.graph, ProtocolMode::KnownThreshold(1))
        .with_seed(7)
        .with_policy(psync())
        .with_horizon(400_000)
        .with_churn(spec.clone());
    (scenario, spec)
}

/// A sim churn cell: consensus solved, both churn verdicts hold, and
/// every scheduled event visibly fired.
fn assert_churn_cell_green(family: &GraphFamily, spec: &ChurnSpec, outcome: &ScenarioOutcome) {
    let name = family.name();
    let check = outcome.check();
    assert!(
        check.consensus_solved(),
        "{name}: churn cell must solve consensus: {outcome:?}"
    );
    assert!(
        check.join_convergence && check.recovery_consistency,
        "{name}: churn verdicts must hold: {check:?}"
    );
    assert!(
        check.committee_agreement,
        "{name}: every correct process must identify one committee: {check:?}"
    );
    let recoverer = *spec.recoverers().iter().next().expect("one recoverer");
    assert!(
        outcome.crash_views.contains_key(&recoverer),
        "{name}: the crash must actually fire"
    );
    assert!(
        outcome.recovery_views.contains_key(&recoverer),
        "{name}: the recovery must actually fire"
    );
    let joiner = *spec.joiners().iter().next().expect("one joiner");
    assert_eq!(
        outcome.statuses[&joiner],
        NodeStatus::Decided,
        "{name}: the late joiner must still decide"
    );
    let leaver = *spec.leavers().iter().next().expect("one leaver");
    let leaver_scheduled_early = spec.events_of(leaver)[0].tick() < 1_000;
    if leaver_scheduled_early {
        assert_eq!(
            outcome.statuses[&leaver],
            NodeStatus::Departed,
            "{name}: an immediate leaver departs before deciding"
        );
        assert!(
            outcome.decisions[&leaver].is_none(),
            "{name}: a departed process has no decision"
        );
    }
}

#[test]
fn five_families_churn_solves_and_passes_weakened_invariants() {
    for family in five_families() {
        let (scenario, spec) = sweep_scenario(&family, 12);
        assert_churn_cell_green(&family, &spec, &run_scenario(&scenario));
    }
}

#[test]
fn five_families_churn_matches_sim_decisions_on_threads() {
    for family in five_families() {
        let (scenario, spec) = sweep_scenario(&family, 10);
        let sim = run_scenario(&scenario);
        assert_churn_cell_green(&family, &spec, &sim);
        let sim_value: Vec<u8> = sim
            .check()
            .decided_values
            .into_iter()
            .next()
            .expect("sim cell decided");

        // Tick knobs read as milliseconds on the threaded substrate (same
        // retuning as tests/family_sweep.rs); the churn schedule reads the
        // same way, so crash (150 ms) < join (250 ms) < recovery (450 ms)
        // keeps its shape.
        let mut threaded = scenario.clone();
        threaded.discovery_period = 200;
        threaded.view_timeout_base = 4_000;
        let outcome = threaded.run_on(RuntimeKind::Threaded);
        assert!(
            outcome.check().consensus_solved(),
            "{}: threaded churn cell must solve: {outcome:?}",
            family.name()
        );
        for (id, decision) in &outcome.decisions {
            if let Some(value) = decision {
                assert_eq!(
                    value,
                    &sim_value,
                    "{}: threaded decider {id} must reach the sim's value",
                    family.name()
                );
            }
        }
    }
}

/// The PR's acceptance criterion: a seeded churn scenario (join +
/// crash-rejoin) on k-diamond at n ≥ 100 produces byte-identical
/// decisions and [`ObsReport`]s across two same-seed observed sim runs.
#[test]
fn churn_at_scale_is_byte_deterministic() {
    let scaled = GraphFamily::k_diamond(100, 1);
    let sample = scaled.generate(100).expect("valid parameterization");
    assert!(sample.system.graph.vertex_count() >= 100);
    let (joiner, recoverer, _) = churn_victims(&sample);
    let scenario = Scenario::new(sample.system.graph, ProtocolMode::KnownThreshold(1))
        .with_seed(9)
        .with_policy(psync())
        .with_horizon(2_000_000)
        .with_observe(true)
        .with_churn(ChurnSpec::new(vec![
            ChurnEvent::JoinAt {
                tick: 400,
                node: ProcessId::new(joiner),
                seed_peers: process_set([1]),
            },
            ChurnEvent::CrashRecoverAt {
                tick: 200,
                node: ProcessId::new(recoverer),
                down_for: 400,
            },
        ]));

    let observed = |scenario: &Scenario| -> (ScenarioOutcome, ObsReport) {
        let mut outcome = scenario.run_on(RuntimeKind::Sim);
        let obs = outcome.obs.take().expect("observed run carries a report");
        (outcome, obs)
    };
    let (outcome_a, obs_a) = observed(&scenario);
    let (outcome_b, obs_b) = observed(&scenario);
    let check = outcome_a.check();
    assert!(check.consensus_solved(), "churn-at-scale cell must solve");
    assert!(
        check.join_convergence && check.recovery_consistency,
        "churn-at-scale verdicts must hold: {check:?}"
    );
    assert_eq!(outcome_a.decisions, outcome_b.decisions);
    assert_eq!(outcome_a.statuses, outcome_b.statuses);
    assert_eq!(outcome_a.crash_views, outcome_b.crash_views);
    assert_eq!(outcome_a.recovery_views, outcome_b.recovery_views);
    assert_eq!(outcome_a.end_time, outcome_b.end_time);
    assert_eq!(obs_a, obs_b, "same seed + schedule → equal ObsReports");
    // The churn events are visible in the report's counters.
    assert_eq!(obs_a.counter("churn_joins"), 1);
    assert_eq!(obs_a.counter("churn_crashes"), 1);
    assert_eq!(obs_a.counter("churn_recoveries"), 1);
    // The crash + recovery really happened on both runs.
    assert!(outcome_a
        .crash_views
        .contains_key(&ProcessId::new(recoverer)));
    assert!(outcome_a
        .recovery_views
        .contains_key(&ProcessId::new(recoverer)));
}
