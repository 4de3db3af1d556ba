//! Acceptance tests for the observability layer (`cupft_obs`).
//!
//! Three claims:
//!
//! 1. **Trace determinism** — an observed simulator run is on the virtual
//!    clock, so two runs of the same `Scenario` + seed produce equal
//!    [`ObsReport`]s (all-`BTreeMap`, `Eq`; the property that lets
//!    `tests/trajectory_pins.rs` pin phase marks as constants). Checked
//!    at n≥100.
//! 2. **Observer effect: none** — enabling `observe` changes nothing the
//!    protocol can see: decisions, decided times, detections, end time,
//!    and `NetStats` are identical observe-on vs observe-off on the
//!    simulator, and decisions/detections match on the threaded runtime.
//! 3. **Coverage** — the observed run carries all five phase marks for
//!    every deciding node, the shared certificate pool's accounting (at
//!    most one HMAC per distinct certificate, system-wide), and the
//!    event-loop tick profile.

use bft_cupft::core::{ByzantineStrategy, ProtocolMode, RuntimeKind, Scenario, ScenarioOutcome};
use bft_cupft::graph::{fig1b, GraphFamily};
use bft_cupft::obs::{ObsReport, PhaseMark};

/// A planted-committee family at the acceptance scale (n ≥ 100).
fn scale_scenario() -> Scenario {
    let graph = GraphFamily::k_diamond(100, 1)
        .generate(100)
        .expect("valid family parameterization")
        .system
        .graph;
    assert!(graph.vertex_count() >= 100);
    Scenario::new(graph, ProtocolMode::KnownThreshold(1)).with_seed(9)
}

/// A small scenario with a Byzantine process, for the cheaper parity runs.
fn small_scenario() -> Scenario {
    Scenario::new(fig1b().graph().clone(), ProtocolMode::KnownThreshold(1))
        .with_byzantine(4, ByzantineStrategy::Silent)
        .with_seed(3)
}

fn observed_sim(scenario: &Scenario) -> (ScenarioOutcome, ObsReport) {
    let mut outcome = scenario.clone().with_observe(true).run_on(RuntimeKind::Sim);
    let obs = outcome
        .obs
        .take()
        .expect("observed run must carry a report");
    (outcome, obs)
}

#[test]
fn observed_sim_runs_are_byte_deterministic_at_scale() {
    let scenario = scale_scenario();
    let (outcome_a, obs_a) = observed_sim(&scenario);
    let (outcome_b, obs_b) = observed_sim(&scenario);
    assert!(outcome_a.check().consensus_solved(), "cell must solve");
    assert_eq!(outcome_a.decisions, outcome_b.decisions);
    assert_eq!(obs_a, obs_b, "same scenario + seed must give equal reports");
    assert_eq!(
        obs_a.clock_domain.name(),
        "virtual",
        "sim obs must be virtual-clock (wall time would break byte-identity)"
    );

    // Coverage: all five phase marks for every deciding node...
    let deciders = outcome_a.decisions.values().filter(|d| d.is_some()).count();
    assert!(deciders > 0);
    assert_eq!(
        obs_a.complete_timelines(),
        deciders,
        "every deciding node must carry first-gossip → … → decided"
    );
    for mark in PhaseMark::all() {
        assert!(
            obs_a.phase_max(mark).is_some(),
            "phase {} must be marked by someone",
            mark.name()
        );
    }
    // ...the shared certificate pool: every node verifies through it, so
    // each distinct certificate costs at most one HMAC system-wide (exact
    // on the single-threaded simulator, where no two checks can race)...
    let misses = obs_a.gauges["cert_memo_misses"];
    assert!(
        0 < misses && misses <= obs_a.gauges["cert_pool_len"],
        "memo misses {misses} vs pool {}",
        obs_a.gauges["cert_pool_len"]
    );
    // The pool's accounting on this exact run, pinned: any change to who
    // probes the memo, or how often, moves one of these.
    let pool_gauges = [
        "cert_memo_hits",
        "cert_memo_misses",
        "cert_pool_len",
        "cert_forged_records",
    ]
    .map(|g| obs_a.gauges[g]);
    assert_eq!(pool_gauges, [383, 83, 103, 0]);
    // ...and the event-loop tick profile.
    let per_tick = obs_a
        .histogram("sim_events_per_tick")
        .expect("event-loop profile");
    assert_eq!(per_tick.count(), obs_a.counter("sim_ticks"));
    assert!(obs_a.histogram("sim_queue_depth").is_some());
    assert!(obs_a.counter("discovery_ticks") > 0);
}

#[test]
fn sim_outcome_is_identical_observe_on_and_off() {
    for scenario in [small_scenario(), scale_scenario()] {
        let plain = scenario.clone().run_on(RuntimeKind::Sim);
        let (observed, _) = observed_sim(&scenario);
        assert!(plain.obs.is_none(), "observe defaults to off");
        assert_eq!(plain.decisions, observed.decisions);
        assert_eq!(plain.decided_times, observed.decided_times);
        assert_eq!(plain.end_time, observed.end_time);
        assert_eq!(plain.stats, observed.stats, "NetStats must not move");
        assert_eq!(
            plain.distinct_detections(),
            observed.distinct_detections(),
            "identified sink/core sets must not move"
        );
    }
}

#[test]
fn threaded_outcome_is_unaffected_by_observation() {
    // Tick knobs read as milliseconds on the threaded substrate.
    let mut scenario = small_scenario();
    scenario.discovery_period = 10;
    scenario.view_timeout_base = 2_000;
    let plain = scenario.clone().run_on(RuntimeKind::Threaded);
    let mut observed = scenario
        .clone()
        .with_observe(true)
        .run_on(RuntimeKind::Threaded);
    let obs = observed.obs.take().expect("observed threaded run reports");
    assert!(plain.check().consensus_solved());
    assert_eq!(plain.decisions, observed.decisions);
    assert_eq!(plain.distinct_detections(), observed.distinct_detections());
    // The threaded report is a wall-clock profile (not a deterministic
    // trace): assert shape, not values.
    assert_eq!(obs.clock_domain.name(), "wall");
    assert_eq!(
        obs.complete_timelines(),
        observed.decisions.values().filter(|d| d.is_some()).count()
    );
    assert!(obs.histogram("wheel_depth").is_some());
    assert!(obs.counters.contains_key("mailbox_deferrals"));
    // Verification runs inside the actors' handlers: no stage metric.
    let names = obs
        .counters
        .keys()
        .chain(obs.gauges.keys())
        .chain(obs.histograms.keys());
    for name in names {
        assert!(
            !name.starts_with("stage_") && !name.starts_with("verify_"),
            "unexpected metric {name}"
        );
    }
}
