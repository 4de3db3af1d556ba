//! Cross-crate integration: the paper's impossibility results, reproduced
//! as concrete failing executions.

use bft_cupft::core::{
    run_scenario, run_scenario_recorded, ByzantineStrategy, ProtocolMode, Scenario,
};
use bft_cupft::graph::{fig1a, fig2a, fig2b, fig2c, fig3a, fig3b, process_set};
use bft_cupft::net::{DelayPolicy, TraceEntry, TraceKind};

const NAIVE: ProtocolMode = ProtocolMode::NaiveGuess;

/// Fig. 1a: the graph violates Theorem 1's (necessary) conditions; with
/// the bridge silent, the components decide independently.
#[test]
fn fig1a_components_split() {
    let scenario = Scenario::new(fig1a().graph().clone(), ProtocolMode::KnownThreshold(1))
        .with_byzantine(4, ByzantineStrategy::Silent)
        .with_horizon(50_000);
    let outcome = run_scenario(&scenario);
    let check = outcome.check();
    assert!(!check.consensus_solved());
    assert!(!check.agreement, "both components decide: {check:?}");
    assert!(
        !check.committee_agreement,
        "each on its own sink: {check:?}"
    );
}

/// Theorem 7: systems A and B decide their own values; the merged system
/// AB with slow cross-links decides both — Agreement violated.
#[test]
fn theorem7_indistinguishability_violates_agreement() {
    // A alone decides v.
    let a = Scenario::new(fig2a().graph().clone(), NAIVE)
        .with_byzantine(4, ByzantineStrategy::Silent)
        .with_value(1, b"v")
        .with_value(2, b"v")
        .with_value(3, b"v");
    let oa = run_scenario(&a);
    assert!(oa.check().consensus_solved(), "{:?}", oa.check());
    assert_eq!(
        oa.check().decided_values.iter().next().map(Vec::as_slice),
        Some(&b"v"[..])
    );

    // B alone decides u.
    let b = Scenario::new(fig2b().graph().clone(), NAIVE)
        .with_byzantine(5, ByzantineStrategy::Silent)
        .with_value(6, b"u")
        .with_value(7, b"u")
        .with_value(8, b"u");
    let ob = run_scenario(&b);
    assert!(ob.check().consensus_solved());

    // AB with delayed cross-links decides both.
    let cross = (oa
        .last_decision_time()
        .unwrap()
        .max(ob.last_decision_time().unwrap())
        + 1)
        * 10;
    let mut ab = Scenario::new(fig2c().graph().clone(), NAIVE)
        .with_policy(DelayPolicy::Partitioned {
            delta: 10,
            groups: vec![process_set([1, 2, 3, 4]), process_set([5, 6, 7, 8])],
            cross_delay: cross,
        })
        .with_horizon(cross * 4);
    for p in 1..=4u64 {
        ab = ab.with_value(p, b"v");
    }
    for p in 5..=8u64 {
        ab = ab.with_value(p, b"u");
    }
    let oab = run_scenario(&ab);
    let check = oab.check();
    assert!(!check.agreement, "Agreement must be violated: {check:?}");
    assert!(!check.committee_agreement, "{check:?}");
    assert_eq!(check.decided_values.len(), 2);
    // The two camps adopted exactly the two sinks of the construction.
    let detections = oab.distinct_detections();
    assert!(detections.contains(&process_set([1, 2, 3, 4])));
    assert!(detections.contains(&process_set([5, 6, 7, 8])));
}

/// Fig. 3a: the false sink {1,…,7} (with 1 acting correct and {5,7,8}
/// slow) decides independently of the true sink {5,7,8}.
#[test]
fn fig3a_false_sink_splits_decision() {
    let mut scenario = Scenario::new(fig3a().graph().clone(), NAIVE)
        .with_policy(DelayPolicy::Partitioned {
            delta: 10,
            groups: vec![process_set([1, 2, 3, 4, 6]), process_set([5, 7, 8])],
            cross_delay: 50_000,
        })
        .with_horizon(200_000);
    for p in [1u64, 2, 3, 4, 6] {
        scenario = scenario.with_value(p, b"x");
    }
    for p in [5u64, 7, 8] {
        scenario = scenario.with_value(p, b"y");
    }
    let outcome = run_scenario(&scenario);
    let check = outcome.check();
    assert!(!check.agreement, "{check:?}");
    assert!(!check.committee_agreement, "false and true sink: {check:?}");
}

/// Fig. 3b, the other half of the pair: {2,3,4,6} see the same local
/// view as on Fig. 3a, but here 5 and 7 really are Byzantine (silent).
/// The naive guesser behaves exactly as on Fig. 3a, and here that
/// behaviour solves consensus: no f-unknown protocol can tell the two
/// graphs apart.
#[test]
fn fig3b_same_local_view_solves_consensus() {
    let mut scenario = Scenario::new(fig3b().graph().clone(), NAIVE)
        .with_byzantine(5, ByzantineStrategy::Silent)
        .with_byzantine(7, ByzantineStrategy::Silent);
    for p in [1u64, 2, 3, 4, 6] {
        scenario = scenario.with_value(p, b"x");
    }
    let outcome = run_scenario(&scenario);
    let check = outcome.check();
    assert!(check.consensus_solved(), "{check:?}");
    assert!(check.committee_agreement, "{check:?}");
}

/// Theorem 7 binds EVERY f-unknown protocol — including the Core
/// algorithm itself. On Fig. 2c (which fails the extended requirements:
/// two sinks of equal connectivity) the Core algorithm splits exactly like
/// the naive guesser. The repair is the *graph family* (Definition 2), not
/// cleverness in the algorithm; on valid extended graphs (Figs. 4a/4b and
/// the generated family) the consensus_properties tests show no split.
#[test]
fn core_algorithm_also_splits_on_fig2c_as_theorem7_demands() {
    let cross = 20_000;
    let mut scenario = Scenario::new(fig2c().graph().clone(), ProtocolMode::UnknownThreshold)
        .with_policy(DelayPolicy::Partitioned {
            delta: 10,
            groups: vec![process_set([1, 2, 3, 4]), process_set([5, 6, 7, 8])],
            cross_delay: cross,
        })
        .with_horizon(cross * 3);
    for p in 1..=4u64 {
        scenario = scenario.with_value(p, b"v");
    }
    for p in 5..=8u64 {
        scenario = scenario.with_value(p, b"u");
    }
    let outcome = run_scenario(&scenario);
    let check = outcome.check();
    assert!(
        !check.agreement,
        "Theorem 7 applies to the Core algorithm too: {check:?}"
    );
    assert!(!check.committee_agreement, "{check:?}");
    assert_eq!(check.decided_values.len(), 2);
}

/// The full strength of Theorem 7's argument: the executions of processes
/// {1,2,3} in system A (process 4 silent from the start) and in system AB
/// (everyone correct, non-{1,2,3} messages delayed) are *identical event
/// for event* up to the decision point — literally indistinguishable, not
/// merely same-outcome. A process silent from tick 0 is the proof's crash
/// fault: it sends nothing and is not counted as correct.
#[test]
fn theorem7_traces_are_event_identical() {
    let inner = process_set([1, 2, 3]);
    // System A: 4 is silent from time 0 (the proof's crash fault).
    // The delay schedule must match AB's within {1,2,3}: use the same
    // Partitioned policy, under which intra-{1,2,3} delay is the constant
    // delta in both systems.
    let mut a = Scenario::new(fig2a().graph().clone(), NAIVE)
        .with_byzantine(4, ByzantineStrategy::Silent)
        .with_policy(DelayPolicy::Partitioned {
            delta: 10,
            groups: vec![inner.clone()],
            cross_delay: 50_000,
        })
        .with_horizon(40_000);
    for p in 1..=3u64 {
        a = a.with_value(p, b"v");
    }
    let (oa, trace_a) = run_scenario_recorded(&a);
    assert!(oa.check().consensus_solved(), "{:?}", oa.check());
    let decision_a = oa.last_decision_time().unwrap();

    // System AB: all 8 correct; only {1,2,3} and {5,6,7,8} are fast
    // groups; 4's messages (and all cross traffic) are delayed beyond the
    // decision points.
    let mut ab = Scenario::new(fig2c().graph().clone(), NAIVE)
        .with_policy(DelayPolicy::Partitioned {
            delta: 10,
            groups: vec![inner.clone(), process_set([5, 6, 7, 8])],
            cross_delay: 50_000,
        })
        .with_horizon(40_000);
    for p in 1..=4u64 {
        ab = ab.with_value(p, b"v");
    }
    for p in 5..=8u64 {
        ab = ab.with_value(p, b"u");
    }
    let (oab, trace_ab) = run_scenario_recorded(&ab);
    // Agreement is violated in AB…
    assert!(!oab.check().agreement, "{:?}", oab.check());

    // …and the executions of {1,2,3} are event-identical up to A's
    // decision time: same deliveries, same senders, same times, same
    // message kinds.
    let filter = |trace: &[TraceEntry]| -> Vec<(u64, u64, u64, &'static str)> {
        trace
            .iter()
            .filter(|e| {
                e.kind == TraceKind::Delivered && e.time <= decision_a && inner.contains(&e.to)
            })
            .map(|e| (e.time, e.from.raw(), e.to.raw(), e.label))
            .collect()
    };
    let a_events = filter(&trace_a);
    let ab_events = filter(&trace_ab);
    assert!(!a_events.is_empty());
    assert_eq!(
        a_events, ab_events,
        "{{1,2,3}} must be unable to distinguish A from AB"
    );
    // and the decisions of {1,2,3} match across the two systems
    for p_raw in 1..=3u64 {
        let p = bft_cupft::graph::ProcessId::new(p_raw);
        assert_eq!(oa.decisions[&p], oab.decisions[&p], "process {p_raw}");
    }
}
