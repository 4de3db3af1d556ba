//! The end-to-end catch the fault-injection engine exists for:
//!
//! 1. a composite strategy is injected on an *insufficiently connected*
//!    graph (Fig. 1a, which fails 2-OSR once process 4 withholds its
//!    edges) and the execution violates **Agreement**;
//! 2. `ScenarioOutcome::check` flags the violation;
//! 3. the shrinker reduces the failing (scenario, seed, strategy) triple
//!    to a strictly smaller variant that still violates the same
//!    property — all deterministic under the fixed seed;
//! 4. injection of the same spec works on the threaded substrate too
//!    (shrinking stays sim-only, per the determinism contract).

use bft_cupft::adversary::{shrink, Assignment, Shrinkable};
use bft_cupft::core::{
    run_scenario, run_scenario_recorded, ByzantineStrategy, ProtocolMode, RuntimeKind, Scenario,
};
use bft_cupft::graph::{fig1a, process_set, ProcessId};

/// The initial composite strategy: a target-subset wrapper (empty target
/// set — nothing escapes) around a fake-PD leaf. Size 3; effectively
/// silences process 4, disconnecting {1,2,3} from {5,6,7,8}.
fn initial_spec() -> ByzantineStrategy {
    ByzantineStrategy::TargetSubset {
        targets: process_set([]),
        inner: Box::new(ByzantineStrategy::FakePd {
            claimed: process_set([1, 2, 3]),
        }),
    }
}

fn scenario_with(assignment: &Assignment) -> Scenario {
    let mut scenario = Scenario::new(fig1a().graph().clone(), ProtocolMode::KnownThreshold(1))
        .with_seed(7)
        .with_horizon(50_000);
    for (id, spec) in assignment {
        scenario = scenario.with_byzantine(id.raw(), spec.clone());
    }
    scenario
}

fn violates_agreement(assignment: &Assignment) -> bool {
    !run_scenario(&scenario_with(assignment)).check().agreement
}

#[test]
fn inject_flag_shrink_end_to_end() {
    let initial: Assignment = vec![(ProcessId::new(4), initial_spec())];

    // 1+2: the run violates Agreement, and only Agreement.
    let scenario = scenario_with(&initial);
    let (recorded, trace) = run_scenario_recorded(&scenario);
    let check = recorded.check();
    assert!(!check.agreement, "check must flag Agreement: {check:?}");
    // both components decided a proposed value within the horizon
    assert!(check.termination && check.validity, "{check:?}");

    // 3a: the unconstrained shrink discovers the *graph* is the culprit —
    // Fig. 1a violates agreement even with every process correct (the
    // requirement failure is structural, exactly the paper's point), so
    // the minimal failing variant is the empty fault assignment.
    let outcome = shrink(initial.clone(), &mut violates_agreement);
    assert!(outcome.shrank(), "a strictly smaller variant exists");
    assert!(outcome.minimal.size() < initial.size());
    assert!(violates_agreement(&outcome.minimal));
    assert_eq!(outcome.minimal, vec![], "the graph alone already fails");
    // The search order is pinned: one accepted step after one attempt.
    assert_eq!((outcome.steps, outcome.attempts), (1, 1));

    // 3b: constrained to "process 4 stays faulty" (the experimenter's
    // question: which part of the composite strategy matters?), the
    // shrinker prunes both combinator layers down to bare Silent.
    let mut faulty_and_violating = |a: &Assignment| !a.is_empty() && violates_agreement(a);
    let constrained = shrink(initial.clone(), &mut faulty_and_violating);
    assert_eq!(
        constrained.minimal,
        vec![(ProcessId::new(4), ByzantineStrategy::Silent)]
    );
    // Pinned search order: the first candidate, bare `FakePd`, no longer
    // splits the decision on this seed (processes 5, 7 and 8 learn
    // {1, 2, 3} through 4's fabricated PD before they identify, so every
    // process decides v1), so the shrinker goes through the
    // `TargetSubset`-wrapped `Silent` instead.
    assert_eq!((constrained.steps, constrained.attempts), (2, 6));
    assert!(constrained.minimal.size() < initial.size());

    // determinism: the shrink and the recorded run replay identically
    let replay = shrink(initial, &mut violates_agreement);
    assert_eq!(replay, outcome);
    let (replayed, trace_b) = run_scenario_recorded(&scenario);
    assert_eq!(trace, trace_b);
    assert_eq!(recorded.decisions, replayed.decisions);
    assert_eq!(recorded.decided_times, replayed.decided_times);
}

#[test]
fn the_violation_also_reproduces_threaded() {
    // Injection (not tracing) on the OS-thread substrate: the same spec
    // breaks agreement there too — the result is not a simulator artifact.
    let scenario = scenario_with(&vec![(ProcessId::new(4), initial_spec())]);
    let outcome = scenario.run_on(RuntimeKind::Threaded);
    let check = outcome.check();
    assert!(!check.agreement, "{:?}", outcome.decisions);
    // each component decides *some* proposed value: validity holds
    assert!(check.validity);
}
