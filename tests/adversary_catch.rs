//! The end-to-end catch the fault-injection engine exists for:
//!
//! 1. a composite strategy is injected on an *insufficiently connected*
//!    graph (Fig. 1a, which fails 2-OSR once process 4 withholds its
//!    edges) and the execution violates **Agreement**;
//! 2. the invariant checker flags the violation from the *recorded
//!    trace* (not from re-inspecting actors);
//! 3. the shrinker reduces the failing (scenario, seed, strategy) triple
//!    to a strictly smaller variant that still violates the same
//!    invariant — all deterministic under the fixed seed;
//! 4. injection of the same spec works on the threaded substrate too
//!    (trace/shrink stay sim-only, per the determinism contract).

use bft_cupft::adversary::{shrink, Assignment, Invariant, Shrinkable};
use bft_cupft::core::{
    run_scenario_recorded, ByzantineStrategy, ProtocolMode, RuntimeKind, Scenario,
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
    let scenario = scenario_with(assignment);
    let (_, trace) = run_scenario_recorded(&scenario);
    scenario
        .trace_checker()
        .check(&trace)
        .iter()
        .any(|v| v.invariant == Invariant::Agreement)
}

#[test]
fn inject_flag_shrink_end_to_end() {
    let initial: Assignment = vec![(ProcessId::new(4), initial_spec())];

    // 1+2: the recorded trace exhibits the Agreement violation and the
    // checker flags it.
    let scenario = scenario_with(&initial);
    let (outcome, trace) = run_scenario_recorded(&scenario);
    assert!(!outcome.check().agreement, "outcome-level cross-check");
    let violations = scenario.trace_checker().check(&trace);
    assert!(
        violations
            .iter()
            .any(|v| v.invariant == Invariant::Agreement),
        "checker must flag Agreement from the trace: {violations:?}"
    );
    // both components decided, so no (bounded) termination violation
    assert!(violations
        .iter()
        .all(|v| v.invariant == Invariant::Agreement));

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
    assert_eq!((constrained.steps, constrained.attempts), (2, 5));
    assert!(constrained.minimal.size() < initial.size());

    // determinism: the whole record→check→shrink loop replays identically
    let replay = shrink(initial, &mut violates_agreement);
    assert_eq!(replay, outcome);
    let (_, trace_b) = run_scenario_recorded(&scenario);
    assert_eq!(trace.fingerprint(), trace_b.fingerprint());
    assert_eq!(trace, trace_b);
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
