//! The end-to-end catch the churn layer exists for:
//!
//! 1. a churn schedule is injected with the test-only `broken_recovery`
//!    flag set, so the crash-rejoin path restores a *fresh* discovery
//!    state instead of the snapshot — the recovered node silently loses
//!    its pre-crash knowledge;
//! 2. `ScenarioOutcome::check` flags it: `recovery_consistency` is false,
//!    because the recovery view no longer contains the crash view;
//! 3. [`shrink`] reduces the failing schedule — crash event plus
//!    decoy join and leave — to the minimal single-event reproducer, all
//!    deterministic under the fixed seed;
//! 4. the control run (same schedule, honest recovery) passes every
//!    verdict, so the flag is what the broken recovery causes.

use bft_cupft::adversary::{shrink, ChurnEvent, ChurnSpec, Shrinkable};
use bft_cupft::core::{run_scenario, run_scenario_recorded, ProtocolMode, Scenario};
use bft_cupft::graph::{fig1b, process_set, ProcessId};
use bft_cupft::net::DelayPolicy;

fn psync() -> DelayPolicy {
    DelayPolicy::PartialSynchrony {
        gst: 200,
        delta: 10,
        pre_gst_max: 120,
    }
}

/// The injected schedule: the real culprit (a crash-rejoin of learner 5,
/// late enough that 5 has gossiped knowledge worth losing, early enough
/// that it fires before the run's last decision) buried between two
/// decoys that perturb the run but cause no violation on their own.
fn initial_spec() -> ChurnSpec {
    ChurnSpec::new(vec![
        ChurnEvent::JoinAt {
            tick: 500,
            node: ProcessId::new(8),
            seed_peers: process_set([5, 6]),
        },
        ChurnEvent::CrashRecoverAt {
            tick: 150,
            node: ProcessId::new(5),
            down_for: 100,
        },
        ChurnEvent::LeaveAt {
            tick: 5,
            node: ProcessId::new(7),
        },
    ])
}

fn scenario_with(spec: &ChurnSpec, broken: bool) -> Scenario {
    Scenario::new(fig1b().graph().clone(), ProtocolMode::KnownThreshold(1))
        .with_seed(7)
        .with_policy(psync())
        .with_horizon(50_000)
        .with_churn(spec.clone())
        .with_broken_recovery(broken)
}

/// The shrink oracle: does this schedule, under broken recovery, break
/// recovery consistency?
fn violates_recovery(spec: &ChurnSpec) -> bool {
    !run_scenario(&scenario_with(spec, true))
        .check()
        .recovery_consistency
}

#[test]
fn inject_flag_shrink_churn_end_to_end() {
    let initial = initial_spec();

    // 1+2: the run shows the knowledge regression and check flags
    // recovery consistency — lost knowledge is a liveness wound, not a
    // safety one, so consensus still solves and agreement holds.
    let scenario = scenario_with(&initial, true);
    let (outcome, trace) = run_scenario_recorded(&scenario);
    let check = outcome.check();
    assert!(
        check.consensus_solved(),
        "broken recovery costs knowledge, not safety: {outcome:?}"
    );
    assert!(
        !check.recovery_consistency,
        "check must flag recovery consistency: {check:?}"
    );

    // 3: the shrinker strips both decoys and keeps the crash-rejoin —
    // the minimal reproducer is the single culprit event, unsimplified.
    let shrunk = shrink(initial.clone(), &mut violates_recovery);
    assert!(shrunk.shrank(), "decoys must be removable");
    assert!(shrunk.minimal.size() < initial.size());
    assert_eq!(
        shrunk.minimal,
        ChurnSpec::new(vec![ChurnEvent::CrashRecoverAt {
            tick: 150,
            node: ProcessId::new(5),
            down_for: 100,
        }]),
        "minimal reproducer is the bare crash-rejoin"
    );
    // The search order is pinned: both decoy removals, four attempts.
    assert_eq!((shrunk.steps, shrunk.attempts), (2, 4));
    assert!(violates_recovery(&shrunk.minimal));

    // determinism: the shrink and the recorded run replay identically
    let replay = shrink(initial, &mut violates_recovery);
    assert_eq!(replay, shrunk);
    let (replayed, trace_b) = run_scenario_recorded(&scenario);
    assert_eq!(trace, trace_b);
    assert_eq!(outcome.decisions, replayed.decisions);
    assert_eq!(outcome.decided_times, replayed.decided_times);
}

#[test]
fn honest_recovery_is_the_control() {
    // Same schedule, honest recovery: every verdict passes, so the
    // broken_recovery flag is precisely what check catches.
    let check = run_scenario(&scenario_with(&initial_spec(), false)).check();
    assert!(check.consensus_solved(), "{check:?}");
    assert!(
        check.join_convergence && check.recovery_consistency,
        "control must be clean: {check:?}"
    );
}
