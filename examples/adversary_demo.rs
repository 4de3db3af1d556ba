//! The fault-injection engine end to end: compose a Byzantine strategy
//! from combinators, record an execution, judge it with
//! `ScenarioOutcome::check`, and — when a violation appears on an
//! insufficiently connected graph — shrink the failing case to its
//! minimal form.
//!
//! ```sh
//! cargo run --example adversary_demo
//! ```

use bft_cupft::adversary::{shrink, Assignment, Shrinkable};
use bft_cupft::core::{
    run_scenario, run_scenario_recorded, ByzantineStrategy, ProtocolMode, Scenario, TamperSpec,
};
use bft_cupft::graph::{fig1a, fig1b, process_set, ProcessId};

fn composite() -> ByzantineStrategy {
    ByzantineStrategy::FlipAfter {
        at: 400,
        before: Box::new(ByzantineStrategy::DelayRelease {
            until: 200,
            inner: Box::new(ByzantineStrategy::FakePd {
                claimed: process_set([1, 2, 3]),
            }),
        }),
        after: Box::new(ByzantineStrategy::Silent),
    }
}

fn main() {
    // 1. A sufficient graph (Fig. 1b is 2-OSR) tolerates the composite
    //    strategy — and a reorder tamper on top.
    let spec = composite();
    println!("composite strategy: {}", spec.label());
    let tolerant = Scenario::new(fig1b().graph().clone(), ProtocolMode::KnownThreshold(1))
        .with_byzantine(4, spec.clone())
        .with_tamper(TamperSpec::ReorderWindow {
            window: 30,
            seed: 1,
        })
        .with_seed(7);
    let (outcome, trace) = run_scenario_recorded(&tolerant);
    let check = outcome.check();
    println!(
        "fig1b: solved={} | {} sends and deliveries, {} decisions",
        check.consensus_solved(),
        trace.len(),
        outcome.decisions.values().flatten().count(),
    );
    assert!(check.consensus_solved(), "{check:?}");
    // Recording is deterministic: a replay yields the same trace and
    // the same decisions at the same times.
    let (replayed, replay) = run_scenario_recorded(&tolerant);
    assert_eq!(trace, replay);
    assert_eq!(outcome.decisions, replayed.decisions);
    assert_eq!(outcome.decided_times, replayed.decided_times);

    // 2. The same strategy on Fig. 1a (requirements violated): the two
    //    components decide independently and check flags Agreement.
    let initial: Assignment = vec![(ProcessId::new(4), spec)];
    let scenario_for = |assignment: &Assignment| {
        let mut s = Scenario::new(fig1a().graph().clone(), ProtocolMode::KnownThreshold(1))
            .with_seed(7)
            .with_horizon(50_000);
        for (id, spec) in assignment {
            s = s.with_byzantine(id.raw(), spec.clone());
        }
        s
    };
    let check = run_scenario(&scenario_for(&initial)).check();
    println!(
        "fig1a: agreement={} | decided values {:?}",
        check.agreement,
        check
            .decided_values
            .iter()
            .map(|v| String::from_utf8_lossy(v).into_owned())
            .collect::<Vec<_>>(),
    );
    assert!(!check.agreement);

    // 3. Shrink, keeping process 4 faulty: which part of the composite
    //    actually matters? (None of it — bare silence already fails.)
    let mut oracle = |assignment: &Assignment| {
        if assignment.is_empty() {
            return false;
        }
        !run_scenario(&scenario_for(assignment)).check().agreement
    };
    let shrunk = shrink(initial.clone(), &mut oracle);
    println!(
        "shrunk size {} -> {} in {} steps ({} candidate runs): {}",
        initial.size(),
        shrunk.minimal.size(),
        shrunk.steps,
        shrunk.attempts,
        shrunk
            .minimal
            .iter()
            .map(|(id, s)| format!("{}@{}", s.label(), id.raw()))
            .collect::<Vec<_>>()
            .join(", "),
    );
    assert_eq!(
        shrunk.minimal,
        vec![(ProcessId::new(4), ByzantineStrategy::Silent)]
    );
    println!("adversary_demo: ok");
}
