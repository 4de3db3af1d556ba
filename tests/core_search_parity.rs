//! Pins the simulator executions that sit on top of the Sink/Core
//! candidate search: the `sim-core-unknown-f` benchmark instance shape
//! (extended `G_di`, n = 26, one silent Byzantine process, unknown fault
//! threshold) for three seeds, plus one ER-100 known-threshold instance
//! whose small early views go through the exhaustive subset fallback.
//!
//! The search is pure in the view, so any change to it that returns a
//! different candidate list, ranking, tie-break or decomposition moves a
//! detection time and with it every counter below. The detections and
//! decided values were recorded before the indexed-snapshot kernel
//! replaced the `BTreeMap`-graph one; a change to what the poll loops
//! send (`cupft_discovery::PollGate`) may move the time and traffic
//! counters but must leave the detections and decided values as they
//! are. A kernel change that is a pure speed-up leaves every pin exactly
//! as it is.
//!
//! `scripts/verify.sh --quick` fronts this test.

use std::collections::BTreeSet;

use bft_cupft::core::{ByzantineStrategy, ProtocolMode, RuntimeKind, Scenario, ScenarioOutcome};
use bft_cupft::graph::{GdiParams, Generator, GraphFamily, ProcessSet};

/// What one pinned execution must reproduce.
struct Pinned {
    end_time: u64,
    messages_sent: u64,
    payload_units: u64,
    decided: &'static [u8],
}

fn assert_pinned(label: &str, outcome: &ScenarioOutcome, expected: &ProcessSet, pin: &Pinned) {
    let check = outcome.check();
    assert!(check.consensus_solved(), "{label}: {check:?}");
    assert_eq!(
        outcome.distinct_detections(),
        BTreeSet::from([expected.clone()]),
        "{label}: detections"
    );
    assert_eq!(
        check.decided_values,
        BTreeSet::from([pin.decided.to_vec()]),
        "{label}: decided value"
    );
    assert_eq!(
        (
            outcome.end_time,
            outcome.stats.messages_sent,
            outcome.stats.payload_units
        ),
        (pin.end_time, pin.messages_sent, pin.payload_units),
        "{label}: (end_time, messages_sent, payload_units)"
    );
}

/// The benchmark's `sim-core-unknown-f` instance for `seed`.
fn core_unknown_f(seed: u64) -> (Scenario, ProcessSet) {
    let params = GdiParams {
        extended: true,
        sink_size: 5,
        non_sink_size: 20,
        byzantine_count: 1,
        ..GdiParams::new(2)
    };
    let sys = Generator::from_seed(seed)
        .generate(&params)
        .expect("extended G_di sample generates");
    let mut scenario = Scenario::new(sys.graph.clone(), ProtocolMode::UnknownThreshold)
        .with_seed(seed)
        .with_horizon(400_000);
    for b in &sys.byzantine {
        scenario = scenario.with_byzantine(b.raw(), ByzantineStrategy::Silent);
    }
    (scenario, sys.expected_detection())
}

#[test]
fn core_unknown_f_executions_are_pinned() {
    const PINS: [Pinned; 3] = [
        Pinned {
            end_time: 322,
            messages_sent: 2_821,
            payload_units: 3_501,
            decided: b"v39",
        },
        Pinned {
            end_time: 607,
            messages_sent: 2_944,
            payload_units: 2_939,
            decided: b"v34",
        },
        Pinned {
            end_time: 288,
            messages_sent: 3_169,
            payload_units: 4_079,
            decided: b"v10",
        },
    ];
    for (seed, pin) in (1u64..=3).zip(&PINS) {
        let (scenario, expected) = core_unknown_f(seed);
        let outcome = scenario.run_on(RuntimeKind::Sim);
        assert_pinned(&format!("seed {seed}"), &outcome, &expected, pin);
    }
}

#[test]
fn er100_known_threshold_execution_is_pinned() {
    let sample = GraphFamily::erdos_renyi(100, 1)
        .generate(1)
        .expect("ER-100 sample generates");
    let scenario = Scenario::new(sample.system.graph, ProtocolMode::KnownThreshold(1)).with_seed(1);
    let outcome = scenario.run_on(RuntimeKind::Sim);
    assert_pinned(
        "er100",
        &outcome,
        &sample.system.sink,
        &Pinned {
            end_time: 284,
            messages_sent: 14_063,
            payload_units: 195_533,
            decided: b"v1",
        },
    );
}
