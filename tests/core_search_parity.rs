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
//! Below the executions, two identification pins on generated systems
//! fix what the search answers on the omniscient view: one system whose
//! valid sink it misses, and a 192-system grid. Deleting any one of its
//! three mechanisms (cut splitting, peeling, the exhaustive fallback)
//! moves the grid.

use std::collections::BTreeSet;

use bft_cupft::core::{ByzantineStrategy, ProtocolMode, RuntimeKind, Scenario, ScenarioOutcome};
use bft_cupft::graph::{
    is_sink_gdi, max_threshold, process_set, GdiParams, Generator, GraphFamily, KnowledgeView,
    ProcessSet,
};

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

/// The identification gap on a generated system (ROADMAP items 4 and 22):
/// seed 3 of a 3-member sink with a 12-process periphery and one
/// Byzantine process. On the omniscient view the sink with the Byzantine
/// process 10 absorbed is a valid `g = 1` sink, yet the known-threshold
/// search finds nothing and the unknown-threshold search settles for the
/// whole system at `g = 0`. Item 4 will change these answers on purpose.
#[test]
fn generated_sink_the_candidate_search_misses_is_pinned() {
    let params = GdiParams {
        sink_size: 3,
        non_sink_size: 12,
        byzantine_count: 1,
        periphery_depth: 1,
        ..GdiParams::new(1)
    };
    let sys = Generator::from_seed(3)
        .generate(&params)
        .expect("the witness generates");
    let view = KnowledgeView::omniscient(&sys.graph);
    assert_eq!(sys.byzantine, process_set([10]));
    assert!(is_sink_gdi(&view, 1, &sys.sink, &sys.byzantine));
    let best = max_threshold(&view, &sys.sink).expect("the sink is a candidate");
    assert_eq!(
        (best.members(), best.threshold),
        (sys.expected_detection(), 1)
    );
    assert_eq!(ProtocolMode::KnownThreshold(1).identify(&view), None);
    let core = ProtocolMode::UnknownThreshold
        .identify(&view)
        .expect("the core search answers");
    assert_eq!(core.members(), sys.graph.vertices().collect::<ProcessSet>());
    assert_eq!((core.members().len(), core.threshold), (16, 0));
}

/// Which cells of a 192-system grid identify exactly
/// `expected_detection()` on the omniscient view, per mode: bit
/// `(non_sink_index * 2 + depth_index) * 6 + seed` of the mask for
/// `(f, extended)`. Deleting cut splitting, peeling or the exhaustive
/// fallback from the candidate search changes these masks, so this pins
/// the mechanisms no execution pin reaches.
#[test]
fn identification_grid_on_generated_systems_is_pinned() {
    const NON_SINK: [usize; 4] = [4, 8, 12, 20];
    const DEPTH: [usize; 2] = [1, 2];
    // (f, extended, KnownThreshold(f) mask, UnknownThreshold mask); the
    // unknown-threshold mode is pinned on the extended cells only.
    const PINS: [(usize, bool, u64, Option<u64>); 4] = [
        (1, false, 0xf755_d7ff_ffff, None),
        (1, true, 0xf75d_d77f_ffff, Some(0x7555_5575_d75d)),
        (2, false, 0x6d9e_697c_9fff, None),
        (2, true, 0x6dbe_fbed_9fff, Some(0x2492_4924_9249)),
    ];
    let (mut known_hits, mut unknown_hits) = (0, 0);
    for (f, extended, known_pin, unknown_pin) in PINS {
        let (mut known, mut unknown) = (0u64, 0u64);
        for (i, &non_sink_size) in NON_SINK.iter().enumerate() {
            for (j, &periphery_depth) in DEPTH.iter().enumerate() {
                for seed in 0..6u64 {
                    let params = GdiParams {
                        sink_size: 2 * f + 1 + (seed % 3) as usize,
                        non_sink_size,
                        byzantine_count: f.min((seed % (f as u64 + 1)) as usize),
                        periphery_depth,
                        extended,
                        ..GdiParams::new(f)
                    };
                    let sys = Generator::from_seed(seed)
                        .generate(&params)
                        .unwrap_or_else(|e| panic!("{params:?} seed {seed}: {e}"));
                    let view = KnowledgeView::omniscient(&sys.graph);
                    let expected = Some(sys.expected_detection());
                    let hits =
                        |mode: ProtocolMode| mode.identify(&view).map(|c| c.members()) == expected;
                    let bit = 1u64 << ((i * 2 + j) * 6 + seed as usize);
                    if hits(ProtocolMode::KnownThreshold(f)) {
                        known |= bit;
                    }
                    if extended && hits(ProtocolMode::UnknownThreshold) {
                        unknown |= bit;
                    }
                }
            }
        }
        assert_eq!(known, known_pin, "KnownThreshold({f}), extended {extended}");
        known_hits += known.count_ones();
        if let Some(pin) = unknown_pin {
            assert_eq!(unknown, pin, "UnknownThreshold, f {f}");
            unknown_hits += unknown.count_ones();
        }
    }
    assert_eq!((known_hits, unknown_hits), (153, 45));
}
