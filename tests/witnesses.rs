//! Every known violation as an executable row: a name, the scenario, its
//! seeds and horizon, the ROADMAP item that owns it, and the exact verdict
//! on each seed. A change that moves a verdict moves it on purpose and
//! names the row in CHANGES.md.
//!
//! The rows so far are the generated witness of ROADMAP item 4 (the
//! extended `G_di` of seed 3: a 3-member sink `{12, 62, 67}`, a 12-process
//! periphery, Byzantine process 10), whose process 10 answers every
//! `GETDECIDEDVAL` with a commit certificate for the fabricated value
//! `lie` that holds only its own commit, under both modes, plus the same
//! system with process 10 `Silent` as the control. Under unknown `f` some
//! correct processes identify all 16 processes at `g = 0` (a committee
//! that holds the liar), the rest `{10, 12, 62, 67}` at `g = 1`. Adopting
//! a decision takes a commit certificate of the receiver's own committee,
//! so `lie` is never decided, and neither committee's certificate decides
//! a holder of the other. On seed 1 the `g = 0` committee runs too few
//! replicas for its quorum of 9 and its holders stall; on seeds 2 and 3 it
//! reaches that quorum and commits `v5`, against the `g = 1` committee's
//! `v12`. That half is identification (item 4(a)), not learning.

mod sweep;

use std::collections::BTreeMap;

use bft_cupft::committee::Value;
use bft_cupft::core::{ByzantineStrategy, NodeStatus, ProtocolMode, RuntimeKind, Scenario};
use bft_cupft::graph::{process_set, GdiParams, Generator};
use bft_cupft::net::Time;
use sweep::fan_out;

/// What one run of a row ends with.
#[derive(Debug, PartialEq, Eq)]
struct Verdict {
    agreement: bool,
    termination: bool,
    committee_agreement: bool,
    /// Decided value → how many correct processes decided it.
    decided: BTreeMap<String, usize>,
    /// Correct processes that neither decided nor departed.
    undecided: usize,
    /// Committee shape `(|S|, g)` → how many correct processes hold it.
    committees: BTreeMap<(usize, usize), usize>,
}

/// A [`Verdict`] from its parts, in the field order.
fn verdict(
    (agreement, termination, committee_agreement): (bool, bool, bool),
    decided: &[(&str, usize)],
    undecided: usize,
    committees: &[((usize, usize), usize)],
) -> Verdict {
    Verdict {
        agreement,
        termination,
        committee_agreement,
        decided: decided.iter().map(|&(v, n)| (v.to_owned(), n)).collect(),
        undecided,
        committees: committees.iter().copied().collect(),
    }
}

/// One known violation (or its control) and its verdict per seed.
struct Row {
    name: &'static str,
    /// The ROADMAP item that owns the row.
    item: &'static str,
    scenario: Scenario,
    horizon: Time,
    verdicts: Vec<(u64, Verdict)>,
}

/// ROADMAP item 4's generated system with process 10 running `strategy`.
fn generated_witness(mode: ProtocolMode, strategy: ByzantineStrategy) -> Scenario {
    let params = GdiParams {
        sink_size: 3,
        non_sink_size: 12,
        byzantine_count: 1,
        periphery_depth: 1,
        extended: true,
        ..GdiParams::new(1)
    };
    let sys = Generator::from_seed(3)
        .generate(&params)
        .expect("the witness generates");
    assert_eq!(sys.byzantine, process_set([10]));
    Scenario::new(sys.graph, mode).with_byzantine(10, strategy)
}

fn rows() -> Vec<Row> {
    let lie = || ByzantineStrategy::LieDecidedVal {
        value: Value::from_static(b"lie"),
    };
    let split = |whole: usize, core: usize| [((4, 1), core), ((16, 0), whole)];
    let all_decide =
        |value: &'static str| verdict((true, true, true), &[(value, 15)], 0, &[((4, 1), 15)]);
    vec![
        Row {
            name: "generated-lie/unknown-f",
            item: "4",
            scenario: generated_witness(ProtocolMode::UnknownThreshold, lie()),
            horizon: 20_000,
            verdicts: vec![
                (
                    1,
                    verdict((true, false, false), &[("v12", 8)], 7, &split(7, 8)),
                ),
                (
                    2,
                    verdict(
                        (false, true, false),
                        &[("v12", 5), ("v5", 10)],
                        0,
                        &split(10, 5),
                    ),
                ),
                (
                    3,
                    verdict(
                        (false, true, false),
                        &[("v12", 4), ("v5", 11)],
                        0,
                        &split(11, 4),
                    ),
                ),
            ],
        },
        Row {
            name: "generated-lie/known-1",
            item: "4",
            scenario: generated_witness(ProtocolMode::KnownThreshold(1), lie()),
            horizon: 20_000,
            verdicts: vec![
                (
                    1,
                    verdict((true, false, true), &[("v12", 14)], 1, &[((4, 1), 14)]),
                ),
                (
                    2,
                    verdict((true, false, true), &[("v12", 14)], 1, &[((4, 1), 14)]),
                ),
                (3, all_decide("v12")),
            ],
        },
        Row {
            name: "generated-silent/unknown-f",
            item: "4",
            scenario: generated_witness(ProtocolMode::UnknownThreshold, ByzantineStrategy::Silent),
            horizon: 20_000,
            verdicts: (1..=3).map(|seed| (seed, all_decide("v12"))).collect(),
        },
        Row {
            name: "generated-silent/known-1",
            item: "4",
            scenario: generated_witness(ProtocolMode::KnownThreshold(1), ByzantineStrategy::Silent),
            horizon: 20_000,
            verdicts: (1..=3).map(|seed| (seed, all_decide("v12"))).collect(),
        },
    ]
}

fn observe(scenario: &Scenario) -> Verdict {
    let outcome = scenario.run_on(RuntimeKind::Sim);
    let check = outcome.check();
    let mut decided = BTreeMap::new();
    for value in outcome.decisions.values().flatten() {
        *decided
            .entry(String::from_utf8_lossy(value).into_owned())
            .or_default() += 1;
    }
    let mut committees = BTreeMap::new();
    for committee in outcome.detections.values().flatten() {
        *committees
            .entry((committee.len(), committee.fault_threshold()))
            .or_default() += 1;
    }
    Verdict {
        agreement: check.agreement,
        termination: check.termination,
        committee_agreement: check.committee_agreement,
        decided,
        undecided: outcome
            .statuses
            .values()
            .filter(|s| **s == NodeStatus::Undecided)
            .count(),
        committees,
    }
}

#[test]
fn every_witness_row_reproduces_its_verdicts() {
    let rows = rows();
    let cells: Vec<(String, Scenario, &Verdict)> = rows
        .iter()
        .flat_map(|row| {
            row.verdicts.iter().map(move |(seed, expected)| {
                let scenario = row
                    .scenario
                    .clone()
                    .with_seed(*seed)
                    .with_horizon(row.horizon);
                let label = format!("{} (item {}) seed {seed}", row.name, row.item);
                (label, scenario, expected)
            })
        })
        .collect();
    let observed = fan_out(&cells, |(_, scenario, _)| observe(scenario));
    let moved: Vec<String> = cells
        .iter()
        .zip(&observed)
        .filter(|((_, _, expected), observed)| expected != observed)
        .map(|((label, _, expected), observed)| {
            format!("{label}:\n  expected {expected:?}\n  observed {observed:?}")
        })
        .collect();
    assert!(moved.is_empty(), "verdicts moved:\n{}", moved.join("\n"));
}
