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
//!
//! Three more groups, all in the simulator at horizon 20 000:
//!
//! * item 25: `fig4a` under unknown `f` with process 1 running Twins whose
//!   twin B signs a second PD `{5}`. Processes 2–4 identify `{1..5}`
//!   (`g = 2`), the rest `{1..9}` (`g = 1`); on seeds 2 and 3 the two
//!   committees decide `v1` and `twin-b`;
//! * item 1's stall classes under unknown `f`: fabricated IDs in a core
//!   member's PD (`fig4a` member 4, `fig4b` member 5) and a silent `fig4a`
//!   member 4. No correct process identifies a committee;
//! * item 12: `fig1b` under `KnownThreshold(1)` with process 4 silent and
//!   one crash-recovery of member 1, 2 or 3. 32 of the 36 runs decide
//!   nothing.

mod sweep;

use std::collections::BTreeMap;

use bft_cupft::adversary::{ChurnEvent, ChurnSpec};
use bft_cupft::committee::Value;
use bft_cupft::core::{ByzantineStrategy, NodeStatus, ProtocolMode, RuntimeKind, Scenario};
use bft_cupft::graph::{
    fig1b, fig4a, fig4b, process_set, FigureGraph, GdiParams, Generator, ProcessId,
};
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
    name: String,
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

/// A paper figure with Byzantine process `byzantine` running `strategy`.
fn figure(
    fig: FigureGraph,
    mode: ProtocolMode,
    byzantine: u64,
    strategy: ByzantineStrategy,
) -> Scenario {
    Scenario::new(fig.graph().clone(), mode).with_byzantine(byzantine, strategy)
}

/// `FakePd` claiming `claimed`; item 1's rows mix three made-up IDs into
/// real ones.
fn fake_pd(claimed: impl IntoIterator<Item = u64>) -> ByzantineStrategy {
    ByzantineStrategy::FakePd {
        claimed: process_set(claimed),
    }
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
            name: "generated-lie/unknown-f".into(),
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
            name: "generated-lie/known-1".into(),
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
            name: "generated-silent/unknown-f".into(),
            item: "4",
            scenario: generated_witness(ProtocolMode::UnknownThreshold, ByzantineStrategy::Silent),
            horizon: 20_000,
            verdicts: (1..=3).map(|seed| (seed, all_decide("v12"))).collect(),
        },
        Row {
            name: "generated-silent/known-1".into(),
            item: "4",
            scenario: generated_witness(ProtocolMode::KnownThreshold(1), ByzantineStrategy::Silent),
            horizon: 20_000,
            verdicts: (1..=3).map(|seed| (seed, all_decide("v12"))).collect(),
        },
        Row {
            name: "fig4a-twins-pd/unknown-f".into(),
            item: "25",
            scenario: figure(
                fig4a(),
                ProtocolMode::UnknownThreshold,
                1,
                ByzantineStrategy::Twins {
                    side_a: process_set([2, 3, 4]),
                    value_b: Value::from_static(b"twin-b"),
                    pd_b: Some(process_set([5])),
                },
            ),
            horizon: 20_000,
            verdicts: vec![
                (
                    0,
                    verdict(
                        (true, false, false),
                        &[("v1", 4)],
                        4,
                        &[((5, 2), 4), ((9, 1), 4)],
                    ),
                ),
                (
                    1,
                    verdict(
                        (true, false, false),
                        &[("twin-b", 7)],
                        1,
                        &[((5, 2), 1), ((9, 1), 7)],
                    ),
                ),
                (2, twins_split()),
                (3, twins_split()),
            ],
        },
        stall_row(
            "fig4a-fakepd4/unknown-f",
            figure(
                fig4a(),
                ProtocolMode::UnknownThreshold,
                4,
                fake_pd([1, 2, 3, 1000, 1001, 1002]),
            ),
        ),
        stall_row(
            "fig4b-fakepd5/unknown-f",
            figure(
                fig4b(),
                ProtocolMode::UnknownThreshold,
                5,
                fake_pd([6, 7, 8, 9, 1000, 1001, 1002]),
            ),
        ),
        stall_row(
            "fig4a-silent4/unknown-f",
            figure(
                fig4a(),
                ProtocolMode::UnknownThreshold,
                4,
                ByzantineStrategy::Silent,
            ),
        ),
    ]
    .into_iter()
    .chain(crash_recover_rows())
    .collect()
}

/// Item 25 on seeds 2 and 3: processes 2–4 identify `{1..5}` at `g = 2`
/// and decide `v1`, processes 5–9 identify `{1..9}` at `g = 1` and decide
/// `twin-b`.
fn twins_split() -> Verdict {
    verdict(
        (false, true, false),
        &[("twin-b", 5), ("v1", 3)],
        0,
        &[((5, 2), 3), ((9, 1), 5)],
    )
}

/// One of item 1's stall classes on seeds 0–3: no correct process
/// identifies a committee, so none of the 8 decides.
fn stall_row(name: &str, scenario: Scenario) -> Row {
    Row {
        name: name.into(),
        item: "1",
        scenario,
        horizon: 20_000,
        verdicts: (0..=3)
            .map(|seed| (seed, verdict((true, false, true), &[], 8, &[])))
            .collect(),
    }
}

/// Item 12: `fig1b` under `KnownThreshold(1)` with process 4 `Silent`
/// leaves exactly the three correct members 1–3 to run the committee, so
/// one crash-recovery of any of them (down 30 ticks) mostly stalls all 7
/// correct processes. The runs that decide are pinned by `(node, tick,
/// seed)`.
fn crash_recover_rows() -> Vec<Row> {
    let decides = [(1, 250, 1), (1, 250, 2), (2, 250, 1), (3, 250, 1)];
    let stalled = || verdict((true, false, true), &[], 7, &[((4, 1), 7)]);
    let decided = || verdict((true, true, true), &[("v1", 7)], 0, &[((4, 1), 7)]);
    let mut rows = Vec::new();
    for node in 1..=3u64 {
        for tick in [100, 150, 200, 250] {
            let churn = ChurnSpec::new(vec![ChurnEvent::CrashRecoverAt {
                tick,
                node: ProcessId::new(node),
                down_for: 30,
            }]);
            rows.push(Row {
                name: format!("fig1b-silent4-crash{node}@{tick}/known-1"),
                item: "12",
                scenario: figure(
                    fig1b(),
                    ProtocolMode::KnownThreshold(1),
                    4,
                    ByzantineStrategy::Silent,
                )
                .with_churn(churn),
                horizon: 20_000,
                verdicts: (0..=2)
                    .map(|seed| {
                        let expected = if decides.contains(&(node, tick, seed)) {
                            decided()
                        } else {
                            stalled()
                        };
                        (seed, expected)
                    })
                    .collect(),
            });
        }
    }
    rows
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
