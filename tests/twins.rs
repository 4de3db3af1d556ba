//! Twins (Bano et al., "Twins: BFT Systems Made Robust", arXiv
//! 2004.10617): a Byzantine process runs as two honest nodes under its one
//! key, each talking to one side of a split
//! (`ByzantineStrategy::Twins`). Conflicting PDs, proposals, votes and
//! learning answers all come from honest code, so enumerating the splits
//! searches the equivocations Algorithm 3 must survive.
//!
//! The tier-1 enumeration twins every committee member of Fig. 1b, Fig. 4a
//! and Fig. 4b against every nonempty proper split of the other members,
//! with the periphery on side B. One `#[ignore]`d release-mode test twins
//! every vertex against every split of all other vertices on seeds 0–3
//! (CI job `scale-parity`):
//! `cargo test --release --test twins -- --ignored --nocapture`.

mod sweep;

use bft_cupft::committee::Value;
use bft_cupft::core::{ByzantineStrategy, NodeStatus, ProtocolMode, RuntimeKind, Scenario};
use bft_cupft::graph::{fig1b, fig4a, fig4b, process_set, DiGraph, ProcessId, ProcessSet};
use sweep::fan_out;

/// The three witness graphs that solve consensus with one Byzantine
/// process, each with its mode and the committee it identifies.
fn figures() -> Vec<(&'static str, DiGraph, ProtocolMode, ProcessSet)> {
    vec![
        (
            "fig1b",
            fig1b().graph().clone(),
            ProtocolMode::KnownThreshold(1),
            process_set([1, 2, 3, 4]),
        ),
        (
            "fig4a",
            fig4a().graph().clone(),
            ProtocolMode::UnknownThreshold,
            process_set([1, 2, 3, 4, 5]),
        ),
        (
            "fig4b",
            fig4b().graph().clone(),
            ProtocolMode::UnknownThreshold,
            process_set([5, 6, 7, 8, 9]),
        ),
    ]
}

/// Every subset of `set`, in a fixed order (by bitmask).
fn subsets(set: &ProcessSet) -> Vec<ProcessSet> {
    let members: Vec<ProcessId> = set.iter().copied().collect();
    (0..1u32 << members.len())
        .map(|mask| {
            members
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &p)| p)
                .collect()
        })
        .collect()
}

/// The cell `name/twin<twin>/twins{side A}[pd{pd_b}]/s<seed>`: `graph`
/// under `mode` with process `twin` running as twins split at `side_a`,
/// twin B claiming `pd_b` if given.
fn cell(
    (name, graph, mode): (&str, &DiGraph, ProtocolMode),
    twin: ProcessId,
    side_a: ProcessSet,
    pd_b: Option<ProcessSet>,
    seed: u64,
) -> (String, Scenario) {
    let spec = ByzantineStrategy::Twins {
        side_a,
        value_b: Value::from_static(b"twin-b"),
        pd_b,
    };
    let label = format!("{name}/twin{}/{}/s{seed}", twin.raw(), spec.label());
    let scenario = Scenario::new(graph.clone(), mode)
        .with_byzantine(twin.raw(), spec)
        .with_seed(seed);
    (label, scenario)
}

/// Runs every cell and returns one line per cell that did not decide with
/// agreement, validity and one committee, naming the undecided processes.
fn failures(cells: &[(String, Scenario)]) -> Vec<String> {
    let outcomes = fan_out(cells, |(_, scenario)| scenario.run_on(RuntimeKind::Sim));
    cells
        .iter()
        .zip(outcomes)
        .filter_map(|((label, _), outcome)| {
            let check = outcome.check();
            if check.consensus_solved() && check.committee_agreement {
                return None;
            }
            let undecided: Vec<u64> = outcome
                .statuses
                .iter()
                .filter(|(_, s)| **s == NodeStatus::Undecided)
                .map(|(p, _)| p.raw())
                .collect();
            Some(format!(
                "{label}: undecided {undecided:?}, agreement {}, validity {}, \
                 committee agreement {}, decided {:?}",
                check.agreement,
                check.validity,
                check.committee_agreement,
                check
                    .decided_values
                    .iter()
                    .map(|v| String::from_utf8_lossy(v).into_owned())
                    .collect::<Vec<_>>(),
            ))
        })
        .collect()
}

fn assert_clean(what: &str, cells: &[(String, Scenario)]) {
    let failed = failures(cells);
    println!("{what}: {} runs, {} failed", cells.len(), failed.len());
    assert!(failed.is_empty(), "{what}:\n{}", failed.join("\n"));
}

/// ROADMAP item 16: on Fig. 1b under `KnownThreshold(1)`, twin A of
/// process 1 talks only to 2, twin B to 3, 4 and the learners. Twin B, 3
/// and 4 commit twin B's value; 2 prepared twin A's proposal, holds 2 of
/// the 3 commits it needs, and its learning backstop gets only 3's and
/// 4's answers. It must still decide.
#[test]
fn fig1b_twin_1_split_2_terminates() {
    let (name, graph, mode, _) = figures().swap_remove(0);
    let cells: Vec<(String, Scenario)> = (0..4)
        .map(|seed| {
            cell(
                (name, &graph, mode),
                ProcessId::new(1),
                process_set([2]),
                None,
                seed,
            )
        })
        .collect();
    assert_clean("fig1b twin 1 | {2}", &cells);
}

/// ROADMAP item 15(d): of two conflicting verified PDs from one author,
/// discovery keeps the first. Twin 1 of Fig. 4a shows its true PD to 4
/// and `pd_b = {5}` to everyone else; twin 9 of Fig. 4b its true PD to 6
/// and `{8}` to the rest. On these seeds every correct process decides and
/// all identify one committee. With `DiscoveryState::admit` keeping the
/// last record instead, all five cells still decide one value, but the
/// correct processes identify different committees.
#[test]
fn first_conflicting_pd_wins_keeps_one_committee() {
    // (figure, twin, the one member on side A, pd_b's one member, seeds)
    let witnesses = [
        ("fig4a", 1, 4, 5, [0, 2, 3].as_slice()),
        ("fig4b", 9, 6, 8, [0, 3].as_slice()),
    ];
    let mut cells = Vec::new();
    for (name, graph, mode, _) in figures() {
        for &(_, twin, peer, claim, seeds) in witnesses.iter().filter(|w| w.0 == name) {
            for &seed in seeds {
                cells.push(cell(
                    (name, &graph, mode),
                    ProcessId::new(twin),
                    process_set([peer]),
                    Some(process_set([claim])),
                    seed,
                ));
            }
        }
    }
    assert_clean("first conflicting PD wins", &cells);
}

/// Every committee member as the twin × every nonempty proper split of
/// the other members (the periphery on side B) × seed 0: 24 runs on
/// Fig. 1b and 70 each on Fig. 4a and Fig. 4b.
#[test]
fn every_committee_twin_and_split_decides() {
    let mut cells = Vec::new();
    for (name, graph, mode, committee) in figures() {
        for &twin in &committee {
            let mut others = committee.clone();
            others.remove(&twin);
            for side_a in subsets(&others) {
                if side_a.is_empty() || side_a == others {
                    continue;
                }
                cells.push(cell((name, &graph, mode), twin, side_a, None, 0));
            }
        }
    }
    assert_eq!(cells.len(), 164);
    assert_clean("committee twins", &cells);
}

/// Every vertex as the twin × every split of all the other vertices ×
/// seeds 0–3. A split and its mirror image are one split: the highest
/// other vertex stays on side B. 11 264 runs; too slow for a debug
/// `cargo test`, hence `#[ignore]`.
#[test]
#[ignore = "11 264 runs: run in release"]
fn every_vertex_twin_and_split_decides() {
    let mut cells = Vec::new();
    for (name, graph, mode, _) in figures() {
        for twin in graph.vertices() {
            let mut others: ProcessSet = graph.vertices().collect();
            others.remove(&twin);
            let last = *others.iter().next_back().expect("more than one vertex");
            others.remove(&last);
            for side_a in subsets(&others) {
                for seed in 0..4 {
                    cells.push(cell((name, &graph, mode), twin, side_a.clone(), None, seed));
                }
            }
        }
    }
    assert_eq!(cells.len(), 11_264);
    assert_clean("vertex twins", &cells);
}
