//! Deterministic counterexample shrinking.
//!
//! Given a failing input — a fault [`Assignment`] or a
//! [`ChurnSpec`](crate::ChurnSpec) schedule — [`shrink`] searches for a
//! *minimal* failing variant: it repeatedly tries the input's strictly
//! smaller [`Shrinkable::candidates`] — removals first (whole Byzantine
//! processes, whole churn events), then in-place simplifications — and
//! greedily keeps the first candidate the caller's oracle still judges
//! failing. Candidates are generated in a fixed order and every accepted
//! step strictly decreases [`Shrinkable::size`], so the search is
//! deterministic and terminates; re-running it on the same inputs yields
//! the same minimum and the same attempt count.
//!
//! The oracle is a plain closure (`&T -> bool`) so this module stays
//! independent of how executions are produced — callers wire it to
//! "re-run the scenario, ask `ScenarioOutcome::check`".

use cupft_graph::ProcessId;

use crate::spec::StrategySpec;

/// A fault assignment: which processes are Byzantine, and what each runs.
pub type Assignment = Vec<(ProcessId, StrategySpec)>;

/// An input [`shrink`] can minimize.
pub trait Shrinkable: Clone {
    /// What the input is called in the failing-input panic.
    const NOUN: &'static str;

    /// The size metric every candidate strictly decreases.
    fn size(&self) -> usize;

    /// The strictly smaller candidates, in the deterministic order the
    /// shrinker tries them.
    fn candidates(&self) -> Vec<Self>;
}

impl Shrinkable for Assignment {
    const NOUN: &'static str = "assignment";

    /// Strategy-tree nodes plus one per entry, so both "fewer faulty
    /// processes" and "simpler strategy" are progress.
    fn size(&self) -> usize {
        self.iter().map(|(_, s)| 1 + s.size()).sum()
    }

    /// Entry removals first (front to back), then per-entry spec
    /// simplifications.
    fn candidates(&self) -> Vec<Self> {
        let mut out = Vec::new();
        for i in 0..self.len() {
            let mut smaller = self.clone();
            smaller.remove(i);
            out.push(smaller);
        }
        for (i, (id, spec)) in self.iter().enumerate() {
            for simpler in spec.simplifications() {
                let mut rewritten = self.clone();
                rewritten[i] = (*id, simpler);
                out.push(rewritten);
            }
        }
        out
    }
}

/// Outcome of a shrink search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShrinkOutcome<T> {
    /// The minimal failing input found.
    pub minimal: T,
    /// Accepted rewrite steps (0 = the input was already minimal).
    pub steps: usize,
    /// Oracle invocations spent on candidates (excludes the initial
    /// confirmation run).
    pub attempts: usize,
}

impl<T> ShrinkOutcome<T> {
    /// Whether the search made the input strictly smaller.
    pub fn shrank(&self) -> bool {
        self.steps > 0
    }
}

/// Greedily minimizes a failing input under `still_fails`.
///
/// `still_fails` must be a deterministic predicate ("this input's
/// execution still violates the invariant of interest"); it is *not*
/// required to be monotone — the shrinker simply keeps the first smaller
/// candidate that still fails and restarts from it.
///
/// # Panics
///
/// Panics if `still_fails(&initial)` is `false`: shrinking a passing case
/// is a caller bug that would otherwise "minimize" to garbage silently.
pub fn shrink<T: Shrinkable>(
    initial: T,
    still_fails: &mut dyn FnMut(&T) -> bool,
) -> ShrinkOutcome<T> {
    assert!(
        still_fails(&initial),
        "shrink() requires a failing initial {}",
        T::NOUN
    );
    let mut current = initial;
    let mut steps = 0;
    let mut attempts = 0;
    loop {
        let mut improved = false;
        for candidate in current.candidates() {
            debug_assert!(candidate.size() < current.size());
            attempts += 1;
            if still_fails(&candidate) {
                current = candidate;
                steps += 1;
                improved = true;
                break;
            }
        }
        if !improved {
            return ShrinkOutcome {
                minimal: current,
                steps,
                attempts,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cupft_graph::process_set;

    fn p(n: u64) -> ProcessId {
        ProcessId::new(n)
    }

    fn composite() -> StrategySpec {
        StrategySpec::TargetSubset {
            targets: process_set([1]),
            inner: Box::new(StrategySpec::FakePd {
                claimed: process_set([1, 2]),
            }),
        }
    }

    #[test]
    fn size_metric_counts_entries_and_nodes() {
        let empty: Assignment = vec![];
        assert_eq!(empty.size(), 0);
        assert_eq!(vec![(p(4), StrategySpec::Silent)].size(), 2);
        assert_eq!(vec![(p(4), composite())].size(), 4);
    }

    #[test]
    fn candidates_are_strictly_smaller() {
        let a: Assignment = vec![(p(4), composite()), (p(5), StrategySpec::Silent)];
        let cs = a.candidates();
        assert!(!cs.is_empty());
        for c in &cs {
            assert!(c.size() < a.size());
        }
        // removals come first
        assert_eq!(cs[0], vec![(p(5), StrategySpec::Silent)]);
    }

    #[test]
    fn shrinks_to_single_silent_when_any_fault_fails() {
        // Oracle: fails whenever process 4 is faulty at all.
        let mut oracle = |a: &Assignment| a.iter().any(|(id, _)| *id == p(4));
        let outcome = shrink(
            vec![(p(4), composite()), (p(5), StrategySpec::Silent)],
            &mut oracle,
        );
        assert_eq!(outcome.minimal, vec![(p(4), StrategySpec::Silent)]);
        assert!(outcome.shrank());
        // already-minimal input returns unchanged with 0 steps
        let again = shrink(outcome.minimal.clone(), &mut oracle);
        assert_eq!(again.minimal, outcome.minimal);
        assert_eq!(again.steps, 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut oracle = |a: &Assignment| {
                // fails while process 4 runs any FakePd-containing strategy
                fn has_fake(s: &StrategySpec) -> bool {
                    match s {
                        StrategySpec::FakePd { .. } => true,
                        StrategySpec::DelayRelease { inner, .. }
                        | StrategySpec::TargetSubset { inner, .. } => has_fake(inner),
                        StrategySpec::FlipAfter { before, after, .. } => {
                            has_fake(before) || has_fake(after)
                        }
                        _ => false,
                    }
                }
                a.iter().any(|(id, s)| *id == p(4) && has_fake(s))
            };
            shrink(
                vec![
                    (
                        p(4),
                        StrategySpec::DelayRelease {
                            until: 100,
                            inner: Box::new(composite()),
                        },
                    ),
                    (p(7), StrategySpec::Silent),
                ],
                &mut oracle,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(
            a.minimal,
            vec![(
                p(4),
                StrategySpec::FakePd {
                    claimed: process_set([1, 2])
                }
            )]
        );
    }

    #[test]
    #[should_panic(expected = "failing initial assignment")]
    fn passing_input_panics() {
        let mut oracle = |_: &Assignment| false;
        shrink(vec![(p(4), StrategySpec::Silent)], &mut oracle);
    }
}
