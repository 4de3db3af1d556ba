//! Post-hoc consensus-invariant checking over execution traces.
//!
//! The paper's four properties (§II-B) rephrased as trace predicates:
//!
//! * **Agreement** — no two correct processes decide differently;
//! * **Validity** — every decided value was proposed by some process (or
//!   legitimately injected by an equivocating leader);
//! * **Integrity** — no correct process decides twice;
//! * **Termination-by-bound** — every correct process decides within the
//!   experiment's bound (the checkable shadow of Termination: a finite
//!   trace cannot certify "eventually", only "by the horizon").
//!
//! The checker is pure: it never re-runs anything, it reads the
//! [`ExecutionTrace`] a recorder produced. That separation is what lets
//! the shrinker re-judge candidate executions cheaply and deterministically.
//!
//! Under churn the paper's properties are quantified over a set that no
//! longer exists ("all correct processes" — some left, some arrived
//! mid-run), so a [`ChurnContext`] attaches *weakened* variants: churn
//! agreement over every process that ever decided, join convergence for
//! late joiners, and recovery consistency for crash-rejoiners. The
//! static-universe checks keep running unchanged alongside them.

use std::collections::{BTreeMap, BTreeSet};

use cupft_graph::{ProcessId, ProcessSet};
use cupft_net::Time;

use crate::trace::{ExecutionTrace, KnowledgeMoment};

/// A consensus property checkable over a finite trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// No two correct processes decided different values.
    Agreement,
    /// Every decided value is in the allowed set.
    Validity,
    /// No correct process decided more than once.
    Integrity,
    /// Every correct process decided at a time `<=` the bound.
    TerminationBy(Time),
    /// Weakened agreement under churn: any two processes that *ever*
    /// decided — including ones that departed afterwards — decided the
    /// same value. (Plain [`Invariant::Agreement`] quantifies over the
    /// static correct set; this variant quantifies over deciders.)
    ChurnAgreement,
    /// Every late joiner still present at the end of the run converged to
    /// (at least) the reference `S_PD` knowledge the stable members share.
    JoinConvergence,
    /// A crash-rejoining node never regresses its knowledge view across
    /// the recovery — its restored and final `S_received` contain
    /// everything it had received before the crash — and never
    /// contradicts a decision it made before crashing.
    RecoveryConsistency,
}

/// One invariant broken by a trace, with human-readable evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The broken invariant.
    pub invariant: Invariant,
    /// What the trace shows.
    pub detail: String,
}

/// What a churn-aware check needs to know about the schedule that ran:
/// who joined, who left, who crash-recovered, and what knowledge the
/// stable membership converged to.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChurnContext {
    /// Nodes that joined late.
    pub joiners: ProcessSet,
    /// Nodes that departed silently (exempt from convergence demands).
    pub leavers: ProcessSet,
    /// Nodes that crashed and rejoined.
    pub recoverers: ProcessSet,
    /// The `S_received` knowledge the stable members share — the fixpoint
    /// joiners must reach. Runners typically compute it as the
    /// intersection of the stable members' final knowledge samples.
    pub reference_knowledge: ProcessSet,
}

/// Checks a trace against the §II-B properties for a given correct set.
#[derive(Debug, Clone)]
pub struct TraceChecker {
    correct: ProcessSet,
    allowed: BTreeSet<Vec<u8>>,
    termination_bound: Option<Time>,
    churn: Option<ChurnContext>,
}

impl TraceChecker {
    /// A checker for the given correct processes and allowed value set.
    /// Termination is unchecked until a bound is set.
    pub fn new(correct: ProcessSet, allowed: BTreeSet<Vec<u8>>) -> Self {
        TraceChecker {
            correct,
            allowed,
            termination_bound: None,
            churn: None,
        }
    }

    /// Also require every correct process to decide by `bound`.
    pub fn with_termination_bound(mut self, bound: Time) -> Self {
        self.termination_bound = Some(bound);
        self
    }

    /// Also check the weakened churn invariants against `context`
    /// (churn-agreement, join-convergence, recovery-consistency).
    pub fn with_churn(mut self, context: ChurnContext) -> Self {
        self.churn = Some(context);
        self
    }

    /// The correct processes this checker judges.
    pub fn correct(&self) -> &ProcessSet {
        &self.correct
    }

    /// Every violation the trace exhibits, in deterministic order
    /// (agreement, validity, integrity, termination).
    pub fn check(&self, trace: &ExecutionTrace) -> Vec<Violation> {
        let mut violations = Vec::new();

        // Decisions of correct processes, in trace order.
        let mut decided: BTreeMap<ProcessId, Vec<(Time, Vec<u8>)>> = BTreeMap::new();
        for (time, process, value) in trace.decisions() {
            if self.correct.contains(&process) {
                decided
                    .entry(process)
                    .or_default()
                    .push((time, value.to_vec()));
            }
        }

        let distinct: BTreeSet<&[u8]> = decided
            .values()
            .flat_map(|d| d.iter().map(|(_, v)| v.as_slice()))
            .collect();
        if distinct.len() > 1 {
            let values: Vec<String> = distinct
                .iter()
                .map(|v| String::from_utf8_lossy(v).into_owned())
                .collect();
            violations.push(Violation {
                invariant: Invariant::Agreement,
                detail: format!(
                    "correct processes decided {} distinct values: {values:?}",
                    distinct.len()
                ),
            });
        }

        for v in &distinct {
            if !self.allowed.contains(*v) {
                violations.push(Violation {
                    invariant: Invariant::Validity,
                    detail: format!(
                        "decided value {:?} was never proposed",
                        String::from_utf8_lossy(v)
                    ),
                });
            }
        }

        for (process, decisions) in &decided {
            if decisions.len() > 1 {
                violations.push(Violation {
                    invariant: Invariant::Integrity,
                    detail: format!("process {process} decided {} times", decisions.len()),
                });
            }
        }

        if let Some(bound) = self.termination_bound {
            for p in &self.correct {
                let by_bound = decided
                    .get(p)
                    .is_some_and(|d| d.iter().any(|(t, _)| *t <= bound));
                if !by_bound {
                    violations.push(Violation {
                        invariant: Invariant::TerminationBy(bound),
                        detail: format!("process {p} undecided at the bound"),
                    });
                }
            }
        }

        if let Some(ctx) = self.churn.clone() {
            self.check_churn(&ctx, trace, &mut violations);
        }

        violations
    }

    /// The weakened churn checks, appended in deterministic order
    /// (churn-agreement, join-convergence, recovery-consistency).
    fn check_churn(
        &self,
        ctx: &ChurnContext,
        trace: &ExecutionTrace,
        violations: &mut Vec<Violation>,
    ) {
        // Churn agreement quantifies over every decider, departed or not —
        // the correct-set filter of the static check is deliberately gone.
        let mut all_decided: BTreeMap<ProcessId, BTreeSet<Vec<u8>>> = BTreeMap::new();
        for (_, process, value) in trace.decisions() {
            all_decided
                .entry(process)
                .or_default()
                .insert(value.to_vec());
        }
        let distinct: BTreeSet<&Vec<u8>> = all_decided.values().flatten().collect();
        if distinct.len() > 1 {
            let values: Vec<String> = distinct
                .iter()
                .map(|v| String::from_utf8_lossy(v).into_owned())
                .collect();
            violations.push(Violation {
                invariant: Invariant::ChurnAgreement,
                detail: format!(
                    "processes that ever decided span {} distinct values: {values:?}",
                    distinct.len()
                ),
            });
        }

        // Knowledge samples per (process, moment); a later sample for the
        // same key supersedes an earlier one.
        let mut samples: BTreeMap<(ProcessId, KnowledgeMoment), ProcessSet> = BTreeMap::new();
        for (_, process, received, moment) in trace.knowledge() {
            samples.insert((process, moment), received.clone());
        }

        for j in &ctx.joiners {
            if ctx.leavers.contains(j) {
                continue; // joined, then departed: exempt from convergence
            }
            match samples.get(&(*j, KnowledgeMoment::Final)) {
                Some(final_k) => {
                    let missing: ProcessSet = ctx
                        .reference_knowledge
                        .iter()
                        .copied()
                        .filter(|p| !final_k.contains(p))
                        .collect();
                    if !missing.is_empty() {
                        violations.push(Violation {
                            invariant: Invariant::JoinConvergence,
                            detail: format!(
                                "joiner {j} never received the PDs of {}",
                                crate::fmt_process_set(&missing)
                            ),
                        });
                    }
                }
                None => violations.push(Violation {
                    invariant: Invariant::JoinConvergence,
                    detail: format!("joiner {j} has no final knowledge sample"),
                }),
            }
        }

        for r in &ctx.recoverers {
            let Some(crash) = samples.get(&(*r, KnowledgeMoment::AtCrash)) else {
                continue; // never reached its crash point in this trace
            };
            for (moment, what) in [
                (KnowledgeMoment::AtRecovery, "restored"),
                (KnowledgeMoment::Final, "final"),
            ] {
                if let Some(later) = samples.get(&(*r, moment)) {
                    let lost: ProcessSet = crash
                        .iter()
                        .copied()
                        .filter(|p| !later.contains(p))
                        .collect();
                    if !lost.is_empty() {
                        violations.push(Violation {
                            invariant: Invariant::RecoveryConsistency,
                            detail: format!(
                                "rejoiner {r}'s {what} view regressed: lost {}",
                                crate::fmt_process_set(&lost)
                            ),
                        });
                    }
                }
            }
            if all_decided.get(r).is_some_and(|vs| vs.len() > 1) {
                violations.push(Violation {
                    invariant: Invariant::RecoveryConsistency,
                    detail: format!("rejoiner {r} contradicted its pre-crash decision"),
                });
            }
        }
    }

    /// Whether the trace breaks a specific invariant (ignoring the bound
    /// parameter for [`Invariant::TerminationBy`]).
    pub fn violates(&self, trace: &ExecutionTrace, invariant: Invariant) -> bool {
        self.check(trace)
            .iter()
            .any(|v| match (v.invariant, invariant) {
                (Invariant::TerminationBy(_), Invariant::TerminationBy(_)) => true,
                (a, b) => a == b,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceEvent, TraceEventKind};
    use cupft_graph::process_set;

    fn decided(time: Time, process: u64, value: &[u8]) -> TraceEvent {
        TraceEvent {
            time,
            kind: TraceEventKind::Decided {
                process: ProcessId::new(process),
                value: value.to_vec(),
            },
        }
    }

    fn checker() -> TraceChecker {
        TraceChecker::new(
            process_set([1, 2]),
            [b"a".to_vec(), b"b".to_vec()].into_iter().collect(),
        )
    }

    #[test]
    fn clean_trace_passes() {
        let trace =
            ExecutionTrace::assemble(vec![], vec![decided(10, 1, b"a"), decided(12, 2, b"a")]);
        assert!(checker().check(&trace).is_empty());
    }

    #[test]
    fn disagreement_is_flagged() {
        let trace =
            ExecutionTrace::assemble(vec![], vec![decided(10, 1, b"a"), decided(12, 2, b"b")]);
        let violations = checker().check(&trace);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].invariant, Invariant::Agreement);
        assert!(checker().violates(&trace, Invariant::Agreement));
        assert!(!checker().violates(&trace, Invariant::Validity));
    }

    #[test]
    fn byzantine_decisions_do_not_count() {
        // process 9 is not correct: its "decision" is ignored
        let trace =
            ExecutionTrace::assemble(vec![], vec![decided(10, 1, b"a"), decided(11, 9, b"evil")]);
        assert!(checker().check(&trace).is_empty());
    }

    #[test]
    fn invalid_value_is_flagged() {
        let trace =
            ExecutionTrace::assemble(vec![], vec![decided(10, 1, b"zz"), decided(11, 2, b"zz")]);
        let violations = checker().check(&trace);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].invariant, Invariant::Validity);
    }

    #[test]
    fn double_decide_is_flagged() {
        let trace = ExecutionTrace::assemble(
            vec![],
            vec![
                decided(10, 1, b"a"),
                decided(11, 1, b"a"),
                decided(12, 2, b"a"),
            ],
        );
        let violations = checker().check(&trace);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].invariant, Invariant::Integrity);
    }

    fn knowledge(time: Time, process: u64, ids: &[u64], moment: KnowledgeMoment) -> TraceEvent {
        TraceEvent {
            time,
            kind: TraceEventKind::Knowledge {
                process: ProcessId::new(process),
                received: ids.iter().map(|&n| ProcessId::new(n)).collect(),
                moment,
            },
        }
    }

    fn churn_checker(ctx: ChurnContext) -> TraceChecker {
        checker().with_churn(ctx)
    }

    #[test]
    fn churn_agreement_counts_departed_deciders() {
        // Process 9 is outside the correct set (it departed mid-run), but
        // its decision still counts for the weakened agreement.
        let trace =
            ExecutionTrace::assemble(vec![], vec![decided(10, 1, b"a"), decided(11, 9, b"b")]);
        let plain = checker().check(&trace);
        assert!(plain.is_empty(), "static agreement ignores process 9");
        let ctx = ChurnContext {
            leavers: process_set([9]),
            ..ChurnContext::default()
        };
        let violations = churn_checker(ctx.clone()).check(&trace);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].invariant, Invariant::ChurnAgreement);
        assert!(churn_checker(ctx).violates(&trace, Invariant::ChurnAgreement));
    }

    #[test]
    fn join_convergence_requires_reference_knowledge() {
        let ctx = ChurnContext {
            joiners: process_set([2]),
            reference_knowledge: process_set([1, 2, 3]),
            ..ChurnContext::default()
        };
        // Converged joiner: clean.
        let good = ExecutionTrace::assemble(vec![], vec![decided(10, 1, b"a")])
            .with_knowledge(vec![knowledge(50, 2, &[1, 2, 3], KnowledgeMoment::Final)]);
        assert!(churn_checker(ctx.clone()).check(&good).is_empty());
        // Missing PDs: flagged, with the gap named.
        let short = ExecutionTrace::assemble(vec![], vec![decided(10, 1, b"a")])
            .with_knowledge(vec![knowledge(50, 2, &[1, 2], KnowledgeMoment::Final)]);
        let violations = churn_checker(ctx.clone()).check(&short);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].invariant, Invariant::JoinConvergence);
        assert!(violations[0].detail.contains("{3}"));
        // No sample at all: also flagged.
        let missing = ExecutionTrace::assemble(vec![], vec![decided(10, 1, b"a")]);
        assert!(churn_checker(ctx.clone()).violates(&missing, Invariant::JoinConvergence));
        // A joiner that later departed is exempt.
        let departed = ChurnContext {
            leavers: process_set([2]),
            ..ctx
        };
        assert!(churn_checker(departed).check(&missing).is_empty());
    }

    #[test]
    fn recovery_consistency_flags_view_regression() {
        let ctx = ChurnContext {
            recoverers: process_set([1]),
            ..ChurnContext::default()
        };
        // Clean recovery: restored and final views contain the crash view.
        let good = ExecutionTrace::assemble(vec![], vec![]).with_knowledge(vec![
            knowledge(20, 1, &[1, 2, 3], KnowledgeMoment::AtCrash),
            knowledge(40, 1, &[1, 2, 3], KnowledgeMoment::AtRecovery),
            knowledge(90, 1, &[1, 2, 3, 4], KnowledgeMoment::Final),
        ]);
        assert!(churn_checker(ctx.clone()).check(&good).is_empty());
        // Broken recovery: the restored view lost PDs it had at the crash.
        let regressed = ExecutionTrace::assemble(vec![], vec![]).with_knowledge(vec![
            knowledge(20, 1, &[1, 2, 3], KnowledgeMoment::AtCrash),
            knowledge(40, 1, &[1], KnowledgeMoment::AtRecovery),
            knowledge(90, 1, &[1, 2, 3], KnowledgeMoment::Final),
        ]);
        let violations = churn_checker(ctx.clone()).check(&regressed);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].invariant, Invariant::RecoveryConsistency);
        assert!(violations[0].detail.contains("restored"));
        // Contradicting the pre-crash decision is also flagged.
        let contradicted =
            ExecutionTrace::assemble(vec![], vec![decided(10, 1, b"a"), decided(60, 1, b"b")])
                .with_knowledge(vec![knowledge(20, 1, &[1], KnowledgeMoment::AtCrash)]);
        assert!(churn_checker(ctx.clone()).violates(&contradicted, Invariant::RecoveryConsistency));
        // A recoverer with no crash sample (never reached the crash) is
        // vacuously consistent.
        let vacuous = ExecutionTrace::assemble(vec![], vec![]);
        assert!(churn_checker(ctx).check(&vacuous).is_empty());
    }

    #[test]
    fn termination_bound_is_checked_when_set() {
        let trace = ExecutionTrace::assemble(vec![], vec![decided(10, 1, b"a")]);
        // no bound: no termination verdict
        assert!(checker().check(&trace).is_empty());
        // bound: process 2 never decided, process 1 decided in time
        let violations = checker().with_termination_bound(50).check(&trace);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].invariant, Invariant::TerminationBy(50));
        assert!(violations[0].detail.contains('2'));
        // decided but too late also violates
        let late =
            ExecutionTrace::assemble(vec![], vec![decided(10, 1, b"a"), decided(99, 2, b"a")]);
        let violations = checker().with_termination_bound(50).check(&late);
        assert_eq!(violations.len(), 1);
    }
}
