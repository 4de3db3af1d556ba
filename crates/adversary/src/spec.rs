//! [`StrategySpec`]: Byzantine strategies as *data*.
//!
//! The executable Byzantine actors are opaque state machines — good for
//! running, useless for storing in a [grid axis], comparing, or
//! *shrinking*. `StrategySpec` is the declarative mirror: a small
//! expression tree naming a strategy. Protocol crates compile a spec into
//! a boxed [`cupft_net::Actor`] for their own message type (see
//! `cupft_core::byzantine::build_strategy`); the [`crate::shrink`](mod@crate::shrink) module
//! rewrites specs into strictly smaller failing variants.
//!
//! The leaf variants are the paper's adversary playbook (§II-A, §III–IV);
//! the combinator variants compose leaves into richer behaviors.
//!
//! [grid axis]: https://en.wikipedia.org/wiki/Full_factorial_experiment

use cupft_committee::Value;
use cupft_graph::{ProcessId, ProcessSet};
use cupft_net::Time;

/// A Byzantine strategy, as a comparable, shrinkable expression tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StrategySpec {
    /// Sends nothing, ever.
    Silent,
    /// Participates in discovery but advertises a fabricated own PD (the
    /// §III worked example). Stays silent in the committee plane.
    FakePd {
        /// The claimed PD.
        claimed: ProcessSet,
    },
    /// Advertises different self-signed PDs to different requesters
    /// (split-brain attempt in the discovery plane).
    EquivocatePd {
        /// PD served to requesters with even raw ID.
        even: ProcessSet,
        /// PD served to requesters with odd raw ID.
        odd: ProcessSet,
    },
    /// Runs discovery honestly and *additionally* pushes an unsigned
    /// (forged) PD record claiming to be `victim`'s — the attack
    /// Algorithm 1's signatures exist to reject.
    ForgeUnsignedPd {
        /// The correct process whose record is forged.
        victim: ProcessId,
        /// The PD the forgery claims for the victim.
        claimed: ProcessSet,
    },
    /// Runs discovery honestly and answers every `GETDECIDEDVAL` with a
    /// fabricated value (the direct attack on Algorithm 3's learning
    /// path, defeated by the `⌈(|S|+1)/2⌉` matching-answer threshold).
    LieDecidedVal {
        /// The fabricated decision served to learners.
        value: Value,
    },
    /// Runs discovery honestly, then — as the view-0 leader of the given
    /// committee — sends conflicting proposals to the two halves of the
    /// committee and goes silent.
    EquivocateValue {
        /// The committee it expects to lead (the adversary knows the
        /// graph, per §II-A).
        committee: ProcessSet,
        /// Proposal sent to the lower-ID half.
        value_a: Value,
        /// Proposal sent to the upper-ID half.
        value_b: Value,
    },
    /// Combinator: hold every message `inner` sends and release the
    /// backlog at `until` (withheld-PD / late-burst attacks).
    DelayRelease {
        /// Release tick.
        until: Time,
        /// The wrapped strategy.
        inner: Box<StrategySpec>,
    },
    /// Combinator: only messages addressed to `targets` leave the process.
    TargetSubset {
        /// The processes the strategy may talk to.
        targets: ProcessSet,
        /// The wrapped strategy.
        inner: Box<StrategySpec>,
    },
    /// Combinator: behave as `before` until `at`, then as `after`
    /// (flip-after-round: `at` = round × tick period).
    FlipAfter {
        /// Flip time.
        at: Time,
        /// Strategy before the flip.
        before: Box<StrategySpec>,
        /// Strategy after the flip.
        after: Box<StrategySpec>,
    },
}

impl StrategySpec {
    /// The shrinker's size metric: weighted node count of the expression
    /// tree. `Silent` weighs 1, every other leaf 2, a combinator 1 plus
    /// its children — so *every* rewrite in [`Self::simplifications`]
    /// (unwrap, child rewrite, collapse-to-Silent) is strictly smaller.
    pub fn size(&self) -> usize {
        match self {
            StrategySpec::Silent => 1,
            StrategySpec::FakePd { .. }
            | StrategySpec::EquivocatePd { .. }
            | StrategySpec::ForgeUnsignedPd { .. }
            | StrategySpec::LieDecidedVal { .. }
            | StrategySpec::EquivocateValue { .. } => 2,
            StrategySpec::DelayRelease { inner, .. } | StrategySpec::TargetSubset { inner, .. } => {
                1 + inner.size()
            }
            StrategySpec::FlipAfter { before, after, .. } => 1 + before.size() + after.size(),
        }
    }

    /// Whether this is the `Silent` leaf.
    pub fn is_silent(&self) -> bool {
        matches!(self, StrategySpec::Silent)
    }

    /// Compact display label (sweep labels, shrink reports): the one name
    /// a strategy has.
    pub fn label(&self) -> String {
        let set = crate::fmt_process_set;
        match self {
            StrategySpec::Silent => "silent".into(),
            StrategySpec::FakePd { claimed } => format!("fakepd{}", set(claimed)),
            StrategySpec::EquivocatePd { .. } => "equivpd".into(),
            StrategySpec::ForgeUnsignedPd { victim, .. } => format!("forge<{}>", victim.raw()),
            StrategySpec::LieDecidedVal { .. } => "lieval".into(),
            StrategySpec::EquivocateValue { .. } => "equivval".into(),
            StrategySpec::DelayRelease { until, inner } => {
                format!("delay@{until}({})", inner.label())
            }
            StrategySpec::TargetSubset { targets, inner } => {
                format!("target{}({})", set(targets), inner.label())
            }
            StrategySpec::FlipAfter { at, before, after } => {
                format!("flip@{at}[{}->{}]", before.label(), after.label())
            }
        }
    }

    /// Values this strategy may inject into the committee plane — the
    /// extra entries a validity check must allow (equivocated proposals
    /// can legitimately be decided; a lied learning answer cannot pass the
    /// majority threshold, so it is *not* allowed).
    pub fn injected_values(&self) -> Vec<Value> {
        match self {
            StrategySpec::EquivocateValue {
                value_a, value_b, ..
            } => vec![value_a.clone(), value_b.clone()],
            StrategySpec::DelayRelease { inner, .. } | StrategySpec::TargetSubset { inner, .. } => {
                inner.injected_values()
            }
            StrategySpec::FlipAfter { before, after, .. } => {
                let mut v = before.injected_values();
                v.extend(after.injected_values());
                v
            }
            _ => Vec::new(),
        }
    }

    /// The strictly smaller candidate rewrites of this spec, in the
    /// deterministic order the shrinker tries them: combinator unwraps
    /// first (largest reduction), then child rewrites, then collapse to
    /// [`StrategySpec::Silent`]. `Silent` itself has no rewrites.
    pub fn simplifications(&self) -> Vec<StrategySpec> {
        let mut out = Vec::new();
        match self {
            StrategySpec::Silent => return out,
            StrategySpec::DelayRelease { until, inner } => {
                out.push((**inner).clone());
                for s in inner.simplifications() {
                    out.push(StrategySpec::DelayRelease {
                        until: *until,
                        inner: Box::new(s),
                    });
                }
            }
            StrategySpec::TargetSubset { targets, inner } => {
                out.push((**inner).clone());
                for s in inner.simplifications() {
                    out.push(StrategySpec::TargetSubset {
                        targets: targets.clone(),
                        inner: Box::new(s),
                    });
                }
            }
            StrategySpec::FlipAfter { at, before, after } => {
                out.push((**before).clone());
                out.push((**after).clone());
                for s in before.simplifications() {
                    out.push(StrategySpec::FlipAfter {
                        at: *at,
                        before: Box::new(s),
                        after: after.clone(),
                    });
                }
                for s in after.simplifications() {
                    out.push(StrategySpec::FlipAfter {
                        at: *at,
                        before: before.clone(),
                        after: Box::new(s),
                    });
                }
            }
            _ => {}
        }
        if !self.is_silent() {
            out.push(StrategySpec::Silent);
        }
        // Deduplicate while preserving first-occurrence order (e.g.
        // unwrapping `target(silent)` and collapsing both yield `Silent`).
        let mut seen: Vec<StrategySpec> = Vec::new();
        out.retain(|s| {
            if seen.contains(s) {
                false
            } else {
                seen.push(s.clone());
                true
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cupft_graph::process_set;

    fn sample() -> StrategySpec {
        StrategySpec::TargetSubset {
            targets: process_set([1, 2]),
            inner: Box::new(StrategySpec::FakePd {
                claimed: process_set([1, 2, 3]),
            }),
        }
    }

    #[test]
    fn size_counts_weighted_nodes() {
        assert_eq!(StrategySpec::Silent.size(), 1);
        assert_eq!(sample().size(), 3); // combinator(1) + FakePd leaf(2)
        let flip = StrategySpec::FlipAfter {
            at: 100,
            before: Box::new(sample()),
            after: Box::new(StrategySpec::Silent),
        };
        assert_eq!(flip.size(), 5);
    }

    #[test]
    fn simplifications_are_strictly_smaller() {
        let flip = StrategySpec::FlipAfter {
            at: 100,
            before: Box::new(sample()),
            after: Box::new(StrategySpec::Silent),
        };
        let simpler = flip.simplifications();
        assert!(!simpler.is_empty());
        for s in &simpler {
            assert!(s.size() < flip.size(), "{s:?} not smaller than {flip:?}");
        }
        // unwraps come first
        assert_eq!(simpler[0], sample());
    }

    #[test]
    fn silent_is_fully_shrunk() {
        assert!(StrategySpec::Silent.simplifications().is_empty());
    }

    #[test]
    fn leaf_collapses_to_silent() {
        let leaf = StrategySpec::FakePd {
            claimed: process_set([1]),
        };
        assert_eq!(leaf.simplifications(), vec![StrategySpec::Silent]);
    }

    #[test]
    fn simplifications_deduplicate() {
        let spec = StrategySpec::TargetSubset {
            targets: process_set([1]),
            inner: Box::new(StrategySpec::Silent),
        };
        // unwrap -> Silent and collapse -> Silent must merge
        assert_eq!(spec.simplifications(), vec![StrategySpec::Silent]);
    }

    #[test]
    fn injected_values_recurse() {
        let spec = StrategySpec::DelayRelease {
            until: 50,
            inner: Box::new(StrategySpec::EquivocateValue {
                committee: process_set([1, 2]),
                value_a: Value::from_static(b"A"),
                value_b: Value::from_static(b"B"),
            }),
        };
        assert_eq!(spec.injected_values().len(), 2);
        assert!(StrategySpec::Silent.injected_values().is_empty());
    }

    #[test]
    fn labels_are_compact() {
        assert_eq!(StrategySpec::Silent.label(), "silent");
        assert_eq!(sample().label(), "target{1,2}(fakepd{1,2,3})");
    }
}
