//! [`StrategySpec`]: Byzantine strategies as *data*.
//!
//! The executable Byzantine actors are opaque state machines — good for
//! running, useless for storing in a sweep's cell list, comparing, or
//! *shrinking*. `StrategySpec` is the declarative mirror: a small
//! expression tree naming a strategy. Protocol crates compile a spec into
//! a boxed [`cupft_net::Actor`] for their own message type (see
//! `cupft_core::byzantine::build_strategy`); the [`crate::shrink`](mod@crate::shrink) module
//! rewrites specs into strictly smaller failing variants.
//!
//! The leaf variants are the paper's adversary playbook (§II-A, §III–IV);
//! the combinator variants compose leaves into richer behaviors.

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
    /// path, defeated by the matching-answer thresholds: `g + 1` for an
    /// undecided member, `⌈(|S|+1)/2⌉ ≥ g + 1` for a learner, against at
    /// most `g` lying members).
    LieDecidedVal {
        /// The fabricated decision served to learners.
        value: Value,
    },
    /// Twins (Bano et al., arXiv 2004.10617): two honest nodes under the
    /// faulty process's one key. Twin A keeps the process's own PD and
    /// proposal and talks only to `side_a`; twin B proposes `value_b`,
    /// optionally advertises `pd_b` instead of the true PD, and talks to
    /// everyone else. Every equivocation the protocol's messages allow —
    /// conflicting PDs, proposals, votes and `DecidedVal` answers, each
    /// individually valid — falls out of honest code.
    Twins {
        /// The processes twin A talks to; the rest talk to twin B.
        side_a: ProcessSet,
        /// Twin B's proposal.
        value_b: Value,
        /// Twin B's self-signed PD, when it differs from the true one.
        pd_b: Option<ProcessSet>,
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
    /// tree. `Silent` weighs 1, `Twins` 2 plus one per side-A member,
    /// every other leaf 2, a combinator 1 plus its children — so *every*
    /// rewrite in [`Self::simplifications`] (unwrap, child rewrite, side-A
    /// removal, collapse-to-Silent) is strictly smaller.
    pub fn size(&self) -> usize {
        match self {
            StrategySpec::Silent => 1,
            StrategySpec::FakePd { .. }
            | StrategySpec::ForgeUnsignedPd { .. }
            | StrategySpec::LieDecidedVal { .. } => 2,
            StrategySpec::Twins { side_a, .. } => 2 + side_a.len(),
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
            StrategySpec::ForgeUnsignedPd { victim, .. } => format!("forge<{}>", victim.raw()),
            StrategySpec::LieDecidedVal { .. } => "lieval".into(),
            StrategySpec::Twins { side_a, pd_b, .. } => match pd_b {
                Some(pd) => format!("twins{}pd{}", set(side_a), set(pd)),
                None => format!("twins{}", set(side_a)),
            },
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
    /// extra entries a validity check must allow. Twin B's proposal can
    /// legitimately be decided (twin A proposes the process's own value,
    /// which is allowed already). A lied learning answer cannot be: it
    /// needs `g + 1` matching answers from a member and `⌈(|S|+1)/2⌉` from
    /// a learner, and at most `g` members lie, so it is *not* allowed.
    pub fn injected_values(&self) -> Vec<Value> {
        match self {
            StrategySpec::Twins { value_b, .. } => vec![value_b.clone()],
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
    /// first (largest reduction), then child rewrites, then `Twins` with
    /// one side-A member fewer (ascending ID), then collapse to
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
            StrategySpec::Twins {
                side_a,
                value_b,
                pd_b,
            } => {
                for p in side_a {
                    let mut fewer = side_a.clone();
                    fewer.remove(p);
                    out.push(StrategySpec::Twins {
                        side_a: fewer,
                        value_b: value_b.clone(),
                        pd_b: pd_b.clone(),
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
            inner: Box::new(twins([2, 3], None)),
        };
        assert_eq!(spec.injected_values(), vec![Value::from_static(b"B")]);
        assert!(StrategySpec::Silent.injected_values().is_empty());
    }

    fn twins<const N: usize>(side_a: [u64; N], pd_b: Option<ProcessSet>) -> StrategySpec {
        StrategySpec::Twins {
            side_a: process_set(side_a),
            value_b: Value::from_static(b"B"),
            pd_b,
        }
    }

    #[test]
    fn twins_shrink_toward_fewer_side_a_members() {
        let spec = twins([2, 3], Some(process_set([5])));
        assert_eq!(spec.size(), 4);
        assert_eq!(
            spec.simplifications(),
            vec![
                twins([3], Some(process_set([5]))),
                twins([2], Some(process_set([5]))),
                StrategySpec::Silent,
            ]
        );
        assert_eq!(
            twins([], None).simplifications(),
            vec![StrategySpec::Silent]
        );
    }

    #[test]
    fn labels_are_compact() {
        assert_eq!(StrategySpec::Silent.label(), "silent");
        assert_eq!(sample().label(), "target{1,2}(fakepd{1,2,3})");
        assert_eq!(twins([2], None).label(), "twins{2}");
        assert_eq!(
            twins([2], Some(process_set([1, 3]))).label(),
            "twins{2}pd{1,3}"
        );
    }
}
