//! Dynamic-membership schedules as data, shrinkable like fault assignments.
//!
//! The paper assumes a *static* universe: participants are unknown but
//! fixed at t=0. A [`ChurnSpec`] relaxes that — it is a scheduled list of
//! membership events (late joins, silent departures, crash-recoveries)
//! mirroring the [`crate::spec::StrategySpec`] / [`crate::TamperSpec`]
//! discipline: plain cloneable data with [labels](ChurnSpec::label), a
//! [size metric](Shrinkable::size), and strictly-smaller
//! [simplifications](ChurnEvent::simplifications), so churn schedules ride
//! the same grid axes and the same greedy [`shrink`](fn@crate::shrink)
//! loop as fault assignments. The runtimes honor a spec *identically by construction*:
//! churn is executed at the actor level (time-gated dormancy, `halt()` on
//! departure, snapshot/restore on crash-recovery), which both substrates
//! already treat the same way.
//!
//! Ticks are substrate time: simulated ticks on the simulator, elapsed
//! milliseconds on the threaded runtime — the same reading every other
//! schedule knob uses.

use cupft_graph::{ProcessId, ProcessSet};
use cupft_net::Time;

use crate::fmt_process_set;
use crate::shrink::Shrinkable;

/// One scheduled membership event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChurnEvent {
    /// `node` joins late: dormant until `tick`, then bootstraps discovery
    /// from `seed_peers` (its only initial knowledge beyond its own PD —
    /// a genuinely late joiner has an empty oracle horizon and must pull
    /// everything through delta gossip).
    JoinAt {
        /// When the node wakes up.
        tick: Time,
        /// The joining node.
        node: ProcessId,
        /// Out-of-band bootstrap hints (may be empty if the node's own PD
        /// already names someone).
        seed_peers: ProcessSet,
    },
    /// `node` departs silently at `tick`: it stops sending and receiving
    /// forever, with no goodbye message — indistinguishable, to the rest
    /// of the system, from a crash.
    LeaveAt {
        /// When the node goes dark.
        tick: Time,
        /// The departing node.
        node: ProcessId,
    },
    /// `node` crashes at `tick`, snapshots its durable discovery state,
    /// stays down for `down_for` ticks, then rejoins from the snapshot
    /// with a bumped membership epoch.
    CrashRecoverAt {
        /// When the node crashes.
        tick: Time,
        /// The crashing node.
        node: ProcessId,
        /// How long it stays down before restoring.
        down_for: Time,
    },
}

impl ChurnEvent {
    /// The node the event concerns.
    pub fn node(&self) -> ProcessId {
        match self {
            ChurnEvent::JoinAt { node, .. }
            | ChurnEvent::LeaveAt { node, .. }
            | ChurnEvent::CrashRecoverAt { node, .. } => *node,
        }
    }

    /// When the event fires.
    pub fn tick(&self) -> Time {
        match self {
            ChurnEvent::JoinAt { tick, .. }
            | ChurnEvent::LeaveAt { tick, .. }
            | ChurnEvent::CrashRecoverAt { tick, .. } => *tick,
        }
    }

    /// The shrinker's per-event weight: an extra point for a non-empty
    /// seed set, so "same join, no seeds" counts as progress.
    pub fn size(&self) -> usize {
        match self {
            ChurnEvent::JoinAt { seed_peers, .. } if !seed_peers.is_empty() => 2,
            _ => 1,
        }
    }

    /// Compact display label, in the house style of
    /// [`crate::StrategySpec::label`].
    pub fn label(&self) -> String {
        match self {
            ChurnEvent::JoinAt {
                tick,
                node,
                seed_peers,
            } => {
                let n = node.raw();
                if seed_peers.is_empty() {
                    format!("join@{tick}<{n}>")
                } else {
                    format!("join@{tick}<{n}>+{}", fmt_process_set(seed_peers))
                }
            }
            ChurnEvent::LeaveAt { tick, node } => format!("leave@{tick}<{}>", node.raw()),
            ChurnEvent::CrashRecoverAt {
                tick,
                node,
                down_for,
            } => format!("crashrec@{tick}+{down_for}<{}>", node.raw()),
        }
    }

    /// Strictly smaller rewrites of this event (see [`Self::size`]).
    pub fn simplifications(&self) -> Vec<ChurnEvent> {
        match self {
            ChurnEvent::JoinAt {
                tick,
                node,
                seed_peers,
            } if !seed_peers.is_empty() => vec![ChurnEvent::JoinAt {
                tick: *tick,
                node: *node,
                seed_peers: ProcessSet::new(),
            }],
            _ => Vec::new(),
        }
    }
}

/// A whole churn schedule: the events, in schedule order.
///
/// At most one event per node is honored per kind, the first in schedule
/// order ([`ChurnSpec::events_of`]), which keeps shrinking well-defined on
/// degenerate inputs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChurnSpec {
    /// The scheduled events.
    pub events: Vec<ChurnEvent>,
}

impl ChurnSpec {
    /// A schedule from an event list.
    pub fn new(events: Vec<ChurnEvent>) -> Self {
        ChurnSpec { events }
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty (no churn).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Compact display label: `churn[join@100<9>,leave@200<3>]`.
    pub fn label(&self) -> String {
        if self.events.is_empty() {
            return "nochurn".to_string();
        }
        let parts: Vec<String> = self.events.iter().map(|e| e.label()).collect();
        format!("churn[{}]", parts.join(","))
    }

    /// The events `node` honours: the first scheduled event of each kind
    /// that names it. They come in the order a node arms them — leave,
    /// crash-recovery, join — so when two fall on one tick the departure
    /// pre-empts the others and the crash pre-empts the join.
    pub fn events_of(&self, node: ProcessId) -> Vec<ChurnEvent> {
        let first = |kind: fn(&ChurnEvent) -> bool| {
            self.events
                .iter()
                .find(|e| e.node() == node && kind(e))
                .cloned()
        };
        [
            first(|e| matches!(e, ChurnEvent::LeaveAt { .. })),
            first(|e| matches!(e, ChurnEvent::CrashRecoverAt { .. })),
            first(|e| matches!(e, ChurnEvent::JoinAt { .. })),
        ]
        .into_iter()
        .flatten()
        .collect()
    }

    /// All nodes with a scheduled join.
    pub fn joiners(&self) -> ProcessSet {
        self.events
            .iter()
            .filter(|e| matches!(e, ChurnEvent::JoinAt { .. }))
            .map(|e| e.node())
            .collect()
    }

    /// All nodes with a scheduled departure.
    pub fn leavers(&self) -> ProcessSet {
        self.events
            .iter()
            .filter(|e| matches!(e, ChurnEvent::LeaveAt { .. }))
            .map(|e| e.node())
            .collect()
    }

    /// All nodes with a scheduled crash-recovery.
    pub fn recoverers(&self) -> ProcessSet {
        self.events
            .iter()
            .filter(|e| matches!(e, ChurnEvent::CrashRecoverAt { .. }))
            .map(|e| e.node())
            .collect()
    }

    /// Every node the schedule touches.
    pub fn nodes(&self) -> ProcessSet {
        self.events.iter().map(|e| e.node()).collect()
    }
}

impl Shrinkable for ChurnSpec {
    const NOUN: &'static str = "schedule";

    /// The sum of per-event weights, so both "fewer events" and "simpler
    /// event" are progress.
    fn size(&self) -> usize {
        self.events.iter().map(|e| e.size()).sum()
    }

    /// Event removals first (front to back), then per-event
    /// simplifications, deduplicated order-preservingly.
    fn candidates(&self) -> Vec<Self> {
        let mut out = Vec::new();
        for i in 0..self.events.len() {
            let mut smaller = self.clone();
            smaller.events.remove(i);
            out.push(smaller);
        }
        for (i, event) in self.events.iter().enumerate() {
            for simpler in event.simplifications() {
                let mut rewritten = self.clone();
                rewritten.events[i] = simpler;
                out.push(rewritten);
            }
        }
        let mut seen: Vec<ChurnSpec> = Vec::new();
        out.retain(|c| {
            if seen.contains(c) {
                false
            } else {
                seen.push(c.clone());
                true
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shrink::shrink;
    use cupft_graph::process_set;

    fn p(n: u64) -> ProcessId {
        ProcessId::new(n)
    }

    fn sample() -> ChurnSpec {
        ChurnSpec::new(vec![
            ChurnEvent::JoinAt {
                tick: 100,
                node: p(9),
                seed_peers: process_set([1, 2]),
            },
            ChurnEvent::LeaveAt {
                tick: 200,
                node: p(3),
            },
            ChurnEvent::CrashRecoverAt {
                tick: 150,
                node: p(7),
                down_for: 80,
            },
        ])
    }

    #[test]
    fn labels_are_compact() {
        let s = sample();
        assert_eq!(
            s.label(),
            "churn[join@100<9>+{1,2},leave@200<3>,crashrec@150+80<7>]"
        );
        assert_eq!(ChurnSpec::default().label(), "nochurn");
        assert_eq!(
            ChurnEvent::JoinAt {
                tick: 5,
                node: p(1),
                seed_peers: ProcessSet::new(),
            }
            .label(),
            "join@5<1>"
        );
    }

    #[test]
    fn accessors_find_first_match() {
        let mut s = sample();
        // A second event of a kind a node already has is not honoured.
        s.events.push(ChurnEvent::LeaveAt {
            tick: 10,
            node: p(3),
        });
        s.events.push(ChurnEvent::LeaveAt {
            tick: 300,
            node: p(9),
        });
        assert_eq!(
            s.events_of(p(9)),
            [
                ChurnEvent::LeaveAt {
                    tick: 300,
                    node: p(9),
                },
                s.events[0].clone(),
            ]
        );
        assert_eq!(s.events_of(p(3)), [s.events[1].clone()]);
        assert_eq!(s.events_of(p(7)), [s.events[2].clone()]);
        assert!(s.events_of(p(1)).is_empty());
        assert_eq!(s.joiners(), process_set([9]));
        assert_eq!(s.leavers(), process_set([3, 9]));
        assert_eq!(s.recoverers(), process_set([7]));
        assert_eq!(s.nodes(), process_set([3, 7, 9]));
    }

    #[test]
    fn size_counts_events_and_seeds() {
        assert_eq!(ChurnSpec::default().size(), 0);
        assert_eq!(sample().size(), 4);
    }

    #[test]
    fn candidates_are_strictly_smaller_and_deduped() {
        let s = sample();
        let cs = s.candidates();
        assert!(!cs.is_empty());
        for c in &cs {
            assert!(c.size() < s.size());
        }
        // Removals come first; the seeded join also simplifies in place.
        assert_eq!(cs[0].events.len(), 2);
        assert!(cs
            .iter()
            .any(|c| c.events.len() == 3 && c.events[0].size() == 1));
        // Duplicate events produce deduplicated candidates.
        let dup = ChurnSpec::new(vec![
            ChurnEvent::LeaveAt {
                tick: 10,
                node: p(1),
            },
            ChurnEvent::LeaveAt {
                tick: 10,
                node: p(1),
            },
        ]);
        assert_eq!(dup.candidates().len(), 1);
    }

    #[test]
    fn shrinks_to_single_event_reproducer() {
        // Oracle: fails whenever node 7 crash-recovers at all.
        let mut oracle = |s: &ChurnSpec| !s.events_of(p(7)).is_empty();
        let outcome = shrink(sample(), &mut oracle);
        assert_eq!(
            outcome.minimal,
            ChurnSpec::new(vec![ChurnEvent::CrashRecoverAt {
                tick: 150,
                node: p(7),
                down_for: 80,
            }])
        );
        assert!(outcome.shrank());
        // Deterministic re-run, and already-minimal input is a fixpoint.
        assert_eq!(shrink(sample(), &mut oracle), outcome);
        let again = shrink(outcome.minimal.clone(), &mut oracle);
        assert_eq!(again.steps, 0);
    }

    #[test]
    #[should_panic(expected = "failing initial schedule")]
    fn passing_input_panics() {
        let mut oracle = |_: &ChurnSpec| false;
        shrink(ChurnSpec::default(), &mut oracle);
    }
}
