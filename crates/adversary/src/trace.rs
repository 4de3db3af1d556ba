//! Execution traces: compact send/deliver/decide event logs.
//!
//! An [`ExecutionTrace`] is the post-hoc evidence of one simulator run:
//! every send and every delivery (the simulator's own trace, see
//! [`cupft_net::Simulation::enable_trace`]), and every decision (read
//! back from the actors). The [`crate::invariant`] checker rules on consensus
//! properties over traces; determinism tests compare
//! [`ExecutionTrace::fingerprint`]s between record and replay runs.

use cupft_graph::{ProcessId, ProcessSet};
use cupft_net::Time;

/// When a [`TraceEventKind::Knowledge`] sample was taken relative to a
/// node's churn lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum KnowledgeMoment {
    /// Just before a crash-recovering node snapshotted its state.
    AtCrash,
    /// Just after a recovering node restored its snapshot (before any
    /// post-recovery gossip).
    AtRecovery,
    /// At the end of the run.
    Final,
}

impl KnowledgeMoment {
    fn tag(&self) -> u8 {
        match self {
            KnowledgeMoment::AtCrash => 0,
            KnowledgeMoment::AtRecovery => 1,
            KnowledgeMoment::Final => 2,
        }
    }
}

/// What happened at one point of an execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A process handed a message to the network (recorded at send time;
    /// `dropped` marks messages a tamper discarded).
    Sent {
        /// Sender.
        from: ProcessId,
        /// Addressee.
        to: ProcessId,
        /// Message label.
        label: &'static str,
        /// Whether the tamper layer dropped it.
        dropped: bool,
    },
    /// The substrate delivered a message to an actor.
    Delivered {
        /// Sender.
        from: ProcessId,
        /// Receiver.
        to: ProcessId,
        /// Message label.
        label: &'static str,
    },
    /// A process fixed its decision value.
    Decided {
        /// The deciding process.
        process: ProcessId,
        /// The decided value bytes.
        value: Vec<u8>,
    },
    /// A sample of a process's `S_received` knowledge, taken at a churn
    /// lifecycle moment. The weakened churn invariants
    /// (join-convergence, recovery-consistency) are predicates over these
    /// samples.
    Knowledge {
        /// The sampled process.
        process: ProcessId,
        /// Its `S_received` set at the sample moment.
        received: ProcessSet,
        /// When in the churn lifecycle the sample was taken.
        moment: KnowledgeMoment,
    },
}

impl TraceEventKind {
    fn rank(&self) -> u8 {
        match self {
            TraceEventKind::Sent { .. } => 0,
            TraceEventKind::Delivered { .. } => 1,
            TraceEventKind::Decided { .. } => 2,
            TraceEventKind::Knowledge { .. } => 3,
        }
    }
}

/// One timestamped trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Substrate time (simulated ticks / elapsed milliseconds).
    pub time: Time,
    /// The event.
    pub kind: TraceEventKind,
}

/// A whole execution as an ordered event log.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExecutionTrace {
    /// Events in `(time, Sent<Delivered<Decided, stream order)` order.
    pub events: Vec<TraceEvent>,
}

impl ExecutionTrace {
    /// Merges the traffic stream (sends and deliveries) and the decision
    /// stream into one trace. Each stream must already be in its own
    /// recording order; the merge is a stable sort on `(time, kind rank)`,
    /// so equal-time events keep stream order and the result is
    /// deterministic whenever the streams are.
    pub fn assemble(traffic: Vec<TraceEvent>, decisions: Vec<TraceEvent>) -> Self {
        let mut events = traffic;
        events.extend(decisions);
        events.sort_by_key(|e| (e.time, e.kind.rank()));
        ExecutionTrace { events }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Merges knowledge samples into the trace (builder style), keeping
    /// the `(time, kind rank)` order. Churn-aware runners attach one
    /// stream of [`TraceEventKind::Knowledge`] events after assembling
    /// the send/delivery/decision streams.
    pub fn with_knowledge(mut self, samples: Vec<TraceEvent>) -> Self {
        self.events.extend(samples);
        self.events.sort_by_key(|e| (e.time, e.kind.rank()));
        self
    }

    /// The decision events, in trace order.
    pub fn decisions(&self) -> impl Iterator<Item = (Time, ProcessId, &[u8])> {
        self.events.iter().filter_map(|e| match &e.kind {
            TraceEventKind::Decided { process, value } => {
                Some((e.time, *process, value.as_slice()))
            }
            _ => None,
        })
    }

    /// The knowledge samples, in trace order.
    pub fn knowledge(
        &self,
    ) -> impl Iterator<Item = (Time, ProcessId, &ProcessSet, KnowledgeMoment)> {
        self.events.iter().filter_map(|e| match &e.kind {
            TraceEventKind::Knowledge {
                process,
                received,
                moment,
            } => Some((e.time, *process, received, *moment)),
            _ => None,
        })
    }

    /// A stable FNV-1a fingerprint of the full event log. Two runs of the
    /// same (scenario, seed, strategy) triple on the simulator must agree
    /// on it byte for byte.
    pub fn fingerprint(&self) -> u64 {
        let mut hash: u64 = 0xcbf29ce484222325;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= b as u64;
                hash = hash.wrapping_mul(0x100000001b3);
            }
        };
        for e in &self.events {
            mix(&e.time.to_be_bytes());
            match &e.kind {
                TraceEventKind::Sent {
                    from,
                    to,
                    label,
                    dropped,
                } => {
                    mix(b"S");
                    mix(&from.raw().to_be_bytes());
                    mix(&to.raw().to_be_bytes());
                    mix(label.as_bytes());
                    mix(&[*dropped as u8]);
                }
                TraceEventKind::Delivered { from, to, label } => {
                    mix(b"D");
                    mix(&from.raw().to_be_bytes());
                    mix(&to.raw().to_be_bytes());
                    mix(label.as_bytes());
                }
                TraceEventKind::Decided { process, value } => {
                    mix(b"V");
                    mix(&process.raw().to_be_bytes());
                    mix(value);
                }
                TraceEventKind::Knowledge {
                    process,
                    received,
                    moment,
                } => {
                    mix(b"K");
                    mix(&process.raw().to_be_bytes());
                    mix(&[moment.tag()]);
                    mix(&(received.len() as u64).to_be_bytes());
                    for p in received {
                        mix(&p.raw().to_be_bytes());
                    }
                }
            }
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cupft_graph::process_set;

    fn p(n: u64) -> ProcessId {
        ProcessId::new(n)
    }

    fn sent(time: Time, from: u64, to: u64) -> TraceEvent {
        TraceEvent {
            time,
            kind: TraceEventKind::Sent {
                from: p(from),
                to: p(to),
                label: "X",
                dropped: false,
            },
        }
    }

    fn delivered(time: Time, from: u64, to: u64) -> TraceEvent {
        TraceEvent {
            time,
            kind: TraceEventKind::Delivered {
                from: p(from),
                to: p(to),
                label: "X",
            },
        }
    }

    fn decided(time: Time, process: u64, value: &[u8]) -> TraceEvent {
        TraceEvent {
            time,
            kind: TraceEventKind::Decided {
                process: p(process),
                value: value.to_vec(),
            },
        }
    }

    #[test]
    fn assemble_orders_by_time_then_kind() {
        let trace = ExecutionTrace::assemble(
            vec![sent(0, 1, 2), delivered(5, 1, 2), sent(5, 2, 1)],
            vec![decided(5, 1, b"v")],
        );
        assert_eq!(trace.len(), 4);
        assert_eq!(trace.events[0], sent(0, 1, 2));
        // at t=5: Sent before Delivered before Decided
        assert_eq!(trace.events[1], sent(5, 2, 1));
        assert_eq!(trace.events[2], delivered(5, 1, 2));
        assert_eq!(trace.events[3], decided(5, 1, b"v"));
    }

    #[test]
    fn fingerprint_is_content_sensitive() {
        let a = ExecutionTrace::assemble(vec![sent(0, 1, 2)], vec![]);
        let b = ExecutionTrace::assemble(vec![sent(0, 1, 2)], vec![]);
        let c = ExecutionTrace::assemble(vec![sent(0, 1, 3)], vec![]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_ne!(ExecutionTrace::default().fingerprint(), a.fingerprint());
    }

    #[test]
    fn decisions_iterator_filters() {
        let trace = ExecutionTrace::assemble(
            vec![sent(0, 1, 2), delivered(3, 1, 2)],
            vec![decided(9, 1, b"v"), decided(9, 2, b"v")],
        );
        let d: Vec<_> = trace.decisions().collect();
        assert_eq!(d.len(), 2);
        assert_eq!(d[0], (9, p(1), b"v".as_slice()));
    }

    #[test]
    fn knowledge_samples_merge_and_fingerprint() {
        let sample = |time, proc: u64, ids: [u64; 2], moment| TraceEvent {
            time,
            kind: TraceEventKind::Knowledge {
                process: p(proc),
                received: process_set(ids),
                moment,
            },
        };
        let base = ExecutionTrace::assemble(vec![sent(5, 1, 2)], vec![decided(5, 1, b"v")]);
        let trace = base
            .clone()
            .with_knowledge(vec![sample(5, 1, [1, 2], KnowledgeMoment::Final)]);
        // Equal-time knowledge sorts after sends and decisions.
        assert!(matches!(
            trace.events.last().unwrap().kind,
            TraceEventKind::Knowledge { .. }
        ));
        let k: Vec<_> = trace.knowledge().collect();
        assert_eq!(k.len(), 1);
        assert_eq!(k[0].1, p(1));
        assert_eq!(k[0].3, KnowledgeMoment::Final);
        // Samples change the fingerprint; moment and contents both count.
        assert_ne!(trace.fingerprint(), base.fingerprint());
        let crash =
            base.clone()
                .with_knowledge(vec![sample(5, 1, [1, 2], KnowledgeMoment::AtCrash)]);
        assert_ne!(trace.fingerprint(), crash.fingerprint());
        let widened = base.with_knowledge(vec![sample(5, 1, [1, 3], KnowledgeMoment::Final)]);
        assert_ne!(trace.fingerprint(), widened.fingerprint());
    }
}
