//! Execution traces: compact send/deliver/decide event logs.
//!
//! An [`ExecutionTrace`] is the post-hoc evidence of one simulator run:
//! every send and every delivery (the simulator's own trace, see
//! [`cupft_net::Simulation::enable_trace`]), and every decision (read
//! back from the actors). It is evidence, not a verdict: the consensus
//! properties are judged once, by `cupft_core`'s
//! `ScenarioOutcome::check`, on every runtime. Determinism tests compare
//! [`ExecutionTrace::fingerprint`]s between record and replay runs.

use cupft_graph::ProcessId;
use cupft_net::Time;

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
}

impl TraceEventKind {
    fn rank(&self) -> u8 {
        match self {
            TraceEventKind::Sent { .. } => 0,
            TraceEventKind::Delivered { .. } => 1,
            TraceEventKind::Decided { .. } => 2,
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

    /// The decision events, in trace order.
    pub fn decisions(&self) -> impl Iterator<Item = (Time, ProcessId, &[u8])> {
        self.events.iter().filter_map(|e| match &e.kind {
            TraceEventKind::Decided { process, value } => {
                Some((e.time, *process, value.as_slice()))
            }
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
            }
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
