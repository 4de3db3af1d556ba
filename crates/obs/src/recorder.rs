//! The shared, thread-safe recorder every instrumentation site talks to.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;

use crate::clock::Clock;
use crate::hist::Histogram;
use crate::report::{ObsEvent, ObsReport, PhaseMark, PhaseTimeline};

/// Capacity of every recorder's event ring. Phase-mark events for a
/// 1000-node run fit with room to spare; older entries are evicted (and
/// counted) rather than growing without bound.
pub const DEFAULT_EVENT_CAPACITY: usize = 8192;

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
    timelines: BTreeMap<u64, PhaseTimeline>,
    events: VecDeque<ObsEvent>,
    dropped: u64,
}

/// A metrics registry + event ring + phase-timeline store, shared across
/// every instrumented layer of a run as an `Arc<Recorder>`.
///
/// Metric names are `&'static str` literals at the call sites, so the
/// hot path allocates nothing; the registry is a single mutex, which is
/// uncontended on the simulator (one driving thread) and touched only a
/// handful of times per message on the threaded runtime. Runs that do
/// not observe never construct a recorder at all — every call site is
/// gated on `Option<Arc<Recorder>>`.
#[derive(Debug)]
pub struct Recorder {
    clock: Clock,
    inner: Mutex<Inner>,
}

impl Recorder {
    /// A recorder with an event ring of [`DEFAULT_EVENT_CAPACITY`], clock
    /// in the wall domain (the simulator switches it to virtual on
    /// install).
    pub fn new() -> Self {
        Recorder {
            clock: Clock::new(),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The recorder's clock (substrates use this to pick or drive the
    /// time domain).
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned registry only means a panicking thread held the
        // lock mid-update; the metrics are still best-effort readable.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Adds `n` to the named monotonic counter.
    pub fn counter_add(&self, name: &'static str, n: u64) {
        let mut inner = self.lock();
        *inner.counters.entry(name).or_insert(0) += n;
    }

    /// Sets the named gauge (last write wins).
    pub fn gauge_set(&self, name: &'static str, value: u64) {
        self.lock().gauges.insert(name, value);
    }

    /// Records one sample into the named histogram.
    pub fn hist_record(&self, name: &'static str, value: u64) {
        let mut inner = self.lock();
        inner.hists.entry(name).or_default().record(value);
    }

    /// Merges a locally-accumulated histogram into the named one, so a
    /// thread can record privately and fold its samples into the shared
    /// report once.
    pub fn merge_hist(&self, name: &'static str, hist: &Histogram) {
        let mut inner = self.lock();
        inner.hists.entry(name).or_default().merge(hist);
    }

    /// Appends a ring event stamped with the clock's current time.
    pub fn event(&self, node: u64, what: &'static str) {
        self.event_at(node, what, self.clock.now());
    }

    /// Appends a ring event with an explicit timestamp (instrumentation
    /// sites that know the simulated time pass it directly, keeping the
    /// trace exact even before the driver advanced the clock).
    pub fn event_at(&self, node: u64, what: &'static str, at: u64) {
        let mut inner = self.lock();
        if inner.events.len() >= DEFAULT_EVENT_CAPACITY {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(ObsEvent {
            at,
            node,
            what: what.to_string(),
        });
    }

    /// Applies a phase mark to `node`'s timeline (see
    /// [`PhaseTimeline::set`] for write semantics) and mirrors it into
    /// the event ring.
    pub fn mark(&self, node: u64, mark: PhaseMark, at: u64) {
        {
            let mut inner = self.lock();
            inner.timelines.entry(node).or_default().set(mark, at);
        }
        self.event_at(node, mark.name(), at);
    }

    /// An immutable snapshot of everything recorded so far.
    pub fn snapshot(&self) -> ObsReport {
        let inner = self.lock();
        ObsReport {
            clock_domain: self.clock.domain(),
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            histograms: inner
                .hists
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            timelines: inner.timelines.clone(),
            events: inner.events.iter().cloned().collect(),
            events_dropped: inner.dropped,
        }
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_and_histograms_round_trip() {
        let rec = Recorder::new();
        rec.counter_add("ticks", 2);
        rec.counter_add("ticks", 3);
        rec.gauge_set("depth", 7);
        rec.gauge_set("depth", 4);
        rec.hist_record("batch", 16);
        let report = rec.snapshot();
        assert_eq!(report.counter("ticks"), 5);
        assert_eq!(report.counter("absent"), 0);
        assert_eq!(report.gauges["depth"], 4);
        assert_eq!(report.histogram("batch").unwrap().count(), 1);
        assert!(report.histogram("absent").is_none());
    }

    #[test]
    fn event_ring_evicts_oldest_and_counts_drops() {
        let rec = Recorder::new();
        rec.event_at(1, "first", 0);
        for at in 1..=DEFAULT_EVENT_CAPACITY as u64 {
            rec.event_at(1, "later", at);
        }
        let report = rec.snapshot();
        assert_eq!(report.events_dropped, 1);
        assert_eq!(report.events.len(), DEFAULT_EVENT_CAPACITY);
        assert_eq!(report.events[0].at, 1, "oldest entry evicted first");
        assert!(report.events.iter().all(|e| e.what == "later"));
    }

    #[test]
    fn marks_build_timelines_and_mirror_into_the_ring() {
        let rec = Recorder::new();
        rec.mark(7, PhaseMark::FirstGossip, 0);
        rec.mark(7, PhaseMark::SpdFixpoint, 400);
        rec.mark(7, PhaseMark::SinkIdentified, 500);
        rec.mark(7, PhaseMark::ViewInstalled, 500);
        rec.mark(7, PhaseMark::Decided, 900);
        let report = rec.snapshot();
        assert_eq!(report.complete_timelines(), 1);
        assert_eq!(report.timelines[&7].decided, Some(900));
        assert_eq!(report.phase_max(PhaseMark::Decided), Some(900));
        assert_eq!(report.events.len(), 5);
        assert_eq!(report.events[0].what, "first_gossip");
    }

    #[test]
    fn merged_shard_histograms_equal_one_recorder() {
        let shared = Recorder::new();
        let mut shard_a = Histogram::new();
        let mut shard_b = Histogram::new();
        let solo = Recorder::new();
        for v in [1u64, 5, 9] {
            shard_a.record(v);
            solo.hist_record("depth", v);
        }
        for v in [2u64, 1000] {
            shard_b.record(v);
            solo.hist_record("depth", v);
        }
        shared.merge_hist("depth", &shard_a);
        shared.merge_hist("depth", &shard_b);
        assert_eq!(
            shared.snapshot().histogram("depth"),
            solo.snapshot().histogram("depth")
        );
    }
}
