//! The shared, thread-safe recorder every instrumentation site talks to.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::hist::Histogram;
use crate::report::{ClockDomain, ObsReport, PhaseMark, PhaseTimeline};

#[derive(Debug, Default)]
struct Inner {
    clock_domain: ClockDomain,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
    timelines: BTreeMap<u64, PhaseTimeline>,
}

/// A metrics registry + phase-timeline store, shared across every
/// instrumented layer of a run as an `Arc<Recorder>`.
///
/// Metric names are `&'static str` literals at the call sites, so the
/// hot path allocates nothing; the registry is a single mutex, which is
/// uncontended on the simulator (one driving thread) and touched only a
/// handful of times per message on the threaded runtime. Runs that do
/// not observe never construct a recorder at all — every call site is
/// gated on `Option<Arc<Recorder>>`.
#[derive(Debug, Default)]
pub struct Recorder {
    inner: Mutex<Inner>,
}

impl Recorder {
    /// An empty recorder in the wall clock domain (the simulator switches
    /// it to virtual on install, see [`Recorder::set_virtual`]).
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Stamps the report with the virtual clock domain: every timestamp
    /// the caller records is a simulated tick (idempotent).
    pub fn set_virtual(&self) {
        self.lock().clock_domain = ClockDomain::Virtual;
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

    /// Applies a phase mark, stamped `at` (see
    /// [`ObsReport::clock_domain`] for the unit), to `node`'s timeline
    /// (see [`PhaseTimeline::set`] for write semantics).
    pub fn mark(&self, node: u64, mark: PhaseMark, at: u64) {
        self.lock().timelines.entry(node).or_default().set(mark, at);
    }

    /// An immutable snapshot of everything recorded so far.
    pub fn snapshot(&self) -> ObsReport {
        let inner = self.lock();
        ObsReport {
            clock_domain: inner.clock_domain,
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
        }
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
    fn reports_start_in_the_wall_domain_until_set_virtual() {
        let rec = Recorder::new();
        assert_eq!(rec.snapshot().clock_domain.name(), "wall");
        rec.set_virtual();
        rec.set_virtual();
        assert_eq!(rec.snapshot().clock_domain, ClockDomain::Virtual);
        assert_eq!(rec.snapshot().clock_domain.name(), "virtual");
    }

    #[test]
    fn marks_build_timelines() {
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
    }
}
