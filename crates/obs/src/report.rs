//! Immutable snapshots of a [`crate::Recorder`]: phase timelines and the
//! metrics registry.

use std::collections::BTreeMap;

use crate::hist::Histogram;

/// Which time domain every timestamp of a report belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockDomain {
    /// Simulated ticks of the discrete-event simulator. Deterministic: a
    /// pure function of scenario + seed.
    Virtual,
    /// Elapsed milliseconds since the wall-clock runtime started its run
    /// (the actors' `ctx.now()`). Never comparable across machines.
    #[default]
    Wall,
}

impl ClockDomain {
    /// Stable lowercase name used in JSON exports.
    pub fn name(&self) -> &'static str {
        match self {
            ClockDomain::Virtual => "virtual",
            ClockDomain::Wall => "wall",
        }
    }
}

/// The five per-node marks of the protocol pipeline, in paper order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseMark {
    /// The node sent its first discovery gossip round (Algorithm 1 start).
    FirstGossip,
    /// The node's `S_PD` knowledge view last changed — once discovery
    /// quiesces, this is the fixpoint time of Algorithm 1 (Theorem 2's
    /// "eventually common `S_PD`").
    SpdFixpoint,
    /// The sink/core detector returned (Algorithms 2/4 succeeded).
    SinkIdentified,
    /// The node installed its consensus view (joined the committee as a
    /// member, or entered the learning phase).
    ViewInstalled,
    /// The node decided a value.
    Decided,
}

impl PhaseMark {
    /// Stable snake_case name used in JSON exports.
    pub fn name(&self) -> &'static str {
        match self {
            PhaseMark::FirstGossip => "first_gossip",
            PhaseMark::SpdFixpoint => "spd_fixpoint",
            PhaseMark::SinkIdentified => "sink_identified",
            PhaseMark::ViewInstalled => "view_installed",
            PhaseMark::Decided => "decided",
        }
    }

    /// All marks in pipeline order.
    pub fn all() -> [PhaseMark; 5] {
        [
            PhaseMark::FirstGossip,
            PhaseMark::SpdFixpoint,
            PhaseMark::SinkIdentified,
            PhaseMark::ViewInstalled,
            PhaseMark::Decided,
        ]
    }
}

/// One node's journey through the pipeline, as clock timestamps.
///
/// Every mark is first-write-wins except [`PhaseMark::SpdFixpoint`],
/// which is last-write-wins: the fixpoint of Algorithm 1 is by definition
/// the *final* time the knowledge view changed, which is only known in
/// retrospect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseTimeline {
    /// When the node first gossiped (virtually always the start time).
    pub first_gossip: Option<u64>,
    /// Last time the node's `S_PD` view changed.
    pub spd_fixpoint: Option<u64>,
    /// When the sink/core detector succeeded.
    pub sink_identified: Option<u64>,
    /// When the consensus view was installed.
    pub view_installed: Option<u64>,
    /// When the node decided.
    pub decided: Option<u64>,
}

impl PhaseTimeline {
    /// Applies one mark (see the type docs for the write semantics).
    pub fn set(&mut self, mark: PhaseMark, at: u64) {
        let slot = match mark {
            PhaseMark::FirstGossip => &mut self.first_gossip,
            PhaseMark::SpdFixpoint => {
                self.spd_fixpoint = Some(at);
                return;
            }
            PhaseMark::SinkIdentified => &mut self.sink_identified,
            PhaseMark::ViewInstalled => &mut self.view_installed,
            PhaseMark::Decided => &mut self.decided,
        };
        if slot.is_none() {
            *slot = Some(at);
        }
    }

    /// Reads one mark back.
    pub fn get(&self, mark: PhaseMark) -> Option<u64> {
        match mark {
            PhaseMark::FirstGossip => self.first_gossip,
            PhaseMark::SpdFixpoint => self.spd_fixpoint,
            PhaseMark::SinkIdentified => self.sink_identified,
            PhaseMark::ViewInstalled => self.view_installed,
            PhaseMark::Decided => self.decided,
        }
    }

    /// Whether all five marks are present — true exactly for nodes that
    /// traversed the whole pipeline (i.e. decided).
    pub fn is_complete(&self) -> bool {
        PhaseMark::all().iter().all(|m| self.get(*m).is_some())
    }
}

/// An immutable snapshot of everything a [`crate::Recorder`] collected.
///
/// Derives `Eq` so whole reports can be compared in determinism tests
/// (and so the runtime reports that embed one keep their own `Eq`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsReport {
    /// Which clock domain every timestamp in the report belongs to.
    pub clock_domain: ClockDomain,
    /// Monotonic counters, keyed by metric name.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges, keyed by metric name.
    pub gauges: BTreeMap<String, u64>,
    /// Log2 latency/size histograms, keyed by metric name.
    pub histograms: BTreeMap<String, Histogram>,
    /// Per-node phase timelines, keyed by raw process ID.
    pub timelines: BTreeMap<u64, PhaseTimeline>,
}

impl ObsReport {
    /// Largest timestamp any node recorded for `mark`, `None` if no node
    /// reached it. On the simulator this is the deterministic
    /// "system-wide phase latency" scalar the bench gate consumes.
    pub fn phase_max(&self, mark: PhaseMark) -> Option<u64> {
        self.timelines.values().filter_map(|t| t.get(mark)).max()
    }

    /// Number of nodes whose timeline has all five marks.
    pub fn complete_timelines(&self) -> usize {
        self.timelines.values().filter(|t| t.is_complete()).count()
    }

    /// Counter value, `0` when never incremented.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram by name, if any samples were recorded under it.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_write_semantics() {
        let mut t = PhaseTimeline::default();
        t.set(PhaseMark::FirstGossip, 5);
        t.set(PhaseMark::FirstGossip, 99); // first write wins
        assert_eq!(t.first_gossip, Some(5));
        t.set(PhaseMark::SpdFixpoint, 10);
        t.set(PhaseMark::SpdFixpoint, 40); // last write wins
        assert_eq!(t.spd_fixpoint, Some(40));
        assert!(!t.is_complete());
        t.set(PhaseMark::SinkIdentified, 50);
        t.set(PhaseMark::ViewInstalled, 50);
        t.set(PhaseMark::Decided, 80);
        assert!(t.is_complete());
        assert_eq!(t.get(PhaseMark::Decided), Some(80));
    }

    #[test]
    fn phase_max_spans_nodes() {
        let mut report = ObsReport {
            clock_domain: ClockDomain::Virtual,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            timelines: BTreeMap::new(),
        };
        assert_eq!(report.phase_max(PhaseMark::Decided), None);
        let mut a = PhaseTimeline::default();
        a.set(PhaseMark::Decided, 120);
        let mut b = PhaseTimeline::default();
        b.set(PhaseMark::Decided, 300);
        report.timelines.insert(1, a);
        report.timelines.insert(2, b);
        assert_eq!(report.phase_max(PhaseMark::Decided), Some(300));
        assert_eq!(report.complete_timelines(), 0);
    }
}
