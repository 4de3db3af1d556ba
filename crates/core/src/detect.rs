//! Sink and Core identification (Algorithms 2 and 4).
//!
//! Both detectors evaluate a process's current [`KnowledgeView`]; the
//! surrounding node invokes them when it enters the system and then once
//! per discovery tick whose view changed since the last attempt, which
//! realizes the `wait until ∃S1, S2 …` loops of the paper.

use cupft_graph::{CandidateSearch, KnowledgeView, ProcessSet, SinkCandidate};

/// A successful identification: the member set plus the fault threshold
/// the committee must be parameterized with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Detection {
    /// The identified sink/core members (`S1 ∪ S2`).
    pub members: ProcessSet,
    /// The threshold: the given `f` (Sink) or `f_Gdi` (Core).
    pub threshold: usize,
    /// The `S1` part of the decomposition (connectivity-computable).
    pub s1: ProcessSet,
    /// The `S2` part (absorbed members, PDs possibly missing).
    pub s2: ProcessSet,
}

impl Detection {
    fn from_candidate(candidate: SinkCandidate) -> Self {
        Detection {
            members: candidate.members(),
            threshold: candidate.threshold(),
            s1: candidate.decomposition.s1.clone(),
            s2: candidate.decomposition.s2,
        }
    }
}

/// Algorithm 2: Sink identification with a *known* fault threshold.
///
/// # Example
///
/// ```
/// use cupft_core::SinkDetector;
/// use cupft_graph::{fig1b, process_set, KnowledgeView};
///
/// // Omniscient view of Fig. 1b: the sink is {1,2,3,4}.
/// let view = KnowledgeView::omniscient(fig1b().graph());
/// let detector = SinkDetector::new(1);
/// let detection = detector.check(&view).expect("sink identifiable");
/// assert_eq!(detection.members, process_set([1, 2, 3, 4]));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SinkDetector {
    fault_threshold: usize,
}

impl SinkDetector {
    /// Creates a detector for the given system fault threshold.
    pub fn new(fault_threshold: usize) -> Self {
        SinkDetector { fault_threshold }
    }

    /// The fault threshold this detector was given.
    pub fn fault_threshold(&self) -> usize {
        self.fault_threshold
    }

    /// One evaluation of the `wait until` condition (Algorithm 2 line 3).
    pub fn check(&self, view: &KnowledgeView) -> Option<Detection> {
        CandidateSearch
            .sink_with_threshold(view, self.fault_threshold)
            .map(Detection::from_candidate)
    }
}

/// Algorithm 4: Core identification with an *unknown* fault threshold.
///
/// Returns the best-threshold candidate only when it is internally maximal
/// (Theorem 8(b)); in a graph satisfying the BFT-CUPFT requirements this
/// is exactly the core.
///
/// # Example
///
/// ```
/// use cupft_core::CoreDetector;
/// use cupft_graph::{fig4b, process_set, KnowledgeView};
///
/// let view = KnowledgeView::omniscient(fig4b().graph());
/// let detection = CoreDetector.check(&view).expect("core identifiable");
/// assert_eq!(detection.members, process_set([5, 6, 7, 8, 9]));
/// assert_eq!(detection.threshold, 2); // k_Gdi = 3
/// ```
#[derive(Debug, Clone, Default)]
pub struct CoreDetector;

impl CoreDetector {
    /// One evaluation of the `wait until` condition (Algorithm 4 line 2),
    /// with the *unexplained-remainder guard*.
    ///
    /// The guard: the candidate is finalized only when the known processes
    /// **outside** it whose PDs are still missing number at most the
    /// candidate's threshold. Rationale — a Byzantine process advertising
    /// an empty (or tiny, self-contained) PD forms a syntactically valid
    /// low-threshold "core" (e.g. a singleton at `g = 0`) that a process
    /// could adopt before discovering the real core; trusting such a
    /// committee surrenders Agreement to a single fault. Under the
    /// BFT-CUPFT graph requirements the guard is eventually satisfied by
    /// the true core: at most `f ≤ f_Gdi` silent Byzantine processes stay
    /// missing forever, and property C2 delivers every correct PD. The
    /// lying candidate, by contrast, stays blocked exactly while the view
    /// still owes more PDs than the candidate tolerates — by which time
    /// the real core is visible and outranks it (property C1).
    pub fn check(&self, view: &KnowledgeView) -> Option<Detection> {
        let candidate = CandidateSearch.best_core(view)?;
        let members = candidate.members();
        let unexplained = view
            .missing_pds()
            .iter()
            .filter(|p| !members.contains(p))
            .count();
        if unexplained > candidate.threshold() {
            return None;
        }
        Some(Detection::from_candidate(candidate))
    }
}

/// Observation 1: the *naive* guesser a process is reduced to when the
/// graph is only in `G_di` and `f` is unknown — the best `isSink*`
/// candidate in the current view, with **no** maximality guarantee across
/// the (undiscoverable) rest of the system.
#[derive(Debug, Clone, Default)]
pub struct NaiveSinkGuesser;

impl NaiveSinkGuesser {
    /// The best candidate visible in the view, if any with threshold ≥ 1
    /// (a threshold-0 "sink" is any singleton and would trivialize the
    /// guess; Observation 1's sets all have `g ≥ 1`).
    pub fn check(&self, view: &KnowledgeView) -> Option<Detection> {
        CandidateSearch
            .ranked_candidates(view)
            .into_iter()
            .find(|c| c.threshold() >= 1)
            .map(Detection::from_candidate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cupft_graph::{
        fig1b, fig2c, fig3a, fig4a, fig4b, process_set, GdiParams, Generator, KnowledgeView,
    };

    #[test]
    fn sink_detector_on_fig1b() {
        let view = KnowledgeView::omniscient(fig1b().graph());
        let d = SinkDetector::new(1).check(&view).unwrap();
        assert_eq!(d.members, process_set([1, 2, 3, 4]));
        assert_eq!(d.threshold, 1);
    }

    #[test]
    fn sink_detector_needs_enough_view() {
        // A process that has only its own PD cannot identify a sink.
        let view = KnowledgeView::new(1.into(), process_set([2, 3, 4]));
        assert!(SinkDetector::new(1).check(&view).is_none());
    }

    #[test]
    fn core_detector_on_fig4a() {
        let view = KnowledgeView::omniscient(fig4a().graph());
        let d = CoreDetector.check(&view).unwrap();
        assert_eq!(d.members, process_set([1, 2, 3, 4, 5]));
        assert_eq!(d.threshold, 2);
    }

    #[test]
    fn core_detector_on_fig4b() {
        let view = KnowledgeView::omniscient(fig4b().graph());
        let d = CoreDetector.check(&view).unwrap();
        assert_eq!(d.members, process_set([5, 6, 7, 8, 9]));
    }

    #[test]
    fn naive_guesser_adopts_false_sink_on_fig3a() {
        // The Section IV observation: {1,2,3,4,6} (+S2 {5,7}) qualifies.
        let view = KnowledgeView::omniscient(fig3a().graph());
        let d = NaiveSinkGuesser.check(&view).unwrap();
        // the guesser picks the highest-threshold candidate, which is the
        // false sink (threshold 2 beats the true sink's 1)
        assert_eq!(d.members, process_set([1, 2, 3, 4, 5, 6, 7]));
        assert_eq!(d.threshold, 2);
    }

    #[test]
    fn naive_guesser_splits_on_fig2c_partition() {
        // Process 1's view before any cross-partition message arrives:
        // it knows A's PDs only.
        let g = fig2c();
        let sub = g.graph().induced(&process_set([1, 2, 3, 4]));
        let view = KnowledgeView::omniscient(&sub);
        let d = NaiveSinkGuesser.check(&view).unwrap();
        assert_eq!(d.members, process_set([1, 2, 3, 4]));
        // Process 6's view of the B side:
        let sub = g.graph().induced(&process_set([5, 6, 7, 8]));
        let view = KnowledgeView::omniscient(&sub);
        let d = NaiveSinkGuesser.check(&view).unwrap();
        assert_eq!(d.members, process_set([5, 6, 7, 8]));
    }

    #[test]
    fn core_detector_rejects_fig2c() {
        // fig2c violates C1 (two equal-connectivity sinks); with the whole
        // graph visible, best_core still returns a maximal candidate for
        // ONE of them — but on partial (partition) views both sides would
        // return different cores. The detector itself cannot see C1
        // globally; the *graph family* is what rules fig2c out. Here we
        // check both partition views yield different "cores" — the exact
        // failure BFT-CUPFT's graph requirements exist to prevent.
        let g = fig2c();
        let a = KnowledgeView::omniscient(&g.graph().induced(&process_set([1, 2, 3, 4])));
        let b = KnowledgeView::omniscient(&g.graph().induced(&process_set([5, 6, 7, 8])));
        let da = CoreDetector.check(&a).unwrap();
        let db = CoreDetector.check(&b).unwrap();
        assert_ne!(da.members, db.members);
    }

    #[test]
    fn detectors_agree_on_generated_graphs() {
        for seed in 0..5 {
            let sys = Generator::from_seed(seed)
                .generate(&GdiParams::new(1))
                .unwrap();
            let view = KnowledgeView::omniscient(&sys.graph);
            let d = SinkDetector::new(1).check(&view).expect("sink found");
            assert_eq!(d.members, sys.expected_detection(), "seed {seed}");
        }
    }

    #[test]
    fn core_detector_on_generated_extended_graphs() {
        for seed in 0..5 {
            let mut params = GdiParams::new(1);
            params.extended = true;
            params.byzantine_count = 0;
            params.non_sink_size = 3;
            let sys = Generator::from_seed(seed).generate(&params).unwrap();
            let view = KnowledgeView::omniscient(&sys.graph);
            let d = CoreDetector.check(&view).expect("core found");
            assert_eq!(d.members, sys.sink, "seed {seed}");
        }
    }
}
