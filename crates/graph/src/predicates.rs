//! The `isSinkGdi` predicate family (Theorem 3, Algorithm 2, Section V).
//!
//! Given a fault threshold `g` and two candidate sets `S1`, `S2`, the
//! predicate `isSinkGdi(g, S1, S2)` holds on a process's knowledge view iff:
//!
//! * **P1** `|S1| ≥ 2g + 1`;
//! * **P2** `κ(G[S1]) ≥ g + 1`, computed from *received* PDs (so `S1` must
//!   be a subset of `S_received`);
//! * **P3** at most `g` members of `S1` have outgoing edges to processes
//!   outside `S1 ∪ S2`;
//! * **P4** `S2` is exactly the set of known processes outside `S1` to which
//!   more than `g` members of `S1` point, and `|S2| ≤ g` (Theorem 3
//!   instantiates `S2` as the Byzantine sink members, of which there are at
//!   most the fault threshold; see [`is_sink_gdi`] for why the bound is
//!   load-bearing).
//!
//! On the boundary rule (P3): the paper states P3 as `S1 →^{≤f} V ∖ S1`, but
//! its own Theorem 3 instantiation (`S1` = correct sink members, `S2` =
//! Byzantine sink members) has up to `f+1` correct members pointing at each
//! Byzantine sink member, and Fig. 1b's worked example
//! (`isSinkGdi(1, {1,3,4}, {2})` with three processes pointing at 2) would
//! fail a literal reading. The consistent semantics — used in the proof of
//! Theorem 4, where outgoing edges to *non-sink* processes are what P3
//! bounds — is that P3 counts edges leaving `S1 ∪ S2`. We implement that
//! reading and validate it against every worked example in the paper.
//!
//! When no fault threshold is known, `isSink*(S)` (Section V) holds iff some
//! decomposition `S = S1 ∪ S2` satisfies `isSinkGdi(g, S1, S2)` for some
//! `g ≥ 0`; `f_Gdi(S)` is the maximum such `g` and `k_Gdi(S) = f_Gdi(S)+1`
//! is the set's connectivity.

use std::ops::Range;

use crate::error::GraphError;
use crate::id::ProcessSet;
use crate::snapshot::{Idx, Pointers, ViewSnapshot};
use crate::view::KnowledgeView;

/// A successful sink decomposition: sets `S1`, `S2` and the fault threshold
/// `g` they were validated against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkDecomposition {
    /// The connectivity-computable part (PDs of all members received).
    pub s1: ProcessSet,
    /// The absorbed part (more than `threshold` members of `S1` point at
    /// each member; PDs possibly missing).
    pub s2: ProcessSet,
    /// The fault threshold `g` for which `isSinkGdi(g, S1, S2)` holds.
    pub threshold: usize,
}

impl SinkDecomposition {
    /// All members: `S1 ∪ S2` (the sink/core candidate set).
    pub fn members(&self) -> ProcessSet {
        self.s1.union(&self.s2).copied().collect()
    }

    /// The connectivity `k_Gdi = threshold + 1` of this decomposition.
    pub fn connectivity(&self) -> usize {
        self.threshold + 1
    }
}

/// The non-empty subsets of `size` eligible processes as bit masks,
/// ascending — what every exhaustive search enumerates.
///
/// # Errors
///
/// [`GraphError::TooLargeForExactCheck`] when `size` exceeds `cutoff`, or
/// 63: the masks are `u64`, and `1 << 64` is not a subset count.
pub(crate) fn subset_masks(size: usize, cutoff: usize) -> Result<Range<u64>, GraphError> {
    let cutoff = cutoff.min(63);
    if size > cutoff {
        return Err(GraphError::TooLargeForExactCheck { size, cutoff });
    }
    Ok(1..1u64 << size)
}

/// One candidate `S1 ⊆ S_received` (non-empty) under evaluation on a
/// snapshot: who it points at, and — once a rule asks — how strongly
/// `G[S1]` is connected.
pub(crate) struct Candidate<'a> {
    s1: &'a [Idx],
    pointers: Pointers,
    /// `(cap, min(κ(G[S1]), cap))` of the widest computation so far.
    kappa: Option<(usize, usize)>,
}

impl<'a> Candidate<'a> {
    pub(crate) fn new(snap: &mut ViewSnapshot, s1: &'a [Idx]) -> Self {
        debug_assert!(!s1.is_empty() && s1.iter().all(|&v| snap.is_received(v)));
        Candidate {
            s1,
            pointers: snap.pointers(s1),
            kappa: None,
        }
    }

    /// The forced `S2` at threshold `g` (property P4's "exactly").
    pub(crate) fn s2(&self, g: usize) -> impl Iterator<Item = Idx> + '_ {
        self.pointers.s2(g)
    }

    /// `min(κ(G[S1]), cap)`.
    fn kappa_capped(&mut self, snap: &mut ViewSnapshot, cap: usize) -> usize {
        match self.kappa {
            // A value below its cap is κ itself.
            Some((known_cap, kappa)) if cap <= known_cap || kappa < known_cap => kappa.min(cap),
            _ => {
                let kappa = snap.subnetwork(self.s1).connectivity(cap, 1);
                self.kappa = Some((cap, kappa));
                kappa
            }
        }
    }

    /// P3 and the size half of P4 at threshold `g`: at most `g` members
    /// point outside `S1 ∪ S2`, and `|S2| ≤ g`.
    fn admits(&self, g: usize) -> bool {
        self.s2(g).count() <= g && self.pointers.boundary(g) <= g
    }

    /// `isSinkGdi(g, S1, S2)` for the forced `S2` and a `g` within P1's
    /// `|S1| ≥ 2g + 1`: P4, P3, then P2 (last: the only one that costs a
    /// flow).
    pub(crate) fn holds(&mut self, snap: &mut ViewSnapshot, g: usize) -> bool {
        debug_assert!(self.s1.len() > 2 * g);
        self.admits(g) && self.kappa_capped(snap, g + 1) > g
    }

    /// The largest threshold at which [`Self::holds`].
    ///
    /// Feasibility is not monotone in `g` (raising `g` shrinks `S2` and
    /// can surface boundary edges), so the range `0..=(|S1|−1)/2` is
    /// scanned from the top; `κ` is computed once, no further than the
    /// best threshold P3/P4 admit.
    pub(crate) fn max_threshold(&mut self, snap: &mut ViewSnapshot) -> Option<usize> {
        let size_bound = (self.s1.len() - 1) / 2;
        let admitted: Vec<usize> = (0..=size_bound).rev().filter(|&g| self.admits(g)).collect();
        let kappa = self.kappa_capped(snap, *admitted.first()? + 1);
        admitted.into_iter().find(|&g| g < kappa)
    }

    pub(crate) fn decomposition(&self, snap: &ViewSnapshot, g: usize) -> SinkDecomposition {
        SinkDecomposition {
            s1: snap.process_set(self.s1.iter().copied()),
            s2: snap.process_set(self.s2(g)),
            threshold: g,
        }
    }
}

/// `isSinkGdi(g, S1, S2)` for `S1 ⊆ S_received` and its forced `S2`.
pub(crate) fn sink_at(snap: &mut ViewSnapshot, s1: &[Idx], g: usize) -> Option<SinkDecomposition> {
    // P1.
    if s1.len() <= 2 * g {
        return None;
    }
    let mut candidate = Candidate::new(snap, s1);
    candidate
        .holds(snap, g)
        .then(|| candidate.decomposition(snap, g))
}

/// Derives the forced `S2` for a threshold `g` and candidate `S1`
/// (property P4): every known process outside `S1` at which more than `g`
/// members of `S1` point.
///
/// # Example
///
/// ```
/// use cupft_graph::{derive_s2, DiGraph, KnowledgeView, process_set};
///
/// // 1, 3, 4 all point at 2.
/// let g = DiGraph::from_edges([(1, 2), (3, 2), (4, 2), (1, 3), (3, 4), (4, 1), (1, 4), (4, 3), (3, 1)]);
/// let view = KnowledgeView::omniscient(&g);
/// let s2 = derive_s2(&view, &process_set([1, 3, 4]), 1);
/// assert_eq!(s2, process_set([2]));
/// ```
pub fn derive_s2(view: &KnowledgeView, s1: &ProcessSet, g: usize) -> ProcessSet {
    let mut snap = ViewSnapshot::new(view);
    // Members the view has not heard of point at nothing it knows.
    let s1 = snap.indices(s1);
    let pointers = snap.pointers(&s1);
    snap.process_set(pointers.s2(g))
}

/// Evaluates `isSinkGdi(g, S1, S2)` on a knowledge view (Algorithm 2,
/// line 1).
///
/// Returns `false` (rather than erroring) when `S1` contains processes
/// whose PDs have not been received: their connectivity is not computable,
/// which is exactly the situation properties P1–P4 are designed around.
///
/// `S2` must be exactly the derived set, and no larger than `g`. The size
/// bound is implicit in Theorem 3's construction (`S2` holds Byzantine or
/// slow *sink members*, of which there are at most `f`) and is load-
/// bearing for Algorithm 4's soundness: without it, a process's initial
/// view admits the trivial candidate `S1 = {self}`, `S2 = PD_self` at
/// `g = 0`, and the Core algorithm would terminate before discovering
/// anything.
///
/// # Example
///
/// ```
/// use cupft_graph::{is_sink_gdi, fig1b, KnowledgeView, process_set};
///
/// // The paper's worked example on Fig. 1b: S1 = {1,3,4}, S2 = {2}, f = 1.
/// let view = KnowledgeView::omniscient(fig1b().graph());
/// assert!(is_sink_gdi(&view, 1, &process_set([1, 3, 4]), &process_set([2])));
/// ```
pub fn is_sink_gdi(view: &KnowledgeView, g: usize, s1: &ProcessSet, s2: &ProcessSet) -> bool {
    let mut snap = ViewSnapshot::new(view);
    snap.received_indices(s1)
        .and_then(|s1| sink_at(&mut snap, &s1, g))
        .is_some_and(|found| found.s2 == *s2)
}

/// Computes the maximum threshold `g` for which the candidate `S1`
/// (with its forced `S2`) satisfies `isSinkGdi`, if any.
///
/// The feasible range is bounded above by `min(κ(G[S1]) − 1, (|S1|−1)/2)`;
/// within it, feasibility is not monotone in `g` (raising `g` shrinks `S2`
/// and can surface boundary edges), so the range is scanned from the top.
pub fn max_threshold(view: &KnowledgeView, s1: &ProcessSet) -> Option<SinkDecomposition> {
    let mut snap = ViewSnapshot::new(view);
    let s1 = snap.received_indices(s1)?;
    max_threshold_at(&mut snap, &s1)
}

/// [`max_threshold`] for `S1 ⊆ S_received` on a snapshot.
pub(crate) fn max_threshold_at(snap: &mut ViewSnapshot, s1: &[Idx]) -> Option<SinkDecomposition> {
    if s1.is_empty() {
        return None;
    }
    let mut candidate = Candidate::new(snap, s1);
    let g = candidate.max_threshold(snap)?;
    Some(candidate.decomposition(snap, g))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::DiGraph;
    use crate::id::process_set;

    /// The sink-side of Fig. 1b as seen by process 1 in the worked example:
    /// 2 is slow (PD not received); 4 is Byzantine claiming PD {1,2,3}.
    fn fig1b_partial_view() -> KnowledgeView {
        let mut view = KnowledgeView::new(1.into(), process_set([2, 3, 4]));
        view.record_pd(3.into(), process_set([1, 2, 4]));
        view.record_pd(4.into(), process_set([1, 2, 3]));
        view
    }

    #[test]
    fn worked_example_from_section_iii() {
        // isSinkGdi(1, {1,3,4}, {2}) must hold in process 1's partial view.
        let view = fig1b_partial_view();
        let s1 = process_set([1, 3, 4]);
        assert_eq!(derive_s2(&view, &s1, 1), process_set([2]));
        assert!(is_sink_gdi(&view, 1, &s1, &process_set([2])));
        let best = max_threshold(&view, &s1).unwrap();
        assert_eq!(best.threshold, 1);
        assert_eq!(best.members(), process_set([1, 2, 3, 4]));
    }

    #[test]
    fn s2_mismatch_rejected() {
        let view = fig1b_partial_view();
        let s1 = process_set([1, 3, 4]);
        assert!(!is_sink_gdi(&view, 1, &s1, &ProcessSet::new()));
        assert!(!is_sink_gdi(&view, 1, &s1, &process_set([2, 5])));
    }

    #[test]
    fn size_requirement_p1() {
        let view = fig1b_partial_view();
        let s1 = process_set([1, 3]);
        // |S1| = 2 < 2*1+1
        let s2 = derive_s2(&view, &s1, 1);
        assert!(!is_sink_gdi(&view, 1, &s1, &s2));
    }

    #[test]
    fn unreceived_pd_rejected() {
        let view = fig1b_partial_view();
        // 2's PD was never received: any S1 containing 2 is rejected.
        let s1 = process_set([1, 2, 3]);
        let s2 = derive_s2(&view, &s1, 1);
        assert!(!is_sink_gdi(&view, 1, &s1, &s2));
        assert!(max_threshold(&view, &s1).is_none());
    }

    #[test]
    fn connectivity_requirement_p2() {
        // A directed 5-cycle has kappa = 1 < g+1 for g = 1.
        let g = DiGraph::from_edges([(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]);
        let view = KnowledgeView::omniscient(&g);
        let s1 = process_set([1, 2, 3, 4, 5]);
        let s2 = derive_s2(&view, &s1, 1);
        assert!(!is_sink_gdi(&view, 1, &s1, &s2));
        // but it is a valid g = 0 sink
        let s2 = derive_s2(&view, &s1, 0);
        assert!(is_sink_gdi(&view, 0, &s1, &s2));
    }

    #[test]
    fn boundary_requirement_p3() {
        // Complete triangle {1,2,3}, but 1 and 2 also point at 9 and 1 at 8;
        // 9 and 8 receive ≤ g pointers so S2 stays empty.
        let mut g = DiGraph::complete(&process_set([1, 2, 3]));
        g.add_edge(1.into(), 9.into());
        g.add_edge(2.into(), 8.into());
        let view = KnowledgeView::omniscient(&g);
        let s1 = process_set([1, 2, 3]);
        let s2 = derive_s2(&view, &s1, 1);
        assert!(s2.is_empty());
        // two boundary members > g = 1
        assert!(!is_sink_gdi(&view, 1, &s1, &s2));
    }

    #[test]
    fn max_threshold_of_complete_graphs() {
        for n in 3..=9u64 {
            let g = DiGraph::complete(&process_set(1..=n));
            let view = KnowledgeView::omniscient(&g);
            let best = max_threshold(&view, &process_set(1..=n)).unwrap();
            // complete K_n: kappa = n-1, size bound (n-1)/2 dominates
            assert_eq!(best.threshold, ((n - 1) / 2) as usize, "K{n}");
            assert!(best.s2.is_empty());
        }
    }

    #[test]
    fn empty_s1_rejected() {
        let view = fig1b_partial_view();
        assert!(!is_sink_gdi(
            &view,
            0,
            &ProcessSet::new(),
            &ProcessSet::new()
        ));
        assert!(max_threshold(&view, &ProcessSet::new()).is_none());
    }
}
