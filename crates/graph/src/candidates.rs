//! Candidate search for sink and core identification.
//!
//! Algorithms 2 (Sink) and 4 (Core) are specified as `wait until ∃S1, S2 …`
//! over all subsets of the local view — a specification, not an algorithm.
//! This module supplies the executable search:
//!
//! * **Heuristic candidates**: the sink strongly-connected components of the
//!   *received-knowledge* graph, plus "peeled" variants that drop members
//!   whose (possibly fabricated) PDs depress connectivity. This covers
//!   Scenarios I and II of Section III — silent Byzantine members and slow
//!   correct members simply never enter the received graph, and lying
//!   Byzantine members are peeled — and every witness graph in the paper.
//! * **Exact search**: the answer of exhaustive subset enumeration, used as
//!   ground truth in tests and as the fallback for small views, guarded by
//!   a cutoff on `|S_received|`. Only subsets of the *feasible parts* are
//!   tried — the strongly connected pieces of the received graph left after
//!   dropping members with at most `f` neighbours inside their piece, where
//!   every `S1` with `κ(G[S1]) ≥ f + 1` must lie — and the lowest-mask hit
//!   among them is the one plain enumeration would return.
//!
//! The heuristic is validated against the exact search by property tests in
//! the crate's test suite.

use crate::error::GraphError;
use crate::id::ProcessSet;
use crate::predicates::{max_threshold_at, sink_at, subset_masks, Candidate, SinkDecomposition};
use crate::snapshot::{select, Idx, ViewSnapshot};
use crate::view::KnowledgeView;

/// The sink/core search of Algorithms 2 and 4 (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CandidateSearch;

/// Maximum number of peeling steps applied to each component of the
/// received graph.
const MAX_PEELS: usize = 4;

/// Maximum component size for minimum-cut splitting. Cut splitting probes
/// ordered vertex pairs with a max-flow bound, up to all of them, which is
/// quadratic-times-flow in the component size — essential for the paper's
/// small witness graphs (a core buried inside a larger SCC), hopeless on
/// the giant random SCCs that large-scale views contain. Components above
/// the cutoff skip it; the planted committees of the scalable graph
/// families are their own (small) sink SCCs, so they are found without it.
const CUT_SPLIT_CUTOFF: usize = 64;

impl CandidateSearch {
    /// Maximum set size for exhaustive subset enumeration; beyond it only
    /// heuristic candidates are considered.
    pub const EXACT_CUTOFF: usize = 14;

    /// Candidate `S1` sets derived from the structure of the received
    /// graph: every SCC of `G[S_received]` in reverse topological order
    /// (sink components first), plus "peeled" variants of each (iteratively
    /// dropping the member with the lowest internal degree, which is where
    /// a lying Byzantine PD shows up).
    ///
    /// All components are considered — not only sinks — because a Byzantine
    /// member claiming edges to unreceived processes can make the true sink
    /// look non-terminal in the received graph.
    pub fn candidate_s1_sets(&self, view: &KnowledgeView) -> Vec<ProcessSet> {
        let mut snap = ViewSnapshot::new(view);
        let candidates = self.candidates(&mut snap);
        let to_set = |s1: Vec<Idx>| snap.process_set(s1);
        candidates.into_iter().map(to_set).collect()
    }

    fn candidates(&self, snap: &mut ViewSnapshot) -> Vec<Vec<Idx>> {
        let mut out = Vec::new();
        for component in snap.received_components() {
            self.append_component_candidates(snap, &component, &mut out);
        }
        out
    }

    /// Appends the candidates one condensation component contributes, in
    /// the canonical order: the component itself, its peeled variants,
    /// then (size permitting) its minimum-cut splits.
    fn append_component_candidates(
        &self,
        snap: &mut ViewSnapshot,
        component: &[Idx],
        out: &mut Vec<Vec<Idx>>,
    ) {
        push_unique(component.to_vec(), out);
        let mut cur = component.to_vec();
        for _ in 0..MAX_PEELS {
            if cur.len() <= 1 {
                break;
            }
            // Drop the member with the weakest internal connectivity
            // footprint (min of in/out degree, ties by ID for
            // determinism).
            cur.remove(snap.weakest_member(&cur));
            push_unique(cur.clone(), out);
        }
        // Minimum-cut splitting: a core embedded inside a larger SCC
        // (e.g. Fig. 4a, where the whole graph is one SCC) is exposed by
        // splitting the component at its minimum vertex cuts. All-pairs
        // flow probing is quadratic in the component — skipped above the
        // cutoff (see [`CUT_SPLIT_CUTOFF`]).
        if component.len() <= CUT_SPLIT_CUTOFF {
            cut_split(snap, component, 3, out);
        }
    }

    /// Algorithm 2's search: find `S1 ⊆ S_received`, `S2 ⊆ S_known ∖ S1`
    /// with `isSinkGdi(f, S1, S2)` for the *given* fault threshold.
    ///
    /// Returns `None` when the view does not yet contain a valid sink —
    /// the caller keeps discovering and retries (the `wait until`).
    pub fn sink_with_threshold(&self, view: &KnowledgeView, f: usize) -> Option<SinkDecomposition> {
        // Candidates are generated *lazily per component*, in exactly the
        // order `candidate_s1_sets` would produce them: the condensation's
        // sink components come first, so on a graph with a planted
        // committee the very first candidate usually succeeds and the
        // expensive splitting of later (often giant) components is never
        // computed. This is the identification hot path — every node of an
        // end-to-end run re-enters it on each discovery tick whose view
        // changed.
        let mut snap = ViewSnapshot::new(view);
        let components = snap.received_components();
        let mut out: Vec<Vec<Idx>> = Vec::new();
        let mut checked = 0;
        for component in &components {
            self.append_component_candidates(&mut snap, component, &mut out);
            for s1 in &out[checked..] {
                if let Some(decomposition) = sink_at(&mut snap, s1, f) {
                    return Some(decomposition);
                }
            }
            checked = out.len();
        }
        // Exhaustive fallback for small views.
        exact_sink_at(&mut snap, components, f, Self::EXACT_CUTOFF)
            .ok()
            .flatten()
    }

    /// All validated candidates in the current view, each at its maximum
    /// threshold, ordered by descending threshold (ties: larger member set
    /// first, then lexicographically smaller `S1`).
    pub fn ranked_candidates(&self, view: &KnowledgeView) -> Vec<SinkDecomposition> {
        self.ranked(&mut ViewSnapshot::new(view))
    }

    fn ranked(&self, snap: &mut ViewSnapshot) -> Vec<SinkDecomposition> {
        let mut found: Vec<SinkDecomposition> = Vec::new();
        for s1 in self.candidates(snap) {
            if let Some(decomposition) = max_threshold_at(snap, &s1) {
                if !found.contains(&decomposition) {
                    found.push(decomposition);
                }
            }
        }
        found.sort_by(|a, b| {
            b.threshold
                .cmp(&a.threshold)
                .then_with(|| b.members().len().cmp(&a.members().len()))
                .then_with(|| a.s1.cmp(&b.s1))
        });
        found
    }

    /// Algorithm 4's search: the best candidate by threshold, accepted only
    /// if *internally maximal* — no strict subset of its member set forms a
    /// sink with a threshold at least as large (Theorem 8, condition (b)).
    pub fn best_core(&self, view: &KnowledgeView) -> Option<SinkDecomposition> {
        let mut snap = ViewSnapshot::new(view);
        let best = self.ranked(&mut snap).into_iter().next()?;
        self.internally_maximal(&mut snap, &best).then_some(best)
    }

    /// Theorem 8(b), made *stable* under partial knowledge: rejects
    /// `candidate` unless it can be **certified** that no strict subset `V`
    /// of its member set satisfies `isSink*(V)` with
    /// `k_Gdi(V) ≥ k_Gdi(candidate)`.
    ///
    /// Certification happens in one of two ways:
    ///
    /// * **size stability** — a competing `V` needs its own `S1'` with
    ///   `|S1'| ≥ 2·(threshold+1) + 1`; when `|members| ≤ 2·threshold + 2`
    ///   no subset can ever beat the candidate, *regardless of PDs yet to
    ///   arrive* (this covers minimal cores of size `2f+1` or `2f+2`
    ///   without any enumeration);
    /// * **complete knowledge** — every member's PD has been received, so
    ///   subsets can be enumerated against ground truth.
    ///
    /// A candidate that is neither size-stable nor fully received is
    /// rejected: a member with a missing PD could, once its PD arrives,
    /// complete a higher-threshold subset (this is not hypothetical — a
    /// view holding all of Fig. 4a's PDs *except one core member's* admits
    /// a whole-graph pseudo-core that the literal Algorithm 4 text would
    /// accept). Discovery continues and the check re-fires, so while the
    /// missing PDs are still on their way this conservatism costs latency.
    /// Whether it still terminates when a member's identifier is owned by
    /// no process, so that its PD never arrives, is an open question:
    /// ROADMAP.md item 1 measured `fig4a` stalling under a Byzantine PD
    /// that names three made-up identifiers.
    pub fn is_internally_maximal(
        &self,
        view: &KnowledgeView,
        candidate: &SinkDecomposition,
    ) -> bool {
        self.internally_maximal(&mut ViewSnapshot::new(view), candidate)
    }

    fn internally_maximal(&self, snap: &mut ViewSnapshot, candidate: &SinkDecomposition) -> bool {
        let g_star = candidate.threshold;
        // Size stability: no subset large enough to beat g* can exist.
        if candidate.members().len() <= 2 * g_star + 2 {
            return true;
        }
        // Otherwise we need ground truth for every member.
        let Some(members) = snap.received_indices(&candidate.members()) else {
            return false;
        };
        if let Ok(masks) = subset_masks(members.len(), Self::EXACT_CUTOFF) {
            // Exhaustive: any subset decomposition landing strictly inside
            // `members` with threshold >= g* disqualifies.
            let mut s1 = Vec::new();
            for mask in masks.filter(|mask| mask.count_ones() as usize > 2 * g_star) {
                select(&members, mask, &mut s1);
                if disqualifies(snap, &s1, g_star, &members) {
                    return false;
                }
            }
            true
        } else {
            // Heuristic: check peeled variants of the candidate's S1 only.
            let mut cur = snap.indices(&candidate.s1);
            for _ in 0..MAX_PEELS {
                if cur.len() <= 2 * g_star + 1 {
                    break;
                }
                cur.remove(snap.weakest_member(&cur));
                if disqualifies(snap, &cur, g_star, &members) {
                    return false;
                }
            }
            true
        }
    }
}

fn push_unique(set: Vec<Idx>, out: &mut Vec<Vec<Idx>>) {
    if !set.is_empty() && !out.contains(&set) {
        out.push(set);
    }
}

/// Recursively splits `set` at minimum vertex cuts of the induced subgraph,
/// pushing each side (with and without the cut vertices) as a candidate.
///
/// A set containing a high-connectivity core plus weakly-attached
/// outsiders has a small vertex cut between some cross pair; the side
/// containing the core, together with the cut, recovers the core exactly.
/// The split is at the first ordered pair (ascending, source-major) with
/// only `κ(G[set])` disjoint paths: `κ` is computed once by root probing,
/// and the scan stops at the first pair that reaches it.
/// Candidate volume is bounded by the recursion `depth` and a global cap.
fn cut_split(snap: &mut ViewSnapshot, set: &[Idx], depth: usize, out: &mut Vec<Vec<Idx>>) {
    const MAX_CANDIDATES: usize = 96;
    if depth == 0 || set.len() < 3 || out.len() >= MAX_CANDIDATES {
        return;
    }
    let mut net = snap.subnetwork(set);
    let kappa = net.connectivity(usize::MAX, 1);
    if kappa == 0 {
        // Not strongly connected: the SCC machinery covers this shape.
        return;
    }
    // The first ordered pair, in scan order, joined by only κ disjoint
    // paths: which pair that is decides the split. Probes are capped at
    // κ + 1, just enough to tell κ from more.
    let mut pairs = (0..set.len()).flat_map(|u| (0..set.len()).map(move |v| (u, v)));
    let Some((u, v)) = pairs.find(|&(u, v)| u != v && net.paths(u, v, Some(kappa + 1)) == kappa)
    else {
        return;
    };
    let cut: Vec<Idx> = net
        .min_vertex_cut(u, v)
        .into_iter()
        .map(|pos| set[pos])
        .collect();
    if cut.is_empty() || cut.len() >= set.len().saturating_sub(2) {
        return;
    }
    let minus = |set: &[Idx], gone: &[Idx]| -> Vec<Idx> {
        let kept = set.iter().filter(|v| gone.binary_search(v).is_err());
        kept.copied().collect()
    };
    let with_cut = |side: &[Idx]| {
        let mut joined = [side, &cut].concat();
        joined.sort_unstable();
        joined
    };
    let without_cut = minus(set, &cut);
    let side_u = snap.reachable_within(&without_cut, set[u]);
    let rest = minus(&without_cut, &side_u);
    let side_u_cut = with_cut(&side_u);
    let rest_cut = with_cut(&rest);
    for side in [&side_u, &side_u_cut, &rest, &rest_cut] {
        if side.len() < set.len() {
            push_unique(side.clone(), out);
        }
    }
    cut_split(snap, &side_u_cut, depth - 1, out);
    cut_split(snap, &rest_cut, depth - 1, out);
}

/// Whether candidate set `s1` (with any feasible `g ≥ g_star`) forms a sink
/// whose members are a strict subset of `limit ⊇ s1`.
fn disqualifies(snap: &mut ViewSnapshot, s1: &[Idx], g_star: usize, limit: &[Idx]) -> bool {
    let mut candidate = Candidate::new(snap, s1);
    (g_star..=(s1.len() - 1) / 2).any(|g| {
        let inside = candidate.s2(g).all(|v| limit.binary_search(&v).is_ok());
        let strict = s1.len() + candidate.s2(g).count() < limit.len();
        inside && strict && candidate.holds(snap, g)
    })
}

/// [`exact_sink_with_threshold`] on a snapshot whose received graph has
/// the strongly connected `components`.
///
/// The plain search tries every subset of `S_received` by ascending mask
/// and returns the first hit. A hit lies inside one feasible part (see
/// [`ViewSnapshot::feasible_parts`]), so only subsets of those are tried.
/// Inside a part, local bit order follows the global one, so a part's
/// first hit is its lowest-mask hit; of those, the lowest global mask wins
/// — exactly the plain search's answer.
fn exact_sink_at(
    snap: &mut ViewSnapshot,
    components: Vec<Vec<Idx>>,
    f: usize,
    cutoff: usize,
) -> Result<Option<SinkDecomposition>, GraphError> {
    let received = snap.received();
    // Refuse exactly the views the plain enumeration refuses.
    subset_masks(received.len(), cutoff)?;
    let global_mask = |s1: &[Idx]| -> u64 {
        let bit = |v| received.binary_search(v).expect("S1 ⊆ S_received");
        s1.iter().map(|v| 1 << bit(v)).sum()
    };
    let mut hits = Vec::new();
    let mut s1 = Vec::new();
    for part in snap.feasible_parts(components, f) {
        let hit = subset_masks(part.len(), cutoff)?.find_map(|mask| {
            select(&part, mask, &mut s1);
            sink_at(snap, &s1, f).map(|decomposition| (global_mask(&s1), decomposition))
        });
        hits.extend(hit);
    }
    let lowest = hits.into_iter().min_by_key(|&(mask, _)| mask);
    Ok(lowest.map(|(_, decomposition)| decomposition))
}

/// Exhaustive version of Algorithm 2's search (ground truth for tests):
/// the first hit of enumerating every subset of `S_received` as a mask
/// over ascending identifiers, found by trying only the subsets that can
/// hit (`docs/PAPER_MAP.md`, "Where a valid S1 can lie").
///
/// # Errors
///
/// Returns [`GraphError::TooLargeForExactCheck`] when the received set
/// exceeds `cutoff` (or 63: subsets are enumerated as `u64` masks).
pub fn exact_sink_with_threshold(
    view: &KnowledgeView,
    f: usize,
    cutoff: usize,
) -> Result<Option<SinkDecomposition>, GraphError> {
    let mut snap = ViewSnapshot::new(view);
    let components = snap.received_components();
    exact_sink_at(&mut snap, components, f, cutoff)
}

/// Exhaustive best-threshold sink over *all* subsets of the received set
/// (ground truth for the core search).
///
/// # Errors
///
/// Returns [`GraphError::TooLargeForExactCheck`] when the received set
/// exceeds `cutoff` (or 63: subsets are enumerated as `u64` masks).
pub fn exact_best_sink(
    view: &KnowledgeView,
    cutoff: usize,
) -> Result<Option<SinkDecomposition>, GraphError> {
    let mut snap = ViewSnapshot::new(view);
    let received = snap.received();
    let mut best: Option<SinkDecomposition> = None;
    let mut s1 = Vec::new();
    for mask in subset_masks(received.len(), cutoff)? {
        select(&received, mask, &mut s1);
        if let Some(dec) = max_threshold_at(&mut snap, &s1) {
            let replace = best.as_ref().is_none_or(|b| {
                (dec.threshold, dec.members().len()) > (b.threshold, b.members().len())
            });
            if replace {
                best = Some(dec);
            }
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::DiGraph;
    use crate::id::{process_set, ProcessId};

    /// Process 1's view in the Section III worked example (Fig. 1b,
    /// process 2 slow, process 4 Byzantine claiming PD {1,2,3}).
    fn worked_view() -> KnowledgeView {
        let mut view = KnowledgeView::new(1.into(), process_set([2, 3, 4]));
        view.record_pd(3.into(), process_set([1, 2, 4]));
        view.record_pd(4.into(), process_set([1, 2, 3]));
        view
    }

    #[test]
    fn heuristic_finds_worked_example_sink() {
        let view = worked_view();
        let cand = CandidateSearch.sink_with_threshold(&view, 1).unwrap();
        assert_eq!(cand.members(), process_set([1, 2, 3, 4]));
        assert_eq!(cand.s1, process_set([1, 3, 4]));
        assert_eq!(cand.s2, process_set([2]));
    }

    #[test]
    fn heuristic_matches_exact_on_worked_example() {
        let view = worked_view();
        let exact = exact_sink_with_threshold(&view, 1, CandidateSearch::EXACT_CUTOFF)
            .unwrap()
            .unwrap();
        let heuristic = CandidateSearch.sink_with_threshold(&view, 1).unwrap();
        assert_eq!(exact.members(), heuristic.members());
    }

    #[test]
    fn no_candidate_before_enough_knowledge() {
        // Only own PD received: nothing satisfies |S1| >= 3 for f = 1.
        let view = KnowledgeView::new(1.into(), process_set([2, 3, 4]));
        assert!(CandidateSearch.sink_with_threshold(&view, 1).is_none());
    }

    #[test]
    fn core_on_complete_graph_is_whole_set() {
        let g = DiGraph::complete(&process_set(1..=5));
        let view = KnowledgeView::omniscient(&g);
        let core = CandidateSearch.best_core(&view).unwrap();
        assert_eq!(core.members(), process_set(1..=5));
        assert_eq!(core.threshold, 2);
        assert_eq!(core.connectivity(), 3);
    }

    #[test]
    fn ranked_candidates_ordering() {
        let g = DiGraph::complete(&process_set(1..=5));
        let view = KnowledgeView::omniscient(&g);
        let ranked = CandidateSearch.ranked_candidates(&view);
        assert!(!ranked.is_empty());
        for pair in ranked.windows(2) {
            assert!(pair[0].threshold >= pair[1].threshold);
        }
    }

    #[test]
    fn exact_best_sink_on_complete_graph() {
        let g = DiGraph::complete(&process_set(1..=5));
        let view = KnowledgeView::omniscient(&g);
        let best = exact_best_sink(&view, CandidateSearch::EXACT_CUTOFF)
            .unwrap()
            .unwrap();
        assert_eq!(best.threshold, 2);
        assert_eq!(best.members(), process_set(1..=5));
    }

    #[test]
    fn exact_cutoff_errors() {
        let g = DiGraph::complete(&process_set(1..=16));
        let view = KnowledgeView::omniscient(&g);
        assert!(exact_best_sink(&view, 8).is_err());
        assert!(exact_sink_with_threshold(&view, 1, 8).is_err());
    }

    /// An omniscient view of a directed cycle on `n` vertices (κ = 1).
    fn cycle_view(n: u64) -> KnowledgeView {
        KnowledgeView::omniscient(&DiGraph::from_edges((0..n).map(|i| (i, (i + 1) % n))))
    }

    #[test]
    fn sixty_four_eligible_ids_are_refused_not_shifted() {
        // Subsets are u64 masks: a caller-set cutoff of 64 or more used to
        // reach `1 << 64` (debug panic, empty loop in release).
        let view = cycle_view(64);
        for cutoff in [64, usize::MAX] {
            let too_large = Err(GraphError::TooLargeForExactCheck {
                size: 64,
                cutoff: 63,
            });
            assert_eq!(exact_sink_with_threshold(&view, 0, cutoff), too_large);
            assert_eq!(exact_best_sink(&view, cutoff), too_large);
        }
        assert!(subset_masks(63, 64).is_ok_and(|masks| masks.end == 1 << 63));
    }

    #[test]
    fn internal_maximality_skips_enumeration_above_63_members() {
        let view = cycle_view(64);
        let whole = SinkDecomposition {
            s1: view.received(),
            s2: ProcessSet::new(),
            threshold: 0,
        };
        // Falls back to the peeled variants: a cycle minus vertices is a
        // path, which is no sink, so nothing disqualifies the whole cycle.
        assert!(CandidateSearch.is_internally_maximal(&view, &whole));
    }

    #[test]
    fn peeling_recovers_sink_despite_lying_byzantine() {
        // Sink triangle {1,2,3}; Byzantine 4 claims a PD pointing only at
        // distant 9, sabotaging kappa of any S1 containing it.
        let mut view = KnowledgeView::new(1.into(), process_set([2, 3, 4]));
        view.record_pd(2.into(), process_set([1, 3]));
        view.record_pd(3.into(), process_set([1, 2]));
        view.record_pd(4.into(), process_set([9]));
        let cand = CandidateSearch.sink_with_threshold(&view, 1);
        // {1,2,3} is 2-strongly-connected, size 3 = 2f+1; 4's claimed PD
        // pointing at 9 keeps it out of S2 (only one pointer).
        let cand = cand.expect("sink should be identifiable by peeling");
        assert_eq!(cand.s1, process_set([1, 2, 3]));
    }

    /// Core K4 `{1..4}` closed into one SCC by the directed path
    /// `4 → 5 → … → last → 1`.
    fn core_on_a_cycle(last: u64) -> KnowledgeView {
        let mut g = DiGraph::complete(&process_set(1..=4));
        for v in 4..last {
            g.add_edge(v.into(), (v + 1).into());
        }
        g.add_edge(last.into(), 1.into());
        KnowledgeView::omniscient(&g)
    }

    #[test]
    fn cut_split_cutoff_governs_embedded_core_discovery() {
        // A core inside a small SCC surfaces by cut splitting, and the lazy
        // path and the eager enumeration agree on it.
        let view = core_on_a_cycle(5);
        assert!(CandidateSearch
            .candidate_s1_sets(&view)
            .contains(&process_set(1..=4)));
        assert_eq!(
            CandidateSearch
                .sink_with_threshold(&view, 1)
                .map(|c| c.members()),
            Some(process_set(1..=4))
        );
        // Above the cutoff the component contributes only itself and its
        // peels (the tail of the cycle, one vertex each), so the core stays
        // buried: no candidate is 2-strongly connected and 70 received PDs
        // are beyond the exhaustive fallback.
        let view = core_on_a_cycle(70);
        assert!(view.received_count() > CUT_SPLIT_CUTOFF);
        let peels = (0..=MAX_PEELS as u64).map(|p| process_set((1..=4).chain(5 + p..=70)));
        assert_eq!(
            CandidateSearch.candidate_s1_sets(&view),
            peels.collect::<Vec<_>>()
        );
        assert_eq!(CandidateSearch.sink_with_threshold(&view, 1), None);
    }

    /// Complete digraphs on each of `groups`, nothing between them.
    fn disjoint_cliques(groups: &[&[u64]]) -> KnowledgeView {
        let edges = groups.iter().flat_map(|group| {
            let pairs = group
                .iter()
                .flat_map(|&a| group.iter().map(move |&b| (a, b)));
            pairs.filter(|(a, b)| a != b)
        });
        KnowledgeView::omniscient(&DiGraph::from_edges(edges))
    }

    #[test]
    fn exact_search_returns_the_lowest_mask_hit_across_parts() {
        // Two valid triangles at f = 1. Over the IDs {1,2,3,4,5,9},
        // {3,4,5} has the lower mask in the first layout and {1,2,3} in
        // the second; the condensation lists the component of ID 1 first
        // in both, so neither the first nor the last part's hit passes.
        for (groups, expected) in [
            ([[1, 2, 9], [3, 4, 5]], [3, 4, 5]),
            ([[1, 2, 3], [4, 5, 9]], [1, 2, 3]),
        ] {
            let view = disjoint_cliques(&[&groups[0], &groups[1]]);
            let found = exact_sink_with_threshold(&view, 1, CandidateSearch::EXACT_CUTOFF);
            let s1 = found.unwrap().map(|c| c.s1);
            assert_eq!(s1, Some(process_set(expected)), "{groups:?}");
        }
    }

    #[test]
    fn exact_search_reaches_past_the_plain_enumeration() {
        // 18 disjoint directed 3-cycles (κ = 1) below one K4 on the top
        // IDs: 58 received PDs, and the plain enumeration's first hit
        // would be mask 2^54 + 2^55 + 2^56. Only the K4 survives peeling.
        let mut g = DiGraph::complete(&process_set(55..=58));
        for c in 0..18 {
            let [a, b, d] = [1, 2, 3].map(|i| ProcessId::new(3 * c + i));
            for (from, to) in [(a, b), (b, d), (d, a)] {
                g.add_edge(from, to);
            }
        }
        let view = KnowledgeView::omniscient(&g);
        assert_eq!(view.received_count(), 58);
        let found = exact_sink_with_threshold(&view, 1, 63).unwrap().unwrap();
        assert_eq!(found.s1, process_set(55..=57));
        assert_eq!(found.s2, process_set([58]));
    }

    #[test]
    fn exact_search_keeps_a_lone_sink_at_threshold_zero() {
        // 1 knows 2 and 3 only through their PDs; its own PD is empty,
        // which makes {1} a sink at g = 0 and the lowest mask of all.
        // {2,3} is the only other one, and peeling would leave only it.
        let mut view = KnowledgeView::new(1.into(), ProcessSet::new());
        view.record_pd(2.into(), process_set([3]));
        view.record_pd(3.into(), process_set([2]));
        let found = exact_sink_with_threshold(&view, 0, CandidateSearch::EXACT_CUTOFF);
        let members = found.unwrap().map(|c| c.members());
        assert_eq!(members, Some(process_set([1])));
    }

    #[test]
    fn internally_maximal_rejects_weak_superset() {
        // Core K4 {1,2,3,4} plus appendage 5 pointed at by only one member:
        // the whole-graph candidate (threshold 0) is not maximal because
        // {1,2,3,4} has threshold 1.
        let mut g = DiGraph::complete(&process_set(1..=4));
        g.add_edge(4.into(), 5.into());
        g.add_edge(5.into(), 1.into());
        g.add_edge(5.into(), 2.into());
        let view = KnowledgeView::omniscient(&g);
        let core = CandidateSearch.best_core(&view).unwrap();
        assert_eq!(core.members(), process_set(1..=4));
        assert_eq!(core.threshold, 1);
    }
}
