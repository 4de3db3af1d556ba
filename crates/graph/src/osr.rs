//! The `k`-One Sink Reducibility (`k`-OSR) recognizer (Definition 1) and
//! the omniscient qualified-sink search ([`sink_with_threshold`]).

use crate::digraph::DiGraph;
use crate::id::ProcessSet;
use crate::scc::condensation;

/// The result of checking a graph against the four `k`-OSR conditions of
/// Definition 1.
///
/// The conditions are:
/// 1. the undirected counterpart of the graph is connected;
/// 2. the condensation has exactly one sink component;
/// 3. the sink component is `k`-strongly connected;
/// 4. there are at least `k` node-disjoint paths from every non-sink
///    process to every sink process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OsrReport {
    /// The `k` the report was evaluated against.
    pub k: usize,
    /// Condition 1: undirected counterpart is connected.
    pub undirected_connected: bool,
    /// Number of sink components in the condensation (condition 2 requires
    /// exactly one).
    pub sink_count: usize,
    /// The unique sink component, when `sink_count == 1`.
    pub sink: Option<ProcessSet>,
    /// Strong connectivity of the sink component (0 when no unique sink),
    /// capped at `max(k, (|S|−1)/2 + 1)` — no predicate of the paper ever
    /// consults `κ` beyond the sink-size bound, so connectivity above the
    /// cap is reported as the cap rather than paid for.
    pub sink_connectivity: usize,
    /// Minimum over all (non-sink, sink) ordered pairs of the number of
    /// node-disjoint paths, capped like [`Self::sink_connectivity`];
    /// `usize::MAX` when there are no non-sink members (vacuously
    /// satisfied).
    pub min_nonsink_to_sink_paths: usize,
}

impl OsrReport {
    /// Whether every `k`-OSR condition holds.
    pub fn is_k_osr(&self) -> bool {
        self.undirected_connected
            && self.sink_count == 1
            && self.sink_connectivity >= self.k
            && self.min_nonsink_to_sink_paths >= self.k
    }

    /// The sink members, when the graph has a unique sink.
    pub fn sink_members(&self) -> Option<&ProcessSet> {
        self.sink.as_ref()
    }
}

/// Evaluates the `k`-OSR conditions on `g`.
///
/// # Example
///
/// ```
/// use cupft_graph::{osr_report, DiGraph, process_set};
///
/// // Bidirected triangle sink {1,2,3}; 4 points into it twice.
/// let mut g = DiGraph::complete(&process_set([1, 2, 3]));
/// g.add_edge(4.into(), 1.into());
/// g.add_edge(4.into(), 2.into());
/// let report = osr_report(&g, 2);
/// assert!(report.is_k_osr());
/// assert_eq!(report.sink_members(), Some(&process_set([1, 2, 3])));
/// ```
pub fn osr_report(g: &DiGraph, k: usize) -> OsrReport {
    let undirected_connected = g.is_undirected_connected();
    let cond = condensation(g);
    let sinks = cond.sinks();
    let sink_count = sinks.len();
    let sink = if sink_count == 1 {
        Some(sinks[0].clone())
    } else {
        None
    };

    let (sink_connectivity, min_paths) = match &sink {
        Some(sink_set) => {
            // The grid hot path: κ and the cross-path minimum are capped at
            // the largest value any predicate can consult — `k` itself or
            // the `(|S1|−1)/2 + 1` threshold bound — so family sweeps never
            // pay for connectivity beyond what the verdict needs.
            let cap = k.max((sink_set.len().saturating_sub(1)) / 2 + 1);
            let sub = g.induced(sink_set);
            let kappa = sub.strong_connectivity_capped(cap);
            let non_sink: ProcessSet = g.vertices().filter(|v| !sink_set.contains(v)).collect();
            let min_paths = if non_sink.is_empty() {
                usize::MAX
            } else {
                g.min_cross_disjoint_paths_capped(&non_sink, sink_set, cap)
            };
            (kappa, min_paths)
        }
        None => (0, 0),
    };

    OsrReport {
        k,
        undirected_connected,
        sink_count,
        sink,
        sink_connectivity,
        min_nonsink_to_sink_paths: min_paths,
    }
}

/// The members of all sink components of `g` (usually exactly one
/// component for graphs of interest).
pub fn sink_members(g: &DiGraph) -> ProcessSet {
    let cond = condensation(g);
    let mut out = ProcessSet::new();
    for sink in cond.sinks() {
        out.extend(sink.iter().copied());
    }
    out
}

/// Identifies the qualified sink of a planted-sink graph: the unique sink
/// component `S` of the condensation with `|S| ≥ 2f + 1` and
/// `κ(G[S]) ≥ f + 1`.
///
/// This is Algorithm 2's `∃ S1, S2` search for the omniscient case, in
/// near-linear time: one Tarjan pass plus a connectivity check capped at
/// `f + 1` on the sink subgraph only, so graphs whose sink is
/// committee-sized stay cheap while the periphery scales to 10k–100k
/// vertices.
///
/// Returns `None` when the graph has no unique sink, the sink is smaller
/// than `2f + 1`, or its connectivity is below `f + 1`.
///
/// # Example
///
/// ```
/// use cupft_graph::{sink_with_threshold, DiGraph, process_set};
///
/// // Sink triangle {1,2,3}; 4 and 5 each point into it twice.
/// let mut g = DiGraph::complete(&process_set([1, 2, 3]));
/// for (a, b) in [(4, 1), (4, 2), (5, 2), (5, 3)] {
///     g.add_edge(a.into(), b.into());
/// }
/// assert_eq!(sink_with_threshold(&g, 1), Some(process_set([1, 2, 3])));
/// assert_eq!(sink_with_threshold(&g, 2), None); // needs |S| >= 5
/// ```
pub fn sink_with_threshold(g: &DiGraph, f: usize) -> Option<ProcessSet> {
    let cond = condensation(g);
    let sink = cond.unique_sink()?.clone();
    if sink.len() < 2 * f + 1 {
        return None;
    }
    let sub = g.induced(&sink);
    if sub.strong_connectivity_capped(f + 1) < f + 1 {
        return None;
    }
    Some(sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::process_set;

    fn feeders_graph() -> DiGraph {
        let mut g = DiGraph::complete(&process_set([1, 2, 3]));
        for (a, b) in [(4, 1), (4, 2), (5, 2), (5, 3)] {
            g.add_edge(a.into(), b.into());
        }
        g
    }

    #[test]
    fn sink_with_threshold_finds_planted_sink() {
        let g = feeders_graph();
        assert_eq!(sink_with_threshold(&g, 1), Some(process_set([1, 2, 3])));
    }

    #[test]
    fn sink_with_threshold_respects_size_bound() {
        let g = feeders_graph();
        assert_eq!(sink_with_threshold(&g, 2), None);
    }

    #[test]
    fn sink_with_threshold_rejects_weak_sink() {
        // Directed 5-cycle sink: kappa = 1 < f+1 for f = 1.
        let mut g = DiGraph::from_edges([(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]);
        g.add_edge(9.into(), 1.into());
        g.add_edge(9.into(), 2.into());
        assert_eq!(sink_with_threshold(&g, 1), None);
        assert_eq!(sink_with_threshold(&g, 0), Some(process_set(1..=5)));
    }

    #[test]
    fn sink_with_threshold_rejects_two_sinks() {
        let mut g = DiGraph::complete(&process_set([1, 2, 3]));
        g.merge(&DiGraph::complete(&process_set([4, 5, 6])));
        g.add_edge(7.into(), 1.into());
        g.add_edge(7.into(), 4.into());
        assert_eq!(sink_with_threshold(&g, 1), None);
    }

    #[test]
    fn triangle_with_feeders_is_2_osr() {
        let mut g = DiGraph::complete(&process_set([1, 2, 3]));
        g.add_edge(4.into(), 1.into());
        g.add_edge(4.into(), 2.into());
        g.add_edge(5.into(), 2.into());
        g.add_edge(5.into(), 3.into());
        let r = osr_report(&g, 2);
        assert!(r.is_k_osr());
        assert_eq!(r.sink_connectivity, 2);
        assert_eq!(r.min_nonsink_to_sink_paths, 2);
    }

    #[test]
    fn single_feeder_edge_fails_2_osr_but_passes_1_osr() {
        let mut g = DiGraph::complete(&process_set([1, 2, 3]));
        g.add_edge(4.into(), 1.into());
        assert!(!osr_report(&g, 2).is_k_osr());
        assert!(osr_report(&g, 1).is_k_osr());
    }

    #[test]
    fn two_sinks_fail() {
        // Two disjoint triangles joined by an undirected-connecting feeder.
        let mut g = DiGraph::complete(&process_set([1, 2, 3]));
        g.merge(&DiGraph::complete(&process_set([4, 5, 6])));
        g.add_edge(7.into(), 1.into());
        g.add_edge(7.into(), 4.into());
        let r = osr_report(&g, 1);
        assert!(r.undirected_connected);
        assert_eq!(r.sink_count, 2);
        assert!(!r.is_k_osr());
        assert_eq!(sink_members(&g), process_set([1, 2, 3, 4, 5, 6]));
    }

    #[test]
    fn disconnected_graph_fails() {
        let mut g = DiGraph::complete(&process_set([1, 2, 3]));
        g.merge(&DiGraph::complete(&process_set([4, 5, 6])));
        let r = osr_report(&g, 1);
        assert!(!r.undirected_connected);
        assert!(!r.is_k_osr());
    }

    #[test]
    fn whole_graph_strongly_connected_is_its_own_sink() {
        let g = DiGraph::complete(&process_set([1, 2, 3, 4]));
        let r = osr_report(&g, 3);
        assert!(r.is_k_osr());
        assert_eq!(r.sink, Some(process_set([1, 2, 3, 4])));
        // no non-sink members: vacuous path requirement
        assert_eq!(r.min_nonsink_to_sink_paths, usize::MAX);
    }

    #[test]
    fn path_requirement_counts_disjointness() {
        // 4 reaches the sink triangle twice but both routes share vertex 5.
        let mut g = DiGraph::complete(&process_set([1, 2, 3]));
        g.add_edge(4.into(), 5.into());
        g.add_edge(5.into(), 1.into());
        g.add_edge(5.into(), 2.into());
        let r = osr_report(&g, 2);
        assert_eq!(r.min_nonsink_to_sink_paths, 1);
        assert!(!r.is_k_osr());
    }

    #[test]
    fn report_k_recorded() {
        let g = DiGraph::complete(&process_set([1, 2, 3]));
        assert_eq!(osr_report(&g, 7).k, 7);
    }

    #[test]
    fn connectivity_is_capped_at_threshold_bound() {
        // K8 is its own sink with kappa = 7, but no predicate consults
        // kappa beyond (|S|-1)/2 + 1 = 4; the report stops there.
        let g = DiGraph::complete(&process_set(1..=8));
        let r = osr_report(&g, 1);
        assert_eq!(r.sink_connectivity, 4);
        assert!(r.is_k_osr());
        // A k above the size bound raises the cap so the verdict is exact.
        let r = osr_report(&g, 7);
        assert_eq!(r.sink_connectivity, 7);
        assert!(r.is_k_osr());
        assert!(!osr_report(&g, 8).is_k_osr());
    }
}
