//! The witness graphs of Figures 1–4.
//!
//! The paper presents these graphs as drawings; the arXiv source does not
//! include machine-readable edge lists. Each constructor below synthesizes
//! an edge list *consistent with every property the text asserts* about the
//! figure (captions, worked examples, and the predicate evaluations quoted
//! in Sections III–V). The properties themselves are re-verified by this
//! module's tests and by the figure tests in `tests/`, so any divergence
//! from the original drawings is behavior-preserving by construction.
//!
//! Known constraints encoded here:
//!
//! * **Fig. 1a** — `PD₁ = {2,3,4}`; process 4 Byzantine; with 4 silent,
//!   `{1,2,3}` and `{5,6,7,8}` cannot learn of each other.
//! * **Fig. 1b** — satisfies BFT-CUP for `f = 1`; sink of `G_safe` is
//!   `{1,2,3}`; the Section III worked example needs
//!   `isSinkGdi(1, {1,3,4}, {2})` to hold when 2 is slow and 4 claims
//!   `PD = {1,2,3}`.
//! * **Fig. 2a/2b** — 2-OSR systems of 4 processes each (4 resp. 5 faulty);
//!   `isSinkGdi(1, {1,2,3}, {4})` and `isSinkGdi(1, {6,7,8}, {5})` hold.
//! * **Fig. 2c** — the union, all correct, forming a 1-OSR graph.
//! * **Fig. 3a** — 2-OSR, process 1 faulty, and
//!   `isSinkGdi(2, {1,2,3,4,6}, {5,7})` holds even though `{1,…,6}∖{5}`
//!   are non-sink members (true sink `{5,7,8}` in our reconstruction).
//! * **Fig. 3b** — 3-OSR, processes 5 and 7 faulty, where `{1,2,3,4,6}`
//!   *is* the sink; indistinguishable from 3a for processes `{2,3,4,6}`.
//! * **Fig. 4a** — extended 2-OSR; the core is strictly inside the sink
//!   component (the whole graph is one 2-strongly-connected SCC). The
//!   caption's literal recipe (Fig. 2c plus `6→3`, `7→2`) yields a graph
//!   whose core *equals* its sink component, contradicting the caption, so
//!   this reconstruction uses a 9-vertex graph satisfying the caption's
//!   actual claim; every stated property is test-verified.
//! * **Fig. 4b** — extended 2-OSR; core = sink component `{5,…,9}`.

use crate::digraph::DiGraph;
use crate::id::{process_set, ProcessSet};

/// A named witness graph with its fault model and expected outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FigureGraph {
    name: &'static str,
    graph: DiGraph,
    byzantine: ProcessSet,
    fault_threshold: usize,
    expected_sink: Option<ProcessSet>,
}

impl FigureGraph {
    /// Short identifier (`"fig1a"`, …).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The knowledge connectivity graph.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// The processes the paper designates as Byzantine in this figure.
    pub fn byzantine(&self) -> &ProcessSet {
        &self.byzantine
    }

    /// The system fault threshold `f` stated for the figure.
    pub fn fault_threshold(&self) -> usize {
        self.fault_threshold
    }

    /// The sink (or core) set the paper's algorithms are expected to
    /// return, when the figure satisfies the respective model.
    pub fn expected_sink(&self) -> Option<&ProcessSet> {
        self.expected_sink.as_ref()
    }

    /// The correct processes (all vertices minus the Byzantine ones).
    pub fn correct(&self) -> ProcessSet {
        self.graph
            .vertices()
            .filter(|v| !self.byzantine.contains(v))
            .collect()
    }

    /// The safe subgraph `G_safe = G[Π_C]` (Section II-C).
    pub fn safe_subgraph(&self) -> DiGraph {
        self.graph.induced(&self.correct())
    }
}

/// Fig. 1a: violates BFT-CUP — process 4 is the only bridge between
/// `{1,2,3}` and `{5,6,7,8}`.
pub fn fig1a() -> FigureGraph {
    let graph = DiGraph::from_edges([
        (1, 2),
        (1, 3),
        (1, 4),
        (2, 1),
        (2, 3),
        (3, 1),
        (3, 2),
        (4, 1),
        (4, 5),
        (5, 4),
        (5, 6),
        (5, 7),
        (5, 8),
        (6, 5),
        (6, 7),
        (7, 5),
        (7, 8),
        (8, 5),
        (8, 6),
    ]);
    FigureGraph {
        name: "fig1a",
        graph,
        byzantine: process_set([4]),
        fault_threshold: 1,
        expected_sink: None,
    }
}

/// Fig. 1b: satisfies BFT-CUP for `f = 1`; sink of `G_safe` is `{1,2,3}`;
/// the Sink algorithm returns `{1,2,3,4}` (Byzantine 4 absorbed into `S2`).
pub fn fig1b() -> FigureGraph {
    let graph = DiGraph::from_edges([
        // sink triangle (2-strongly connected)
        (1, 2),
        (1, 3),
        (2, 1),
        (2, 3),
        (3, 1),
        (3, 2),
        // knowledge of the Byzantine process 4 (PD₁ = {2,3,4})
        (1, 4),
        (3, 4),
        // Byzantine 4's actual PD
        (4, 1),
        (4, 2),
        (4, 3),
        // non-sink members with ≥ 2 node-disjoint paths to the sink
        (5, 1),
        (5, 2),
        (5, 6),
        (6, 2),
        (6, 3),
        (6, 5),
        (7, 5),
        (7, 6),
        (8, 5),
        (8, 6),
    ]);
    FigureGraph {
        name: "fig1b",
        graph,
        byzantine: process_set([4]),
        fault_threshold: 1,
        expected_sink: Some(process_set([1, 2, 3, 4])),
    }
}

/// Fig. 2a: system A — complete K4 on `{1,2,3,4}`, process 4 faulty.
pub fn fig2a() -> FigureGraph {
    FigureGraph {
        name: "fig2a",
        graph: DiGraph::complete(&process_set([1, 2, 3, 4])),
        byzantine: process_set([4]),
        fault_threshold: 1,
        expected_sink: Some(process_set([1, 2, 3, 4])),
    }
}

/// Fig. 2b: system B — complete K4 on `{5,6,7,8}`, process 5 faulty.
pub fn fig2b() -> FigureGraph {
    FigureGraph {
        name: "fig2b",
        graph: DiGraph::complete(&process_set([5, 6, 7, 8])),
        byzantine: process_set([5]),
        fault_threshold: 1,
        expected_sink: Some(process_set([5, 6, 7, 8])),
    }
}

/// Fig. 2c: system AB — the union of A and B with a single bridging edge
/// `5 → 4`, all processes correct, forming a 1-OSR graph whose unique sink
/// is `{1,2,3,4}`.
pub fn fig2c() -> FigureGraph {
    let mut graph = DiGraph::complete(&process_set([1, 2, 3, 4]));
    graph.merge(&DiGraph::complete(&process_set([5, 6, 7, 8])));
    graph.add_edge(5.into(), 4.into());
    FigureGraph {
        name: "fig2c",
        graph,
        byzantine: ProcessSet::new(),
        fault_threshold: 0,
        expected_sink: Some(process_set([1, 2, 3, 4])),
    }
}

/// Fig. 3a: 2-OSR with process 1 faulty; true sink `{5,7,8}`; the non-sink
/// set `{1,2,3,4,6}` satisfies `isSinkGdi(2, {1,2,3,4,6}, {5,7})`.
pub fn fig3a() -> FigureGraph {
    let mut graph = DiGraph::complete(&process_set([1, 2, 3, 4, 6]));
    // true sink: bidirected triangle {5,7,8}
    graph.merge(&DiGraph::complete(&process_set([5, 7, 8])));
    // cross edges giving each correct non-sink member 2 disjoint paths to
    // every sink member, while leaving 8 with only 2 pointers from
    // {1,2,3,4,6} (so 8 stays outside the false S2 at g = 2).
    for (a, b) in [
        (2, 5),
        (3, 5),
        (4, 5),
        (2, 7),
        (4, 7),
        (6, 7),
        (3, 8),
        (6, 8),
    ] {
        graph.add_edge(a.into(), b.into());
    }
    FigureGraph {
        name: "fig3a",
        graph,
        byzantine: process_set([1]),
        fault_threshold: 1,
        expected_sink: Some(process_set([5, 7, 8])),
    }
}

/// Fig. 3b: 3-OSR with processes 5 and 7 faulty; the sink is
/// `{1,2,3,4,6}`; locally indistinguishable from Fig. 3a for `{2,3,4,6}`.
pub fn fig3b() -> FigureGraph {
    let mut graph = DiGraph::complete(&process_set([1, 2, 3, 4, 6]));
    for (a, b) in [(2, 5), (3, 5), (4, 5), (2, 7), (4, 7), (6, 7)] {
        graph.add_edge(a.into(), b.into());
    }
    // Byzantine PDs (arbitrary, drawn pointing back into the system)
    for (a, b) in [(5, 1), (5, 6), (7, 2), (7, 6)] {
        graph.add_edge(a.into(), b.into());
    }
    FigureGraph {
        name: "fig3b",
        graph,
        byzantine: process_set([5, 7]),
        fault_threshold: 2,
        expected_sink: Some(process_set([1, 2, 3, 4, 5, 6, 7])),
    }
}

/// Fig. 4a: extended 2-OSR where the core differs from the sink component.
///
/// The whole 9-vertex graph is a single 2-strongly-connected SCC (so the
/// sink component is all of `{1,…,9}`), while the core is the complete
/// subgraph `{1,…,5}` with `k_Gdi = 3`:
///
/// * core `{1,…,5}`: complete, `κ = 4`, size bound gives `f_Gdi = 2`;
///   exactly two members (4 and 5) have edges out of the core, within the
///   `≤ f_Gdi` boundary budget;
/// * periphery `{6,7,8,9}`: a bidirected ring (`κ = 2`), each member
///   pointing at three *staggered* core members, so every periphery-based
///   candidate either has too many boundary members or connectivity ≤ 2;
/// * C2 holds with three node-disjoint paths from every periphery process
///   to every core member.
pub fn fig4a() -> FigureGraph {
    let mut graph = DiGraph::complete(&process_set([1, 2, 3, 4, 5]));
    // periphery ring, both directions
    for (a, b) in [(6u64, 7u64), (7, 8), (8, 9), (9, 6)] {
        graph.add_edge(a.into(), b.into());
        graph.add_edge(b.into(), a.into());
    }
    // staggered fan-in: three distinct core members each
    for (a, b) in [
        (6u64, 1u64),
        (6, 2),
        (6, 3),
        (7, 2),
        (7, 3),
        (7, 4),
        (8, 3),
        (8, 4),
        (8, 5),
        (9, 4),
        (9, 5),
        (9, 1),
    ] {
        graph.add_edge(a.into(), b.into());
    }
    // two core exits close the single SCC and keep κ(G) = 2
    graph.add_edge(4.into(), 9.into());
    graph.add_edge(5.into(), 6.into());
    FigureGraph {
        name: "fig4a",
        graph,
        byzantine: ProcessSet::new(),
        fault_threshold: 1,
        expected_sink: Some(process_set([1, 2, 3, 4, 5])),
    }
}

/// Fig. 4b: extended 2-OSR where the core equals the sink component:
/// complete core `{5,…,9}` (`k_Gdi = 3`), non-core `{1,2,3,4}` a complete
/// K4 with two direct core edges each, staggered so no false sink with
/// connectivity ≥ 3 can form.
pub fn fig4b() -> FigureGraph {
    let mut graph = DiGraph::complete(&process_set([1, 2, 3, 4]));
    graph.merge(&DiGraph::complete(&process_set([5, 6, 7, 8, 9])));
    for (a, b) in [
        (1, 5),
        (1, 6),
        (2, 6),
        (2, 7),
        (3, 7),
        (3, 8),
        (4, 8),
        (4, 5),
    ] {
        graph.add_edge(a.into(), b.into());
    }
    FigureGraph {
        name: "fig4b",
        graph,
        byzantine: ProcessSet::new(),
        fault_threshold: 1,
        expected_sink: Some(process_set([5, 6, 7, 8, 9])),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::ProcessId;
    use crate::osr::osr_report;
    use crate::predicates::is_sink_gdi;
    use crate::view::KnowledgeView;

    fn p(n: u64) -> ProcessId {
        ProcessId::new(n)
    }

    #[test]
    fn fig1a_pd1_matches_caption() {
        let f = fig1a();
        assert_eq!(f.graph().out_neighbors(p(1)), process_set([2, 3, 4]));
    }

    #[test]
    fn fig1a_removing_4_disconnects() {
        let f = fig1a();
        let mut g = f.graph().clone();
        g.remove_vertex(p(4));
        assert!(!g.is_undirected_connected());
    }

    #[test]
    fn fig1a_safe_subgraph_violates_bft_cup() {
        let f = fig1a();
        let report = osr_report(&f.safe_subgraph(), f.fault_threshold() + 1);
        assert!(!report.is_k_osr());
    }

    #[test]
    fn fig1b_pd1_matches_caption() {
        let f = fig1b();
        assert_eq!(f.graph().out_neighbors(p(1)), process_set([2, 3, 4]));
    }

    #[test]
    fn fig1b_satisfies_bft_cup() {
        let f = fig1b();
        let report = osr_report(&f.safe_subgraph(), f.fault_threshold() + 1);
        assert!(report.is_k_osr(), "{report:?}");
        let sink = report.sink_members().unwrap();
        assert_eq!(*sink, process_set([1, 2, 3]));
        assert!(sink.len() > 2 * f.fault_threshold());
    }

    #[test]
    fn fig2a_2b_satisfy_bft_cup() {
        for f in [fig2a(), fig2b()] {
            let report = osr_report(&f.safe_subgraph(), 2);
            assert!(report.is_k_osr(), "{}: {report:?}", f.name());
        }
    }

    #[test]
    fn fig2_sink_predicates_from_impossibility_proof() {
        // isSinkGdi(1, {1,2,3}, {4}) and isSinkGdi(1, {6,7,8}, {5}) on the
        // combined system AB (Section IV).
        let view = KnowledgeView::omniscient(fig2c().graph());
        assert!(is_sink_gdi(
            &view,
            1,
            &process_set([1, 2, 3]),
            &process_set([4])
        ));
        assert!(is_sink_gdi(
            &view,
            1,
            &process_set([6, 7, 8]),
            &process_set([5])
        ));
    }

    #[test]
    fn fig2c_is_1_osr_with_unique_sink() {
        let f = fig2c();
        let report = osr_report(f.graph(), 1);
        assert!(report.is_k_osr(), "{report:?}");
        assert_eq!(report.sink_members(), Some(&process_set([1, 2, 3, 4])));
    }

    #[test]
    fn fig3a_false_sink_predicate_holds() {
        // The exact claim from Section IV: isSinkGdi(2, {1,2,3,4,6}, {5,7}).
        let view = KnowledgeView::omniscient(fig3a().graph());
        assert!(is_sink_gdi(
            &view,
            2,
            &process_set([1, 2, 3, 4, 6]),
            &process_set([5, 7])
        ));
    }

    #[test]
    fn fig3a_is_2_osr_with_true_sink() {
        let f = fig3a();
        let report = osr_report(&f.safe_subgraph(), 2);
        assert!(report.is_k_osr(), "{report:?}");
        assert_eq!(report.sink_members(), Some(&process_set([5, 7, 8])));
    }

    #[test]
    fn fig3b_is_3_osr_with_big_sink() {
        let f = fig3b();
        let report = osr_report(&f.safe_subgraph(), 3);
        assert!(report.is_k_osr(), "{report:?}");
        assert_eq!(report.sink_members(), Some(&process_set([1, 2, 3, 4, 6])));
        assert!(report.sink_members().unwrap().len() > 2 * f.fault_threshold());
    }

    #[test]
    fn fig3_views_indistinguishable_for_shared_processes() {
        // Processes {2,3,4,6} have identical PDs in 3a and 3b once the
        // processes absent from 3b (process 8) are silent/slow: their PD
        // entries toward 8 are the only difference, and 8 never answers.
        let a = fig3a();
        let b = fig3b();
        for pid in [2u64, 4] {
            // 2 and 4 do not know 8 at all: PDs identical.
            assert_eq!(
                a.graph().out_neighbors(p(pid)),
                b.graph().out_neighbors(p(pid)),
                "process {pid}"
            );
        }
        for pid in [3u64, 6] {
            // 3 and 6 differ from 3b only by the edge toward 8.
            let mut pd_a = a.graph().out_neighbors(p(pid));
            pd_a.remove(&p(8));
            assert_eq!(pd_a, b.graph().out_neighbors(p(pid)), "process {pid}");
        }
    }

    #[test]
    fn fig4a_whole_graph_is_one_scc() {
        let f = fig4a();
        let report = osr_report(f.graph(), 2);
        assert!(report.is_k_osr(), "{report:?}");
        assert_eq!(
            report.sink_members().map(|s| s.len()),
            Some(9),
            "sink component must strictly contain the core"
        );
        assert_eq!(report.sink_connectivity, 2);
    }

    #[test]
    fn fig4b_sink_equals_core() {
        let f = fig4b();
        let report = osr_report(f.graph(), 2);
        assert!(report.is_k_osr(), "{report:?}");
        assert_eq!(report.sink_members(), Some(&process_set([5, 6, 7, 8, 9])));
    }

    #[test]
    fn all_figures_undirected_connected() {
        for f in [
            fig1a(),
            fig1b(),
            fig2a(),
            fig2b(),
            fig2c(),
            fig3a(),
            fig3b(),
            fig4a(),
            fig4b(),
        ] {
            assert!(
                f.graph().is_undirected_connected(),
                "{} must be connected",
                f.name()
            );
        }
    }

    #[test]
    fn byzantine_sets_match_captions() {
        assert_eq!(*fig1a().byzantine(), process_set([4]));
        assert_eq!(*fig1b().byzantine(), process_set([4]));
        assert_eq!(*fig2a().byzantine(), process_set([4]));
        assert_eq!(*fig2b().byzantine(), process_set([5]));
        assert!(fig2c().byzantine().is_empty());
        assert_eq!(*fig3a().byzantine(), process_set([1]));
        assert_eq!(*fig3b().byzantine(), process_set([5, 7]));
    }
}
