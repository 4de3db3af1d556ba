//! Node-disjoint paths and strong connectivity (Menger / max-flow).
//!
//! The paper's central graph quantity is the number of *node-disjoint
//! paths* between ordered pairs, and the derived *strong connectivity*
//! `κ(G)`: the maximum `k` such that every ordered pair of vertices is
//! joined by at least `k` node-disjoint paths (Section II-C).
//!
//! "Node-disjoint" means internally disjoint: paths share no vertex other
//! than the two endpoints. A direct edge counts as one path.
//!
//! # Which pairs `κ` needs
//!
//! `κ(G)` is a minimum over all `n(n−1)` ordered pairs, but
//! [`SplitNetwork::connectivity`] probes far fewer. Start from the degree
//! bound `κ ≤ min_v min(out(v), in(v))`, then probe *roots* `v₀, v₁, …`
//! (ascending), each against every other vertex in both directions,
//! lowering the running value to every count seen, and stop once more
//! roots have been probed than the running value. This is Even's
//! argument: a pair realising `κ` is separated by at most `κ` vertices
//! (Menger; `κ − 1` plus the direct edge when the pair is adjacent), so
//! among more than `κ` roots one lies outside the separator, on the
//! source's or the target's side, and its probe towards the other side
//! crosses the same separator and reads at most `κ`. About `2κn` probes
//! instead of `n²`; `docs/PAPER_MAP.md` ("Which pairs `κ` needs") spells
//! out both cases.

use std::cell::RefCell;

use crate::digraph::DiGraph;
use crate::id::{ProcessId, ProcessSet};
use crate::maxflow::UnitFlowNetwork;

/// The vertex-split unit-flow network of a digraph over dense vertex
/// indices `0..n`: vertex `v` becomes `v_in = 2v` and `v_out = 2v + 1`
/// joined by a capacity-1 arc, and every edge `u → w` becomes a capacity-1
/// arc `u_out → w_in`. Max flow from `s_out` to `t_in` equals the maximum
/// number of internally node-disjoint `s → t` paths (Menger).
///
/// Built once per (sub)graph; every query runs on the same network.
#[derive(Debug, Clone)]
pub(crate) struct SplitNetwork {
    n: usize,
    net: UnitFlowNetwork,
    /// `min_v min(out(v), in(v))`: no ordered pair has more paths.
    degree_bound: usize,
}

/// `n` split vertices (`v_in → v_out` at capacity 1) and no edges yet.
fn split_vertices(n: usize) -> UnitFlowNetwork {
    let mut net = UnitFlowNetwork::new(2 * n);
    for v in 0..n {
        net.add_edge(2 * v, 2 * v + 1, 1);
    }
    net
}

impl SplitNetwork {
    /// The network of the digraph on `0..n` with the given edges (no
    /// self-loops, no repeats).
    pub(crate) fn new(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut net = split_vertices(n);
        let mut out_deg = vec![0usize; n];
        let mut in_deg = vec![0usize; n];
        for (u, w) in edges {
            net.add_edge(2 * u + 1, 2 * w, 1);
            out_deg[u] += 1;
            in_deg[w] += 1;
        }
        let degree_bound = out_deg.into_iter().chain(in_deg).min().unwrap_or(0);
        SplitNetwork {
            n,
            net,
            degree_bound,
        }
    }

    /// Node-disjoint paths from `s` to `t ≠ s`, counted no further than
    /// `limit`.
    pub(crate) fn paths(&mut self, s: usize, t: usize, limit: Option<usize>) -> usize {
        debug_assert_ne!(s, t);
        self.net.max_flow(2 * s + 1, 2 * t, limit)
    }

    /// `min(κ, cap)` — or, as soon as `κ < floor` is established, whatever
    /// value below `floor` (≥ 1) established it. See the module docs for
    /// why the probed pairs suffice.
    ///
    /// Graphs with 0 or 1 vertices have `κ` = their vertex count.
    pub(crate) fn connectivity(&mut self, cap: usize, floor: usize) -> usize {
        debug_assert!(floor >= 1);
        if self.n <= 1 {
            return self.n.min(cap);
        }
        let mut kappa = cap.min(self.degree_bound);
        let mut root = 0;
        while kappa >= floor && root <= kappa && root < self.n {
            for v in (0..self.n).filter(|&v| v != root) {
                for (s, t) in [(root, v), (v, root)] {
                    kappa = kappa.min(self.paths(s, t, Some(kappa)));
                    if kappa < floor {
                        return kappa;
                    }
                }
            }
            root += 1;
        }
        kappa
    }

    /// A minimum set of vertices other than `s` and `t` whose removal
    /// destroys every `s → t` path except the direct edge, ascending; the
    /// one nearest `s` among the minimum ones.
    ///
    /// Unlike the path-counting network (all capacities 1), the cut
    /// network gives edge arcs effectively infinite capacity so that every
    /// minimum cut consists solely of vertex-split arcs — otherwise a flow
    /// saturating the source's outgoing *edges* would yield a residual cut
    /// with no vertex interpretation.
    pub(crate) fn min_vertex_cut(&self, s: usize, t: usize) -> Vec<usize> {
        let n = self.n;
        let big = (n as u32) + 1;
        let mut net = split_vertices(n);
        // The first n arcs of the counting network are the vertex splits.
        for (u_out, w_in) in self.net.edges().skip(n) {
            if (u_out / 2, w_in / 2) != (s, t) {
                net.add_edge(u_out, w_in, big);
            }
        }
        net.max_flow(2 * s + 1, 2 * t, None);
        let reach = net.residual_reachable(2 * s + 1);
        // Vertex-split arcs v_in -> v_out that cross the cut.
        (0..n)
            .filter(|&v| v != s && v != t && reach[2 * v] && !reach[2 * v + 1])
            .collect()
    }
}

/// Node-disjoint path queries between ordered vertex pairs of one graph.
///
/// Construction indexes the vertices and builds the vertex-split
/// unit-flow network once; every query reuses it (a query undoes only
/// what the previous one routed).
///
/// # Example
///
/// ```
/// use cupft_graph::{DiGraph, DisjointPaths, ProcessId};
///
/// let p = |n| ProcessId::new(n);
/// // Complete digraph on 4 vertices: 3 node-disjoint paths between any pair.
/// let g = DiGraph::complete(&[1, 2, 3, 4].map(ProcessId::new).into_iter().collect());
/// let dp = DisjointPaths::new(&g);
/// assert_eq!(dp.count(p(1), p(3)), 3);
/// assert!(dp.at_least(p(2), p(4), 3));
/// assert!(!dp.at_least(p(2), p(4), 4));
/// ```
#[derive(Debug, Clone)]
pub struct DisjointPaths {
    order: Vec<ProcessId>,
    net: RefCell<SplitNetwork>,
}

impl DisjointPaths {
    /// Prepares disjoint-path queries over `graph`.
    pub fn new(graph: &DiGraph) -> Self {
        let order: Vec<ProcessId> = graph.vertices().collect();
        let index = |v: ProcessId| order.binary_search(&v).expect("edge endpoint is a vertex");
        let edges = graph.edges().map(|(u, w)| (index(u), index(w)));
        let net = SplitNetwork::new(order.len(), edges);
        DisjointPaths {
            order,
            net: RefCell::new(net),
        }
    }

    fn index(&self, v: ProcessId) -> Option<usize> {
        self.order.binary_search(&v).ok()
    }

    /// Maximum number of node-disjoint paths from `s` to `t`.
    ///
    /// Returns 0 if either endpoint is missing; returns `usize::MAX`
    /// conceptually for `s == t` but we clamp it to the vertex count to keep
    /// arithmetic safe.
    pub fn count(&self, s: ProcessId, t: ProcessId) -> usize {
        self.count_bounded(s, t, None)
    }

    /// Like [`Self::count`] but stops once `limit` paths are found.
    pub fn count_bounded(&self, s: ProcessId, t: ProcessId, limit: Option<usize>) -> usize {
        let (Some(si), Some(ti)) = (self.index(s), self.index(t)) else {
            return 0;
        };
        if s == t {
            return self.order.len();
        }
        self.net.borrow_mut().paths(si, ti, limit)
    }

    /// Whether at least `k` node-disjoint paths join `s` to `t`.
    pub fn at_least(&self, s: ProcessId, t: ProcessId, k: usize) -> bool {
        if k == 0 {
            return true;
        }
        self.count_bounded(s, t, Some(k)) >= k
    }

    /// Extracts a minimum vertex cut separating `s` from `t`: a smallest
    /// set of vertices (excluding `s` and `t`) whose removal destroys all
    /// `s → t` paths.
    ///
    /// A direct edge `s → t` cannot be cut by vertices; it is excluded, so
    /// with a direct edge present the returned set severs exactly the
    /// *indirect* paths. Returns an empty set when `t` is unreachable
    /// (other than via the direct edge).
    pub fn min_vertex_cut(&self, s: ProcessId, t: ProcessId) -> ProcessSet {
        let (Some(si), Some(ti)) = (self.index(s), self.index(t)) else {
            return ProcessSet::new();
        };
        if s == t {
            return ProcessSet::new();
        }
        let cut = self.net.borrow().min_vertex_cut(si, ti);
        cut.into_iter().map(|v| self.order[v]).collect()
    }
}

impl DiGraph {
    /// Maximum number of node-disjoint paths from `s` to `t`.
    pub fn disjoint_path_count(&self, s: ProcessId, t: ProcessId) -> usize {
        DisjointPaths::new(self).count(s, t)
    }

    /// Whether every ordered pair of distinct vertices is joined by at
    /// least `k` node-disjoint paths.
    ///
    /// `k = 0` is trivially true. Single-vertex and empty graphs are
    /// `k`-strongly connected for every `k` (vacuous quantification).
    pub fn is_k_strongly_connected(&self, k: usize) -> bool {
        if k == 0 || self.vertex_count() <= 1 {
            return true;
        }
        DisjointPaths::new(self).net.into_inner().connectivity(k, k) >= k
    }

    /// The strong connectivity `κ(G)`: the largest `k` for which
    /// [`Self::is_k_strongly_connected`] holds.
    ///
    /// For graphs with 0 or 1 vertices this returns the vertex count.
    pub fn strong_connectivity(&self) -> usize {
        self.strong_connectivity_capped(usize::MAX)
    }

    /// Like [`Self::strong_connectivity`] but never spends effort proving
    /// connectivity beyond `cap`: returns `min(κ(G), cap)`.
    ///
    /// The sink predicates only ever need `κ` up to `(|S1|-1)/2 + 1`, so a
    /// capped computation avoids the full cost on dense sets.
    pub fn strong_connectivity_capped(&self, cap: usize) -> usize {
        DisjointPaths::new(self)
            .net
            .into_inner()
            .connectivity(cap, 1)
    }

    /// Number of node-disjoint paths guaranteed from every vertex of `from`
    /// to every vertex of `to` — the minimum over all cross pairs.
    ///
    /// Used for the "k node-disjoint paths from any process outside the
    /// sink/core to any process inside" requirements (Definitions 1 and 2).
    pub fn min_cross_disjoint_paths(&self, from: &ProcessSet, to: &ProcessSet) -> usize {
        self.min_cross_disjoint_paths_capped(from, to, usize::MAX)
    }

    /// Like [`Self::min_cross_disjoint_paths`] but never proves more than
    /// `cap` paths for any pair: returns `min(actual minimum, cap)`.
    ///
    /// The `k`-OSR conditions only ever compare the minimum against a known
    /// `k`, so capping at `k` skips the unbounded max-flow a dense first
    /// pair would otherwise pay (the uncapped minimum only tightens the
    /// bound *after* that first full count).
    pub fn min_cross_disjoint_paths_capped(
        &self,
        from: &ProcessSet,
        to: &ProcessSet,
        cap: usize,
    ) -> usize {
        let dp = DisjointPaths::new(self);
        let mut best = cap;
        let mut any = false;
        for &u in from {
            for &v in to {
                if u == v {
                    continue;
                }
                any = true;
                best = best.min(dp.count_bounded(u, v, Some(best)));
                if best == 0 {
                    return 0;
                }
            }
        }
        if any {
            best
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::process_set;

    fn p(n: u64) -> ProcessId {
        ProcessId::new(n)
    }

    #[test]
    fn direct_edge_is_one_path() {
        let g = DiGraph::from_edges([(1, 2)]);
        assert_eq!(g.disjoint_path_count(p(1), p(2)), 1);
        assert_eq!(g.disjoint_path_count(p(2), p(1)), 0);
    }

    #[test]
    fn triangle_connectivity() {
        // Bidirected triangle: kappa = 2.
        let g = DiGraph::complete(&process_set([1, 2, 3]));
        assert_eq!(g.strong_connectivity(), 2);
        assert!(g.is_k_strongly_connected(2));
        assert!(!g.is_k_strongly_connected(3));
    }

    #[test]
    fn complete_graph_connectivity() {
        for n in 2..=6u64 {
            let g = DiGraph::complete(&process_set(1..=n));
            assert_eq!(g.strong_connectivity(), (n - 1) as usize, "K{n}");
        }
    }

    #[test]
    fn directed_cycle_has_kappa_one() {
        let g = DiGraph::from_edges([(1, 2), (2, 3), (3, 4), (4, 1)]);
        assert_eq!(g.strong_connectivity(), 1);
    }

    #[test]
    fn circulant_kappa_equals_jumps() {
        for k in 1..=3usize {
            let g = DiGraph::circulant(&process_set(1..=8), k);
            assert_eq!(g.strong_connectivity(), k, "circulant jumps={k}");
        }
    }

    #[test]
    fn disconnected_graph_kappa_zero() {
        let g = DiGraph::from_edges([(1, 2), (2, 1), (3, 4), (4, 3)]);
        assert_eq!(g.strong_connectivity(), 0);
        assert!(!g.is_k_strongly_connected(1));
    }

    #[test]
    fn path_count_through_bottleneck() {
        // Two routes but both pass through vertex 9.
        let g = DiGraph::from_edges([(1, 9), (9, 5), (1, 2), (2, 9), (9, 6), (6, 5)]);
        assert_eq!(g.disjoint_path_count(p(1), p(5)), 1);
    }

    #[test]
    fn direct_edge_plus_detour() {
        let g = DiGraph::from_edges([(1, 2), (1, 3), (3, 2)]);
        assert_eq!(g.disjoint_path_count(p(1), p(2)), 2);
    }

    #[test]
    fn cross_disjoint_paths() {
        // Non-sink {5} has exactly 2 disjoint paths to each of {1,2,3}.
        let mut g = DiGraph::complete(&process_set([1, 2, 3]));
        g.add_edge(p(5), p(1));
        g.add_edge(p(5), p(2));
        assert_eq!(
            g.min_cross_disjoint_paths(&process_set([5]), &process_set([1, 2, 3])),
            2
        );
    }

    #[test]
    fn trivial_graphs() {
        let mut g = DiGraph::new();
        assert_eq!(g.strong_connectivity(), 0);
        g.add_vertex(p(1));
        assert_eq!(g.strong_connectivity(), 1);
        assert!(g.is_k_strongly_connected(5));
    }

    #[test]
    fn bounded_count_early_exit_matches() {
        let g = DiGraph::complete(&process_set(1..=6));
        let dp = DisjointPaths::new(&g);
        assert_eq!(dp.count_bounded(p(1), p(2), Some(3)), 3);
        assert_eq!(dp.count(p(1), p(2)), 5);
    }

    #[test]
    fn missing_vertices_count_zero() {
        let g = DiGraph::from_edges([(1, 2)]);
        assert_eq!(g.disjoint_path_count(p(1), p(99)), 0);
    }
}

#[cfg(test)]
mod min_cut_tests {
    use super::*;
    use crate::id::process_set;

    fn p(n: u64) -> ProcessId {
        ProcessId::new(n)
    }

    #[test]
    fn bottleneck_vertex_is_the_cut() {
        // 1 -> 9 -> 5 and 1 -> 2 -> 9 -> ... : all routes pass through 9.
        let g = DiGraph::from_edges([(1, 9), (9, 5), (1, 2), (2, 9)]);
        let dp = DisjointPaths::new(&g);
        assert_eq!(dp.min_vertex_cut(p(1), p(5)), process_set([9]));
    }

    #[test]
    fn cut_size_matches_menger() {
        let g = DiGraph::complete(&process_set(1..=5));
        let dp = DisjointPaths::new(&g);
        // adjacent pair: the direct edge cannot be cut; the extracted cut
        // covers the remaining paths (count - 1 vertices).
        let cut = dp.min_vertex_cut(p(1), p(2));
        assert_eq!(cut.len(), dp.count(p(1), p(2)) - 1);
        assert_eq!(cut, process_set([3, 4, 5]));
    }

    #[test]
    fn cut_disconnects_when_no_direct_edge() {
        // two disjoint 2-hop routes: cut must take one vertex from each
        let g = DiGraph::from_edges([(1, 2), (2, 5), (1, 3), (3, 5)]);
        let dp = DisjointPaths::new(&g);
        let cut = dp.min_vertex_cut(p(1), p(5));
        assert_eq!(cut.len(), 2);
        let mut g2 = g.clone();
        for v in &cut {
            g2.remove_vertex(*v);
        }
        assert_eq!(g2.disjoint_path_count(p(1), p(5)), 0);
    }

    #[test]
    fn unreachable_pair_has_empty_cut() {
        let g = DiGraph::from_edges([(2, 1)]);
        let dp = DisjointPaths::new(&g);
        assert!(dp.min_vertex_cut(p(1), p(2)).is_empty());
    }
}
