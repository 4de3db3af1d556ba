//! Directed graphs over process identifiers.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use crate::id::{ProcessId, ProcessSet};

/// A directed graph whose vertices are [`ProcessId`]s.
///
/// This is the representation of a *knowledge connectivity graph*: an edge
/// `(i, j)` means process `i` initially knows process `j` (`j ∈ PDᵢ`,
/// Section II-C of the paper). The structure is deliberately ordered
/// (`BTreeMap`/`BTreeSet`) so that all traversals are deterministic.
///
/// Vertices may exist without edges (isolated processes are meaningful: a
/// process that knows nobody and is known by nobody).
///
/// # Example
///
/// ```
/// use cupft_graph::{DiGraph, ProcessId};
///
/// let p = |n| ProcessId::new(n);
/// let g = DiGraph::from_edges([(1, 2), (2, 3), (3, 1)]);
/// assert_eq!(g.vertex_count(), 3);
/// assert!(g.has_edge(p(1), p(2)));
/// assert!(!g.has_edge(p(2), p(1)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DiGraph {
    adj: BTreeMap<ProcessId, ProcessSet>,
}

impl DiGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        DiGraph::default()
    }

    /// Builds a graph from raw `(from, to)` integer pairs.
    ///
    /// Endpoints are added as vertices automatically.
    ///
    /// # Example
    ///
    /// ```
    /// use cupft_graph::DiGraph;
    /// let g = DiGraph::from_edges([(1, 2), (2, 1)]);
    /// assert_eq!(g.edge_count(), 2);
    /// ```
    pub fn from_edges<I: IntoIterator<Item = (u64, u64)>>(edges: I) -> Self {
        let mut g = DiGraph::new();
        for (a, b) in edges {
            g.add_edge(ProcessId::new(a), ProcessId::new(b));
        }
        g
    }

    /// Adds a vertex (no-op if present).
    pub fn add_vertex(&mut self, v: ProcessId) {
        self.adj.entry(v).or_default();
    }

    /// Adds a directed edge, creating endpoints as needed.
    ///
    /// Self-loops are ignored: a process trivially knows itself and the
    /// paper's graphs never carry self-edges.
    pub fn add_edge(&mut self, from: ProcessId, to: ProcessId) {
        if from == to {
            self.add_vertex(from);
            return;
        }
        self.adj.entry(from).or_default().insert(to);
        self.adj.entry(to).or_default();
    }

    /// Removes a vertex and all incident edges; returns whether it existed.
    pub fn remove_vertex(&mut self, v: ProcessId) -> bool {
        let existed = self.adj.remove(&v).is_some();
        for outs in self.adj.values_mut() {
            outs.remove(&v);
        }
        existed
    }

    /// Returns whether `v` is a vertex.
    pub fn contains_vertex(&self, v: ProcessId) -> bool {
        self.adj.contains_key(&v)
    }

    /// Returns whether the edge `from → to` exists.
    pub fn has_edge(&self, from: ProcessId, to: ProcessId) -> bool {
        self.adj.get(&from).is_some_and(|s| s.contains(&to))
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.adj.values().map(|s| s.len()).sum()
    }

    /// Iterates over all vertices in ascending ID order.
    pub fn vertices(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.adj.keys().copied()
    }

    /// The vertex set as a [`ProcessSet`].
    pub fn vertex_set(&self) -> ProcessSet {
        self.adj.keys().copied().collect()
    }

    /// Iterates over all edges in deterministic order.
    pub fn edges(&self) -> impl Iterator<Item = (ProcessId, ProcessId)> + '_ {
        self.adj
            .iter()
            .flat_map(|(&v, outs)| outs.iter().map(move |&w| (v, w)))
    }

    /// Out-neighbors of `v` (empty set if `v` is not a vertex).
    pub fn out_neighbors(&self, v: ProcessId) -> ProcessSet {
        self.adj.get(&v).cloned().unwrap_or_default()
    }

    /// In-neighbors of `v` (computed by scan; O(V+E)).
    pub fn in_neighbors(&self, v: ProcessId) -> ProcessSet {
        self.adj
            .iter()
            .filter(|(_, outs)| outs.contains(&v))
            .map(|(&u, _)| u)
            .collect()
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: ProcessId) -> usize {
        self.adj.get(&v).map_or(0, |s| s.len())
    }

    /// In-degree of `v` (computed by scan; O(V+E)).
    pub fn in_degree(&self, v: ProcessId) -> usize {
        self.adj.values().filter(|outs| outs.contains(&v)).count()
    }

    /// The subgraph induced by `keep`: `G[keep]` in the paper's notation.
    ///
    /// Vertices of `keep` absent from the graph are ignored.
    pub fn induced(&self, keep: &ProcessSet) -> DiGraph {
        let mut g = DiGraph::new();
        for (&v, outs) in &self.adj {
            if !keep.contains(&v) {
                continue;
            }
            g.add_vertex(v);
            for &w in outs {
                if keep.contains(&w) {
                    g.add_edge(v, w);
                }
            }
        }
        g
    }

    /// The undirected counterpart: `(i,j)` connected iff `(i,j)` or `(j,i)`
    /// is an edge (Section II-C).
    pub fn undirected(&self) -> DiGraph {
        let mut g = DiGraph::new();
        for v in self.vertices() {
            g.add_vertex(v);
        }
        for (u, v) in self.edges() {
            g.add_edge(u, v);
            g.add_edge(v, u);
        }
        g
    }

    /// Vertices reachable from `start` by directed paths (including `start`).
    pub fn reachable_from(&self, start: ProcessId) -> ProcessSet {
        let mut seen = ProcessSet::new();
        if !self.contains_vertex(start) {
            return seen;
        }
        let mut queue = VecDeque::from([start]);
        seen.insert(start);
        while let Some(v) = queue.pop_front() {
            if let Some(outs) = self.adj.get(&v) {
                for &w in outs {
                    if seen.insert(w) {
                        queue.push_back(w);
                    }
                }
            }
        }
        seen
    }

    /// Whether the *undirected* counterpart is connected.
    ///
    /// This is the first requirement of `k`-OSR (Definition 1). The empty
    /// graph is considered connected.
    pub fn is_undirected_connected(&self) -> bool {
        let Some(first) = self.vertices().next() else {
            return true;
        };
        self.undirected().reachable_from(first).len() == self.vertex_count()
    }

    /// BFS distance (number of edges) from `from` to `to`, if reachable.
    pub fn distance(&self, from: ProcessId, to: ProcessId) -> Option<usize> {
        if !self.contains_vertex(from) || !self.contains_vertex(to) {
            return None;
        }
        let mut dist: BTreeMap<ProcessId, usize> = BTreeMap::new();
        dist.insert(from, 0);
        let mut queue = VecDeque::from([from]);
        while let Some(v) = queue.pop_front() {
            let d = dist[&v];
            if v == to {
                return Some(d);
            }
            if let Some(outs) = self.adj.get(&v) {
                for &w in outs {
                    if let std::collections::btree_map::Entry::Vacant(e) = dist.entry(w) {
                        e.insert(d + 1);
                        queue.push_back(w);
                    }
                }
            }
        }
        None
    }

    /// The directed diameter restricted to mutually reachable pairs:
    /// the longest finite BFS distance over all ordered vertex pairs.
    ///
    /// Returns 0 for graphs with fewer than two vertices.
    pub fn max_finite_distance(&self) -> usize {
        let mut best = 0;
        for u in self.vertices() {
            // single-source BFS
            let mut dist: BTreeMap<ProcessId, usize> = BTreeMap::new();
            dist.insert(u, 0);
            let mut queue = VecDeque::from([u]);
            while let Some(v) = queue.pop_front() {
                let d = dist[&v];
                best = best.max(d);
                if let Some(outs) = self.adj.get(&v) {
                    for &w in outs {
                        if let std::collections::btree_map::Entry::Vacant(e) = dist.entry(w) {
                            e.insert(d + 1);
                            queue.push_back(w);
                        }
                    }
                }
            }
        }
        best
    }

    /// Merges another graph's vertices and edges into this one.
    pub fn merge(&mut self, other: &DiGraph) {
        for v in other.vertices() {
            self.add_vertex(v);
        }
        for (u, v) in other.edges() {
            self.add_edge(u, v);
        }
    }

    /// Builds a complete digraph (every ordered pair connected) on `ids`.
    pub fn complete(ids: &ProcessSet) -> DiGraph {
        let mut g = DiGraph::new();
        for &u in ids {
            g.add_vertex(u);
            for &v in ids {
                if u != v {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }

    /// Builds a directed circulant graph on `ids` (in ascending order):
    /// vertex at position `i` points to positions `i+1 .. i+jumps` (mod n).
    ///
    /// A directed circulant with `jumps = k` is exactly `k`-strongly
    /// connected, which makes it the canonical sink/core scaffold for the
    /// random generators.
    pub fn circulant(ids: &ProcessSet, jumps: usize) -> DiGraph {
        let order: Vec<ProcessId> = ids.iter().copied().collect();
        let n = order.len();
        let mut g = DiGraph::new();
        for &v in &order {
            g.add_vertex(v);
        }
        if n < 2 {
            return g;
        }
        for (i, &v) in order.iter().enumerate() {
            for j in 1..=jumps.min(n - 1) {
                g.add_edge(v, order[(i + j) % n]);
            }
        }
        g
    }
}

impl fmt::Display for DiGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "digraph {{ // {} vertices", self.vertex_count())?;
        for (v, outs) in &self.adj {
            let outs: Vec<String> = outs.iter().map(|w| w.to_string()).collect();
            writeln!(f, "  {v} -> [{}]", outs.join(", "))?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<(ProcessId, ProcessId)> for DiGraph {
    fn from_iter<I: IntoIterator<Item = (ProcessId, ProcessId)>>(iter: I) -> Self {
        let mut g = DiGraph::new();
        for (u, v) in iter {
            g.add_edge(u, v);
        }
        g
    }
}

impl Extend<(ProcessId, ProcessId)> for DiGraph {
    fn extend<I: IntoIterator<Item = (ProcessId, ProcessId)>>(&mut self, iter: I) {
        for (u, v) in iter {
            self.add_edge(u, v);
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
    fn empty_graph() {
        let g = DiGraph::new();
        assert_eq!(g.vertex_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_undirected_connected());
    }

    #[test]
    fn add_edge_creates_vertices() {
        let mut g = DiGraph::new();
        g.add_edge(p(1), p(2));
        assert_eq!(g.vertex_count(), 2);
        assert!(g.has_edge(p(1), p(2)));
        assert!(!g.has_edge(p(2), p(1)));
    }

    #[test]
    fn self_loops_ignored() {
        let mut g = DiGraph::new();
        g.add_edge(p(1), p(1));
        assert_eq!(g.vertex_count(), 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn remove_vertex_removes_incident_edges() {
        let mut g = DiGraph::from_edges([(1, 2), (2, 3), (3, 1)]);
        assert!(g.remove_vertex(p(2)));
        assert_eq!(g.vertex_count(), 2);
        assert!(!g.has_edge(p(1), p(2)));
        assert!(g.has_edge(p(3), p(1)));
        assert!(!g.remove_vertex(p(2)));
    }

    #[test]
    fn in_out_neighbors() {
        let g = DiGraph::from_edges([(1, 2), (3, 2), (2, 4)]);
        assert_eq!(g.in_neighbors(p(2)), process_set([1, 3]));
        assert_eq!(g.out_neighbors(p(2)), process_set([4]));
        assert_eq!(g.in_degree(p(2)), 2);
        assert_eq!(g.out_degree(p(2)), 1);
    }

    #[test]
    fn induced_subgraph() {
        let g = DiGraph::from_edges([(1, 2), (2, 3), (3, 1), (1, 4)]);
        let sub = g.induced(&process_set([1, 2, 4]));
        assert_eq!(sub.vertex_count(), 3);
        assert!(sub.has_edge(p(1), p(2)));
        assert!(sub.has_edge(p(1), p(4)));
        assert!(!sub.has_edge(p(2), p(3)));
    }

    #[test]
    fn reachability() {
        let g = DiGraph::from_edges([(1, 2), (2, 3), (4, 1)]);
        assert_eq!(g.reachable_from(p(1)), process_set([1, 2, 3]));
        assert_eq!(g.reachable_from(p(4)), process_set([1, 2, 3, 4]));
        assert_eq!(g.reachable_from(p(3)), process_set([3]));
    }

    #[test]
    fn undirected_connectivity() {
        let g = DiGraph::from_edges([(1, 2), (3, 4)]);
        assert!(!g.is_undirected_connected());
        let g2 = DiGraph::from_edges([(1, 2), (3, 4), (2, 3)]);
        assert!(g2.is_undirected_connected());
    }

    #[test]
    fn bfs_distance() {
        let g = DiGraph::from_edges([(1, 2), (2, 3), (3, 4)]);
        assert_eq!(g.distance(p(1), p(4)), Some(3));
        assert_eq!(g.distance(p(4), p(1)), None);
        assert_eq!(g.distance(p(2), p(2)), Some(0));
    }

    #[test]
    fn complete_graph_degrees() {
        let g = DiGraph::complete(&process_set([1, 2, 3, 4]));
        assert_eq!(g.edge_count(), 12);
        for v in g.vertices() {
            assert_eq!(g.out_degree(v), 3);
            assert_eq!(g.in_degree(v), 3);
        }
    }

    #[test]
    fn circulant_structure() {
        let g = DiGraph::circulant(&process_set([10, 20, 30, 40, 50]), 2);
        assert_eq!(g.edge_count(), 10);
        assert!(g.has_edge(p(10), p(20)));
        assert!(g.has_edge(p(10), p(30)));
        assert!(g.has_edge(p(50), p(10)));
        assert!(g.has_edge(p(50), p(20)));
        assert!(!g.has_edge(p(10), p(40)));
    }

    #[test]
    fn circulant_tiny() {
        let g = DiGraph::circulant(&process_set([1]), 3);
        assert_eq!(g.vertex_count(), 1);
        assert_eq!(g.edge_count(), 0);
        let g2 = DiGraph::circulant(&process_set([1, 2]), 3);
        assert_eq!(g2.edge_count(), 2);
    }

    #[test]
    fn merge_unions() {
        let mut a = DiGraph::from_edges([(1, 2)]);
        let b = DiGraph::from_edges([(2, 3)]);
        a.merge(&b);
        assert_eq!(a.vertex_count(), 3);
        assert_eq!(a.edge_count(), 2);
    }

    #[test]
    fn display_nonempty() {
        let g = DiGraph::from_edges([(1, 2)]);
        let s = g.to_string();
        assert!(s.contains("p1"));
        assert!(s.contains("p2"));
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut g: DiGraph = vec![(p(1), p(2))].into_iter().collect();
        g.extend(vec![(p(2), p(3))]);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn max_finite_distance_chain() {
        let g = DiGraph::from_edges([(1, 2), (2, 3), (3, 4)]);
        assert_eq!(g.max_finite_distance(), 3);
    }
}
