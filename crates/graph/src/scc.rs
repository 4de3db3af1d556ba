//! Strongly connected components, condensations, and sink components.

use std::collections::{BTreeMap, BTreeSet};

use crate::digraph::DiGraph;
use crate::id::{ProcessId, ProcessSet};

/// Computes the strongly connected components of `g` using an iterative
/// Tarjan algorithm.
///
/// Components are returned in *reverse topological order* of the
/// condensation (a property of Tarjan's algorithm): every component appears
/// before any component that can reach it. In particular, sink components
/// appear first.
///
/// # Example
///
/// ```
/// use cupft_graph::{strongly_connected_components, DiGraph};
///
/// // 1 <-> 2 -> 3 <-> 4 : two components, {3,4} is the sink.
/// let g = DiGraph::from_edges([(1, 2), (2, 1), (2, 3), (3, 4), (4, 3)]);
/// let sccs = strongly_connected_components(&g);
/// assert_eq!(sccs.len(), 2);
/// assert!(sccs[0].contains(&cupft_graph::ProcessId::new(3)));
/// ```
pub fn strongly_connected_components(g: &DiGraph) -> Vec<ProcessSet> {
    let vertices: Vec<ProcessId> = g.vertices().collect();
    let index_of: BTreeMap<ProcessId, u32> = vertices
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i as u32))
        .collect();
    let adj: Vec<Vec<u32>> = vertices
        .iter()
        .map(|&v| g.out_neighbors(v).iter().map(|w| index_of[w]).collect())
        .collect();
    tarjan(vertices.len(), |v| &adj[v], |_| true)
        .into_iter()
        .map(|comp| comp.into_iter().map(|v| vertices[v as usize]).collect())
        .collect()
}

/// Iterative Tarjan over the dense vertex indices `0..n` that `keep`
/// admits; `out(v)` lists the successors of `v` (those `keep` rejects are
/// skipped). Roots are tried and successors followed in ascending order.
///
/// Components come out in reverse topological order of the condensation
/// (sinks first), each with its members ascending.
pub(crate) fn tarjan<'a>(
    n: usize,
    out: impl Fn(usize) -> &'a [u32],
    keep: impl Fn(usize) -> bool,
) -> Vec<Vec<u32>> {
    const UNSET: usize = usize::MAX;
    let mut index = vec![UNSET; n];
    let mut lowlink = vec![UNSET; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut components: Vec<Vec<u32>> = Vec::new();

    for start in (0..n).filter(|&v| keep(v)) {
        if index[start] != UNSET {
            continue;
        }
        // The explicit call stack holds (vertex, position in its successor
        // list).
        let mut call_stack: Vec<(usize, usize)> = vec![(start, 0)];
        index[start] = next_index;
        lowlink[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;

        while let Some(&mut (v, ref mut pos)) = call_stack.last_mut() {
            if let Some(&w) = out(v).get(*pos) {
                let w = w as usize;
                *pos += 1;
                if !keep(w) {
                    continue;
                }
                if index[w] == UNSET {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call_stack.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                call_stack.pop();
                if let Some(&mut (parent, _)) = call_stack.last_mut() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        comp.push(w as u32);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    components.push(comp);
                }
            }
        }
    }
    components
}

/// The condensation of a directed graph: one node per strongly connected
/// component, with an edge between components iff some original edge
/// crosses them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Condensation {
    components: Vec<ProcessSet>,
    /// `edges[c]` = indices of components reachable from component `c`
    /// through a single original edge.
    edges: Vec<BTreeSet<usize>>,
    component_of: BTreeMap<ProcessId, usize>,
}

impl Condensation {
    /// The strongly connected components, in reverse topological order
    /// (sinks first).
    pub fn components(&self) -> &[ProcessSet] {
        &self.components
    }

    /// Index of the component containing `v`, if `v` is a vertex.
    pub fn component_of(&self, v: ProcessId) -> Option<usize> {
        self.component_of.get(&v).copied()
    }

    /// Outgoing component edges of component `c`.
    pub fn component_edges(&self, c: usize) -> &BTreeSet<usize> {
        &self.edges[c]
    }

    /// Indices of *sink* components: components with no outgoing edges
    /// (Section II-C: "a strongly connected component is a sink iff there is
    /// no path from a node in it to other nodes").
    pub fn sink_indices(&self) -> Vec<usize> {
        (0..self.components.len())
            .filter(|&c| self.edges[c].is_empty())
            .collect()
    }

    /// The sink components themselves.
    pub fn sinks(&self) -> Vec<&ProcessSet> {
        self.sink_indices()
            .into_iter()
            .map(|c| &self.components[c])
            .collect()
    }

    /// If the condensation has exactly one sink, returns it.
    pub fn unique_sink(&self) -> Option<&ProcessSet> {
        let sinks = self.sink_indices();
        match sinks.as_slice() {
            [only] => Some(&self.components[*only]),
            _ => None,
        }
    }
}

/// Computes the condensation of `g`.
///
/// # Example
///
/// ```
/// use cupft_graph::{condensation, DiGraph};
///
/// let g = DiGraph::from_edges([(1, 2), (2, 1), (2, 3), (3, 4), (4, 3)]);
/// let c = condensation(&g);
/// assert_eq!(c.components().len(), 2);
/// let sink = c.unique_sink().unwrap();
/// assert_eq!(sink.len(), 2); // {3, 4}
/// ```
pub fn condensation(g: &DiGraph) -> Condensation {
    let components = strongly_connected_components(g);
    let mut component_of = BTreeMap::new();
    for (i, comp) in components.iter().enumerate() {
        for &v in comp {
            component_of.insert(v, i);
        }
    }
    let mut edges = vec![BTreeSet::new(); components.len()];
    for (u, v) in g.edges() {
        let (cu, cv) = (component_of[&u], component_of[&v]);
        if cu != cv {
            edges[cu].insert(cv);
        }
    }
    Condensation {
        components,
        edges,
        component_of,
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
    fn single_cycle_is_one_component() {
        let g = DiGraph::from_edges([(1, 2), (2, 3), (3, 1)]);
        let sccs = strongly_connected_components(&g);
        assert_eq!(sccs.len(), 1);
        assert_eq!(sccs[0], process_set([1, 2, 3]));
    }

    #[test]
    fn dag_has_singleton_components() {
        let g = DiGraph::from_edges([(1, 2), (2, 3), (1, 3)]);
        let sccs = strongly_connected_components(&g);
        assert_eq!(sccs.len(), 3);
        for c in &sccs {
            assert_eq!(c.len(), 1);
        }
    }

    #[test]
    fn components_partition_vertices() {
        let g = DiGraph::from_edges([(1, 2), (2, 1), (3, 4), (4, 3), (2, 3), (5, 1)]);
        let sccs = strongly_connected_components(&g);
        let mut all = ProcessSet::new();
        let mut total = 0;
        for c in &sccs {
            total += c.len();
            all.extend(c.iter().copied());
        }
        assert_eq!(total, g.vertex_count());
        assert_eq!(all, g.vertex_set());
    }

    #[test]
    fn reverse_topological_order() {
        // 5 -> {1,2} -> {3,4}; sink {3,4} must appear before {1,2}, which
        // must appear before {5}.
        let g = DiGraph::from_edges([(1, 2), (2, 1), (3, 4), (4, 3), (2, 3), (5, 1)]);
        let sccs = strongly_connected_components(&g);
        let pos = |set: &ProcessSet| sccs.iter().position(|c| c == set).unwrap();
        assert!(pos(&process_set([3, 4])) < pos(&process_set([1, 2])));
        assert!(pos(&process_set([1, 2])) < pos(&process_set([5])));
    }

    #[test]
    fn condensation_sinks() {
        let g = DiGraph::from_edges([(1, 2), (2, 1), (3, 4), (4, 3), (2, 3), (5, 1)]);
        let c = condensation(&g);
        assert_eq!(c.unique_sink(), Some(&process_set([3, 4])));
    }

    #[test]
    fn multiple_sinks_detected() {
        let g = DiGraph::from_edges([(1, 2), (1, 3)]);
        let c = condensation(&g);
        assert_eq!(c.sinks().len(), 2);
        assert!(c.unique_sink().is_none());
    }

    #[test]
    fn isolated_vertex_is_its_own_sink() {
        let mut g = DiGraph::new();
        g.add_vertex(p(9));
        let c = condensation(&g);
        assert_eq!(c.sinks().len(), 1);
    }

    #[test]
    fn component_edges_cross_components_only() {
        let g = DiGraph::from_edges([(1, 2), (2, 1), (2, 3)]);
        let c = condensation(&g);
        let c12 = c.component_of(p(1)).unwrap();
        let c3 = c.component_of(p(3)).unwrap();
        assert!(c.component_edges(c12).contains(&c3));
        assert!(c.component_edges(c3).is_empty());
    }

    #[test]
    fn deep_recursion_does_not_overflow() {
        // A long path graph exercises the iterative Tarjan implementation.
        let edges: Vec<(u64, u64)> = (0..20_000).map(|i| (i, i + 1)).collect();
        let g = DiGraph::from_edges(edges);
        let sccs = strongly_connected_components(&g);
        assert_eq!(sccs.len(), 20_001);
    }

    #[test]
    fn big_cycle_single_component() {
        let mut edges: Vec<(u64, u64)> = (0..5_000).map(|i| (i, i + 1)).collect();
        edges.push((5_000, 0));
        let g = DiGraph::from_edges(edges);
        let sccs = strongly_connected_components(&g);
        assert_eq!(sccs.len(), 1);
    }
}
