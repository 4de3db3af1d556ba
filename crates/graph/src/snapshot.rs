//! A dense-indexed snapshot of a [`KnowledgeView`]: what one sink/core
//! identification attempt computes on.
//!
//! The view itself is a `BTreeMap` of sorted identifier sets — the right
//! shape for gossip, the wrong one for graph search. A snapshot maps the
//! known identifiers to `0..n` (ascending, so index order *is* identifier
//! order and every tie-break by identifier carries over) and stores the
//! received PDs as CSR out- and in-adjacency restricted to known targets.
//! It is built once per search call in `O(V + E log V)` — there is no
//! `n × n` matrix, views reach 10⁴ vertices — and every step of the search
//! runs on it: condensation, peeling, cut splitting, the pointer counts
//! behind P3/P4, and the vertex-split networks of candidate subgraphs.
//!
//! Vertex sets are ascending `Vec<Idx>`; they order and compare exactly
//! like the [`ProcessSet`]s they stand for.

use crate::connectivity::SplitNetwork;
use crate::id::{ProcessId, ProcessSet};
use crate::scc::tarjan;
use crate::view::KnowledgeView;

/// A vertex of a snapshot: the rank of its identifier among the known ones.
pub(crate) type Idx = u32;

#[derive(Debug)]
pub(crate) struct ViewSnapshot {
    /// `S_known`, ascending.
    ids: Vec<ProcessId>,
    /// Whether the vertex's PD was received (`S_received`).
    received: Vec<bool>,
    /// CSR of the received PDs: `out_adj[out_off[v]..out_off[v + 1]]` are
    /// the known processes `v` points at, ascending, `v` itself excluded.
    out_off: Vec<u32>,
    out_adj: Vec<Idx>,
    /// The transpose, same layout.
    in_off: Vec<u32>,
    in_adj: Vec<Idx>,
    /// Scratch, all zero between calls: position + 1 of a vertex in the
    /// set an operation is working on.
    slot: Vec<u32>,
    /// Scratch, all zero between calls: per-vertex counters.
    hits: Vec<u32>,
}

/// How a candidate `S1` points at the rest of the view: everything the
/// boundary rule (P3) and the forced `S2` (P4) need, for every threshold
/// at once.
#[derive(Debug)]
pub(crate) struct Pointers {
    /// Each known process outside `S1` that some member points at, with
    /// the number of members pointing at it; ascending.
    outside: Vec<(Idx, u32)>,
    /// For each member with an edge leaving `S1`: the fewest pointers any
    /// of its outside targets receives.
    weakest_target: Vec<u32>,
}

impl Pointers {
    /// The forced `S2` at threshold `g`: outside processes more than `g`
    /// members point at.
    pub(crate) fn s2(&self, g: usize) -> impl Iterator<Item = Idx> + '_ {
        self.outside
            .iter()
            .filter(move |&&(_, count)| count as usize > g)
            .map(|&(t, _)| t)
    }

    /// Members with an edge to a process outside `S1 ∪ S2(g)`.
    pub(crate) fn boundary(&self, g: usize) -> usize {
        self.weakest_target
            .iter()
            .filter(|&&count| count as usize <= g)
            .count()
    }
}

impl ViewSnapshot {
    pub(crate) fn new(view: &KnowledgeView) -> Self {
        let ids: Vec<ProcessId> = view.known().as_slice().to_vec();
        let n = ids.len();
        let mut received = vec![false; n];
        let mut out_off = vec![0u32; n + 1];
        let mut out_adj: Vec<Idx> = Vec::new();
        // Authors arrive ascending, so rows are appended in index order.
        for (author, pd) in view.pds() {
            let Ok(v) = ids.binary_search(&author) else {
                continue;
            };
            received[v] = true;
            let row_start = out_adj.len();
            let mut lo = 0;
            for target in pd.iter().filter(|&&t| t != author) {
                match ids[lo..].binary_search(target) {
                    Ok(at) => {
                        out_adj.push((lo + at) as Idx);
                        lo += at + 1;
                    }
                    Err(at) => lo += at,
                }
            }
            out_off[v + 1] = (out_adj.len() - row_start) as u32;
        }
        for v in 0..n {
            out_off[v + 1] += out_off[v];
        }
        let mut in_off = vec![0u32; n + 1];
        for &t in &out_adj {
            in_off[t as usize + 1] += 1;
        }
        for v in 0..n {
            in_off[v + 1] += in_off[v];
        }
        let mut cursor = in_off.clone();
        let mut in_adj = vec![0 as Idx; out_adj.len()];
        for v in 0..n {
            for &t in &out_adj[out_off[v] as usize..out_off[v + 1] as usize] {
                in_adj[cursor[t as usize] as usize] = v as Idx;
                cursor[t as usize] += 1;
            }
        }
        ViewSnapshot {
            ids,
            received,
            out_off,
            out_adj,
            in_off,
            in_adj,
            slot: vec![0; n],
            hits: vec![0; n],
        }
    }

    fn out(&self, v: Idx) -> &[Idx] {
        let v = v as usize;
        &self.out_adj[self.out_off[v] as usize..self.out_off[v + 1] as usize]
    }

    fn inn(&self, v: Idx) -> &[Idx] {
        let v = v as usize;
        &self.in_adj[self.in_off[v] as usize..self.in_off[v + 1] as usize]
    }

    pub(crate) fn is_received(&self, v: Idx) -> bool {
        self.received[v as usize]
    }

    /// `S_received`, ascending.
    pub(crate) fn received(&self) -> Vec<Idx> {
        (0..self.ids.len() as Idx)
            .filter(|&v| self.is_received(v))
            .collect()
    }

    /// The vertices of the known members of `set`, ascending.
    pub(crate) fn indices(&self, set: &ProcessSet) -> Vec<Idx> {
        set.iter()
            .filter_map(|p| self.ids.binary_search(p).ok())
            .map(|v| v as Idx)
            .collect()
    }

    /// The vertices of `set` if the PD of every member was received.
    pub(crate) fn received_indices(&self, set: &ProcessSet) -> Option<Vec<Idx>> {
        let known = self.indices(set);
        (known.len() == set.len() && known.iter().all(|&v| self.is_received(v))).then_some(known)
    }

    /// The processes the vertices of `set` stand for.
    pub(crate) fn process_set(&self, set: impl IntoIterator<Item = Idx>) -> ProcessSet {
        set.into_iter().map(|v| self.ids[v as usize]).collect()
    }

    /// Strongly connected components of the received-knowledge graph
    /// `G[S_received]`, sinks first (the order
    /// [`condensation`](crate::condensation) gives them in).
    pub(crate) fn received_components(&self) -> Vec<Vec<Idx>> {
        tarjan(self.ids.len(), |v| self.out(v as Idx), |v| self.received[v])
    }

    /// The *feasible parts* of `S_received` for threshold `f`, given its
    /// strongly connected `components`: the disjoint vertex sets that hold
    /// every `S1` with `κ(G[S1]) ≥ f + 1` and `|S1| ≥ 2f + 1`, in no
    /// particular order.
    ///
    /// Such an `S1` is strongly connected, so it lies inside one component;
    /// at `f ≥ 1` each member also has at least `f + 1` in- and
    /// out-neighbours inside `S1`. Members short of that inside their part
    /// are dropped until none is left, the survivors re-split into
    /// components, and parts smaller than `2f + 1` go. At `f = 0` nothing
    /// is dropped: a lone vertex with an empty PD is a sink at `g = 0`.
    pub(crate) fn feasible_parts(&mut self, components: Vec<Vec<Idx>>, f: usize) -> Vec<Vec<Idx>> {
        if f == 0 {
            return components;
        }
        let fits = |part: &Vec<Idx>| part.len() > 2 * f;
        let mut pending: Vec<Vec<Idx>> = components.into_iter().filter(fits).collect();
        let mut parts = Vec::new();
        while let Some(part) = pending.pop() {
            let (outs, ins) = self.local_graph(&part);
            let kept = degree_core(&outs, &ins, f + 1);
            if kept.iter().all(|&kept| kept) {
                parts.push(part);
                continue;
            }
            let split = tarjan(part.len(), |pos| &outs[pos], |pos| kept[pos]);
            let to_vertices = |c: Vec<u32>| c.into_iter().map(|pos| part[pos as usize]).collect();
            pending.extend(split.into_iter().map(to_vertices).filter(fits));
        }
        parts
    }

    /// `G[set]` over positions in `set`: each member's out- and
    /// in-neighbours inside `set`, ascending.
    fn local_graph(&mut self, set: &[Idx]) -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
        self.mark(set);
        let inside = |adj: &[Idx]| -> Vec<u32> {
            let slots = adj.iter().map(|&w| self.slot[w as usize]);
            slots
                .filter(|&slot| slot != 0)
                .map(|slot| slot - 1)
                .collect()
        };
        let outs = set.iter().map(|&v| inside(self.out(v))).collect();
        let ins = set.iter().map(|&v| inside(self.inn(v))).collect();
        self.unmark(set);
        (outs, ins)
    }

    /// Marks `set` in `slot` (position + 1); the caller clears it.
    fn mark(&mut self, set: &[Idx]) {
        for (pos, &v) in set.iter().enumerate() {
            self.slot[v as usize] = pos as u32 + 1;
        }
    }

    fn unmark(&mut self, set: &[Idx]) {
        for &v in set {
            self.slot[v as usize] = 0;
        }
    }

    /// Position in `set` of the member with the weakest footprint inside
    /// `G[set]`: least `min(in-degree, out-degree)`, ties to the smallest
    /// identifier. `set` must be non-empty.
    pub(crate) fn weakest_member(&mut self, set: &[Idx]) -> usize {
        self.mark(set);
        let inside = |adj: &[Idx]| adj.iter().filter(|&&w| self.slot[w as usize] != 0).count();
        let weakest = (0..set.len())
            .min_by_key(|&pos| {
                let v = set[pos];
                (inside(self.out(v)).min(inside(self.inn(v))), pos)
            })
            .expect("non-empty candidate");
        self.unmark(set);
        weakest
    }

    /// The vertices of `set` reachable from `start ∈ set` inside `G[set]`,
    /// ascending.
    pub(crate) fn reachable_within(&mut self, set: &[Idx], start: Idx) -> Vec<Idx> {
        self.mark(set);
        // Visiting a vertex clears its mark, so each is taken once.
        self.slot[start as usize] = 0;
        let mut seen = vec![start];
        let mut at = 0;
        while at < seen.len() {
            let v = seen[at];
            at += 1;
            for i in self.out_off[v as usize]..self.out_off[v as usize + 1] {
                let w = self.out_adj[i as usize];
                if self.slot[w as usize] != 0 {
                    self.slot[w as usize] = 0;
                    seen.push(w);
                }
            }
        }
        self.unmark(set);
        seen.sort_unstable();
        seen
    }

    /// The vertex-split network of `G[set]`, vertex `set[i]` ↦ `i`.
    pub(crate) fn subnetwork(&mut self, set: &[Idx]) -> SplitNetwork {
        self.mark(set);
        let net = SplitNetwork::new(
            set.len(),
            set.iter().enumerate().flat_map(|(pos, &v)| {
                self.out(v)
                    .iter()
                    .map(|&w| self.slot[w as usize] as usize)
                    .filter(|&slot| slot != 0)
                    .map(move |slot| (pos, slot - 1))
            }),
        );
        self.unmark(set);
        net
    }

    /// Counts, for every process outside `s1`, the members pointing at it.
    pub(crate) fn pointers(&mut self, s1: &[Idx]) -> Pointers {
        self.mark(s1);
        let mut outside: Vec<(Idx, u32)> = Vec::new();
        for &member in s1 {
            for i in self.out_off[member as usize]..self.out_off[member as usize + 1] {
                let t = self.out_adj[i as usize];
                if self.slot[t as usize] == 0 {
                    if self.hits[t as usize] == 0 {
                        outside.push((t, 0));
                    }
                    self.hits[t as usize] += 1;
                }
            }
        }
        let weakest_target = s1
            .iter()
            .filter_map(|&member| {
                self.out(member)
                    .iter()
                    .filter(|&&t| self.slot[t as usize] == 0)
                    .map(|&t| self.hits[t as usize])
                    .min()
            })
            .collect();
        outside.sort_unstable();
        for (t, count) in &mut outside {
            *count = std::mem::take(&mut self.hits[*t as usize]);
        }
        self.unmark(s1);
        Pointers {
            outside,
            weakest_target,
        }
    }
}

/// Which vertices of the graph with adjacency `outs`/`ins` survive
/// repeatedly dropping every vertex with fewer than `k` in- or
/// out-neighbours among the survivors.
fn degree_core(outs: &[Vec<u32>], ins: &[Vec<u32>], k: usize) -> Vec<bool> {
    let mut out_deg: Vec<usize> = outs.iter().map(Vec::len).collect();
    let mut in_deg: Vec<usize> = ins.iter().map(Vec::len).collect();
    let mut kept: Vec<bool> = (0..outs.len())
        .map(|v| out_deg[v] >= k && in_deg[v] >= k)
        .collect();
    let mut doomed: Vec<usize> = (0..outs.len()).filter(|&v| !kept[v]).collect();
    while let Some(v) = doomed.pop() {
        for (adj, deg) in [(&outs[v], &mut in_deg), (&ins[v], &mut out_deg)] {
            for &w in adj {
                let w = w as usize;
                deg[w] -= 1;
                if kept[w] && deg[w] < k {
                    kept[w] = false;
                    doomed.push(w);
                }
            }
        }
    }
    kept
}

/// The subset of `eligible` selected by the bits of `mask`, into `subset`.
pub(crate) fn select(eligible: &[Idx], mask: u64, subset: &mut Vec<Idx>) {
    subset.clear();
    subset.extend(
        eligible
            .iter()
            .enumerate()
            .filter(|&(bit, _)| mask & (1 << bit) != 0)
            .map(|(_, &v)| v),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::process_set;

    /// Process 1's view in the Section III worked example, plus a lie: 4
    /// lists itself and a process (9) nobody else mentions.
    fn view() -> KnowledgeView {
        let mut view = KnowledgeView::new(1.into(), process_set([2, 3, 4]));
        view.record_pd(3.into(), process_set([1, 2, 4]));
        view.record_pd(4.into(), process_set([1, 2, 3, 4, 9]));
        view
    }

    #[test]
    fn adjacency_matches_the_view_graph() {
        let view = view();
        let snap = ViewSnapshot::new(&view);
        let graph = view.graph();
        assert_eq!(snap.process_set(snap.received()), view.received());
        for (v, &id) in snap.ids.iter().enumerate() {
            let v = v as Idx;
            assert_eq!(
                snap.process_set(snap.out(v).iter().copied()),
                graph.out_neighbors(id)
            );
            assert_eq!(
                snap.process_set(snap.inn(v).iter().copied()),
                graph.in_neighbors(id)
            );
        }
    }

    #[test]
    fn components_match_the_received_graph_condensation() {
        let view = view();
        let snap = ViewSnapshot::new(&view);
        let components: Vec<ProcessSet> = snap
            .received_components()
            .iter()
            .map(|c| snap.process_set(c.iter().copied()))
            .collect();
        assert_eq!(
            components,
            crate::scc::condensation(&view.received_graph()).components()
        );
    }

    #[test]
    fn pointers_count_members_per_outside_target() {
        let mut snap = ViewSnapshot::new(&view());
        let s1 = snap.indices(&process_set([1, 3, 4]));
        let pointers = snap.pointers(&s1);
        // 2 is pointed at by all three, 9 by the liar alone.
        let two = snap.indices(&process_set([2]))[0];
        let nine = snap.indices(&process_set([9]))[0];
        assert_eq!(pointers.outside, [(two, 3), (nine, 1)]);
        assert_eq!(pointers.s2(1).collect::<Vec<_>>(), [two]);
        assert_eq!((pointers.boundary(0), pointers.boundary(1)), (0, 1));
        assert!(snap.slot.iter().chain(&snap.hits).all(|&x| x == 0));
    }

    #[test]
    fn unknown_and_unreceived_processes_are_told_apart() {
        let snap = ViewSnapshot::new(&view());
        assert_eq!(snap.indices(&process_set([1, 77])).len(), 1);
        assert!(snap.received_indices(&process_set([1, 77])).is_none());
        assert!(snap.received_indices(&process_set([1, 2])).is_none());
        assert!(snap.received_indices(&process_set([1, 3])).is_some());
    }
}
