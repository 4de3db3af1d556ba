//! Unit-capacity max-flow (Dinic) used for Menger-style connectivity queries.

/// A small max-flow network over dense `usize` node indices with integer
/// capacities, specialized for the unit-capacity networks that arise from
/// vertex-connectivity reductions.
///
/// The implementation is Dinic's algorithm; on unit-capacity networks it
/// runs in `O(E · sqrt(V))`, far more than fast enough for knowledge
/// connectivity graphs of protocol scale.
///
/// # Example
///
/// ```
/// use cupft_graph::UnitFlowNetwork;
///
/// // Two parallel length-2 routes from 0 to 3.
/// let mut net = UnitFlowNetwork::new(4);
/// net.add_edge(0, 1, 1);
/// net.add_edge(1, 3, 1);
/// net.add_edge(0, 2, 1);
/// net.add_edge(2, 3, 1);
/// assert_eq!(net.max_flow(0, 3, None), 2);
/// ```
#[derive(Debug, Clone)]
pub struct UnitFlowNetwork {
    n: usize,
    // Arcs in pairs: arc 2k is forward, 2k+1 is its residual twin.
    to: Vec<u32>,
    cap: Vec<u32>,
    // Per-node arc lists in insertion order, threaded through `next`.
    first: Vec<u32>,
    last: Vec<u32>,
    next: Vec<u32>,
    // Forward arcs the last `max_flow` pushed flow over (repeats allowed);
    // restoring exactly these returns the network to zero flow.
    touched: Vec<u32>,
    // Dinic scratch, reused by every query.
    level: Vec<u32>,
    iter: Vec<u32>,
    queue: Vec<u32>,
    path: Vec<u32>,
}

/// "No arc" / "no level" marker.
const NIL: u32 = u32::MAX;

impl UnitFlowNetwork {
    /// Creates a network with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        assert!(n < NIL as usize, "node count exceeds the index width");
        UnitFlowNetwork {
            n,
            to: Vec::new(),
            cap: Vec::new(),
            first: vec![NIL; n],
            last: vec![NIL; n],
            next: Vec::new(),
            touched: Vec::new(),
            level: vec![NIL; n],
            iter: vec![NIL; n],
            queue: Vec::with_capacity(n),
            path: Vec::new(),
        }
    }

    /// Adds a directed edge with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, from: usize, to: usize, capacity: u32) {
        assert!(from < self.n && to < self.n, "edge endpoint out of range");
        self.push_arc(from, to, capacity);
        self.push_arc(to, from, 0);
    }

    fn push_arc(&mut self, from: usize, to: usize, capacity: u32) {
        let e = self.to.len() as u32;
        self.to.push(to as u32);
        self.cap.push(capacity);
        self.next.push(NIL);
        match self.last[from] {
            NIL => self.first[from] = e,
            prev => self.next[prev as usize] = e,
        }
        self.last[from] = e;
    }

    /// Forward edges as `(from, to)` pairs, in insertion order.
    pub(crate) fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.to.len())
            .step_by(2)
            .map(|e| (self.to[e + 1] as usize, self.to[e] as usize))
    }

    /// Returns the residual capacities to the zero-flow state by undoing
    /// only the arcs the last query pushed flow over.
    fn restore(&mut self) {
        for e in self.touched.drain(..) {
            let e = e as usize;
            self.cap[e] += self.cap[e + 1];
            self.cap[e + 1] = 0;
        }
    }

    /// Computes the maximum flow from `source` to `sink`, optionally
    /// stopping early once `limit` units have been routed (useful when the
    /// caller only needs to know whether the flow reaches a threshold).
    ///
    /// Every call starts from zero flow: whatever the previous query
    /// routed is undone first, so one network serves any number of
    /// queries, and the scratch the search needs is kept between them.
    /// The residual state this call leaves behind is what
    /// [`Self::residual_reachable`] reads.
    pub fn max_flow(&mut self, source: usize, sink: usize, limit: Option<usize>) -> usize {
        assert!(source < self.n && sink < self.n, "terminal out of range");
        self.restore();
        if source == sink {
            return usize::MAX;
        }
        let limit = limit.unwrap_or(usize::MAX);
        let mut flow = 0usize;
        while flow < limit && self.build_levels(source, sink) {
            self.iter.copy_from_slice(&self.first);
            // Blocking flow, one augmenting unit at a time (unit caps).
            while flow < limit && self.augment(source, sink) {
                flow += 1;
            }
        }
        flow
    }

    /// BFS over residual arcs labelling nodes with their distance from
    /// `source`; stops as soon as `sink` is labelled (every node nearer
    /// than the sink is labelled by then). Returns whether it was reached.
    fn build_levels(&mut self, source: usize, sink: usize) -> bool {
        self.level.fill(NIL);
        self.level[source] = 0;
        self.queue.clear();
        self.queue.push(source as u32);
        let mut at = 0;
        while at < self.queue.len() {
            let v = self.queue[at] as usize;
            at += 1;
            let mut e = self.first[v];
            while e != NIL {
                let w = self.to[e as usize] as usize;
                if self.cap[e as usize] > 0 && self.level[w] == NIL {
                    self.level[w] = self.level[v] + 1;
                    if w == sink {
                        return true;
                    }
                    self.queue.push(w as u32);
                }
                e = self.next[e as usize];
            }
        }
        false
    }

    /// Iterative DFS along the level graph carrying one unit from `source`
    /// to `sink`; returns whether a unit was routed.
    fn augment(&mut self, source: usize, sink: usize) -> bool {
        self.path.clear();
        let mut cur = source;
        loop {
            if cur == sink {
                for &e in &self.path {
                    let e = e as usize;
                    self.cap[e] -= 1;
                    self.cap[e ^ 1] += 1;
                    self.touched.push((e & !1) as u32);
                }
                return true;
            }
            let mut advanced = false;
            while self.iter[cur] != NIL {
                let e = self.iter[cur] as usize;
                let w = self.to[e] as usize;
                if self.cap[e] > 0 && self.level[w] == self.level[cur] + 1 {
                    self.path.push(e as u32);
                    cur = w;
                    advanced = true;
                    break;
                }
                self.iter[cur] = self.next[e];
            }
            if advanced {
                continue;
            }
            // Dead end: retreat.
            match self.path.pop() {
                Some(e) => {
                    cur = self.to[(e ^ 1) as usize] as usize;
                    self.iter[cur] = self.next[e as usize];
                }
                None => return false,
            }
        }
    }

    /// After a [`Self::max_flow`] call, returns the set of nodes reachable
    /// from `source` in the residual network (used to extract minimum
    /// cuts via max-flow/min-cut duality).
    pub fn residual_reachable(&self, source: usize) -> Vec<bool> {
        let mut seen = vec![false; self.n];
        seen[source] = true;
        let mut stack = vec![source];
        while let Some(v) = stack.pop() {
            let mut e = self.first[v];
            while e != NIL {
                let w = self.to[e as usize] as usize;
                if self.cap[e as usize] > 0 && !seen[w] {
                    seen[w] = true;
                    stack.push(w);
                }
                e = self.next[e as usize];
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_path() {
        let mut net = UnitFlowNetwork::new(3);
        net.add_edge(0, 1, 1);
        net.add_edge(1, 2, 1);
        assert_eq!(net.max_flow(0, 2, None), 1);
    }

    #[test]
    fn no_path() {
        let mut net = UnitFlowNetwork::new(3);
        net.add_edge(1, 0, 1);
        net.add_edge(1, 2, 1);
        assert_eq!(net.max_flow(0, 2, None), 0);
    }

    #[test]
    fn parallel_paths_counted() {
        let mut net = UnitFlowNetwork::new(6);
        // three disjoint routes 0->x->5
        for x in 1..=3 {
            net.add_edge(0, x, 1);
            net.add_edge(x, 5, 1);
        }
        assert_eq!(net.max_flow(0, 5, None), 3);
    }

    #[test]
    fn limit_stops_early() {
        let mut net = UnitFlowNetwork::new(6);
        for x in 1..=4 {
            net.add_edge(0, x, 1);
            net.add_edge(x, 5, 1);
        }
        assert_eq!(net.max_flow(0, 5, Some(2)), 2);
    }

    #[test]
    fn bottleneck_respected() {
        // 0 -> 1 -> {2,3} -> 4: vertex 1 is a bottleneck edge of cap 1.
        let mut net = UnitFlowNetwork::new(5);
        net.add_edge(0, 1, 1);
        net.add_edge(1, 2, 1);
        net.add_edge(1, 3, 1);
        net.add_edge(2, 4, 1);
        net.add_edge(3, 4, 1);
        assert_eq!(net.max_flow(0, 4, None), 1);
    }

    #[test]
    fn rerouting_through_residuals() {
        // Classic case where a greedy path must be undone via residual edges.
        let mut net = UnitFlowNetwork::new(4);
        net.add_edge(0, 1, 1);
        net.add_edge(0, 2, 1);
        net.add_edge(1, 2, 1);
        net.add_edge(1, 3, 1);
        net.add_edge(2, 3, 1);
        assert_eq!(net.max_flow(0, 3, None), 2);
    }

    #[test]
    fn queries_on_one_network_are_independent() {
        // 0 -> {1,2} -> 3 and a detour 1 -> 2: every query must see the
        // zero-flow network, whatever the previous one routed.
        let mut net = UnitFlowNetwork::new(4);
        net.add_edge(0, 1, 1);
        net.add_edge(0, 2, 1);
        net.add_edge(1, 2, 1);
        net.add_edge(1, 3, 1);
        net.add_edge(2, 3, 1);
        for _ in 0..3 {
            assert_eq!(net.max_flow(0, 3, None), 2);
            assert_eq!(net.max_flow(0, 3, Some(1)), 1);
            assert_eq!(net.max_flow(1, 3, None), 2);
            assert_eq!(net.max_flow(3, 0, None), 0);
            assert_eq!(net.max_flow(0, 2, None), 2);
        }
        // The residual state is the last query's alone: both arcs out of 0
        // are saturated, so nothing else is reachable from it.
        assert_eq!(net.residual_reachable(0), [true, false, false, false]);
    }

    #[test]
    fn larger_capacities() {
        let mut net = UnitFlowNetwork::new(2);
        net.add_edge(0, 1, 5);
        assert_eq!(net.max_flow(0, 1, None), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut net = UnitFlowNetwork::new(2);
        net.add_edge(0, 5, 1);
    }
}
