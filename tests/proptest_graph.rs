//! Property-based tests over the graph substrate's public API, and the
//! reference oracle for its search kernel.
//!
//! [`oracle`] is the implementation the indexed-snapshot kernel replaced,
//! kept verbatim in spirit: a fresh flow network per ordered pair, every
//! ordered pair probed, and the sink predicates evaluated on the
//! `BTreeMap` graph rebuilt from the view per call. It is slow and
//! obviously right; the oracle properties at the bottom of this file hold
//! the kernel to it, result for result, on the paper's witness graphs, on
//! random digraphs, and on partial views with a lying PD.

use bft_cupft::graph::{
    condensation, exact_sink_with_threshold, fig1a, fig1b, fig2a, fig2b, fig2c, fig3a, fig3b,
    fig4a, fig4b, process_set, strongly_connected_components, CandidateSearch, DiGraph,
    DisjointPaths, KnowledgeView, ProcessId, ProcessSet,
};
use proptest::prelude::*;

/// The pre-snapshot implementation of the connectivity and sink/core
/// search kernels, on the public graph types only.
mod oracle {
    use bft_cupft::graph::{
        condensation, CandidateSearch, DiGraph, GraphError, KnowledgeView, ProcessId, ProcessSet,
        SinkDecomposition, UnitFlowNetwork,
    };

    /// The kernel's search constants: its exact cutoff is public, its peel
    /// count and cut-split cutoff are repeated here.
    const EXACT_CUTOFF: usize = CandidateSearch::EXACT_CUTOFF;
    const MAX_PEELS: usize = 4;
    const CUT_SPLIT_CUTOFF: usize = 64;

    fn position(order: &[ProcessId], v: ProcessId) -> usize {
        order.binary_search(&v).expect("vertex of the graph")
    }

    /// A fresh vertex-split network of `g` (`v_in = 2i`, `v_out = 2i + 1`),
    /// edges at `edge_cap`, without the edge `skip`.
    fn network(
        g: &DiGraph,
        order: &[ProcessId],
        edge_cap: u32,
        skip: Option<(ProcessId, ProcessId)>,
    ) -> UnitFlowNetwork {
        let mut net = UnitFlowNetwork::new(2 * order.len());
        for i in 0..order.len() {
            net.add_edge(2 * i, 2 * i + 1, 1);
        }
        for (u, w) in g.edges().filter(|&edge| Some(edge) != skip) {
            net.add_edge(2 * position(order, u) + 1, 2 * position(order, w), edge_cap);
        }
        net
    }

    /// Node-disjoint `s → t` paths, on a network built for this pair alone.
    pub fn count_bounded(g: &DiGraph, s: ProcessId, t: ProcessId, limit: Option<usize>) -> usize {
        if !g.contains_vertex(s) || !g.contains_vertex(t) {
            return 0;
        }
        if s == t {
            return g.vertex_count();
        }
        let order: Vec<ProcessId> = g.vertices().collect();
        let (si, ti) = (position(&order, s), position(&order, t));
        network(g, &order, 1, None).max_flow(2 * si + 1, 2 * ti, limit)
    }

    pub fn min_vertex_cut(g: &DiGraph, s: ProcessId, t: ProcessId) -> ProcessSet {
        if !g.contains_vertex(s) || !g.contains_vertex(t) || s == t {
            return ProcessSet::new();
        }
        let order: Vec<ProcessId> = g.vertices().collect();
        let (si, ti) = (position(&order, s), position(&order, t));
        let mut net = network(g, &order, order.len() as u32 + 1, Some((s, t)));
        net.max_flow(2 * si + 1, 2 * ti, None);
        let reach = net.residual_reachable(2 * si + 1);
        order
            .iter()
            .enumerate()
            .filter(|&(i, &v)| v != s && v != t && reach[2 * i] && !reach[2 * i + 1])
            .map(|(_, &v)| v)
            .collect()
    }

    /// `min(κ(G), cap)` over all `n(n−1)` ordered pairs.
    pub fn strong_connectivity_capped(g: &DiGraph, cap: usize) -> usize {
        let n = g.vertex_count();
        if n <= 1 {
            return n.min(cap);
        }
        let mut kappa = cap;
        for u in g.vertices() {
            for v in g.vertices().filter(|&v| v != u) {
                if kappa == 0 {
                    return 0;
                }
                kappa = kappa.min(count_bounded(g, u, v, Some(kappa)));
            }
        }
        kappa
    }

    pub fn is_k_strongly_connected(g: &DiGraph, k: usize) -> bool {
        if k == 0 || g.vertex_count() <= 1 {
            return true;
        }
        g.vertices().all(|u| {
            g.vertices()
                .filter(|&v| v != u)
                .all(|v| count_bounded(g, u, v, Some(k)) >= k)
        })
    }

    pub fn min_cross_disjoint_paths_capped(
        g: &DiGraph,
        from: &ProcessSet,
        to: &ProcessSet,
        cap: usize,
    ) -> usize {
        let mut best = cap;
        let mut any = false;
        for &u in from {
            for &v in to.iter().filter(|&&v| v != u) {
                any = true;
                best = best.min(count_bounded(g, u, v, Some(best)));
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

    pub fn derive_s2(view: &KnowledgeView, s1: &ProcessSet, g: usize) -> ProcessSet {
        let pointers_into = |target: ProcessId| {
            s1.iter()
                .filter(|&&i| view.pd_of(i).is_some_and(|pd| pd.contains(&target)))
                .count()
        };
        view.known()
            .iter()
            .copied()
            .filter(|p| !s1.contains(p))
            .filter(|&p| pointers_into(p) > g)
            .collect()
    }

    fn boundary_count(view: &KnowledgeView, s1: &ProcessSet, s2: &ProcessSet) -> usize {
        s1.iter()
            .filter(|&&i| {
                view.pd_of(i).is_some_and(|pd| {
                    pd.iter()
                        .any(|t| !s1.contains(t) && !s2.contains(t) && view.knows(*t))
                })
            })
            .count()
    }

    pub fn is_sink_gdi(view: &KnowledgeView, g: usize, s1: &ProcessSet, s2: &ProcessSet) -> bool {
        !s1.is_empty()
            && s1.iter().all(|&p| view.has_pd_of(p))
            && s1.len() > 2 * g
            && s2.len() <= g
            && *s2 == derive_s2(view, s1, g)
            && boundary_count(view, s1, s2) <= g
            && is_k_strongly_connected(&view.graph().induced(s1), g + 1)
    }

    pub fn max_threshold(view: &KnowledgeView, s1: &ProcessSet) -> Option<SinkDecomposition> {
        if s1.is_empty() || !s1.iter().all(|&p| view.has_pd_of(p)) {
            return None;
        }
        let size_bound = (s1.len() - 1) / 2;
        let kappa = strong_connectivity_capped(&view.graph().induced(s1), size_bound + 1);
        if kappa == 0 {
            return None;
        }
        (0..=size_bound.min(kappa - 1)).rev().find_map(|g| {
            let s2 = derive_s2(view, s1, g);
            (s2.len() <= g && boundary_count(view, s1, &s2) <= g).then(|| SinkDecomposition {
                s1: s1.clone(),
                s2,
                threshold: g,
            })
        })
    }

    fn push_unique(s: ProcessSet, out: &mut Vec<ProcessSet>) {
        if !s.is_empty() && !out.contains(&s) {
            out.push(s);
        }
    }

    /// The member of `cur` with the least `min(in, out)` degree in
    /// `graph[cur]`, ties to the smallest identifier.
    fn weakest_member(graph: &DiGraph, cur: &ProcessSet) -> ProcessId {
        let sub = graph.induced(cur);
        cur.iter()
            .copied()
            .min_by_key(|&v| (sub.out_degree(v).min(sub.in_degree(v)), v))
            .expect("non-empty candidate")
    }

    fn append_component_candidates(
        received_graph: &DiGraph,
        component: &ProcessSet,
        out: &mut Vec<ProcessSet>,
    ) {
        push_unique(component.clone(), out);
        let mut cur = component.clone();
        for _ in 0..MAX_PEELS {
            if cur.len() <= 1 {
                break;
            }
            let victim = weakest_member(received_graph, &cur);
            cur.remove(&victim);
            push_unique(cur.clone(), out);
        }
        if component.len() <= CUT_SPLIT_CUTOFF {
            cut_split(received_graph, component, 3, out);
        }
    }

    fn cut_split(graph: &DiGraph, set: &ProcessSet, depth: usize, out: &mut Vec<ProcessSet>) {
        const MAX_CANDIDATES: usize = 96;
        if depth == 0 || set.len() < 3 || out.len() >= MAX_CANDIDATES {
            return;
        }
        let sub = graph.induced(set);
        let mut best: Option<(ProcessId, ProcessId, usize)> = None;
        for u in sub.vertices() {
            for v in sub.vertices().filter(|&v| v != u) {
                let c = count_bounded(&sub, u, v, best.map(|(_, _, c)| c));
                if best.is_none_or(|(_, _, bc)| c < bc) {
                    best = Some((u, v, c));
                }
            }
        }
        let Some((u, v, kappa)) = best else { return };
        if kappa == 0 {
            return;
        }
        let cut = min_vertex_cut(&sub, u, v);
        if cut.is_empty() || cut.len() >= set.len().saturating_sub(2) {
            return;
        }
        let without_cut: ProcessSet = set.difference(&cut).copied().collect();
        let side_u = sub.induced(&without_cut).reachable_from(u);
        let rest: ProcessSet = without_cut.difference(&side_u).copied().collect();
        let side_u_cut: ProcessSet = side_u.union(&cut).copied().collect();
        let rest_cut: ProcessSet = rest.union(&cut).copied().collect();
        for side in [&side_u, &side_u_cut, &rest, &rest_cut] {
            if side.len() < set.len() {
                push_unique(side.clone(), out);
            }
        }
        cut_split(graph, &side_u_cut, depth - 1, out);
        cut_split(graph, &rest_cut, depth - 1, out);
    }

    pub fn candidate_s1_sets(view: &KnowledgeView) -> Vec<ProcessSet> {
        let received_graph = view.received_graph();
        let mut out = Vec::new();
        for component in condensation(&received_graph).components() {
            append_component_candidates(&received_graph, component, &mut out);
        }
        out
    }

    fn candidate(s1: ProcessSet, s2: ProcessSet, threshold: usize) -> SinkDecomposition {
        SinkDecomposition { s1, s2, threshold }
    }

    pub fn exact_sink_with_threshold(
        view: &KnowledgeView,
        f: usize,
        cutoff: usize,
    ) -> Result<Option<SinkDecomposition>, GraphError> {
        let received: Vec<ProcessId> = view.received().into_iter().collect();
        if received.len() > cutoff {
            return Err(GraphError::TooLargeForExactCheck {
                size: received.len(),
                cutoff,
            });
        }
        for mask in 1u64..(1u64 << received.len()) {
            let s1 = subset(&received, mask);
            if s1.len() < 2 * f + 1 {
                continue;
            }
            let s2 = derive_s2(view, &s1, f);
            if is_sink_gdi(view, f, &s1, &s2) {
                return Ok(Some(candidate(s1, s2, f)));
            }
        }
        Ok(None)
    }

    fn subset(of: &[ProcessId], mask: u64) -> ProcessSet {
        of.iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &p)| p)
            .collect()
    }

    pub fn sink_with_threshold(view: &KnowledgeView, f: usize) -> Option<SinkDecomposition> {
        for s1 in candidate_s1_sets(view) {
            let s2 = derive_s2(view, &s1, f);
            if is_sink_gdi(view, f, &s1, &s2) {
                return Some(candidate(s1, s2, f));
            }
        }
        if view.received_count() <= EXACT_CUTOFF {
            if let Ok(Some(found)) = exact_sink_with_threshold(view, f, EXACT_CUTOFF) {
                return Some(found);
            }
        }
        None
    }

    pub fn ranked_candidates(view: &KnowledgeView) -> Vec<SinkDecomposition> {
        let mut found: Vec<SinkDecomposition> = Vec::new();
        for s1 in candidate_s1_sets(view) {
            if let Some(decomposition) = max_threshold(view, &s1) {
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

    pub fn best_core(view: &KnowledgeView) -> Option<SinkDecomposition> {
        let best = ranked_candidates(view).into_iter().next()?;
        is_internally_maximal(view, &best).then_some(best)
    }

    pub fn is_internally_maximal(view: &KnowledgeView, candidate: &SinkDecomposition) -> bool {
        let members = candidate.members();
        let g_star = candidate.threshold;
        if members.len() <= 2 * g_star + 2 {
            return true;
        }
        if !members.iter().all(|&p| view.has_pd_of(p)) {
            return false;
        }
        let eligible: Vec<ProcessId> = members.iter().copied().collect();
        if eligible.len() <= EXACT_CUTOFF {
            (1u64..(1u64 << eligible.len()))
                .map(|mask| subset(&eligible, mask))
                .filter(|s1| s1.len() > 2 * g_star)
                .all(|s1| !disqualifies(view, &s1, g_star, &members))
        } else {
            let mut cur = candidate.s1.clone();
            let graph = view.graph();
            for _ in 0..MAX_PEELS {
                if cur.len() <= 2 * g_star + 1 {
                    break;
                }
                let victim = weakest_member(&graph, &cur);
                cur.remove(&victim);
                if disqualifies(view, &cur, g_star, &members) {
                    return false;
                }
            }
            true
        }
    }

    fn disqualifies(
        view: &KnowledgeView,
        s1: &ProcessSet,
        g_star: usize,
        limit: &ProcessSet,
    ) -> bool {
        (g_star..=(s1.len() - 1) / 2).any(|g| {
            let s2 = derive_s2(view, s1, g);
            let v: ProcessSet = s1.union(&s2).copied().collect();
            v != *limit && v.is_subset(limit) && is_sink_gdi(view, g, s1, &s2)
        })
    }
}

/// Strategy: a random digraph on up to `n` vertices with edge probability
/// controlled by the density parameter.
fn arb_digraph(max_n: u64) -> impl Strategy<Value = DiGraph> {
    (2..=max_n, proptest::collection::vec(any::<u32>(), 1..200)).prop_map(|(n, seeds)| {
        let mut g = DiGraph::new();
        for v in 1..=n {
            g.add_vertex(ProcessId::new(v));
        }
        for (i, s) in seeds.iter().enumerate() {
            let a = 1 + (*s as u64 ^ i as u64) % n;
            let b = 1 + (*s as u64).rotate_left(7) % n;
            g.add_edge(ProcessId::new(a), ProcessId::new(b));
        }
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SCCs partition the vertex set.
    #[test]
    fn sccs_partition_vertices(g in arb_digraph(24)) {
        let sccs = strongly_connected_components(&g);
        let mut seen = ProcessSet::new();
        let mut total = 0;
        for c in &sccs {
            prop_assert!(!c.is_empty());
            total += c.len();
            seen.extend(c.iter().copied());
        }
        prop_assert_eq!(total, g.vertex_count());
        prop_assert_eq!(seen, g.vertex_set());
    }

    /// Two vertices share a component iff they reach each other.
    #[test]
    fn scc_membership_is_mutual_reachability(g in arb_digraph(12)) {
        let cond = condensation(&g);
        for u in g.vertices() {
            let ru = g.reachable_from(u);
            for v in g.vertices() {
                let same = cond.component_of(u) == cond.component_of(v);
                let mutual = ru.contains(&v) && g.reachable_from(v).contains(&u);
                prop_assert_eq!(same, mutual, "{} vs {}", u, v);
            }
        }
    }

    /// The condensation is acyclic: no component reaches itself through
    /// another component.
    #[test]
    fn condensation_is_acyclic(g in arb_digraph(16)) {
        let cond = condensation(&g);
        let n = cond.components().len();
        // Kahn-style: repeatedly remove sinks; all must be removable.
        let mut out_deg: Vec<usize> = (0..n).map(|c| cond.component_edges(c).len()).collect();
        let mut removed = vec![false; n];
        for _ in 0..n {
            let Some(s) = (0..n).find(|&c| !removed[c] && out_deg[c] == 0) else {
                prop_assert!(false, "cycle in condensation");
                unreachable!()
            };
            removed[s] = true;
            for c in 0..n {
                if !removed[c] && cond.component_edges(c).contains(&s) {
                    out_deg[c] -= 1;
                }
            }
        }
    }

    /// Menger sanity: path count bounded by out/in degree; monotone under
    /// edge addition; direct edge gives at least one path.
    #[test]
    fn disjoint_path_bounds(g in arb_digraph(14)) {
        let dp = DisjointPaths::new(&g);
        for u in g.vertices().take(5) {
            for v in g.vertices().take(5) {
                if u == v { continue; }
                let c = dp.count(u, v);
                prop_assert!(c <= g.out_degree(u));
                prop_assert!(c <= g.in_degree(v));
                if g.has_edge(u, v) {
                    prop_assert!(c >= 1);
                }
            }
        }
    }

    /// Adding an edge never decreases any pair's disjoint-path count.
    #[test]
    fn path_count_monotone_under_edge_addition(g in arb_digraph(10), extra in any::<u32>()) {
        let n = g.vertex_count() as u64;
        let a = ProcessId::new(1 + extra as u64 % n);
        let b = ProcessId::new(1 + (extra as u64 / 7) % n);
        if a != b {
            let before = DiGraph::disjoint_path_count(&g, a, b);
            let mut g2 = g.clone();
            g2.add_edge(a, b);
            let after = g2.disjoint_path_count(a, b);
            prop_assert!(after >= before.max(1));
        }
    }

    /// κ of a circulant equals its jump count (known closed form).
    #[test]
    fn circulant_connectivity_closed_form(n in 4u64..12, k in 1usize..4) {
        let k = k.min((n - 1) as usize);
        let g = DiGraph::circulant(&process_set(1..=n), k);
        prop_assert_eq!(g.strong_connectivity(), k);
    }

    /// The capped connectivity agrees with the exact one up to the cap.
    #[test]
    fn capped_connectivity_consistent(g in arb_digraph(10), cap in 0usize..5) {
        let exact = g.strong_connectivity();
        prop_assert_eq!(g.strong_connectivity_capped(cap), exact.min(cap));
    }

    /// An omniscient view's graph round-trips the original.
    #[test]
    fn omniscient_view_roundtrip(g in arb_digraph(12)) {
        let view = KnowledgeView::omniscient(&g);
        prop_assert_eq!(view.graph(), g.clone());
        prop_assert_eq!(view.received(), g.vertex_set());
    }
}

/// Small deterministic generator for the oracle cases (xorshift64*).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// A random digraph on `n` sparse identifiers with each ordered pair an
/// edge with probability `percent`.
fn random_digraph(n: u64, percent: u64, rng: &mut Rng) -> DiGraph {
    let ids: Vec<ProcessId> = (0..n).map(|i| ProcessId::new(10 + 7 * i)).collect();
    let mut g = DiGraph::new();
    for &u in &ids {
        g.add_vertex(u);
        for &v in &ids {
            if rng.chance(percent) {
                g.add_edge(u, v);
            }
        }
    }
    g
}

/// A view some process of `g` could hold mid-discovery: its own PD, the
/// PDs of a random subset of the others, and one of them replaced by a lie
/// (a random PD that may name its author and a process nobody else knows).
fn partial_view(g: &DiGraph, rng: &mut Rng) -> KnowledgeView {
    let vertices: Vec<ProcessId> = g.vertices().collect();
    let owner = vertices[rng.below(vertices.len() as u64) as usize];
    let mut view = KnowledgeView::new(owner, g.out_neighbors(owner));
    let mut recorded = Vec::new();
    for &v in vertices.iter().filter(|&&v| v != owner) {
        if rng.chance(65) {
            view.record_pd(v, g.out_neighbors(v));
            recorded.push(v);
        }
    }
    if !recorded.is_empty() {
        let liar = recorded[rng.below(recorded.len() as u64) as usize];
        let mut lie: ProcessSet = vertices
            .iter()
            .copied()
            .filter(|_| rng.chance(40))
            .collect();
        if rng.chance(50) {
            lie.insert(ProcessId::new(999));
        }
        view.record_pd(liar, lie);
    }
    view
}

/// The connectivity kernel against the oracle on one graph.
fn assert_connectivity_matches_oracle(g: &DiGraph) {
    assert_eq!(
        g.strong_connectivity(),
        oracle::strong_connectivity_capped(g, usize::MAX),
        "κ of\n{g}"
    );
    for k in 0..=4 {
        assert_eq!(
            g.strong_connectivity_capped(k),
            oracle::strong_connectivity_capped(g, k),
            "κ capped at {k} of\n{g}"
        );
        assert_eq!(
            g.is_k_strongly_connected(k),
            oracle::is_k_strongly_connected(g, k),
            "{k}-strong connectivity of\n{g}"
        );
    }
    // One `DisjointPaths` serves every pair; the oracle builds per pair.
    let dp = DisjointPaths::new(g);
    for u in g.vertices() {
        for v in g.vertices() {
            assert_eq!(dp.count(u, v), oracle::count_bounded(g, u, v, None));
            assert_eq!(
                dp.count_bounded(u, v, Some(2)),
                oracle::count_bounded(g, u, v, Some(2))
            );
            assert_eq!(
                dp.min_vertex_cut(u, v),
                oracle::min_vertex_cut(g, u, v),
                "cut {u} -> {v} of\n{g}"
            );
        }
    }
    let vertices: Vec<ProcessId> = g.vertices().collect();
    let (from, to) = vertices.split_at(vertices.len() / 2);
    let (from, to): (ProcessSet, ProcessSet) = (from.iter().collect(), to.iter().collect());
    for cap in [1, 3, usize::MAX] {
        assert_eq!(
            g.min_cross_disjoint_paths_capped(&from, &to, cap),
            oracle::min_cross_disjoint_paths_capped(g, &from, &to, cap)
        );
    }
}

/// The sink/core search kernel against the oracle on one view: every
/// candidate list, ranking, tie-break and decomposition must be the same.
fn assert_search_matches_oracle(view: &KnowledgeView) {
    let search = CandidateSearch;
    let candidates = search.candidate_s1_sets(view);
    assert_eq!(candidates, oracle::candidate_s1_sets(view));
    for s1 in &candidates {
        assert_eq!(
            bft_cupft::graph::max_threshold(view, s1),
            oracle::max_threshold(view, s1)
        );
        for g in 0..=2 {
            let s2 = bft_cupft::graph::derive_s2(view, s1, g);
            assert_eq!(s2, oracle::derive_s2(view, s1, g));
            assert_eq!(
                bft_cupft::graph::is_sink_gdi(view, g, s1, &s2),
                oracle::is_sink_gdi(view, g, s1, &s2)
            );
        }
    }
    let ranked = search.ranked_candidates(view);
    assert_eq!(ranked, oracle::ranked_candidates(view));
    for candidate in &ranked {
        assert_eq!(
            search.is_internally_maximal(view, candidate),
            oracle::is_internally_maximal(view, candidate),
            "{candidate:?}"
        );
    }
    assert_eq!(search.best_core(view), oracle::best_core(view));
    for f in 0..=2 {
        assert_eq!(
            search.sink_with_threshold(view, f),
            oracle::sink_with_threshold(view, f),
            "f = {f}"
        );
        assert_eq!(
            exact_sink_with_threshold(view, f, 12),
            oracle::exact_sink_with_threshold(view, f, 12),
            "exact, f = {f}"
        );
    }
}

/// Every witness graph of the paper, omnisciently and through the eyes of
/// each of its processes mid-discovery.
#[test]
fn kernel_matches_oracle_on_the_paper_figures() {
    let figures = [
        fig1a(),
        fig1b(),
        fig2a(),
        fig2b(),
        fig2c(),
        fig3a(),
        fig3b(),
        fig4a(),
        fig4b(),
    ];
    let mut rng = Rng(0x5eed_f165);
    for figure in &figures {
        let g = figure.graph();
        assert_connectivity_matches_oracle(g);
        assert_search_matches_oracle(&KnowledgeView::omniscient(g));
        for _ in 0..3 {
            assert_search_matches_oracle(&partial_view(g, &mut rng));
        }
    }
}

/// Root probing rests on both halves of Even's argument; these are the
/// graphs where the half for a minimum realised by a pair joined by a
/// direct edge carries the result. In a complete digraph every pair is
/// adjacent, so no vertex separator exists at all and `κ = n − 1` is
/// realised by adjacent pairs only. In the bridge graph the single edge
/// `7 → 8` is the whole cut between two cliques: the pair `(7, 8)` is
/// adjacent, its endpoints are the last two roots and are never probed,
/// and the minimum has to be read off a root beside `7` (cut off from `8`
/// by `{7}` alone) or beside `8`.
#[test]
fn root_probing_reads_a_minimum_realised_across_a_direct_edge() {
    for n in 2..=6u64 {
        let complete = DiGraph::complete(&process_set(1..=n));
        assert_eq!(complete.strong_connectivity(), (n - 1) as usize);
        assert_connectivity_matches_oracle(&complete);
    }
    let (a, b) = (process_set([1, 2, 3, 7]), process_set([4, 5, 6, 8]));
    let mut bridge = DiGraph::complete(&a);
    bridge.merge(&DiGraph::complete(&b));
    bridge.add_edge(7.into(), 8.into());
    for &from in &b {
        for &to in &a {
            bridge.add_edge(from, to);
        }
    }
    assert_eq!(oracle::count_bounded(&bridge, 7.into(), 8.into(), None), 1);
    assert!(bridge.vertices().all(|v| bridge.out_degree(v) >= 3));
    assert_eq!(bridge.strong_connectivity(), 1);
    assert!(bridge.is_k_strongly_connected(1) && !bridge.is_k_strongly_connected(2));
    assert_connectivity_matches_oracle(&bridge);
}

/// Omniscient views above the exact cutoff, where the internal-maximality
/// check peels the candidate's `S1` instead of enumerating subsets — a
/// branch the n ≤ 10 views below never reach. One fixed seed keeps this to
/// a few debug seconds; a proptest over n = 15..18 costs minutes.
#[test]
fn kernel_matches_oracle_above_the_exact_cutoff() {
    let mut rng = Rng(0x5eed_c0de);
    for n in [16, 18] {
        for percent in [40, 75] {
            let view = KnowledgeView::omniscient(&random_digraph(n, percent, &mut rng));
            let peeled = CandidateSearch.ranked_candidates(&view).iter().any(|c| {
                let size = c.members().len();
                size > CandidateSearch::EXACT_CUTOFF && size > 2 * c.threshold + 2
            });
            assert!(
                peeled,
                "n = {n}, {percent} %: no candidate takes the peeled branch"
            );
            assert_search_matches_oracle(&view);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random digraphs at three densities, omnisciently and as partial
    /// views with withheld PDs and one lie.
    #[test]
    fn kernel_matches_oracle_on_random_views(n in 2u64..=10, seed in any::<u64>()) {
        let mut rng = Rng(seed | 1);
        for percent in [15, 40, 75] {
            let g = random_digraph(n, percent, &mut rng);
            assert_connectivity_matches_oracle(&g);
            assert_search_matches_oracle(&KnowledgeView::omniscient(&g));
            for _ in 0..2 {
                assert_search_matches_oracle(&partial_view(&g, &mut rng));
            }
        }
    }
}
