//! Parametric graph-family generators with advertised paper guarantees.
//!
//! The figure witnesses ([`fig1a`](crate::fig1a)–[`fig4b`](crate::fig4b))
//! and the rejection-sampling [`Generator`](crate::Generator) cover the
//! paper's hand-built graphs; this module adds *topology families*: seeded,
//! parametric constructors whose samples satisfy (or deliberately violate)
//! the paper's conditions **by construction**, at any scale. Each sample
//! carries a [`FamilyGuarantees`] record saying exactly which predicates of
//! Definitions 1 and 2 the construction promises, so sweeps and property
//! tests can hold the generators to their word:
//!
//! | family | shape | guarantee highlights |
//! |---|---|---|
//! | [`GraphFamily::ErdosRenyi`] | planted complete core + `G(n, m)`-style random periphery | `(f+1)`-OSR always |
//! | [`GraphFamily::RingOfCliques`] | directed ring of complete cliques, staggered bridges | whole graph is the sink, `κ ≥ bridges` |
//! | [`GraphFamily::KDiamond`] | stacked width-`(f+1)` diamond gadgets | `(f+1)`-OSR with condition 4 *tight* (exactly `f+1` paths) |
//! | [`GraphFamily::ScaleFree`] | preferential attachment toward hubs | unique qualified sink; condition 4 **not** promised (hub sharing) |
//! | [`GraphFamily::BridgedPartition`] | sparse strong block → width-`w` bridge → complete sink | `(f+1)`-OSR iff `w ≥ f+1` (the Fig. 1a violation, parameterized) |
//!
//! Generation is deterministic per seed (byte-identical graphs) and
//! *constructive with verification*: samples small enough for the exact
//! recognizers are re-checked against their advertisement before being
//! returned; larger samples rely on the construction argument, which the
//! property tests validate across the small-size range
//! (`tests/proptest_families.rs`). Vertex IDs are assigned contiguously
//! from 1 with the sink/core first, so experiment axes can target
//! structural roles by ID (e.g. the highest ID is always a periphery
//! vertex when the family has a periphery).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::digraph::DiGraph;
use crate::error::GraphError;
use crate::generate::GeneratedSystem;
use crate::id::{ProcessId, ProcessSet};
use crate::osr::osr_report;
use crate::scc::condensation;

/// Samples with at most this many vertices are re-verified against their
/// advertisement with the exact recognizers before being returned.
const VERIFY_CUTOFF: usize = 64;

/// The paper predicates a family promises its samples satisfy.
///
/// Every field is a *guarantee of the construction*, not a measurement of
/// one sample: `tests/proptest_families.rs` checks samples against these
/// across seeds and sizes, and [`GraphFamily::generate`] re-verifies any
/// sample small enough for the exact recognizers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FamilyGuarantees {
    /// The fault threshold `f` the family is parameterized by.
    pub fault_threshold: usize,
    /// The condensation has exactly one sink component, and it is the
    /// planted sink (condition 2 of Definition 1).
    pub unique_sink: bool,
    /// Number of members of the planted sink (`≥ 2f + 1` qualifies it for
    /// Theorem 1 / Definition 1's size requirement).
    pub sink_size: usize,
    /// Guaranteed lower bound on `κ(G[sink])` (condition 3).
    pub sink_connectivity: usize,
    /// Guaranteed lower bound on node-disjoint paths from every non-sink
    /// vertex to every sink member (condition 4), when the construction
    /// promises one. `None` means the family makes no such promise (e.g.
    /// scale-free hub sharing) or the sink spans the whole graph (the
    /// condition is vacuous).
    pub min_sink_paths: Option<usize>,
    /// Whether the sample is guaranteed to satisfy — `Some(true)` — or
    /// violate — `Some(false)` — `(f+1)`-OSR (Definition 1). `None`:
    /// satisfaction depends on the sample and must be measured.
    pub k_osr: Option<bool>,
}

/// One generated family sample: the system bundle plus the guarantees it
/// was constructed to meet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilySample {
    /// The parameters the sample was generated from.
    pub family: GraphFamily,
    /// Human-readable label (family name plus parameters).
    pub label: String,
    /// The graph with its ground truth (sink members, fault threshold;
    /// family samples embed no Byzantine processes — fault axes inject
    /// them by ID).
    pub system: GeneratedSystem,
    /// The predicates the construction promises this sample satisfies.
    pub advertised: FamilyGuarantees,
}

/// A parametric, seeded topology-family constructor.
///
/// # Example
///
/// ```
/// use cupft_graph::{sink_with_threshold, GraphFamily};
///
/// let family = GraphFamily::erdos_renyi(40, 1);
/// let sample = family.generate(7).unwrap();
/// assert_eq!(sample.system.graph.vertex_count(), 40);
/// // The planted sink is found by the SCC-based fast path.
/// assert_eq!(
///     sink_with_threshold(&sample.system.graph, 1).as_ref(),
///     Some(&sample.system.sink),
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphFamily {
    /// Erdős–Rényi-style random digraph with a planted qualified sink: a
    /// complete core of `2f + 1` vertices, a periphery whose members each
    /// hold `f + 1` staggered direct edges into the core, plus a
    /// `G(n, m)`-style budget of uniform random periphery-sourced edges
    /// (per-vertex edge counts rather than per-pair coin flips — the
    /// `G(n, p)` density `p = extra_degree / n`, in `O(n · degree)`
    /// instead of `O(n²)`, so the family stays sparse as `n` scales).
    ErdosRenyi {
        /// Total vertex count (core + periphery).
        n: usize,
        /// Random extra out-edges per periphery vertex (constant expected
        /// out-degree on top of the `f + 1` planted core edges).
        extra_degree: usize,
        /// The fault threshold `f` the planted sink qualifies for.
        fault_threshold: usize,
    },
    /// A directed ring of complete cliques: clique `i` bridges to clique
    /// `i + 1 (mod c)` with `bridges` staggered edges per member. The whole
    /// graph is one strongly connected component — the sink *is* the
    /// system — with `κ ≥ bridges` (straight-position routing through
    /// every intermediate clique).
    RingOfCliques {
        /// Number of cliques (`≥ 2`).
        cliques: usize,
        /// Vertices per clique.
        clique_size: usize,
        /// Bridge edges per member into the next clique
        /// (`f + 1 ≤ bridges ≤ clique_size − 1`).
        bridges: usize,
        /// The fault threshold `f` the ring qualifies for.
        fault_threshold: usize,
    },
    /// Scaled `k`-diamond witnesses (`k = f + 1`): a complete core plus
    /// parallel gadgets of `depth` stacked width-`k` layers under an apex.
    /// Every gadget vertex has out-degree exactly `k`, so condition 4
    /// holds *tightly* — exactly `k` node-disjoint paths, the
    /// generalization of the Fig. 1b/Fig. 4 periphery shapes. Removing any
    /// single edge breaks the property, which makes this the family of
    /// choice for fault-sensitivity sweeps.
    KDiamond {
        /// Number of parallel diamond gadgets.
        gadgets: usize,
        /// Stacked layers per gadget (`≥ 1`), apex excluded.
        depth: usize,
        /// The fault threshold `f`; gadget width is `f + 1`.
        fault_threshold: usize,
    },
    /// Directed preferential attachment: a complete core seed, then
    /// vertices joining one at a time with `out_degree` edges toward
    /// earlier vertices sampled proportionally to in-degree (hub bag).
    /// Edges only point backward, so the core is provably the unique
    /// qualified sink — but hubs *share* path capacity, so the
    /// `f + 1` node-disjoint-path condition is deliberately **not**
    /// promised; measuring how often it actually holds is the point of
    /// sweeping this family.
    ScaleFree {
        /// Total vertex count (core + periphery).
        n: usize,
        /// Out-edges per joining vertex (capped by the number of earlier
        /// vertices).
        out_degree: usize,
        /// The fault threshold `f` the core qualifies for.
        fault_threshold: usize,
    },
    /// The Fig. 1a violation, parameterized: a strongly connected block
    /// `A` whose
    /// only routes into the complete sink block pass through a width-`w`
    /// bridge. `w ≥ f + 1` satisfies `(f+1)`-OSR; `w ≤ f` violates it —
    /// the family straddles the paper's threshold as `w` sweeps.
    BridgedPartition {
        /// Vertices in the non-sink block `A`.
        a_size: usize,
        /// Vertices in the sink block (`≥ 2f + 1`).
        sink_size: usize,
        /// Bridge vertices — the exact vertex cut between `A` and the
        /// sink.
        bridge_width: usize,
        /// The fault threshold `f` the sample is checked against.
        fault_threshold: usize,
    },
}

impl GraphFamily {
    /// An Erdős–Rényi sample space of `n` vertices with moderate constant
    /// density (4 random extra out-edges per periphery vertex, on top of
    /// the `f + 1` planted core edges).
    pub fn erdos_renyi(n: usize, fault_threshold: usize) -> Self {
        GraphFamily::ErdosRenyi {
            n,
            extra_degree: 4,
            fault_threshold,
        }
    }

    /// A ring of cliques totaling roughly `n` vertices, with `f + 1`
    /// bridges (the tightest qualifying width).
    pub fn ring_of_cliques(n: usize, fault_threshold: usize) -> Self {
        let clique_size = (2 * fault_threshold + 2).max(4);
        GraphFamily::RingOfCliques {
            cliques: (n / clique_size).max(2),
            clique_size,
            bridges: fault_threshold + 1,
            fault_threshold,
        }
    }

    /// Depth-2 diamond gadgets totaling roughly `n` vertices.
    pub fn k_diamond(n: usize, fault_threshold: usize) -> Self {
        let family = GraphFamily::KDiamond {
            gadgets: 1,
            depth: 2,
            fault_threshold,
        };
        family.scaled(n)
    }

    /// A preferential-attachment sample space of `n` vertices with
    /// out-degree `max(f + 2, 3)`.
    pub fn scale_free(n: usize, fault_threshold: usize) -> Self {
        GraphFamily::ScaleFree {
            n,
            out_degree: (fault_threshold + 2).max(3),
            fault_threshold,
        }
    }

    /// A bridged partition of roughly `n` vertices whose bridge is just
    /// wide enough (`f + 1`) to satisfy the paper's conditions.
    pub fn bridged_partition(n: usize, fault_threshold: usize) -> Self {
        let family = GraphFamily::BridgedPartition {
            a_size: 1,
            sink_size: 2 * fault_threshold + 1,
            bridge_width: fault_threshold + 1,
            fault_threshold,
        };
        family.scaled(n)
    }

    /// One default instance of every family at a modest size, all
    /// parameterized for fault threshold `f` — the standard sweep axis.
    pub fn catalogue(fault_threshold: usize) -> Vec<GraphFamily> {
        vec![
            GraphFamily::erdos_renyi(32, fault_threshold),
            GraphFamily::ring_of_cliques(16, fault_threshold),
            GraphFamily::k_diamond(24, fault_threshold),
            GraphFamily::scale_free(32, fault_threshold),
            GraphFamily::bridged_partition(20, fault_threshold),
        ]
    }

    /// Short family identifier (the family segment of a sweep cell's
    /// label).
    pub fn name(&self) -> &'static str {
        match self {
            GraphFamily::ErdosRenyi { .. } => "erdos-renyi",
            GraphFamily::RingOfCliques { .. } => "ring-of-cliques",
            GraphFamily::KDiamond { .. } => "k-diamond",
            GraphFamily::ScaleFree { .. } => "scale-free",
            GraphFamily::BridgedPartition { .. } => "bridged-partition",
        }
    }

    /// Full label: family name plus its parameters.
    pub fn label(&self) -> String {
        match *self {
            GraphFamily::ErdosRenyi {
                n,
                extra_degree,
                fault_threshold,
            } => format!("erdos-renyi(n={n},d={extra_degree},f={fault_threshold})"),
            GraphFamily::RingOfCliques {
                cliques,
                clique_size,
                bridges,
                fault_threshold,
            } => format!(
                "ring-of-cliques(c={cliques},cs={clique_size},b={bridges},f={fault_threshold})"
            ),
            GraphFamily::KDiamond {
                gadgets,
                depth,
                fault_threshold,
            } => format!("k-diamond(g={gadgets},d={depth},f={fault_threshold})"),
            GraphFamily::ScaleFree {
                n,
                out_degree,
                fault_threshold,
            } => format!("scale-free(n={n},m={out_degree},f={fault_threshold})"),
            GraphFamily::BridgedPartition {
                a_size,
                sink_size,
                bridge_width,
                fault_threshold,
            } => format!(
                "bridged-partition(a={a_size},s={sink_size},w={bridge_width},f={fault_threshold})"
            ),
        }
    }

    /// The fault threshold `f` the family is parameterized by.
    pub fn fault_threshold(&self) -> usize {
        match *self {
            GraphFamily::ErdosRenyi {
                fault_threshold, ..
            }
            | GraphFamily::RingOfCliques {
                fault_threshold, ..
            }
            | GraphFamily::KDiamond {
                fault_threshold, ..
            }
            | GraphFamily::ScaleFree {
                fault_threshold, ..
            }
            | GraphFamily::BridgedPartition {
                fault_threshold, ..
            } => fault_threshold,
        }
    }

    /// The same family re-parameterized to roughly `target` total
    /// vertices — the size axis of a family × size sweep. Structural
    /// parameters (fault threshold, density, clique size, depth, bridge
    /// width) are preserved; only the replicated dimension scales.
    pub fn scaled(&self, target: usize) -> GraphFamily {
        let mut scaled = *self;
        match &mut scaled {
            GraphFamily::ErdosRenyi {
                n, fault_threshold, ..
            } => {
                *n = target.max(2 * *fault_threshold + 1);
            }
            GraphFamily::RingOfCliques {
                cliques,
                clique_size,
                ..
            } => {
                *cliques = (target / *clique_size).max(2);
            }
            GraphFamily::KDiamond {
                gadgets,
                depth,
                fault_threshold,
            } => {
                let core = 2 * *fault_threshold + 1;
                let gadget_size = *depth * (*fault_threshold + 1) + 1;
                *gadgets = target.saturating_sub(core).div_ceil(gadget_size).max(1);
            }
            GraphFamily::ScaleFree {
                n, fault_threshold, ..
            } => {
                *n = target.max(2 * *fault_threshold + 1);
            }
            GraphFamily::BridgedPartition {
                a_size,
                sink_size,
                bridge_width,
                ..
            } => {
                *a_size = target.saturating_sub(*sink_size + *bridge_width).max(1);
            }
        }
        scaled
    }

    /// The guarantees every sample of this family is constructed to meet.
    pub fn advertised(&self) -> FamilyGuarantees {
        let f = self.fault_threshold();
        let complete_kappa = |m: usize| if m <= 1 { m } else { m - 1 };
        match *self {
            GraphFamily::ErdosRenyi { .. } => FamilyGuarantees {
                fault_threshold: f,
                unique_sink: true,
                sink_size: 2 * f + 1,
                sink_connectivity: complete_kappa(2 * f + 1),
                min_sink_paths: Some(f + 1),
                k_osr: Some(true),
            },
            GraphFamily::RingOfCliques {
                cliques,
                clique_size,
                bridges,
                ..
            } => FamilyGuarantees {
                fault_threshold: f,
                unique_sink: true,
                sink_size: cliques * clique_size,
                sink_connectivity: bridges,
                // The sink spans the whole graph: condition 4 is vacuous.
                min_sink_paths: None,
                k_osr: Some(bridges > f),
            },
            GraphFamily::KDiamond { .. } => FamilyGuarantees {
                fault_threshold: f,
                unique_sink: true,
                sink_size: 2 * f + 1,
                sink_connectivity: complete_kappa(2 * f + 1),
                min_sink_paths: Some(f + 1),
                k_osr: Some(true),
            },
            GraphFamily::ScaleFree { .. } => FamilyGuarantees {
                fault_threshold: f,
                unique_sink: true,
                sink_size: 2 * f + 1,
                sink_connectivity: complete_kappa(2 * f + 1),
                // Hub sharing: disjoint paths are measured, never promised.
                min_sink_paths: None,
                k_osr: None,
            },
            GraphFamily::BridgedPartition {
                sink_size,
                bridge_width,
                ..
            } => FamilyGuarantees {
                fault_threshold: f,
                unique_sink: true,
                sink_size,
                sink_connectivity: complete_kappa(sink_size),
                min_sink_paths: Some(bridge_width.min(f + 1)),
                k_osr: Some(bridge_width > f),
            },
        }
    }

    /// Validates the parameters without generating.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParams`] with the violated constraint.
    pub fn validate(&self) -> Result<(), GraphError> {
        let f = self.fault_threshold();
        let fail = |reason: String| Err(GraphError::InvalidParams { reason });
        match *self {
            GraphFamily::ErdosRenyi { n, .. } => {
                if n < 2 * f + 1 {
                    return fail(format!("n = {n} < 2f+1 = {}", 2 * f + 1));
                }
            }
            GraphFamily::RingOfCliques {
                cliques,
                clique_size,
                bridges,
                ..
            } => {
                if cliques < 2 {
                    return fail(format!("cliques = {cliques} < 2"));
                }
                if bridges < f + 1 || bridges + 1 > clique_size {
                    return fail(format!(
                        "bridges = {bridges} outside [f+1, clique_size-1] = [{}, {}]",
                        f + 1,
                        clique_size.saturating_sub(1)
                    ));
                }
                if cliques * clique_size < 2 * f + 1 {
                    return fail(format!(
                        "ring of {} vertices smaller than 2f+1 = {}",
                        cliques * clique_size,
                        2 * f + 1
                    ));
                }
            }
            GraphFamily::KDiamond { gadgets, depth, .. } => {
                if gadgets < 1 || depth < 1 {
                    return fail(format!(
                        "gadgets = {gadgets}, depth = {depth}: both must be ≥ 1"
                    ));
                }
            }
            GraphFamily::ScaleFree { n, out_degree, .. } => {
                if n < 2 * f + 1 {
                    return fail(format!("n = {n} < 2f+1 = {}", 2 * f + 1));
                }
                if out_degree < 1 {
                    return fail("out_degree must be ≥ 1".into());
                }
            }
            GraphFamily::BridgedPartition {
                a_size,
                sink_size,
                bridge_width,
                ..
            } => {
                if sink_size < 2 * f + 1 {
                    return fail(format!("sink_size = {sink_size} < 2f+1 = {}", 2 * f + 1));
                }
                if a_size < 1 || bridge_width < 1 {
                    return fail(format!(
                        "a_size = {a_size}, bridge_width = {bridge_width}: both must be ≥ 1"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Generates one sample. Identical seeds produce byte-identical
    /// graphs; different seeds vary every random choice the family has
    /// (rotations, random edges, attachment targets).
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParams`] for inconsistent parameters;
    /// [`GraphError::GenerationFailed`] if a sample small enough for the
    /// exact recognizers fails its own advertisement (a construction bug,
    /// never randomness).
    pub fn generate(&self, seed: u64) -> Result<FamilySample, GraphError> {
        self.validate()?;
        let mut rng = StdRng::seed_from_u64(seed);
        let (graph, sink) = match *self {
            GraphFamily::ErdosRenyi {
                n,
                extra_degree,
                fault_threshold,
            } => build_erdos_renyi(&mut rng, n, extra_degree, fault_threshold),
            GraphFamily::RingOfCliques {
                cliques,
                clique_size,
                bridges,
                ..
            } => build_ring_of_cliques(&mut rng, cliques, clique_size, bridges),
            GraphFamily::KDiamond {
                gadgets,
                depth,
                fault_threshold,
            } => build_k_diamond(&mut rng, gadgets, depth, fault_threshold),
            GraphFamily::ScaleFree {
                n,
                out_degree,
                fault_threshold,
            } => build_scale_free(&mut rng, n, out_degree, fault_threshold),
            GraphFamily::BridgedPartition {
                a_size,
                sink_size,
                bridge_width,
                fault_threshold,
            } => {
                build_bridged_partition(&mut rng, a_size, sink_size, bridge_width, fault_threshold)
            }
        };
        let sample = FamilySample {
            family: *self,
            label: self.label(),
            system: GeneratedSystem {
                graph,
                sink,
                byzantine: ProcessSet::new(),
                fault_threshold: self.fault_threshold(),
            },
            advertised: self.advertised(),
        };
        if sample.system.graph.vertex_count() <= VERIFY_CUTOFF {
            self.verify_small(&sample)?;
        }
        Ok(sample)
    }

    /// Constructive-with-verification: holds a small sample against its
    /// own advertisement with the exact recognizers.
    fn verify_small(&self, sample: &FamilySample) -> Result<(), GraphError> {
        let adv = &sample.advertised;
        let g = &sample.system.graph;
        let mismatch = |what: &str| {
            Err(GraphError::GenerationFailed {
                property: format!("{}: {what}", sample.label),
                attempts: 1,
            })
        };
        if adv.unique_sink {
            let cond = condensation(g);
            if cond.unique_sink() != Some(&sample.system.sink) {
                return mismatch("advertised unique sink");
            }
        }
        if sample.system.sink.len() != adv.sink_size {
            return mismatch("advertised sink size");
        }
        let sub = g.induced(&sample.system.sink);
        if sub.strong_connectivity_capped(adv.sink_connectivity) < adv.sink_connectivity {
            return mismatch("advertised sink connectivity");
        }
        if let Some(expected) = adv.k_osr {
            let report = osr_report(g, adv.fault_threshold + 1);
            if report.is_k_osr() != expected {
                return mismatch("advertised k-OSR verdict");
            }
        }
        if let Some(paths) = adv.min_sink_paths {
            let non_sink: ProcessSet = g
                .vertices()
                .filter(|v| !sample.system.sink.contains(v))
                .collect();
            if !non_sink.is_empty()
                && g.min_cross_disjoint_paths_capped(&non_sink, &sample.system.sink, paths) < paths
            {
                return mismatch("advertised non-sink → sink disjoint paths");
            }
        }
        Ok(())
    }
}

/// Complete core on IDs `1..=2f+1`; returns the core as a set.
fn plant_core(graph: &mut DiGraph, f: usize) -> (Vec<ProcessId>, ProcessSet) {
    let m = 2 * f + 1;
    let core: Vec<ProcessId> = (1..=m as u64).map(ProcessId::new).collect();
    let core_set: ProcessSet = core.iter().copied().collect();
    graph.merge(&DiGraph::complete(&core_set));
    (core, core_set)
}

fn build_erdos_renyi(
    rng: &mut StdRng,
    n: usize,
    extra_degree: usize,
    f: usize,
) -> (DiGraph, ProcessSet) {
    let mut graph = DiGraph::new();
    let (core, core_set) = plant_core(&mut graph, f);
    let m = core.len();
    let k = f + 1;
    let mut rotation = rng.random_range(0..m);
    for raw in (m as u64 + 1)..=(n as u64) {
        let v = ProcessId::new(raw);
        graph.add_vertex(v);
        // k staggered direct core edges: vertex-disjoint by themselves,
        // extended to every core member by the fan lemma.
        for j in 0..k {
            graph.add_edge(v, core[(rotation + j) % m]);
        }
        rotation = (rotation + k) % m;
        // Uniform random periphery-sourced extra edges (never from the
        // core — the planted sink must keep zero out-edges).
        for _ in 0..extra_degree {
            let t = ProcessId::new(rng.random_range(1..=n as u64));
            if t != v {
                graph.add_edge(v, t);
            }
        }
    }
    (graph, core_set)
}

fn build_ring_of_cliques(
    rng: &mut StdRng,
    cliques: usize,
    clique_size: usize,
    bridges: usize,
) -> (DiGraph, ProcessSet) {
    let id = |clique: usize, pos: usize| ProcessId::new((clique * clique_size + pos + 1) as u64);
    let mut graph = DiGraph::new();
    for c in 0..cliques {
        let members: ProcessSet = (0..clique_size).map(|p| id(c, p)).collect();
        graph.merge(&DiGraph::complete(&members));
        let rotation = rng.random_range(0..clique_size);
        let next = (c + 1) % cliques;
        for p in 0..clique_size {
            for t in 0..bridges {
                graph.add_edge(id(c, p), id(next, (p + rotation + t) % clique_size));
            }
        }
    }
    let sink = graph.vertex_set();
    (graph, sink)
}

fn build_k_diamond(
    rng: &mut StdRng,
    gadgets: usize,
    depth: usize,
    f: usize,
) -> (DiGraph, ProcessSet) {
    let mut graph = DiGraph::new();
    let (core, core_set) = plant_core(&mut graph, f);
    let m = core.len();
    let k = f + 1;
    let gadget_size = depth * k + 1;
    for g in 0..gadgets {
        let base = m + g * gadget_size;
        let vertex = |layer: usize, col: usize| ProcessId::new((base + layer * k + col + 1) as u64);
        let offset = rng.random_range(0..m);
        for col in 0..k {
            // Bottom layer: k distinct staggered core members; column
            // entries are distinct across columns (k ≤ m).
            for j in 0..k {
                graph.add_edge(vertex(0, col), core[(offset + col + j) % m]);
            }
        }
        for layer in 1..depth {
            for col in 0..k {
                for below in 0..k {
                    graph.add_edge(vertex(layer, col), vertex(layer - 1, below));
                }
            }
        }
        let apex = ProcessId::new((base + gadget_size) as u64);
        for col in 0..k {
            graph.add_edge(apex, vertex(depth - 1, col));
        }
    }
    (graph, core_set)
}

fn build_scale_free(
    rng: &mut StdRng,
    n: usize,
    out_degree: usize,
    f: usize,
) -> (DiGraph, ProcessSet) {
    let mut graph = DiGraph::new();
    let (core, core_set) = plant_core(&mut graph, f);
    let m = core.len();
    // Endpoint bag: sampling uniformly from it is sampling proportionally
    // to in-degree (+1 smoothing for the seed entries).
    let mut bag: Vec<u64> = core.iter().map(|p| p.raw()).collect();
    for raw in (m as u64 + 1)..=(n as u64) {
        let v = ProcessId::new(raw);
        graph.add_vertex(v);
        let earlier = (raw - 1) as usize;
        let want = out_degree.min(earlier);
        let mut targets = ProcessSet::new();
        let mut attempts = 0;
        while targets.len() < want && attempts < 16 * want {
            attempts += 1;
            let t = bag[rng.random_range(0..bag.len())];
            if t < raw {
                targets.insert(ProcessId::new(t));
            }
        }
        // Deterministic fallback: fill from the earliest IDs (only ever
        // needed when the bag keeps repeating a handful of hubs).
        let mut fill = 1;
        while targets.len() < want {
            targets.insert(ProcessId::new(fill));
            fill += 1;
        }
        for t in targets {
            graph.add_edge(v, t);
            bag.push(t.raw());
        }
        // The newcomer enters the bag once (+1 smoothing) so later joiners
        // can discover it; without this every vertex would attach straight
        // to the seed core and no hub structure could emerge.
        bag.push(raw);
    }
    (graph, core_set)
}

fn build_bridged_partition(
    rng: &mut StdRng,
    a_size: usize,
    sink_size: usize,
    bridge_width: usize,
    f: usize,
) -> (DiGraph, ProcessSet) {
    let mut graph = DiGraph::new();
    let sink: Vec<ProcessId> = (1..=sink_size as u64).map(ProcessId::new).collect();
    let sink_set: ProcessSet = sink.iter().copied().collect();
    graph.merge(&DiGraph::complete(&sink_set));
    let bridge: Vec<ProcessId> = (0..bridge_width)
        .map(|j| ProcessId::new((sink_size + j + 1) as u64))
        .collect();
    let fan = (f + 1).min(sink_size);
    let rotation = rng.random_range(0..sink_size);
    for (j, &b) in bridge.iter().enumerate() {
        graph.add_vertex(b);
        // Staggered fan-in: bridge vertices enter the sink at distinct
        // members, so their direct edges extend to disjoint paths.
        for t in 0..fan {
            graph.add_edge(b, sink[(rotation + j + t) % sink_size]);
        }
    }
    // Block A: a sparse strongly connected circulant (complete would be
    // O(a²) edges and change nothing — every A → sink route goes through
    // A's own direct bridge edges, not through other A members).
    let a: ProcessSet = (0..a_size)
        .map(|i| ProcessId::new((sink_size + bridge_width + i + 1) as u64))
        .collect();
    graph.merge(&DiGraph::circulant(&a, 2));
    for &u in &a {
        for &b in &bridge {
            graph.add_edge(u, b);
        }
    }
    (graph, sink_set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::osr::osr_report;
    use crate::osr::sink_with_threshold;

    #[test]
    fn catalogue_families_meet_their_advertisement() {
        // generate() itself re-verifies small samples against the
        // advertisement; this exercises that path for every family.
        for family in GraphFamily::catalogue(1) {
            for seed in 0..3 {
                let sample = family
                    .generate(seed)
                    .unwrap_or_else(|e| panic!("{}: {e}", family.label()));
                assert_eq!(sample.advertised, family.advertised());
                assert!(sample.system.byzantine.is_empty());
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        for family in GraphFamily::catalogue(1) {
            let a = family.generate(9).unwrap();
            let b = family.generate(9).unwrap();
            assert_eq!(a.system.graph, b.system.graph, "{}", family.label());
            // Every family has at least a seeded rotation; the sample must
            // actually depend on it (some seed in a small range produces a
            // different edge set).
            let seed_dependent =
                (0..8).any(|seed| family.generate(seed).unwrap().system.graph != a.system.graph);
            assert!(seed_dependent, "{} ignores its seed", family.label());
        }
    }

    #[test]
    fn planted_sinks_found_by_fast_path() {
        for family in GraphFamily::catalogue(1) {
            let sample = family.generate(4).unwrap();
            assert_eq!(
                sink_with_threshold(&sample.system.graph, 1).as_ref(),
                Some(&sample.system.sink),
                "{}",
                family.label()
            );
        }
    }

    #[test]
    fn narrow_bridge_violates_and_wide_bridge_satisfies() {
        let narrow = GraphFamily::BridgedPartition {
            a_size: 5,
            sink_size: 3,
            bridge_width: 1,
            fault_threshold: 1,
        };
        assert_eq!(narrow.advertised().k_osr, Some(false));
        let sample = narrow.generate(0).unwrap();
        assert!(!osr_report(&sample.system.graph, 2).is_k_osr());

        let wide = GraphFamily::BridgedPartition {
            a_size: 5,
            sink_size: 3,
            bridge_width: 2,
            fault_threshold: 1,
        };
        assert_eq!(wide.advertised().k_osr, Some(true));
        let sample = wide.generate(0).unwrap();
        assert!(osr_report(&sample.system.graph, 2).is_k_osr());
    }

    #[test]
    fn k_diamond_condition_four_is_tight() {
        let family = GraphFamily::KDiamond {
            gadgets: 2,
            depth: 2,
            fault_threshold: 1,
        };
        let sample = family.generate(3).unwrap();
        let g = &sample.system.graph;
        let non_sink: ProcessSet = g
            .vertices()
            .filter(|v| !sample.system.sink.contains(v))
            .collect();
        assert_eq!(
            g.min_cross_disjoint_paths(&non_sink, &sample.system.sink),
            2
        );
    }

    #[test]
    fn scaled_hits_requested_size_approximately() {
        for family in GraphFamily::catalogue(1) {
            for target in [24usize, 60] {
                let n = family
                    .scaled(target)
                    .generate(0)
                    .unwrap()
                    .system
                    .graph
                    .vertex_count();
                assert!(
                    n >= target * 7 / 10 && n <= target + target / 2 + 8,
                    "{} scaled to {target} produced {n}",
                    family.label()
                );
            }
        }
    }

    #[test]
    fn scaling_preserves_structure_parameters() {
        let ring = GraphFamily::RingOfCliques {
            cliques: 2,
            clique_size: 5,
            bridges: 3,
            fault_threshold: 1,
        };
        match ring.scaled(40) {
            GraphFamily::RingOfCliques {
                cliques,
                clique_size,
                bridges,
                ..
            } => {
                assert_eq!((cliques, clique_size, bridges), (8, 5, 3));
            }
            other => panic!("scaled changed the family: {other:?}"),
        }
    }

    #[test]
    fn invalid_params_rejected() {
        let bad = [
            GraphFamily::ErdosRenyi {
                n: 2,
                extra_degree: 4,
                fault_threshold: 1,
            },
            GraphFamily::RingOfCliques {
                cliques: 1,
                clique_size: 4,
                bridges: 2,
                fault_threshold: 1,
            },
            GraphFamily::RingOfCliques {
                cliques: 3,
                clique_size: 3,
                bridges: 3,
                fault_threshold: 1,
            },
            GraphFamily::KDiamond {
                gadgets: 0,
                depth: 2,
                fault_threshold: 1,
            },
            GraphFamily::ScaleFree {
                n: 40,
                out_degree: 0,
                fault_threshold: 1,
            },
            GraphFamily::BridgedPartition {
                a_size: 0,
                sink_size: 3,
                bridge_width: 2,
                fault_threshold: 1,
            },
        ];
        for family in bad {
            assert!(
                matches!(family.generate(0), Err(GraphError::InvalidParams { .. })),
                "{family:?} should be rejected"
            );
        }
    }

    #[test]
    fn large_samples_skip_exact_verification_but_generate_quickly() {
        let family = GraphFamily::erdos_renyi(2_000, 1);
        let sample = family.generate(1).unwrap();
        assert_eq!(sample.system.graph.vertex_count(), 2_000);
        // The SCC fast path still certifies the planted sink at this size.
        assert_eq!(
            sink_with_threshold(&sample.system.graph, 1).as_ref(),
            Some(&sample.system.sink)
        );
    }

    #[test]
    fn ids_are_contiguous_with_sink_first() {
        for family in GraphFamily::catalogue(2) {
            let sample = family.generate(0).unwrap();
            let n = sample.system.graph.vertex_count() as u64;
            let all: Vec<u64> = sample.system.graph.vertices().map(|v| v.raw()).collect();
            assert_eq!(all, (1..=n).collect::<Vec<_>>(), "{}", family.label());
            let max_sink = sample.system.sink.iter().map(|v| v.raw()).max().unwrap();
            assert_eq!(max_sink, sample.system.sink.len() as u64);
        }
    }
}
