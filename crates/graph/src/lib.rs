//! Knowledge connectivity graphs for BFT-CUP / BFT-CUPFT.
//!
//! This crate is the graph-theoretic substrate of the reproduction of
//! *“Knowledge Connectivity Requirements for Solving BFT Consensus with
//! Unknown Participants and Fault Threshold”* (ICDCS 2024). It provides:
//!
//! * [`ProcessId`] — sparse, Sybil-resistant process identifiers,
//! * [`DiGraph`] — directed graphs over process identifiers,
//! * strongly connected components and condensations ([`strongly_connected_components`], [`condensation`]),
//! * vertex connectivity and node-disjoint paths via unit-capacity
//!   max-flow / Menger duality ([`DisjointPaths`]),
//! * the `k`-OSR and extended-`k`-OSR recognizers of Definitions 1 and 2
//!   ([`osr_report`], [`is_extended_k_osr`]),
//! * the `isSinkGdi` predicate family of Theorem 3 / Algorithm 2 and the
//!   core-identification rules of Theorem 8 ([`is_sink_gdi`],
//!   [`CandidateSearch`]),
//! * the witness graphs of Figures 1–4 ([`fig1a`]–[`fig4b`]) and random
//!   generators for the `G_di` and extended-OSR graph families
//!   ([`Generator`]),
//! * parametric topology families with advertised guarantees
//!   ([`GraphFamily`]) and the near-linear planted-sink search that
//!   certifies them without the exponential candidate machinery
//!   ([`sink_with_threshold`]).
//!
//! `docs/PAPER_MAP.md` at the repository root maps every definition,
//! theorem, figure, and table of the paper to the modules and tests that
//! reproduce it.
//!
//! # Example
//!
//! ```
//! use cupft_graph::{DiGraph, ProcessId};
//!
//! let mut g = DiGraph::new();
//! let p = |n| ProcessId::new(n);
//! // A 3-cycle is 1-strongly connected.
//! g.add_edge(p(1), p(2));
//! g.add_edge(p(2), p(3));
//! g.add_edge(p(3), p(1));
//! assert!(g.is_k_strongly_connected(1));
//! assert!(!g.is_k_strongly_connected(2));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod candidates;
mod connectivity;
mod digraph;
mod error;
mod extended;
mod families;
mod figures;
mod generate;
mod id;
mod maxflow;
mod osr;
mod predicates;
mod scc;
mod snapshot;
mod view;

pub use candidates::{exact_best_sink, exact_sink_with_threshold, CandidateSearch};
pub use connectivity::DisjointPaths;
pub use digraph::DiGraph;
pub use error::GraphError;
pub use extended::{is_extended_k_osr, CoreWitness, ExtendedOsrReport};
pub use families::{FamilyGuarantees, FamilySample, GraphFamily};
pub use figures::{fig1a, fig1b, fig2a, fig2b, fig2c, fig3a, fig3b, fig4a, fig4b, FigureGraph};
pub use generate::{GdiParams, GeneratedSystem, Generator};
pub use id::{process_set, ProcessId, ProcessSet};
pub use maxflow::UnitFlowNetwork;
pub use osr::{osr_report, sink_members, sink_with_threshold, OsrReport};
pub use predicates::{derive_s2, is_sink_gdi, max_threshold, SinkDecomposition};
pub use scc::{condensation, strongly_connected_components, Condensation};
pub use view::KnowledgeView;
