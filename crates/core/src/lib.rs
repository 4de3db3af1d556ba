//! BFT-CUPFT: Byzantine consensus with unknown participants *and* unknown
//! fault threshold — the primary contribution of the reproduced paper.
//!
//! This crate assembles the substrates into the paper's three protocol
//! stacks:
//!
//! * the **authenticated BFT-CUP** node (Section III): Discovery
//!   (Algorithm 1) + Sink identification with a known `f` (Algorithm 2) +
//!   the Consensus wrapper (Algorithm 3) over committee consensus;
//! * the **BFT-CUPFT** node (Section VI): the same wrapper with the Core
//!   algorithm (Algorithm 4) replacing Sink — no process knows `f`;
//! * the **naive sink guesser** (Section IV / Observation 1): what a
//!   process *can only do* when the graph is merely in `G_di` and `f` is
//!   unknown — adopt the best visible `isSink*` candidate with `g ≥ 1`
//!   whenever the view changes. This mode exists to *fail*: it reproduces
//!   the Theorem 7 agreement violation.
//!
//! The [`scenario`] module runs whole systems (graph + Byzantine strategy
//! assignment + delay policy) through any runtime behind the
//! `cupft_net::Runtime` trait and judges the run with
//! [`ScenarioOutcome::check`]. It powers the paper-artifact tests and most
//! other integration tests; a sweep is a plain loop over [`Scenario`]s.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod byzantine;
pub mod detect;
pub mod msgs;
pub mod node;
pub mod scenario;

pub use byzantine::{build_strategy, ByzantineStrategy};
pub use cupft_adversary::{ChurnEvent, ChurnSpec, TamperSpec};
pub use detect::ProtocolMode;
pub use msgs::NodeMsg;
pub use node::{Node, NodeConfig, Phase};
pub use scenario::{
    run_scenario, run_scenario_on, run_scenario_recorded, ConsensusCheck, NodeStatus, RuntimeKind,
    Scenario, ScenarioOutcome,
};
