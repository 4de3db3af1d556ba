//! Pluggable fault-injection engine for BFT-CUP / BFT-CUPFT experiments.
//!
//! The paper's results (Theorems 5–7, Table I) quantify over *arbitrary*
//! Byzantine strategies and message schedules; this crate makes that
//! adversary space a first-class, composable subsystem instead of a fixed
//! enum of hard-coded actors. Five pieces:
//!
//! * **Combinators** ([`strategy`]) — what a faulty process does is a
//!   plain [`cupft_net::Actor`]; [`TargetSubset`], [`DelayRelease`] and
//!   [`FlipAfter`] wrap one actor in another, and [`Mute`] is the silent
//!   leaf, so a composed strategy runs on every [`cupft_net::Runtime`]
//!   substrate unchanged.
//! * **[`StrategySpec`]** ([`spec`]) — the same strategies as *data*: a
//!   cloneable expression tree used for sweep cells, labels, and shrinking.
//!   Protocol crates compile specs into boxed actors for their message
//!   type.
//! * **[`TamperSpec`]** ([`sched`]) — network-side adversaries (reorder
//!   windows, within-model drops) described as data
//!   and compiled onto the [`cupft_net::Tamper`] interception hook, so one
//!   schedule runs on both the simulator and the threaded runtime.
//! * **Shrinking** ([`shrink`](fn@shrink)) — given a violating assignment
//!   or churn schedule, deterministically search for a minimal failing
//!   variant by pruning strategy combinators, fault sets and churn events.
//! * **Churn** ([`churn`]) — dynamic-membership schedules
//!   ([`ChurnSpec`]: late joins, silent departures, crash-recoveries) as
//!   the same kind of shrinkable data tree, minimized by the same
//!   [`shrink`](fn@shrink).
//!
//! `cupft_core` wires these into the `Scenario` runner (recorded runs, one
//! strategy per faulty process, and the oracle a shrink re-runs). A recorded run's evidence is
//! the simulator's own send/delivery trace ([`cupft_net::TraceEntry`])
//! plus the outcome's decisions, and `ScenarioOutcome::check` is the one
//! judge of a run: the §II-B properties, plus join convergence and
//! recovery consistency under churn. See `tests/adversary_catch.rs` at the workspace root for the
//! end-to-end loop: inject → flag → shrink.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod sched;
pub mod shrink;
pub mod spec;
pub mod strategy;

pub use churn::{ChurnEvent, ChurnSpec};
pub use sched::TamperSpec;
pub use shrink::{shrink, Assignment, ShrinkOutcome, Shrinkable};
pub use spec::StrategySpec;
pub use strategy::{DelayRelease, FlipAfter, Mute, TargetSubset, FLIP_TICK, RELEASE_TICK};

/// Formats a process set compactly (`{1,2,3}`) — the shared formatter
/// behind every spec and tamper label, so display names cannot drift
/// apart.
pub(crate) fn fmt_process_set(s: &cupft_graph::ProcessSet) -> String {
    let ids: Vec<String> = s.iter().map(|p| p.raw().to_string()).collect();
    format!("{{{}}}", ids.join(","))
}
