//! Committee consensus: the "traditional consensus protocol (e.g., PBFT)"
//! that Algorithm 3 runs among the sink/core members.
//!
//! A signed, single-shot, leader-based three-phase protocol (pre-prepare /
//! prepare / commit) with rotating-leader view changes, parameterized by
//! the *sink quorums* of Vassantlal et al. \[11\]: with committee `S` and
//! fault threshold `f`, every quorum has
//! `q = ⌈(|S| + f + 1) / 2⌉` members, so any two quorums intersect in at
//! least `f + 1` processes — at least one correct — which is what the sink
//! composition (`≥ 2f+1` correct, `≤ f` Byzantine) supports. The classical
//! `n ≥ 3f+1` shape is the special case `|S| = 3f+1`.
//!
//! The protocol satisfies, under partial synchrony and the sink
//! composition guarantee:
//!
//! * **Validity** — a decided value was proposed by some member (decisions
//!   carry quorum certificates rooted in a leader proposal);
//! * **Agreement** — quorum intersection makes conflicting commit
//!   certificates impossible;
//! * **Termination** — doubling view timeouts rotate the leader until a
//!   correct leader runs after GST;
//! * **Integrity** — a replica decides at most once.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod msgs;
mod quorum;
mod replica;

pub use msgs::{CommitteeMsg, QuorumCert, Value, ViewChangeRecord, Vote};
pub use quorum::Committee;
pub use replica::{
    view_of_timer, view_timer_kind, Effects, Replica, ReplicaConfig, VIEW_TIMER_BASE,
};
