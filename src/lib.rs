//! # bft-cupft — BFT Consensus with Unknown Participants and Fault Threshold
//!
//! Facade crate re-exporting the full reproduction of *“Knowledge
//! Connectivity Requirements for Solving BFT Consensus with Unknown
//! Participants and Fault Threshold”* (ICDCS 2024).
//!
//! See the workspace README for architecture; start from
//! [`cupft_core`] for the protocol stack and [`cupft_graph`] for the
//! knowledge-connectivity machinery.

#![forbid(unsafe_code)]

pub use cupft_adversary as adversary;
pub use cupft_committee as committee;
pub use cupft_core as core;
pub use cupft_crypto as crypto;
pub use cupft_detector as detector;
pub use cupft_discovery as discovery;
pub use cupft_graph as graph;
pub use cupft_net as net;
pub use cupft_obs as obs;
pub use cupft_wire as wire;
