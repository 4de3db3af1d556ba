//! The repo benchmark: five consensus-instance workloads on the three
//! substrates, end-to-end decide metrics, and a per-layer ledger measured
//! from outside the program. See `README.md` for what each number means.

pub mod json;
pub mod kernels;
pub mod measure;
pub mod spec;
pub mod timed;
pub mod traced;
pub mod workloads;
