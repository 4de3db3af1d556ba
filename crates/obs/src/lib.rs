//! Observability layer for the BFT-CUPFT reproduction: a metrics
//! registry and per-node **phase timelines**.
//!
//! The paper's protocol is a pipeline — participant discovery →
//! sink/core identification → consensus — but `NetStats` only observes its
//! endpoints (message counters and one end-to-end scalar). This crate adds
//! the middle: per-phase marks, counters, gauges and fixed-bucket log2
//! latency histograms, all behind an `Option<Arc<Recorder>>` so a run that
//! does not observe pays nothing but a pointer-null check.
//!
//! # Clock domains
//!
//! The recorder keeps no clock: every phase mark carries the timestamp
//! the instrumentation site passes, which is the actor's `ctx.now()`.
//! [`ObsReport::clock_domain`] says which unit that is:
//!
//! * **virtual** — simulated ticks. The deterministic simulator stamps
//!   the domain on install ([`Recorder::set_virtual`]), and two same-seed
//!   runs produce *byte-identical* reports;
//! * **wall** — the default, kept by the wall-clock runtime (threaded and
//!   socket links): elapsed milliseconds since the run started. Wall
//!   reports are for profiling, never for regression gating.
//!
//! # Determinism contract
//!
//! On the simulator, everything the recorder stores is a pure function of
//! the scenario and seed: phase marks carry explicit simulated
//! timestamps, and histograms count virtual quantities (events per tick,
//! queue depths, certificate units). Wall-clock quantities are recorded
//! **only** by the wall-clock runtime, under its own metric names. The
//! root `tests/obs_determinism.rs` holds both halves of the contract: sim
//! reports are byte-identical across runs, and observation never changes
//! decisions, views, or `NetStats` on either substrate.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod hist;
mod recorder;
mod report;

pub use hist::{Histogram, BUCKETS};
pub use recorder::Recorder;
pub use report::{ClockDomain, ObsReport, PhaseMark, PhaseTimeline};
