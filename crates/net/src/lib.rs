//! Partially synchronous message substrate for BFT-CUP / BFT-CUPFT.
//!
//! The paper's system model (Section II-A): a finite set of processes with
//! unique IDs communicating over *authenticated reliable point-to-point
//! channels* under **partial synchrony** — for every execution there is a
//! Global Stabilization Time (GST) and a bound `δ` such that messages
//! between correct processes sent after GST are delivered within `δ`;
//! before GST, delays are arbitrary (but finite: channels are reliable).
//!
//! Three interchangeable substrates execute the same [`Actor`] code
//! behind the shared [`Runtime`] trait — the deterministic simulator and
//! one wall-clock runtime over two links:
//!
//! * [`sim::Simulation`] — a deterministic discrete-event simulator with an
//!   explicit GST, seeded adversarial pre-GST delays, and scripted delay
//!   policies (needed to reproduce the indistinguishability executions of
//!   Theorem 7 exactly);
//! * [`threaded::ThreadedRuntime`] — the wall-clock runtime over in-memory
//!   mailboxes: each send waits a randomized real-time delay on the worker
//!   pool's one wheel, for wall-clock validation
//!   ([`threaded::run_threaded`] remains as a by-value convenience);
//! * [`socket::SocketRuntime`] — the same wall-clock runtime over TCP:
//!   every send travels in the versioned [`cupft_wire`] frame format, with
//!   peers addressed by opaque [`PeerAddr`]s — loopback within one OS
//!   process, or genuinely distributed across processes via
//!   [`Runtime::register_peer`].
//!
//! One runtime, two links; the tamper is consulted on the worker running
//! the sender. Both wall-clock substrates are [`wall::WallRuntime`]: they
//! share the worker pool (one growing mailbox per actor, one worker
//! thread per available core running the actors in turns, no thread per
//! actor, one wheel where every timer and every delayed message waits),
//! the coordinator, shutdown and report assembly, and on both each
//! send is counted and shown to an installed [`Tamper`] on the worker
//! running the sender before the link carries it.
//!
//! Experiment code written against `Runtime` — like
//! `cupft_core::run_scenario_on` and the `ScenarioSuite` batch engine —
//! runs unchanged on all three substrates.
//!
//! # Example
//!
//! ```
//! use cupft_net::{Actor, Context, SimConfig};
//! use cupft_net::sim::Simulation;
//! use cupft_graph::ProcessId;
//!
//! #[derive(Clone)]
//! enum Ping { Ping, Pong }
//! impl cupft_net::Labeled for Ping {
//!     fn label(&self) -> &'static str {
//!         match self { Ping::Ping => "PING", Ping::Pong => "PONG" }
//!     }
//! }
//!
//! struct Node { id: ProcessId, peer: ProcessId, got_pong: bool }
//! impl Actor<Ping> for Node {
//!     fn id(&self) -> ProcessId { self.id }
//!     fn as_any(&self) -> &dyn std::any::Any { self }
//!     fn on_start(&mut self, ctx: &mut Context<Ping>) {
//!         ctx.send(self.peer, Ping::Ping);
//!     }
//!     fn on_message(&mut self, from: ProcessId, msg: Ping, ctx: &mut Context<Ping>) {
//!         match msg {
//!             Ping::Ping => ctx.send(from, Ping::Pong),
//!             Ping::Pong => { self.got_pong = true; ctx.halt(); }
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(SimConfig::default());
//! sim.add_actor(Box::new(Node { id: ProcessId::new(1), peer: ProcessId::new(2), got_pong: false }));
//! sim.add_actor(Box::new(Node { id: ProcessId::new(2), peer: ProcessId::new(1), got_pong: false }));
//! let report = sim.run();
//! assert!(report.all_halted);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actor;
mod delay;
mod host;
pub mod runtime;
pub mod sim;
pub mod socket;
pub mod stage;
mod stats;
pub mod tamper;
pub mod threaded;
pub mod wall;

pub use actor::{Actor, Context, Labeled, TimerKind};
pub use delay::DelayPolicy;
pub use runtime::{PeerAddr, Runtime, RuntimeReport};
pub use sim::{SimConfig, Simulation, TraceEntry, TraceKind};
pub use socket::{SocketConfig, SocketRuntime};
pub use stage::Preflight;
pub use stats::NetStats;
pub use tamper::{Fate, NoTamper, Tamper};
pub use threaded::{ThreadedConfig, ThreadedRuntime};

/// Simulated time, in abstract ticks.
pub type Time = u64;
