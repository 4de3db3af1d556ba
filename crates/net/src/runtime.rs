//! The [`Runtime`] abstraction: one interface over all three execution
//! substrates.
//!
//! Protocol code is written against [`Actor`]; *experiment* code — the
//! scenario runner, benches, tests — is written against
//! `Runtime`, so the same `Scenario` drives the deterministic
//! discrete-event simulator ([`crate::sim::Simulation`]) or the one
//! wall-clock runtime over either of its two links — in-memory channels
//! ([`crate::threaded::ThreadedRuntime`]) or TCP
//! ([`crate::socket::SocketRuntime`]) — without caring which. The trait
//! has exactly two implementations: the simulator and the wall-clock
//! runtime, which consults the tamper on the worker running the sender.
//!
//! The contract has three phases:
//!
//! 1. **registration** — [`Runtime::add_actor`] before the run starts;
//! 2. **execution** — [`Runtime::run_until_stopped`] drives events until
//!    every actor halts, the caller's stop condition fires, or the
//!    runtime's own bound (simulated horizon / wall timeout) is hit;
//! 3. **inspection** — [`Runtime::actor_as`] downcasts an actor's final
//!    state, [`Runtime::stats`] exposes the [`NetStats`] of the run.
//!
//! The stop condition is a plain `FnMut() -> bool` evaluated on the
//! driving thread between events. Actors signal progress to it through
//! out-of-band state such as [`crate::threaded::Board`] — that works
//! identically on all three substrates, unlike direct actor inspection,
//! which the threaded and socket runtimes cannot offer mid-run (the actors
//! are owned by their worker pool until shutdown).

use std::net::SocketAddr;
use std::sync::Arc;

use cupft_graph::ProcessId;
use cupft_obs::{ObsReport, Recorder};

use crate::actor::Actor;
use crate::stage::Preflight;
use crate::stats::NetStats;
use crate::tamper::Tamper;
use crate::Time;

/// An opaque peer address: where a [`Runtime`] can reach a process.
///
/// The channel substrates (simulator, threaded runtime) address actors by
/// [`ProcessId`] alone — every registered actor is [`PeerAddr::Local`].
/// The socket runtime ([`crate::socket::SocketRuntime`]) additionally
/// reaches processes hosted by *other* OS processes over TCP —
/// [`PeerAddr::Tcp`]. Experiment code holds `PeerAddr`s without caring
/// which substrate produced them; only the runtime that minted an address
/// can interpret it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PeerAddr {
    /// The peer is an actor registered in this runtime instance; the ID is
    /// the complete address (channel substrates).
    Local(ProcessId),
    /// The peer is reachable over TCP at this socket address (socket
    /// runtime).
    Tcp(SocketAddr),
}

impl std::fmt::Display for PeerAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PeerAddr::Local(id) => write!(f, "local:{id}"),
            PeerAddr::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// Outcome of one [`Runtime`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeReport {
    /// Whether every actor halted before the runtime's bound.
    pub all_halted: bool,
    /// Whether the caller's stop condition ended the run (always `false`
    /// from [`crate::sim::Simulation::run`], which takes none).
    pub stopped: bool,
    /// When the run ended: simulated ticks for the simulator, elapsed
    /// milliseconds for the threaded and socket runtimes.
    pub end_time: Time,
    /// Events processed (deliveries + timers for the simulator;
    /// observed deliveries for the threaded and socket runtimes).
    pub events: u64,
    /// Network statistics of the run.
    pub stats: NetStats,
    /// Observability snapshot, present when a recorder was installed via
    /// [`Runtime::set_recorder`]. `None` (the unobserved default) keeps
    /// report equality comparisons exactly as before.
    pub obs: Option<ObsReport>,
}

/// A substrate that can execute a set of [`Actor`]s to completion.
///
/// Implemented by [`crate::sim::Simulation`] (deterministic, simulated
/// time) and by the wall-clock runtime (a worker pool, wall-clock time)
/// behind [`crate::threaded::ThreadedRuntime`] and
/// [`crate::socket::SocketRuntime`]. See the [module docs](self) for the
/// phase contract.
pub trait Runtime<M: 'static> {
    /// A short human-readable substrate name (`"sim"` / `"threaded"` /
    /// `"socket"`), used in sweep labels and test diagnostics.
    fn name(&self) -> &'static str;

    /// Registers an actor. Must be called before the first run.
    ///
    /// # Panics
    ///
    /// Implementations panic if an actor with the same ID is already
    /// registered.
    fn add_actor(&mut self, actor: Box<dyn Actor<M>>);

    /// Installs a message-interception layer consulted once per send (see
    /// [`crate::tamper`]). Must be called before the run starts; installing
    /// a second tamper replaces the first. All three substrates honor the
    /// same trait, so an adversarial schedule is expressed once and runs
    /// on any of them.
    fn set_tamper(&mut self, tamper: Box<dyn Tamper<M>>);

    /// Offers a stateless pre-delivery stage (see [`crate::stage`]). None
    /// of the three substrates overrides this: the default quietly
    /// ignores the stage, which is always correct — a [`Preflight`] may
    /// run zero times per message by contract. A wrapping runtime may
    /// forward it to the runtime it wraps.
    fn set_preflight(&mut self, preflight: Arc<dyn Preflight<M>>) {
        let _ = preflight;
    }

    /// Installs an observability recorder (see [`cupft_obs`]). Must be
    /// called before the run starts; installing a second recorder
    /// replaces the first. Substrates that support observation override
    /// this — the default quietly ignores the recorder, which is always
    /// correct: observation is best-effort by contract and must never
    /// change protocol behavior.
    fn set_recorder(&mut self, recorder: Arc<Recorder>) {
        let _ = recorder;
    }

    /// Registers a peer hosted *outside* this runtime instance, reachable
    /// at `addr`. Must be called before the run starts.
    ///
    /// The channel substrates cannot host external peers: the default
    /// accepts the (redundant) registration of a local address for an
    /// already-registered actor and panics on anything else, so a driver
    /// that wires a distributed topology against a channel substrate fails
    /// loudly instead of silently black-holing sends.
    fn register_peer(&mut self, id: ProcessId, addr: PeerAddr) {
        match addr {
            PeerAddr::Local(peer) if peer == id && self.actor_ids().contains(&id) => {}
            _ => panic!(
                "{} runtime cannot register external peer {id} at {addr}",
                self.name()
            ),
        }
    }

    /// The address at which this runtime reaches `id`, or `None` if the
    /// process is unknown. For channel substrates every registered actor
    /// is [`PeerAddr::Local`]; the socket runtime reports TCP addresses
    /// for both its own actors (its listener) and registered remote peers.
    fn addr_of(&self, id: ProcessId) -> Option<PeerAddr> {
        self.actor_ids()
            .contains(&id)
            .then_some(PeerAddr::Local(id))
    }

    /// Drives the system until every actor halts, `stop` returns `true`,
    /// or the runtime's own bound (simulated horizon / wall timeout) is
    /// reached. `stop` is polled between events on the driving thread.
    ///
    /// **One run per runtime.** Portable callers must call this exactly
    /// once; what a second call does is substrate-defined (the simulator
    /// resumes its event loop under the new stop condition, the wall-clock
    /// runtime returns the recorded report unchanged — its worker pool is
    /// gone). Phased execution is an inherent-API feature
    /// ([`crate::sim::Simulation::run_until`]), not a trait feature.
    fn run_until_stopped(&mut self, stop: &mut dyn FnMut() -> bool) -> RuntimeReport;

    /// Drives the system with no external stop condition.
    fn run_to_completion(&mut self) -> RuntimeReport {
        self.run_until_stopped(&mut || false)
    }

    /// Statistics collected so far (final after the run returns).
    fn stats(&self) -> &NetStats;

    /// The IDs of all registered actors.
    fn actor_ids(&self) -> Vec<ProcessId>;

    /// Trait-object access to an actor's state.
    ///
    /// For the threaded and socket runtimes this is only available once
    /// the run has returned (actors live on their threads while running);
    /// the simulator allows it at any time.
    fn actor_dyn(&self, id: ProcessId) -> Option<&dyn Actor<M>>;

    /// Downcast access to an actor's concrete type (post-run state
    /// inspection — how the scenario runner reads decisions back out).
    fn actor_as<T: 'static>(&self, id: ProcessId) -> Option<&T>
    where
        Self: Sized,
    {
        self.actor_dyn(id).and_then(|a| a.as_any().downcast_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Context, Labeled};
    use crate::sim::{SimConfig, Simulation};
    use crate::threaded::{Board, ThreadedConfig, ThreadedRuntime};

    #[derive(Clone)]
    enum Msg {
        Ping,
        Pong,
    }
    impl Labeled for Msg {
        fn label(&self) -> &'static str {
            match self {
                Msg::Ping => "PING",
                Msg::Pong => "PONG",
            }
        }
    }

    struct Node {
        id: ProcessId,
        peer: ProcessId,
        initiator: bool,
        board: Board<bool>,
        got_reply: bool,
    }

    impl Actor<Msg> for Node {
        fn id(&self) -> ProcessId {
            self.id
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn on_start(&mut self, ctx: &mut Context<Msg>) {
            if self.initiator {
                ctx.send(self.peer, Msg::Ping);
            }
        }
        fn on_message(&mut self, from: ProcessId, msg: Msg, ctx: &mut Context<Msg>) {
            match msg {
                Msg::Ping => ctx.send(from, Msg::Pong),
                Msg::Pong => {
                    self.got_reply = true;
                    self.board.publish(self.id, true);
                    ctx.halt();
                }
            }
        }
    }

    /// The point of the trait: this driver is written once and executes on
    /// both substrates.
    fn drive<R: Runtime<Msg>>(runtime: &mut R, board: &Board<bool>) -> RuntimeReport {
        runtime.add_actor(Box::new(Node {
            id: ProcessId::new(1),
            peer: ProcessId::new(2),
            initiator: true,
            board: board.clone(),
            got_reply: false,
        }));
        runtime.add_actor(Box::new(Node {
            id: ProcessId::new(2),
            peer: ProcessId::new(1),
            initiator: false,
            board: board.clone(),
            got_reply: false,
        }));
        let report = runtime.run_until_stopped(&mut || !board.is_empty());
        assert_eq!(
            runtime.actor_ids(),
            vec![ProcessId::new(1), ProcessId::new(2)]
        );
        let initiator: &Node = runtime.actor_as(ProcessId::new(1)).expect("inspectable");
        assert!(initiator.got_reply);
        assert!(runtime.actor_as::<Node>(ProcessId::new(99)).is_none());
        report
    }

    #[test]
    fn generic_driver_runs_on_simulation() {
        let board = Board::new();
        let mut sim: Simulation<Msg> = Simulation::new(SimConfig::default());
        assert_eq!(Runtime::<Msg>::name(&sim), "sim");
        let report = drive(&mut sim, &board);
        assert!(report.stopped);
        assert_eq!(report.stats.label_count("PING"), 1);
        assert_eq!(report.stats.label_count("PONG"), 1);
    }

    #[test]
    fn generic_driver_runs_on_threads() {
        let board = Board::new();
        let mut rt: ThreadedRuntime<Msg> = ThreadedRuntime::new(ThreadedConfig {
            wall_timeout: std::time::Duration::from_secs(10),
            ..ThreadedConfig::default()
        });
        assert_eq!(Runtime::<Msg>::name(&rt), "threaded");
        let report = drive(&mut rt, &board);
        assert!(report.stopped || report.all_halted);
        assert_eq!(report.stats.label_count("PING"), 1);
        assert_eq!(report.stats.label_count("PONG"), 1);
    }

    #[test]
    fn run_to_completion_default_runs_until_halt() {
        let board = Board::new();
        let mut sim: Simulation<Msg> = Simulation::new(SimConfig::default());
        sim.add_actor(Box::new(Node {
            id: ProcessId::new(1),
            peer: ProcessId::new(2),
            initiator: true,
            board: board.clone(),
            got_reply: false,
        }));
        sim.add_actor(Box::new(Node {
            id: ProcessId::new(2),
            peer: ProcessId::new(1),
            initiator: false,
            board: board.clone(),
            got_reply: false,
        }));
        let report = Runtime::run_to_completion(&mut sim);
        assert!(!report.stopped);
        // Actor 2 never halts (it only replies), so the run drains events.
        assert!(!report.all_halted);
        assert_eq!(report.stats.messages_delivered, 2);
    }
}
