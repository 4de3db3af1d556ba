//! The threaded link: [`ThreadedRuntime`], the wall-clock runtime's
//! actors over in-memory mailboxes, on the runtime's worker pool (no
//! thread per actor, and none for the link). The worker running the
//! sender samples each admitted message's delay — `min_delay`, plus a
//! jitter from that sender's own RNG stream, seeded from `(seed, sender
//! id)`, plus any tamper delay — and the message waits on the pool's one
//! wheel until a worker delivers it into the destination's mailbox, or
//! retries a millisecond later when that mailbox is full.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use cupft_graph::ProcessId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::actor::{Actor, Labeled};
use crate::host::{Egress, Pool};
use crate::runtime::Runtime;
use crate::stats::NetStats;
use crate::wall::{Link, WallRuntime};
use crate::Time;

/// Seed stride separating the senders' jitter streams.
const SENDER_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Configuration for the threaded runtime; it is also the threaded link
/// itself, which needs nothing else before the run.
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    /// Minimum artificial delivery delay: no message is delivered sooner.
    pub min_delay: Duration,
    /// Maximum artificial delivery delay (before any tamper delay).
    pub max_delay: Duration,
    /// Wall-clock budget for the run.
    pub wall_timeout: Duration,
    /// Seed for the delay sampler.
    pub seed: u64,
    /// Inert: nothing reads it. Every message waits on the worker pool's
    /// one wheel, whatever this says; the field stays only while
    /// `benchmark/` still sets it, and ROADMAP item 3(a) deletes it.
    pub router_shards: usize,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            min_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(10),
            wall_timeout: Duration::from_secs(10),
            seed: 0,
            router_shards: 0,
        }
    }
}

/// The wall-clock runtime over the threaded link: actors on the worker
/// pool, each message delivered after a randomized delay.
pub type ThreadedRuntime<M> = WallRuntime<M, ThreadedConfig>;

impl<M> ThreadedRuntime<M> {
    /// Creates a runtime with no actors.
    pub fn new(config: ThreadedConfig) -> Self {
        WallRuntime::over(config)
    }
}

/// Result of a threaded run: the actors (for state inspection) and stats.
pub struct ThreadedReport<M> {
    /// The actors, keyed by ID, in their final states.
    pub actors: BTreeMap<ProcessId, Box<dyn Actor<M>>>,
    /// Network statistics of the run.
    pub stats: NetStats,
    /// Whether every actor halted before the wall timeout.
    pub all_halted: bool,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

impl<M> std::fmt::Debug for ThreadedReport<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadedReport")
            .field("actors", &self.actors.keys().collect::<Vec<_>>())
            .field("stats", &self.stats)
            .field("all_halted", &self.all_halted)
            .field("elapsed", &self.elapsed)
            .finish()
    }
}

/// Runs `actors` on the worker pool until all halt or the wall timeout
/// expires.
///
/// Thin wrapper over [`ThreadedRuntime`] retained for callers that want
/// the actors back by value.
pub fn run_threaded<M>(actors: Vec<Box<dyn Actor<M>>>, config: ThreadedConfig) -> ThreadedReport<M>
where
    M: Clone + Send + Labeled + 'static,
{
    let mut runtime = ThreadedRuntime::new(config);
    for actor in actors {
        runtime.add_actor(actor);
    }
    let report = runtime.run_to_completion();
    let elapsed = runtime.elapsed();
    ThreadedReport {
        actors: runtime.into_actors(),
        stats: report.stats,
        all_halted: report.all_halted,
        elapsed,
    }
}

/// The workers' handle onto the threaded link.
#[derive(Clone)]
pub(crate) struct Jitter {
    min_delay: Duration,
    /// `max_delay − min_delay`, in whole milliseconds.
    spread: u64,
    /// One stream per sender; only the worker running that sender's turn
    /// draws from it, so each lock is uncontended.
    streams: Arc<BTreeMap<ProcessId, Mutex<StdRng>>>,
}

impl<M: Labeled> Egress<M> for Jitter {
    fn delay(&self, from: ProcessId, extra: Time) -> Duration {
        let jitter = match self.spread {
            0 => 0,
            spread => self.streams[&from]
                .lock()
                .expect("jitter stream poisoned")
                .random_range(0..=spread),
        };
        self.min_delay + Duration::from_millis(jitter + extra)
    }

    /// Channels are reliable (Section II-A): a full mailbox hands the
    /// message back to be retried, never dropped. A halted actor's is
    /// discarded, as the simulator discards events for halted actors.
    fn carry(&self, pool: &Pool<M>, from: ProcessId, to: ProcessId, msg: M) -> Option<M> {
        pool.deliver(to, from, msg, false)
    }
}

impl<M: Clone + Send + Labeled + 'static> Link<M> for ThreadedConfig {
    const NAME: &'static str = "threaded";
    type Tx = Jitter;

    fn wall_timeout(&self) -> Duration {
        self.wall_timeout
    }

    fn open(&mut self, pool: &Arc<Pool<M>>) -> Jitter {
        let stream = |id: ProcessId| {
            let seed = self
                .seed
                .wrapping_add(id.raw().wrapping_mul(SENDER_SEED_STRIDE));
            Mutex::new(StdRng::seed_from_u64(seed))
        };
        Jitter {
            min_delay: self.min_delay,
            spread: self.max_delay.saturating_sub(self.min_delay).as_millis() as u64,
            streams: Arc::new(pool.ids().map(|id| (id, stream(id))).collect()),
        }
    }
}

/// Shared decision board: a tiny utility actors can use (via `Arc`) to
/// publish values for cross-thread assertions in tests and examples.
#[derive(Debug, Default, Clone)]
pub struct Board<T> {
    inner: Arc<Mutex<BTreeMap<ProcessId, T>>>,
}

impl<T: Clone> Board<T> {
    /// Creates an empty board.
    pub fn new() -> Self {
        Board {
            inner: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    /// Publishes `value` for process `id`.
    pub fn publish(&self, id: ProcessId, value: T) {
        self.entries().insert(id, value);
    }

    /// Snapshot of all published values.
    pub fn snapshot(&self) -> BTreeMap<ProcessId, T> {
        self.entries().clone()
    }

    /// Number of published entries.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// Whether nothing has been published.
    pub fn is_empty(&self) -> bool {
        self.entries().is_empty()
    }

    fn entries(&self) -> MutexGuard<'_, BTreeMap<ProcessId, T>> {
        self.inner.lock().expect("board lock poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::Context;
    use crate::tamper::{Fate, Tamper};

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
        fn payload_units(&self) -> u64 {
            match self {
                Msg::Ping => 3,
                Msg::Pong => 1,
            }
        }
    }

    struct Node {
        id: ProcessId,
        peer: ProcessId,
        initiator: bool,
        board: Board<bool>,
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
                Msg::Ping => {
                    ctx.send(from, Msg::Pong);
                    self.board.publish(self.id, true);
                    ctx.halt();
                }
                Msg::Pong => {
                    self.board.publish(self.id, true);
                    ctx.halt();
                }
            }
        }
    }

    fn pingpong_actors(board: &Board<bool>) -> Vec<Box<dyn Actor<Msg>>> {
        vec![
            Box::new(Node {
                id: ProcessId::new(1),
                peer: ProcessId::new(2),
                initiator: true,
                board: board.clone(),
            }),
            Box::new(Node {
                id: ProcessId::new(2),
                peer: ProcessId::new(1),
                initiator: false,
                board: board.clone(),
            }),
        ]
    }

    #[test]
    fn threaded_pingpong() {
        let board = Board::new();
        let report = run_threaded(
            pingpong_actors(&board),
            ThreadedConfig {
                wall_timeout: Duration::from_secs(5),
                ..ThreadedConfig::default()
            },
        );
        assert!(report.all_halted, "{report:?}");
        assert_eq!(board.len(), 2);
        assert_eq!(report.stats.label_count("PING"), 1);
        assert_eq!(report.stats.label_count("PONG"), 1);
        assert_eq!(report.stats.messages_sent, 2);
        assert_eq!(report.stats.messages_delivered, 2);
        // Delivered payload is counted once per delivery.
        assert_eq!(report.stats.payload_delivered_units, 4);
    }

    #[test]
    fn empty_roster_is_all_halted_at_once() {
        let mut rt: ThreadedRuntime<Msg> = ThreadedRuntime::new(ThreadedConfig::default());
        let report = rt.run_to_completion();
        assert!(report.all_halted, "no actors: vacuously all halted");
        assert!(!report.stopped);
        assert!(rt.elapsed() < ThreadedConfig::default().wall_timeout);
    }

    #[test]
    fn tamper_drop_is_counted_once() {
        struct DropPings;
        impl Tamper<Msg> for DropPings {
            fn disposition(
                &mut self,
                _: ProcessId,
                _: ProcessId,
                label: &'static str,
                _: Time,
            ) -> Fate {
                if label == "PING" {
                    Fate::Drop
                } else {
                    Fate::Deliver
                }
            }
        }
        let board = Board::new();
        let mut rt: ThreadedRuntime<Msg> = ThreadedRuntime::new(ThreadedConfig {
            wall_timeout: Duration::from_millis(300),
            ..ThreadedConfig::default()
        });
        for actor in pingpong_actors(&board) {
            rt.add_actor(actor);
        }
        rt.set_tamper(Box::new(DropPings));
        let report = rt.run_to_completion();
        // The PING is swallowed on the sender's worker, so nobody ever
        // replies or halts; the run ends at the wall timeout.
        assert!(!report.all_halted);
        assert_eq!(report.stats.label_count("PING"), 1);
        assert_eq!(report.stats.messages_dropped, 1);
        assert_eq!(report.stats.messages_delivered, 0);
    }

    #[test]
    fn wall_timeout_terminates_stuck_actors() {
        struct Stuck {
            id: ProcessId,
        }
        impl Actor<Msg> for Stuck {
            fn id(&self) -> ProcessId {
                self.id
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn on_message(&mut self, _: ProcessId, _: Msg, _: &mut Context<Msg>) {}
        }
        let report = run_threaded(
            vec![Box::new(Stuck {
                id: ProcessId::new(1),
            }) as Box<dyn Actor<Msg>>],
            ThreadedConfig {
                wall_timeout: Duration::from_millis(200),
                ..ThreadedConfig::default()
            },
        );
        assert!(!report.all_halted);
        assert!(report.elapsed >= Duration::from_millis(200));
    }

    #[test]
    fn board_snapshot() {
        let board: Board<u32> = Board::new();
        assert!(board.is_empty());
        board.publish(ProcessId::new(1), 10);
        board.publish(ProcessId::new(2), 20);
        let snap = board.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[&ProcessId::new(1)], 10);
    }
}
