//! The threaded link: the wall-clock runtime's actors over in-memory
//! channels — one runtime, two links; the tamper is consulted on the
//! worker running the sender, and the actors share the runtime's worker
//! pool (no thread per actor).
//!
//! [`ThreadedRuntime`] is the shared wall-clock runtime over this link.
//! An admitted message (the worker running the sender already counted it
//! and showed it to the tamper) is hashed by destination onto one of
//! [`ThreadedConfig::router_shards`] router shards. Each shard is one
//! thread owning its own delay wheel, RNG stream and delivery counters; it
//! applies a randomized delay and then delivers into the destination
//! actor's mailbox, retrying later when that mailbox is full. Per-shard
//! counters merge in shard-index order into the run's single
//! [`NetStats`].
//!
//! `router_shards = 1` is the same plane with one shard. With more
//! shards, Θ(n²) all-to-all traffic (Erdős–Rényi knowledge graphs) and
//! hub-focused traffic (scale-free graphs) no longer funnel through one
//! router thread.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use cupft_graph::ProcessId;
use cupft_obs::{Histogram, Recorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::actor::{Actor, Labeled};
use crate::host::{Delivery, Egress, Pool, Wheel};
use crate::runtime::Runtime;
use crate::stats::NetStats;
use crate::wall::{Link, WallRuntime};
use crate::Time;

/// Seed stride separating the per-shard delay-RNG streams (shard 0 keeps
/// the configured seed unchanged).
const SHARD_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Configuration for the threaded runtime; it is also the threaded link
/// itself, which needs nothing else before the run.
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    /// Minimum artificial delivery delay.
    pub min_delay: Duration,
    /// Maximum artificial delivery delay.
    pub max_delay: Duration,
    /// Wall-clock budget for the run.
    pub wall_timeout: Duration,
    /// Seed for the delay sampler.
    pub seed: u64,
    /// Number of router shards the delivery plane runs on.
    ///
    /// `0` (the default) resolves to `min(available cores, 4)`. Each
    /// shard is one thread owning its own delay wheel, RNG stream (shard 0
    /// keeps `seed` exactly), and delivery counters; they are merged in
    /// shard-index order into the reported totals.
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

impl ThreadedConfig {
    /// The shard count this configuration resolves to: `router_shards`,
    /// or `min(available cores, 4)` when left at the `0` auto default.
    pub fn effective_router_shards(&self) -> usize {
        match self.router_shards {
            0 => std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(4),
            n => n,
        }
    }
}

/// The wall-clock runtime over the threaded link: actors on the worker
/// pool, a sharded router plane applying randomized delivery delays.
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

/// An admitted message on its way to a router shard: `(from, to, msg,
/// extra tamper delay in ms)`.
type Routed<M> = (ProcessId, ProcessId, M, Time);

/// The shard a destination's deliveries are scheduled on.
fn shard_of(to: ProcessId, shard_count: usize) -> usize {
    (to.raw() as usize) % shard_count
}

/// The actor-side handle onto the router plane: one channel per shard.
#[derive(Clone)]
pub(crate) struct Outbox<M> {
    shards: Arc<Vec<Sender<Routed<M>>>>,
}

impl<M> Egress<M> for Outbox<M> {
    fn send(&self, from: ProcessId, to: ProcessId, msg: M, extra: Time) {
        let _ = self.shards[shard_of(to, self.shards.len())].send((from, to, msg, extra));
    }
}

/// Router-plane observability accumulators, kept local to each router
/// loop (no synchronization on the hot path) and merged deterministically
/// — shard-index order — into the run's [`Recorder`] after the loop
/// exits.
#[derive(Default)]
pub(crate) struct RouterObs {
    /// Inbox channel depth sampled once per loop iteration.
    inbox_depth: Histogram,
    /// Delay-wheel (pending heap) size sampled once per loop iteration.
    wheel_depth: Histogram,
    /// Deliveries re-pushed because the destination mailbox was full.
    deferrals: u64,
}

impl RouterObs {
    /// Folds this accumulator into `recorder` under the router metric
    /// names. Histogram merge is exact and commutative; callers still
    /// merge in shard-index order so the event of merging is itself
    /// deterministic.
    fn merge_into(&self, recorder: &Recorder) {
        recorder.merge_hist("router_inbox_depth", &self.inbox_depth);
        recorder.merge_hist("router_wheel_depth", &self.wheel_depth);
        recorder.counter_add("router_deferrals", self.deferrals);
    }
}

/// A shard's delay wheel: `(from, to, msg)` keyed by due instant.
type DelayWheel<M> = Wheel<Instant, (ProcessId, ProcessId, M)>;

impl<M: Clone + Send + Labeled + 'static> Link<M> for ThreadedConfig {
    const NAME: &'static str = "threaded";
    type Tx = Outbox<M>;
    type Open = Vec<thread::JoinHandle<(NetStats, RouterObs)>>;

    fn wall_timeout(&self) -> Duration {
        self.wall_timeout
    }

    fn open(
        &mut self,
        pool: &Arc<Pool<M>>,
        recorder: Option<&Arc<Recorder>>,
    ) -> (Outbox<M>, Self::Open) {
        let shard_count = self.effective_router_shards();
        if let Some(rec) = recorder {
            rec.gauge_set("router_shards", shard_count as u64);
        }
        let observe = recorder.is_some();
        let (mut shards, mut handles) = (Vec::new(), Vec::new());
        for index in 0..shard_count {
            let (tx, rx) = unbounded();
            shards.push(tx);
            let (config, pool) = (self.clone(), pool.clone());
            handles.push(thread::spawn(move || {
                shard_loop(index, rx, &pool, &config, observe)
            }));
        }
        let outbox = Outbox {
            shards: Arc::new(shards),
        };
        (outbox, handles)
    }

    /// Merges shard counters (and shard obs) in index order: deterministic
    /// given the per-shard outcomes, and conserving every counter (see
    /// `NetStats::merge`, `Histogram::merge`).
    fn close(handles: Self::Open, recorder: Option<&Arc<Recorder>>) -> NetStats {
        let mut stats = NetStats::default();
        for handle in handles {
            let (shard_stats, shard_obs) = handle.join().expect("router shard panicked");
            stats.merge(&shard_stats);
            if let Some(rec) = recorder {
                shard_obs.merge_into(rec);
            }
        }
        stats
    }
}

/// Pops every due entry off a shard's delay wheel and delivers it into the
/// destination mailbox. Channels are reliable (Section II-A): a full
/// mailbox defers delivery, never drops — the entry is re-pushed strictly
/// later than `now` so this loop terminates; the wall timeout bounds total
/// retrying. A closed mailbox means the actor halted — dropping mirrors
/// the simulator discarding events for halted actors.
fn deliver_due<M: Labeled>(
    wheel: &mut DelayWheel<M>,
    pool: &Pool<M>,
    stats: &mut NetStats,
    now: Instant,
    config: &ThreadedConfig,
    deferred: &mut u64,
) {
    while let Some((_, (from, to, msg))) = wheel.pop_due(now) {
        let payload = msg.payload_units();
        match pool.deliver(to, from, msg, false) {
            Delivery::Queued => stats.record_delivery(payload),
            Delivery::Full(msg) => {
                *deferred += 1;
                let retry = now + config.min_delay.max(Duration::from_millis(1));
                wheel.push(retry, (from, to, msg));
            }
            Delivery::Closed => {}
        }
    }
}

/// One router shard's loop: schedule admitted messages through the delay
/// wheel and deliver due ones into mailboxes, until the pool's `shutdown`
/// is raised. Returns the shard's delivery counters and observability
/// accumulators for the shard-index-order merge. `observe` gates the
/// per-iteration depth sampling so unobserved runs pay nothing beyond a
/// branch.
fn shard_loop<M: Labeled>(
    index: usize,
    rx: Receiver<Routed<M>>,
    pool: &Pool<M>,
    config: &ThreadedConfig,
    observe: bool,
) -> (NetStats, RouterObs) {
    let mut stats = NetStats::default();
    let mut wheel: DelayWheel<M> = Wheel::new();
    // Shard 0 keeps the configured seed; the others take decorrelated
    // streams along a golden-ratio stride.
    let mut rng = StdRng::seed_from_u64(
        config
            .seed
            .wrapping_add((index as u64).wrapping_mul(SHARD_SEED_STRIDE)),
    );
    let spread = config
        .max_delay
        .saturating_sub(config.min_delay)
        .as_millis() as u64;
    let mut obs = RouterObs::default();
    // The run is over once `shutdown` is up: pending wheel entries are
    // discarded.
    while !pool.shutdown.load(Ordering::SeqCst) {
        let now = Instant::now();
        if observe {
            obs.inbox_depth.record(rx.len() as u64);
            obs.wheel_depth.record(wheel.len() as u64);
        }
        deliver_due(
            &mut wheel,
            pool,
            &mut stats,
            now,
            config,
            &mut obs.deferrals,
        );
        let wait = wheel
            .next_key()
            .map(|due| due.saturating_duration_since(now))
            .unwrap_or(Duration::from_millis(5))
            .min(Duration::from_millis(5));
        match rx.recv_timeout(wait) {
            Ok((from, to, msg, extra)) => {
                let jitter = if spread == 0 {
                    0
                } else {
                    rng.random_range(0..=spread)
                };
                let delay = config.min_delay + Duration::from_millis(jitter + extra);
                wheel.push(Instant::now() + delay, (from, to, msg));
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    (stats, obs)
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
                router_shards: 1,
                ..ThreadedConfig::default()
            },
        );
        assert!(report.all_halted, "{report:?}");
        assert_eq!(board.len(), 2);
        assert_eq!(report.stats.label_count("PING"), 1);
        assert_eq!(report.stats.label_count("PONG"), 1);
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
    fn threaded_pingpong_on_every_shard_count() {
        for shards in [2, 3, 4] {
            let board = Board::new();
            let report = run_threaded(
                pingpong_actors(&board),
                ThreadedConfig {
                    wall_timeout: Duration::from_secs(5),
                    router_shards: shards,
                    ..ThreadedConfig::default()
                },
            );
            assert!(report.all_halted, "shards={shards}: {report:?}");
            assert_eq!(board.len(), 2, "shards={shards}");
            // Merged shard stats must equal what one router would count.
            assert_eq!(report.stats.label_count("PING"), 1, "shards={shards}");
            assert_eq!(report.stats.label_count("PONG"), 1, "shards={shards}");
            assert_eq!(report.stats.messages_sent, 2, "shards={shards}");
            assert_eq!(report.stats.messages_delivered, 2, "shards={shards}");
            // Delivered payload is counted once per delivery and conserved
            // across the shard merge.
            assert_eq!(report.stats.payload_delivered_units, 4, "shards={shards}");
        }
    }

    #[test]
    fn auto_shards_resolve_to_cores_capped_at_four() {
        let config = ThreadedConfig::default();
        assert_eq!(config.router_shards, 0);
        let effective = config.effective_router_shards();
        assert!((1..=4).contains(&effective), "effective={effective}");
        let pinned = ThreadedConfig {
            router_shards: 3,
            ..ThreadedConfig::default()
        };
        assert_eq!(pinned.effective_router_shards(), 3);
    }

    #[test]
    fn sharded_tamper_drop_is_counted_once() {
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
            router_shards: 4,
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
        for shards in [1, 2] {
            let report = run_threaded(
                vec![Box::new(Stuck {
                    id: ProcessId::new(1),
                }) as Box<dyn Actor<Msg>>],
                ThreadedConfig {
                    wall_timeout: Duration::from_millis(200),
                    router_shards: shards,
                    ..ThreadedConfig::default()
                },
            );
            assert!(!report.all_halted);
            assert!(report.elapsed >= Duration::from_millis(200));
        }
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
