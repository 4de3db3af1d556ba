//! OS-thread runtime: the same actors on real threads and channels.
//!
//! Each actor runs on its own thread with a crossbeam inbox; a **sharded
//! router plane** applies randomized delivery delays. Messages are hashed
//! by destination onto one of [`ThreadedConfig::router_shards`] router
//! shards, each owning its own delay wheel, inbox channel, RNG stream,
//! and [`NetStats`] block — the per-shard stats are merged
//! deterministically (shard-index order) into the single `NetStats`
//! surface the [`crate::Runtime`] trait reports, so callers see exactly
//! the counters a single router would have recorded.
//!
//! `router_shards = 1` is the same plane with one shard. With more
//! shards, Θ(n²) all-to-all traffic (Erdős–Rényi knowledge graphs) and
//! hub-focused traffic (scale-free graphs) no longer funnel through one
//! router thread.
//!
//! A [`Tamper`] layer, when installed, is serialized through a single
//! dedicated shard (shard 0): every send is routed to it first, so the
//! tamper keeps seeing each message once, at send time, in the order the
//! sending actor emitted it, with one `&mut` state — its observable
//! semantics are independent of the shard count. Post-disposition, the
//! message is handed to its destination's shard for delay scheduling.
//!
//! Actors send straight onto the shard channels from their own threads;
//! there is no stage between an outbox and the router plane. Work such as
//! certificate verification runs inside the receiving actor's handler,
//! which already has a thread of its own.
//!
//! Real-time interleaving is inherently nondeterministic — use
//! [`crate::sim::Simulation`] for reproducible experiments and this
//! runtime for wall-clock validation that the protocols are not simulator
//! artifacts.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use cupft_graph::ProcessId;
use cupft_obs::{Histogram, Recorder};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::actor::{Actor, Labeled};
use crate::host::{actor_loop, admit, supervise, Egress, Wheel};
use crate::runtime::{Runtime, RuntimeReport};
use crate::stats::NetStats;
use crate::tamper::Tamper;
use crate::Time;

/// Seed stride separating the per-shard delay-RNG streams (shard 0 keeps
/// the configured seed unchanged).
const SHARD_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Configuration for the threaded runtime.
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
    /// External stop signal: when some supervisor sets this flag the run
    /// winds down early (useful for protocols whose actors never halt,
    /// where the caller detects goal completion out of band, e.g. via a
    /// [`Board`]).
    pub stop: Option<Arc<AtomicBool>>,
    /// Number of router shards the delivery plane runs on.
    ///
    /// `0` (the default) resolves to `min(available cores, 4)`. Each
    /// shard is one thread owning its own delay wheel, RNG stream (shard 0
    /// keeps `seed` exactly), and [`NetStats`] block; per-shard stats are
    /// merged in shard-index order into the reported totals.
    pub router_shards: usize,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            min_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(10),
            wall_timeout: Duration::from_secs(10),
            seed: 0,
            stop: None,
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

/// Result of a threaded run: the actors (for state inspection) and stats.
pub struct ThreadedReport<M> {
    /// The actors, keyed by ID, in their final states.
    pub actors: BTreeMap<ProcessId, Box<dyn Actor<M>>>,
    /// Network statistics observed by the router plane (merged across
    /// shards).
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

/// A message on a router shard's channel.
enum ShardMsg<M> {
    /// A fresh send from an actor (or, with a tamper installed, the whole
    /// flow arriving at the tamper shard): record stats, consult the
    /// tamper, then schedule or forward.
    Send {
        from: ProcessId,
        to: ProcessId,
        msg: M,
        label: &'static str,
    },
    /// A post-tamper handoff from the tamper shard to the destination's
    /// shard: stats and disposition already happened, only delay
    /// scheduling remains.
    Forward {
        from: ProcessId,
        to: ProcessId,
        msg: M,
        extra: Duration,
    },
}

/// The shard a destination's deliveries are scheduled on.
fn shard_of(to: ProcessId, shard_count: usize) -> usize {
    (to.raw() as usize) % shard_count
}

/// The actor-side handle onto the router plane: destination-hashed shard
/// channels, an optional sticky tamper shard every send is serialized
/// through, and the coordinator's halt channel.
#[derive(Clone)]
struct Outbox<M> {
    shards: Arc<Vec<Sender<ShardMsg<M>>>>,
    tamper_shard: Option<usize>,
    halt: Sender<ProcessId>,
}

impl<M: Labeled> Egress<M> for Outbox<M> {
    fn send(&self, from: ProcessId, to: ProcessId, msg: M) {
        let label = msg.label();
        // With a tamper installed every send flows through the tamper
        // shard first, preserving per-sender emission order at the single
        // tamper state.
        let idx = self
            .tamper_shard
            .unwrap_or_else(|| shard_of(to, self.shards.len()));
        let _ = self.shards[idx].send(ShardMsg::Send {
            from,
            to,
            msg,
            label,
        });
    }

    fn halted(&self, id: ProcessId) {
        let _ = self.halt.send(id);
    }
}

/// Router-plane observability accumulators, kept local to each router
/// loop (no synchronization on the hot path) and merged deterministically
/// — shard-index order — into the run's [`Recorder`] after the loop
/// exits.
#[derive(Default)]
struct RouterObs {
    /// Inbox channel depth sampled once per loop iteration.
    inbox_depth: Histogram,
    /// Delay-wheel (pending heap) size sampled once per loop iteration.
    wheel_depth: Histogram,
    /// Deliveries re-pushed because the destination inbox was full.
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

/// The OS-thread [`Runtime`]: each actor on its own thread, a sharded
/// router plane applying randomized delivery delays.
///
/// Lifecycle mirrors the trait contract: [`Runtime::add_actor`] before the
/// run, one [`Runtime::run_until_stopped`] (actors are consumed by their
/// threads and collected back at shutdown), then post-run inspection via
/// [`Runtime::actor_as`]. A second run request returns the recorded report
/// unchanged.
pub struct ThreadedRuntime<M> {
    config: ThreadedConfig,
    pending: Vec<Box<dyn Actor<M>>>,
    finished: BTreeMap<ProcessId, Box<dyn Actor<M>>>,
    stats: NetStats,
    last_report: Option<RuntimeReport>,
    elapsed: Duration,
    tamper: Option<Box<dyn Tamper<M>>>,
    recorder: Option<Arc<Recorder>>,
}

impl<M> ThreadedRuntime<M> {
    /// Creates a runtime with no actors.
    pub fn new(config: ThreadedConfig) -> Self {
        ThreadedRuntime {
            config,
            pending: Vec::new(),
            finished: BTreeMap::new(),
            stats: NetStats::default(),
            last_report: None,
            elapsed: Duration::ZERO,
            tamper: None,
            recorder: None,
        }
    }

    /// Installs a message-interception layer (see [`crate::tamper`]). The
    /// tamper runs serialized on one router shard; `now` is elapsed
    /// milliseconds.
    pub fn set_tamper(&mut self, tamper: Box<dyn Tamper<M>>) {
        assert!(
            self.last_report.is_none(),
            "ThreadedRuntime tamper must be installed before the run"
        );
        self.tamper = Some(tamper);
    }

    /// Installs an observability recorder (see [`cupft_obs`]). The
    /// recorder stays in the **wall** clock domain: router metrics are
    /// recorded in wall microseconds / raw depths, so a
    /// threaded obs report is a profile, not a deterministic trace —
    /// use the simulator for byte-reproducible observation.
    pub fn set_recorder(&mut self, recorder: Arc<Recorder>) {
        assert!(
            self.last_report.is_none(),
            "ThreadedRuntime recorder must be installed before the run"
        );
        self.recorder = Some(recorder);
    }

    /// Wall-clock duration of the completed run.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Consumes the runtime, returning the actors in their final states.
    pub fn into_actors(self) -> BTreeMap<ProcessId, Box<dyn Actor<M>>> {
        self.finished
    }
}

impl<M> Runtime<M> for ThreadedRuntime<M>
where
    M: Clone + Send + Labeled + 'static,
{
    fn name(&self) -> &'static str {
        "threaded"
    }

    fn add_actor(&mut self, actor: Box<dyn Actor<M>>) {
        assert!(
            self.last_report.is_none(),
            "ThreadedRuntime actors must be registered before the run"
        );
        let id = actor.id();
        assert!(
            self.pending.iter().all(|a| a.id() != id),
            "duplicate actor {id}"
        );
        self.pending.push(actor);
    }

    fn set_tamper(&mut self, tamper: Box<dyn Tamper<M>>) {
        ThreadedRuntime::set_tamper(self, tamper);
    }

    fn set_recorder(&mut self, recorder: Arc<Recorder>) {
        ThreadedRuntime::set_recorder(self, recorder);
    }

    fn run_until_stopped(&mut self, stop: &mut dyn FnMut() -> bool) -> RuntimeReport {
        // Already ran: report the recorded outcome unchanged.
        if let Some(report) = &self.last_report {
            return report.clone();
        }
        let actors = std::mem::take(&mut self.pending);
        let mut tamper = self.tamper.take();
        let recorder = self.recorder.clone();
        let run = run_plane(actors, &self.config, stop, &mut tamper, recorder.clone());
        self.finished.extend(run.actors);
        self.stats = run.stats.clone();
        self.elapsed = run.elapsed;
        let obs = recorder.map(|rec| rec.snapshot());
        let report = RuntimeReport {
            all_halted: run.all_halted,
            stopped: run.stopped,
            end_time: run.elapsed.as_millis() as Time,
            events: run.stats.messages_delivered,
            stats: run.stats,
            obs,
        };
        self.last_report = Some(report.clone());
        report
    }

    fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn actor_ids(&self) -> Vec<ProcessId> {
        let mut ids: Vec<ProcessId> = self.finished.keys().copied().collect();
        ids.extend(self.pending.iter().map(|a| a.id()));
        ids.sort_unstable();
        ids
    }

    fn actor_dyn(&self, id: ProcessId) -> Option<&dyn Actor<M>> {
        self.finished.get(&id).map(|b| b.as_ref())
    }
}

/// Runs `actors` on OS threads until all halt or the wall timeout expires.
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

struct RouterRun<M> {
    actors: BTreeMap<ProcessId, Box<dyn Actor<M>>>,
    stats: NetStats,
    all_halted: bool,
    stopped: bool,
    elapsed: Duration,
}

/// Pops every due entry off a shard's delay wheel and delivers it into the
/// destination inbox. Channels are reliable (Section II-A): a full inbox
/// defers delivery, never drops — the entry is re-pushed strictly later
/// than `now` so this loop terminates; the wall timeout bounds total
/// retrying. A disconnected receiver means the actor halted — dropping
/// mirrors the simulator discarding events for halted actors.
fn deliver_due<M: Labeled>(
    wheel: &mut DelayWheel<M>,
    inboxes: &BTreeMap<ProcessId, Sender<(ProcessId, M)>>,
    stats: &mut NetStats,
    now: Instant,
    config: &ThreadedConfig,
    deferred: &mut u64,
) {
    while let Some((_, (from, to, msg))) = wheel.pop_due(now) {
        if let Some(tx) = inboxes.get(&to) {
            let payload = msg.payload_units();
            match tx.try_send((from, msg)) {
                Ok(()) => stats.record_delivery(payload),
                Err(TrySendError::Full((from, msg))) => {
                    *deferred += 1;
                    let retry = now + config.min_delay.max(Duration::from_millis(1));
                    wheel.push(retry, (from, to, msg));
                }
                Err(TrySendError::Disconnected(_)) => {}
            }
        }
    }
}

/// Everything one router shard needs to run: its channel, the full shard
/// sender table (for post-tamper forwarding), the actor inboxes, and —
/// on the tamper shard only — the tamper itself.
struct ShardTask<M> {
    index: usize,
    rx: Receiver<ShardMsg<M>>,
    peers: Vec<Sender<ShardMsg<M>>>,
    inboxes: BTreeMap<ProcessId, Sender<(ProcessId, M)>>,
    tamper: Option<Box<dyn Tamper<M>>>,
}

/// One router shard's loop: schedule sends through the delay wheel,
/// deliver due messages into inboxes, run the tamper (tamper shard only)
/// and forward post-disposition messages to their destination shard.
/// Returns the shard's private [`NetStats`] and observability
/// accumulators for the deterministic (shard-index order) merge.
/// `observe` gates the per-iteration depth sampling so unobserved runs
/// pay nothing beyond a branch.
fn shard_loop<M>(
    task: ShardTask<M>,
    config: &ThreadedConfig,
    shutdown: &AtomicBool,
    start: Instant,
    observe: bool,
) -> (NetStats, RouterObs)
where
    M: Clone + Send + Labeled + 'static,
{
    let ShardTask {
        index,
        rx,
        peers,
        inboxes,
        mut tamper,
    } = task;
    let shard_count = peers.len();
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
    let deadline = start + config.wall_timeout;
    let mut obs = RouterObs::default();
    let now_ms = || start.elapsed().as_millis() as Time;

    let schedule = |wheel: &mut DelayWheel<M>,
                    rng: &mut StdRng,
                    from: ProcessId,
                    to: ProcessId,
                    msg: M,
                    extra: Duration| {
        let jitter = if spread == 0 {
            0
        } else {
            rng.random_range(0..=spread)
        };
        let due = Instant::now() + config.min_delay + Duration::from_millis(jitter) + extra;
        wheel.push(due, (from, to, msg));
    };

    loop {
        if shutdown.load(Ordering::SeqCst) {
            // Drain, then exit. Halts bypass the shard channels, so the
            // coordinator can raise shutdown while an actor's trailing
            // sends still sit in `rx`. Account for them — record_send,
            // tamper disposition, drop counting — so the merged stats of
            // an all-halted run count every send the actors emitted,
            // whatever the shard count. Nothing more gets *delivered*
            // (the run is over; pending wheel entries are discarded), so
            // only the accounting runs.
            while let Ok(shard_msg) = rx.try_recv() {
                // Forwards were already recorded by the tamper shard.
                let ShardMsg::Send {
                    from,
                    to,
                    msg,
                    label,
                } = shard_msg
                else {
                    continue;
                };
                let payload = msg.payload_units();
                let _ = admit(&mut stats, &mut tamper, from, to, label, payload, now_ms);
            }
            break;
        }
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        if observe {
            obs.inbox_depth.record(rx.len() as u64);
            obs.wheel_depth.record(wheel.len() as u64);
        }
        deliver_due(
            &mut wheel,
            &inboxes,
            &mut stats,
            now,
            config,
            &mut obs.deferrals,
        );
        let wait = wheel
            .next_key()
            .map(|due| due.saturating_duration_since(now))
            .unwrap_or(Duration::from_millis(5))
            .min(deadline.saturating_duration_since(now))
            .min(Duration::from_millis(5));
        match rx.recv_timeout(wait) {
            Ok(ShardMsg::Send {
                from,
                to,
                msg,
                label,
            }) => {
                let payload = msg.payload_units();
                let Some(extra) = admit(&mut stats, &mut tamper, from, to, label, payload, now_ms)
                else {
                    continue;
                };
                let extra = Duration::from_millis(extra);
                if tamper.is_some() {
                    // Tamper shard: hand surviving messages to their
                    // destination's shard for delay scheduling.
                    let dest = shard_of(to, shard_count);
                    if dest != index {
                        let _ = peers[dest].send(ShardMsg::Forward {
                            from,
                            to,
                            msg,
                            extra,
                        });
                        continue;
                    }
                }
                schedule(&mut wheel, &mut rng, from, to, msg, extra);
            }
            Ok(ShardMsg::Forward {
                from,
                to,
                msg,
                extra,
            }) => {
                schedule(&mut wheel, &mut rng, from, to, msg, extra);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    (stats, obs)
}

/// Spawns the actor threads and the router plane — N shard threads owning
/// the delay wheels and stats — and coordinates them from the driving
/// thread until all actors halt, `stop` (or the config's external stop
/// flag) fires, or the wall timeout expires; then merges shard stats in
/// index order.
fn run_plane<M>(
    actors: Vec<Box<dyn Actor<M>>>,
    config: &ThreadedConfig,
    stop: &mut dyn FnMut() -> bool,
    tamper: &mut Option<Box<dyn Tamper<M>>>,
    recorder: Option<Arc<Recorder>>,
) -> RouterRun<M>
where
    M: Clone + Send + Labeled + 'static,
{
    let shard_count = config.effective_router_shards();
    let start = Instant::now();
    let shutdown = Arc::new(AtomicBool::new(false));
    let (halt_tx, halt_rx) = unbounded::<ProcessId>();

    let mut shard_txs = Vec::with_capacity(shard_count);
    let mut shard_rxs = Vec::with_capacity(shard_count);
    for _ in 0..shard_count {
        let (tx, rx) = unbounded::<ShardMsg<M>>();
        shard_txs.push(tx);
        shard_rxs.push(rx);
    }
    let shard_txs = Arc::new(shard_txs);

    // Inbox per actor, shared with every shard (each shard only delivers
    // to the destinations hashed onto it, but the tamper shard may own
    // any destination).
    let mut inboxes: BTreeMap<ProcessId, Sender<(ProcessId, M)>> = BTreeMap::new();
    let mut actor_handles = Vec::new();
    let actor_outbox = Outbox {
        shards: shard_txs.clone(),
        tamper_shard: tamper.is_some().then_some(0),
        halt: halt_tx,
    };
    if let Some(rec) = &recorder {
        rec.gauge_set("router_shards", shard_count as u64);
    }

    let mut actor_rxs = Vec::new();
    for actor in &actors {
        let (tx, rx) = bounded::<(ProcessId, M)>(4096);
        inboxes.insert(actor.id(), tx);
        actor_rxs.push(rx);
    }
    for (actor, rx) in actors.into_iter().zip(actor_rxs) {
        let outbox = actor_outbox.clone();
        let shutdown = shutdown.clone();
        actor_handles.push(thread::spawn(move || {
            actor_loop(actor, rx, outbox, &shutdown, start)
        }));
    }
    drop(actor_outbox);

    let mut shard_handles = Vec::with_capacity(shard_count);
    for (index, rx) in shard_rxs.into_iter().enumerate() {
        let task = ShardTask {
            index,
            rx,
            peers: shard_txs.as_ref().clone(),
            inboxes: inboxes.clone(),
            // Only shard 0 runs the tamper (serialized, single state).
            tamper: if index == 0 { tamper.take() } else { None },
        };
        let config = config.clone();
        let shutdown = shutdown.clone();
        let observe = recorder.is_some();
        shard_handles.push(thread::spawn(move || {
            shard_loop(task, &config, &shutdown, start, observe)
        }));
    }
    drop(shard_txs);

    let (all_halted, stopped) = supervise(
        inboxes.keys().copied().collect(),
        &halt_rx,
        stop,
        config.stop.as_deref(),
        start + config.wall_timeout,
    );
    shutdown.store(true, Ordering::SeqCst);
    // Merge shard stats (and shard obs) in index order: deterministic
    // given the per-shard outcomes, and conserving every counter (see
    // `NetStats::merge`, `Histogram::merge`).
    let mut stats = NetStats::default();
    for handle in shard_handles {
        let (shard_stats, shard_obs) = handle.join().expect("router shard panicked");
        stats.merge(&shard_stats);
        if let Some(rec) = &recorder {
            shard_obs.merge_into(rec);
        }
    }
    drop(inboxes);
    let mut out = BTreeMap::new();
    for handle in actor_handles {
        let (actor, timers_fired) = handle.join().expect("actor thread panicked");
        stats.timers_fired += timers_fired;
        out.insert(actor.id(), actor);
    }
    RouterRun {
        actors: out,
        stats,
        all_halted,
        stopped,
        elapsed: start.elapsed(),
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
        self.inner.lock().insert(id, value);
    }

    /// Snapshot of all published values.
    pub fn snapshot(&self) -> BTreeMap<ProcessId, T> {
        self.inner.lock().clone()
    }

    /// Number of published entries.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether nothing has been published.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Context, TimerKind};
    use crate::tamper::Fate;

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
        ThreadedRuntime::set_tamper(&mut rt, Box::new(DropPings));
        let report = rt.run_to_completion();
        // The PING is swallowed on the tamper shard, so nobody ever
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
    fn empty_roster_is_all_halted_at_once() {
        let mut rt: ThreadedRuntime<Msg> = ThreadedRuntime::new(ThreadedConfig::default());
        let report = rt.run_to_completion();
        assert!(report.all_halted, "no actors: vacuously all halted");
        assert!(!report.stopped);
        assert!(rt.elapsed() < ThreadedConfig::default().wall_timeout);
    }

    #[test]
    fn timers_fire_in_threaded_runtime() {
        struct TimerNode {
            id: ProcessId,
            fired: u32,
        }
        impl Actor<Msg> for TimerNode {
            fn id(&self) -> ProcessId {
                self.id
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn on_start(&mut self, ctx: &mut Context<Msg>) {
                ctx.set_timer(1, 10);
            }
            fn on_message(&mut self, _: ProcessId, _: Msg, _: &mut Context<Msg>) {}
            fn on_timer(&mut self, _: TimerKind, ctx: &mut Context<Msg>) {
                self.fired += 1;
                if self.fired >= 3 {
                    ctx.halt();
                } else {
                    ctx.set_timer(1, 10);
                }
            }
        }
        for shards in [1, 2] {
            let report = run_threaded(
                vec![Box::new(TimerNode {
                    id: ProcessId::new(1),
                    fired: 0,
                }) as Box<dyn Actor<Msg>>],
                ThreadedConfig {
                    wall_timeout: Duration::from_secs(5),
                    router_shards: shards,
                    ..ThreadedConfig::default()
                },
            );
            assert!(report.all_halted);
            assert_eq!(report.stats.timers_fired, 3, "shards={shards}");
        }
    }

    #[test]
    fn runtime_second_run_returns_recorded_report() {
        use crate::runtime::Runtime;
        let mut rt: ThreadedRuntime<Msg> = ThreadedRuntime::new(ThreadedConfig {
            wall_timeout: Duration::from_secs(5),
            ..ThreadedConfig::default()
        });
        rt.add_actor(Box::new(Node {
            id: ProcessId::new(1),
            peer: ProcessId::new(2),
            initiator: true,
            board: Board::new(),
        }));
        rt.add_actor(Box::new(Node {
            id: ProcessId::new(2),
            peer: ProcessId::new(1),
            initiator: false,
            board: Board::new(),
        }));
        let first = rt.run_to_completion();
        let second = rt.run_to_completion();
        assert_eq!(first, second);
    }

    #[test]
    #[should_panic(expected = "before the run")]
    fn runtime_rejects_actor_registration_after_run() {
        use crate::runtime::Runtime;
        let mut rt: ThreadedRuntime<Msg> = ThreadedRuntime::new(ThreadedConfig {
            wall_timeout: Duration::from_millis(50),
            ..ThreadedConfig::default()
        });
        rt.add_actor(Box::new(Node {
            id: ProcessId::new(1),
            peer: ProcessId::new(2),
            initiator: false,
            board: Board::new(),
        }));
        rt.run_to_completion();
        rt.add_actor(Box::new(Node {
            id: ProcessId::new(2),
            peer: ProcessId::new(1),
            initiator: false,
            board: Board::new(),
        }));
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
