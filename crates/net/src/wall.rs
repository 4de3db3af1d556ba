//! The one wall-clock runtime: one runtime, two links; the tamper is
//! consulted on the worker running the sender.
//!
//! [`WallRuntime`] carries everything a wall-clock run does around its
//! actors: registration and the before-the-run asserts, the tamper and
//! recorder, the worker pool (`host::Pool`: one growing mailbox per actor,
//! one worker thread per available core running the actors in turns, and
//! one wheel where every timer wake-up and every message in flight waits
//! for its time), the coordinator (`host::supervise`), shutdown, the
//! [`RuntimeReport`] and post-run inspection. A link supplies only how
//! long an admitted message waits and how it is carried when due — the
//! threaded link into the destination's mailbox after a randomized delay
//! ([`crate::ThreadedConfig`]), the socket link as a wire frame over TCP
//! ([`crate::socket::SocketLink`]).
//!
//! Every send is counted and shown to the tamper on the worker running
//! the sending actor (`host::admit` inside a turn), under one lock taken
//! only when a tamper is installed. So the tamper sees each message once,
//! with one `&mut` state, and each sender's emissions in program order, on
//! either link.
//!
//! Real-time interleaving is inherently nondeterministic — use
//! [`crate::sim::Simulation`] for reproducible experiments and this
//! runtime to validate that the protocols are not simulator artifacts.

use std::collections::BTreeMap;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use cupft_graph::ProcessId;
use cupft_obs::Recorder;

use crate::actor::{Actor, Labeled};
use crate::host::{supervise, Egress, Pool};
use crate::runtime::{PeerAddr, Runtime, RuntimeReport};
use crate::stats::NetStats;
use crate::tamper::Tamper;
use crate::Time;

/// How a message travels between the actors of a [`WallRuntime`].
pub(crate) trait Link<M>: Sized {
    /// The substrate name [`Runtime::name`] reports.
    const NAME: &'static str;
    /// The workers' handle for sending.
    type Tx: Egress<M> + Clone + Send + 'static;

    /// The run's wall-clock budget.
    fn wall_timeout(&self) -> Duration;

    /// Starts carrying messages into the mailboxes of `pool`, until its
    /// `shutdown` is raised.
    fn open(&mut self, pool: &Arc<Pool<M>>) -> Self::Tx;

    /// Retires what [`Link::open`] started, once every worker has been
    /// joined (so no [`Link::Tx`] is left): every thread of the link that
    /// holds the pool is joined by then.
    fn close(&mut self) {}

    /// Registers `id` at `addr`; `local` says whether `id` is one of this
    /// runtime's actors. A link of its own actors only accepts the
    /// redundant local registration, like the [`Runtime`] default.
    fn register_peer(&mut self, id: ProcessId, addr: PeerAddr, local: bool) {
        assert!(
            local && addr == PeerAddr::Local(id),
            "{} runtime cannot register external peer {id} at {addr}",
            Self::NAME
        );
    }

    /// Where `id` is reached; `local` as in [`Link::register_peer`].
    fn addr_of(&self, id: ProcessId, local: bool) -> Option<PeerAddr> {
        local.then_some(PeerAddr::Local(id))
    }
}

/// The wall-clock [`Runtime`]: actors run in turns on a worker pool,
/// messages carried by the link `L`.
///
/// Lifecycle mirrors the trait contract: [`Runtime::add_actor`] before the
/// run, one [`Runtime::run_until_stopped`] (actors move into the pool and
/// are collected back at shutdown), then post-run inspection via
/// [`Runtime::actor_as`]. A second run request returns the recorded report
/// unchanged.
pub struct WallRuntime<M, L> {
    pub(crate) link: L,
    pending: Vec<Box<dyn Actor<M>>>,
    finished: BTreeMap<ProcessId, Box<dyn Actor<M>>>,
    tamper: Option<Box<dyn Tamper<M>>>,
    recorder: Option<Arc<Recorder>>,
    stats: NetStats,
    elapsed: Duration,
    last_report: Option<RuntimeReport>,
}

impl<M, L> WallRuntime<M, L> {
    pub(crate) fn over(link: L) -> Self {
        WallRuntime {
            link,
            pending: Vec::new(),
            finished: BTreeMap::new(),
            tamper: None,
            recorder: None,
            stats: NetStats::default(),
            elapsed: Duration::ZERO,
            last_report: None,
        }
    }

    /// Wall-clock duration of the completed run.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Consumes the runtime, returning the actors in their final states.
    pub fn into_actors(self) -> BTreeMap<ProcessId, Box<dyn Actor<M>>> {
        self.finished
    }

    fn before_run(&self, what: &str) {
        assert!(self.last_report.is_none(), "{what} before the run");
    }

    fn is_local(&self, id: ProcessId) -> bool {
        self.finished.contains_key(&id) || self.pending.iter().any(|a| a.id() == id)
    }
}

impl<M, L> Runtime<M> for WallRuntime<M, L>
where
    M: Send + Labeled + 'static,
    L: Link<M>,
{
    fn name(&self) -> &'static str {
        L::NAME
    }

    fn add_actor(&mut self, actor: Box<dyn Actor<M>>) {
        self.before_run("actors must be registered");
        let id = actor.id();
        assert!(!self.is_local(id), "duplicate actor {id}");
        assert!(
            self.link.addr_of(id, false).is_none(),
            "actor {id} already registered as a remote peer"
        );
        self.pending.push(actor);
    }

    /// The tamper is consulted on the worker running each sending actor;
    /// `now` is elapsed milliseconds.
    fn set_tamper(&mut self, tamper: Box<dyn Tamper<M>>) {
        self.before_run("the tamper must be installed");
        self.tamper = Some(tamper);
    }

    /// The recorder stays in the **wall** clock domain: a wall-clock obs
    /// report is a profile, not a deterministic trace — use the simulator
    /// for byte-reproducible observation.
    fn set_recorder(&mut self, recorder: Arc<Recorder>) {
        self.before_run("the recorder must be installed");
        self.recorder = Some(recorder);
    }

    fn register_peer(&mut self, id: ProcessId, addr: PeerAddr) {
        self.before_run("peers must be registered");
        let local = self.is_local(id);
        self.link.register_peer(id, addr, local);
    }

    fn addr_of(&self, id: ProcessId) -> Option<PeerAddr> {
        self.link.addr_of(id, self.is_local(id))
    }

    fn run_until_stopped(&mut self, stop: &mut dyn FnMut() -> bool) -> RuntimeReport {
        // Already ran: report the recorded outcome unchanged.
        if let Some(report) = &self.last_report {
            return report.clone();
        }
        let start = Instant::now();
        let (halts, halt_rx) = channel();
        let actors = std::mem::take(&mut self.pending);
        let live = actors.iter().map(|actor| actor.id()).collect();
        let pool = Arc::new(Pool::new(
            actors,
            self.tamper.take(),
            self.recorder.clone(),
            halts,
            start,
        ));
        let tx = self.link.open(&pool);

        // Only local halts are tracked: remote peers are not ours to
        // track — a multi-process driver coordinates completion out of
        // band, through `stop`.
        let deadline = start + self.link.wall_timeout();
        let (all_halted, stopped) = thread::scope(|scope| {
            for _ in 0..pool.worker_count() {
                let (pool, tx) = (&pool, tx.clone());
                scope.spawn(move || pool.work(&tx));
            }
            drop(tx);
            let verdict = supervise(live, &halt_rx, stop, deadline);
            // Shutdown stops the workers and the link's own threads, and
            // closes every mailbox. Once the workers are joined no send is
            // left in flight towards the link, which can then be retired.
            pool.shut_down();
            verdict
        });
        self.link.close();
        let pool = Arc::into_inner(pool).expect("the link let go of the pool");
        let mut stats = NetStats::default();
        for (actor, counted) in pool.into_actors() {
            stats.merge(&counted);
            self.finished.insert(actor.id(), actor);
        }

        self.elapsed = start.elapsed();
        self.stats = stats.clone();
        let report = RuntimeReport {
            all_halted,
            stopped,
            end_time: self.elapsed.as_millis() as Time,
            events: stats.messages_delivered,
            stats,
            obs: self.recorder.as_ref().map(|rec| rec.snapshot()),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Context, TimerKind};
    use crate::socket::{SocketConfig, SocketRuntime};
    use crate::threaded::{ThreadedConfig, ThreadedRuntime};
    use cupft_wire::{Decode, Encode, Reader, WireError};

    /// The message type of a protocol that never sends one.
    #[derive(Clone)]
    struct Quiet;
    impl Labeled for Quiet {
        fn label(&self) -> &'static str {
            "QUIET"
        }
    }
    impl Encode for Quiet {
        fn encode(&self, _: &mut Vec<u8>) {}
    }
    impl Decode for Quiet {
        fn decode(_: &mut Reader<'_>) -> Result<Self, WireError> {
            Ok(Quiet)
        }
    }

    /// Fires `left` timers 10 ms apart, then halts.
    struct Ticker {
        id: ProcessId,
        left: u32,
    }
    impl Actor<Quiet> for Ticker {
        fn id(&self) -> ProcessId {
            self.id
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn on_start(&mut self, ctx: &mut Context<Quiet>) {
            ctx.set_timer(1, 10);
        }
        fn on_message(&mut self, _: ProcessId, _: Quiet, _: &mut Context<Quiet>) {}
        fn on_timer(&mut self, _: TimerKind, ctx: &mut Context<Quiet>) {
            self.left -= 1;
            if self.left == 0 {
                ctx.halt();
            } else {
                ctx.set_timer(1, 10);
            }
        }
    }

    fn ticker(left: u32) -> Box<dyn Actor<Quiet>> {
        Box::new(Ticker {
            id: ProcessId::new(1),
            left,
        })
    }

    /// Runs `check` on a fresh runtime over each link.
    fn on_both_links(check: impl Fn(&mut dyn Runtime<Quiet>)) {
        check(&mut ThreadedRuntime::new(ThreadedConfig::default()));
        check(&mut SocketRuntime::new(SocketConfig::default()).expect("bind"));
    }

    #[test]
    fn second_run_returns_the_recorded_report() {
        on_both_links(|rt| {
            rt.add_actor(ticker(2));
            let first = rt.run_to_completion();
            assert!(first.all_halted, "{}: {first:?}", rt.name());
            assert_eq!(rt.run_to_completion(), first, "{}", rt.name());
        });
    }

    #[test]
    fn registering_after_the_run_panics() {
        on_both_links(|rt| {
            rt.run_to_completion();
            let late = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                rt.add_actor(ticker(1));
            }));
            let panic = late.expect_err("registration after the run must panic");
            let message = panic.downcast_ref::<String>().expect("a formatted panic");
            assert!(
                message.contains("before the run"),
                "{}: {message}",
                rt.name()
            );
        });
    }

    #[test]
    fn timers_fired_are_counted() {
        on_both_links(|rt| {
            rt.add_actor(ticker(3));
            let report = rt.run_to_completion();
            assert!(report.all_halted, "{}: {report:?}", rt.name());
            assert_eq!(report.stats.timers_fired, 3, "{}", rt.name());
            assert_eq!(report.stats.messages_sent, 0, "{}", rt.name());
        });
    }
}
