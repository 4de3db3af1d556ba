//! `TimedRuntime`: a transparent [`Runtime`] proxy that records spans at the
//! layer boundaries the scenario runner crosses, from outside the program.
//!
//! `run_scenario_on(&scenario, &mut TimedRuntime::new(inner, probe))` behaves
//! exactly like `run_scenario_on(&scenario, &mut inner)`: every actor is
//! wrapped in a [`TimedActor`] whose `as_any` answers for the wrapped actor
//! (so `actor_as::<Node>` and the runner's `collect` keep working), the
//! preflight stage is wrapped in a timing adapter, and `run_until_stopped`
//! stamps its entry and exit. Everything else delegates.
//!
//! Accumulators are one block of relaxed atomics per actor, touched only by
//! the thread running that actor, so the hot path shares no lock; they are
//! read once, after the run.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bft_cupft::core::NodeMsg;
use bft_cupft::discovery::DiscoveryMsg;
use bft_cupft::graph::ProcessId;
use bft_cupft::net::{
    Actor, Context, NetStats, PeerAddr, Preflight, Runtime, RuntimeReport, Tamper, TimerKind,
};
use bft_cupft::obs::Recorder;
use bft_cupft::wire::encode_to_vec;

/// What an actor handler invocation is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bucket {
    Start,
    Timer,
    GetPds,
    SetPds,
    Committee,
    Learning,
}

impl Bucket {
    pub const ALL: [Bucket; 6] = [
        Bucket::Start,
        Bucket::Timer,
        Bucket::GetPds,
        Bucket::SetPds,
        Bucket::Committee,
        Bucket::Learning,
    ];

    /// The suffix used in metric names (`trace.actor_share.<name>`).
    pub fn name(self) -> &'static str {
        match self {
            Bucket::Start => "start",
            Bucket::Timer => "timer",
            Bucket::GetPds => "GETPDS",
            Bucket::SetPds => "SETPDS",
            Bucket::Committee => "committee",
            Bucket::Learning => "learning",
        }
    }

    fn of(msg: &NodeMsg) -> Bucket {
        match msg {
            NodeMsg::Discovery(DiscoveryMsg::GetPds { .. }) => Bucket::GetPds,
            NodeMsg::Discovery(_) => Bucket::SetPds,
            NodeMsg::Committee(_) => Bucket::Committee,
            NodeMsg::GetDecidedVal | NodeMsg::DecidedVal(_) => Bucket::Learning,
        }
    }
}

/// What the proxy measures. The two probes run in separate passes so the
/// byte count (which encodes every delivered message) never inflates the
/// span pass's overhead figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Time every actor handler and preflight call.
    Spans,
    /// Sum `encode_to_vec(msg).len()` over delivered messages.
    Bytes,
}

#[derive(Default)]
struct Cell {
    nanos: AtomicU64,
    calls: AtomicU64,
}

impl Cell {
    fn add(&self, elapsed: Duration) {
        self.nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }
}

#[derive(Default)]
struct ActorSpans {
    cells: [Cell; Bucket::ALL.len()],
    wire_bytes: AtomicU64,
}

struct TimedActor {
    inner: Box<dyn Actor<NodeMsg>>,
    spans: Arc<ActorSpans>,
    probe: Probe,
}

impl TimedActor {
    fn timed(&mut self, bucket: Bucket, f: impl FnOnce(&mut dyn Actor<NodeMsg>)) {
        if self.probe == Probe::Spans {
            let start = Instant::now();
            f(self.inner.as_mut());
            self.spans.cells[bucket as usize].add(start.elapsed());
        } else {
            f(self.inner.as_mut());
        }
    }
}

impl Actor<NodeMsg> for TimedActor {
    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    /// Answers for the wrapped actor: post-run inspection downcasts to the
    /// protocol type, never to the proxy.
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn on_start(&mut self, ctx: &mut Context<NodeMsg>) {
        self.timed(Bucket::Start, |a| a.on_start(ctx));
    }

    fn on_message(&mut self, from: ProcessId, msg: NodeMsg, ctx: &mut Context<NodeMsg>) {
        if self.probe == Probe::Bytes {
            self.spans
                .wire_bytes
                .fetch_add(encode_to_vec(&msg).len() as u64, Ordering::Relaxed);
        }
        self.timed(Bucket::of(&msg), |a| a.on_message(from, msg, ctx));
    }

    fn on_timer(&mut self, timer: TimerKind, ctx: &mut Context<NodeMsg>) {
        self.timed(Bucket::Timer, |a| a.on_timer(timer, ctx));
    }
}

struct TimedPreflight {
    inner: Arc<dyn Preflight<NodeMsg>>,
    cell: Arc<Cell>,
}

impl Preflight<NodeMsg> for TimedPreflight {
    fn preflight(&self, from: ProcessId, to: ProcessId, msg: &NodeMsg) {
        let start = Instant::now();
        self.inner.preflight(from, to, msg);
        self.cell.add(start.elapsed());
    }

    fn wants(&self, msg: &NodeMsg) -> bool {
        self.inner.wants(msg)
    }
}

/// Accumulated time and call count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotal {
    pub seconds: f64,
    pub calls: u64,
}

/// Everything one proxied run recorded.
#[derive(Debug, Clone, Default)]
pub struct SpanReport {
    /// Per-bucket totals summed over actors, indexed like [`Bucket::ALL`].
    pub actors: [SpanTotal; Bucket::ALL.len()],
    pub preflight: SpanTotal,
    /// Wall time inside `run_until_stopped`.
    pub run_seconds: f64,
    /// Encoded size of every delivered message ([`Probe::Bytes`] only).
    pub wire_bytes: u64,
    /// `RuntimeReport::events` of the run.
    pub events: u64,
}

impl SpanReport {
    pub fn actor(&self, bucket: Bucket) -> SpanTotal {
        self.actors[bucket as usize]
    }

    pub fn actor_seconds(&self) -> f64 {
        self.actors.iter().map(|s| s.seconds).sum()
    }
}

/// The proxy itself; see the module docs.
pub struct TimedRuntime<R> {
    inner: R,
    probe: Probe,
    actors: Vec<Arc<ActorSpans>>,
    preflight: Arc<Cell>,
    run_entry: Option<Instant>,
    run_seconds: f64,
    events: u64,
}

impl<R: Runtime<NodeMsg>> TimedRuntime<R> {
    pub fn new(inner: R, probe: Probe) -> Self {
        TimedRuntime {
            inner,
            probe,
            actors: Vec::new(),
            preflight: Arc::default(),
            run_entry: None,
            run_seconds: 0.0,
            events: 0,
        }
    }

    /// When `run_until_stopped` was entered (the end of the runner's set-up).
    pub fn run_entry(&self) -> Option<Instant> {
        self.run_entry
    }

    /// Totals of the finished run.
    pub fn report(&self) -> SpanReport {
        let total = |cell: &Cell| SpanTotal {
            seconds: cell.nanos.load(Ordering::Relaxed) as f64 * 1e-9,
            calls: cell.calls.load(Ordering::Relaxed),
        };
        let mut report = SpanReport {
            preflight: total(&self.preflight),
            run_seconds: self.run_seconds,
            events: self.events,
            ..SpanReport::default()
        };
        for spans in &self.actors {
            for (sum, cell) in report.actors.iter_mut().zip(&spans.cells) {
                let t = total(cell);
                sum.seconds += t.seconds;
                sum.calls += t.calls;
            }
            report.wire_bytes += spans.wire_bytes.load(Ordering::Relaxed);
        }
        report
    }
}

impl<R: Runtime<NodeMsg>> Runtime<NodeMsg> for TimedRuntime<R> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn add_actor(&mut self, actor: Box<dyn Actor<NodeMsg>>) {
        let spans = Arc::new(ActorSpans::default());
        self.actors.push(spans.clone());
        self.inner.add_actor(Box::new(TimedActor {
            inner: actor,
            spans,
            probe: self.probe,
        }));
    }

    fn set_tamper(&mut self, tamper: Box<dyn Tamper<NodeMsg>>) {
        self.inner.set_tamper(tamper);
    }

    fn set_preflight(&mut self, preflight: Arc<dyn Preflight<NodeMsg>>) {
        let stage: Arc<dyn Preflight<NodeMsg>> = match self.probe {
            Probe::Spans => Arc::new(TimedPreflight {
                inner: preflight,
                cell: self.preflight.clone(),
            }),
            Probe::Bytes => preflight,
        };
        self.inner.set_preflight(stage);
    }

    fn set_recorder(&mut self, recorder: Arc<Recorder>) {
        self.inner.set_recorder(recorder);
    }

    fn register_peer(&mut self, id: ProcessId, addr: PeerAddr) {
        self.inner.register_peer(id, addr);
    }

    fn addr_of(&self, id: ProcessId) -> Option<PeerAddr> {
        self.inner.addr_of(id)
    }

    fn run_until_stopped(&mut self, stop: &mut dyn FnMut() -> bool) -> RuntimeReport {
        let entry = Instant::now();
        self.run_entry.get_or_insert(entry);
        let report = self.inner.run_until_stopped(stop);
        self.run_seconds += entry.elapsed().as_secs_f64();
        self.events = report.events;
        report
    }

    fn stats(&self) -> &NetStats {
        self.inner.stats()
    }

    fn actor_ids(&self) -> Vec<ProcessId> {
        self.inner.actor_ids()
    }

    fn actor_dyn(&self, id: ProcessId) -> Option<&dyn Actor<NodeMsg>> {
        self.inner.actor_dyn(id)
    }
}
