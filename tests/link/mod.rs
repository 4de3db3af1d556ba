//! The link-conformance body: one traffic-exact flood workload, checked
//! the same way on every link of the wall-clock runtime.
//!
//! `tests/threaded_link.rs` runs it on the threaded link,
//! `tests/socket_parity.rs` on the socket link over loopback TCP.
//! Each actor floods every peer `FLOOD_R` times, then sends one `Done`
//! to each, and halts once it has heard everything it expects. Traffic
//! totals are exact functions of the topology, and the trailing
//! per-sender `Done` makes every halt causally later than the tamper's
//! rulings on that sender's floods, so the final stats are exact, not
//! racy.
//!
//! The last three bodies check the worker pool both links share: a
//! bounded set of worker threads, mailboxes that take a flood past their
//! cap without losing a message, and turns short enough that a backlog
//! never starves another actor's timers.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};
use std::time::Duration;

use bft_cupft::graph::ProcessId;
use bft_cupft::net::{
    Actor, Context, Fate, Labeled, NetStats, Runtime, RuntimeReport, Tamper, TimerKind,
};
use bft_cupft::obs::Recorder;
use bft_cupft::wire::{Decode, Encode, Reader, WireError};

/// Number of flood actors.
const FLOOD_N: u64 = 9;
/// Rounds each actor floods at startup.
const FLOOD_R: u64 = 5;
/// Payload units per flood message.
const FLOOD_PAYLOAD: u64 = 3;
/// Flood messages in one run.
const FLOODS: u64 = FLOOD_N * (FLOOD_N - 1) * FLOOD_R;
/// `Done` messages in one run.
const DONES: u64 = FLOOD_N * (FLOOD_N - 1);
/// The one sender a tamper singles out.
const SINGLED_OUT: u64 = 1;

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FloodMsg {
    /// A payload-bearing round message.
    Flood,
    /// The sender's final message, emitted after all its floods.
    Done,
}

impl Labeled for FloodMsg {
    fn label(&self) -> &'static str {
        match self {
            FloodMsg::Flood => "FLOOD",
            FloodMsg::Done => "DONE",
        }
    }
    fn payload_units(&self) -> u64 {
        match self {
            FloodMsg::Flood => FLOOD_PAYLOAD,
            FloodMsg::Done => 0,
        }
    }
}

impl Encode for FloodMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            FloodMsg::Flood => 0,
            FloodMsg::Done => 1,
        });
    }
}

impl Decode for FloodMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(FloodMsg::Flood),
            1 => Ok(FloodMsg::Done),
            tag => Err(WireError::BadTag {
                ty: "FloodMsg",
                tag,
            }),
        }
    }
}

struct FloodActor {
    id: ProcessId,
    peers: Vec<ProcessId>,
    expect: u64,
    got: u64,
}

impl Actor<FloodMsg> for FloodActor {
    fn id(&self) -> ProcessId {
        self.id
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn on_start(&mut self, ctx: &mut Context<FloodMsg>) {
        for _ in 0..FLOOD_R {
            for &peer in &self.peers {
                ctx.send(peer, FloodMsg::Flood);
            }
        }
        for &peer in &self.peers {
            ctx.send(peer, FloodMsg::Done);
        }
    }
    fn on_message(&mut self, _: ProcessId, _: FloodMsg, ctx: &mut Context<FloodMsg>) {
        self.got += 1;
        if self.got >= self.expect {
            ctx.halt();
        }
    }
}

/// Registers the all-to-all flood on `rt`. `floods_from(id)` counts the
/// senders whose floods `id` waits for; every actor also waits for one
/// `Done` per peer.
fn flood<R: Runtime<FloodMsg>>(rt: &mut R, floods_from: impl Fn(ProcessId) -> u64) {
    let ids: Vec<ProcessId> = (1..=FLOOD_N).map(ProcessId::new).collect();
    for &id in &ids {
        rt.add_actor(Box::new(FloodActor {
            id,
            peers: ids.iter().copied().filter(|&p| p != id).collect(),
            expect: floods_from(id) * FLOOD_R + (FLOOD_N - 1),
            got: 0,
        }));
    }
}

/// With no tamper, every counter equals the topology's exact totals, and
/// the delivered payload is conserved. Returns the stats, so a caller can
/// compare whole `NetStats` blocks across link settings.
pub fn conserves_netstats<R: Runtime<FloodMsg>>(mut rt: R) -> NetStats {
    let name = rt.name();
    flood(&mut rt, |_| FLOOD_N - 1);
    let report = rt.run_to_completion();
    assert!(report.all_halted, "{name}: {report:?}");
    let stats = report.stats;
    assert_eq!(stats.messages_sent, FLOODS + DONES, "{name}");
    assert_eq!(stats.messages_delivered, FLOODS + DONES, "{name}");
    assert_eq!(stats.messages_dropped, 0, "{name}");
    assert_eq!(stats.label_count("FLOOD"), FLOODS, "{name}");
    assert_eq!(stats.label_count("DONE"), DONES, "{name}");
    assert_eq!(stats.payload_units, FLOODS * FLOOD_PAYLOAD, "{name}");
    assert_eq!(
        stats.label_payload("FLOOD"),
        FLOODS * FLOOD_PAYLOAD,
        "{name}"
    );
    // Payload is counted again at delivery, once per delivered message,
    // and the fully delivered run conserves it exactly.
    assert_eq!(
        stats.payload_delivered_units,
        FLOODS * FLOOD_PAYLOAD,
        "{name}"
    );
    assert_eq!(
        stats.payload_delivered_units,
        stats.payload_delivered(),
        "{name}"
    );
    stats
}

/// Drops the floods of one sender; its `Done`s still flow.
struct DropFloodsFrom;

impl Tamper<FloodMsg> for DropFloodsFrom {
    fn disposition(&mut self, from: ProcessId, _: ProcessId, label: &'static str, _: u64) -> Fate {
        if from.raw() == SINGLED_OUT && label == "FLOOD" {
            Fate::Drop
        } else {
            Fate::Deliver
        }
    }
}

/// Every drop is counted exactly once, still as sent, and everything the
/// tamper spared is delivered exactly once.
pub fn drop_accounting_is_exact<R: Runtime<FloodMsg>>(mut rt: R) {
    let name = rt.name();
    let silenced = ProcessId::new(SINGLED_OUT);
    flood(&mut rt, |id| {
        if id == silenced {
            FLOOD_N - 1 // still hears everyone's floods
        } else {
            FLOOD_N - 2 // everyone's floods except the silenced sender's
        }
    });
    rt.set_tamper(Box::new(DropFloodsFrom));
    let report = rt.run_to_completion();
    assert!(report.all_halted, "{name}: {report:?}");
    let stats = report.stats;
    let dropped = (FLOOD_N - 1) * FLOOD_R;
    assert_eq!(stats.messages_sent, FLOODS + DONES, "{name}");
    assert_eq!(stats.messages_dropped, dropped, "{name}");
    assert_eq!(stats.messages_delivered, FLOODS + DONES - dropped, "{name}");
    assert_eq!(stats.payload_dropped, dropped * FLOOD_PAYLOAD, "{name}");
    assert_eq!(
        stats.payload_delivered(),
        (FLOODS - dropped) * FLOOD_PAYLOAD,
        "{name}"
    );
    assert_eq!(
        stats.payload_delivered_units,
        (FLOODS - dropped) * FLOOD_PAYLOAD,
        "{name}"
    );
}

/// Asserts the per-sender structure the flood emits (`FLOOD_R` batches of
/// peers in ID order, then the `Done` batch): any reordering of one
/// sender's emissions before the tamper would trip it.
#[derive(Default)]
struct OrderAssertingTamper {
    /// sender -> (round, last peer)
    last_to: BTreeMap<ProcessId, (u64, u64)>,
}

impl Tamper<FloodMsg> for OrderAssertingTamper {
    fn disposition(&mut self, from: ProcessId, to: ProcessId, _: &'static str, _: u64) -> Fate {
        let entry = self.last_to.entry(from).or_insert((0, 0));
        if to.raw() <= entry.1 {
            entry.0 += 1; // a new round wrapped past the sender's peer list
            assert!(
                entry.0 < FLOOD_R + 1,
                "sender {from} emitted more rounds than it floods"
            );
        }
        entry.1 = to.raw();
        Fate::Deliver
    }
}

/// The tamper sees each sender's emissions in program order.
pub fn tamper_sees_emission_order<R: Runtime<FloodMsg>>(mut rt: R) {
    let name = rt.name();
    flood(&mut rt, |_| FLOOD_N - 1);
    rt.set_tamper(Box::new(OrderAssertingTamper::default()));
    let report = rt.run_to_completion();
    assert!(report.all_halted, "{name}: {report:?}");
    assert_eq!(report.stats.messages_delivered, FLOODS + DONES, "{name}");
}

/// How long [`DelayFloodsFrom`] holds a flood back, in milliseconds.
const HOLD_MS: u64 = 150;

/// Holds back the floods of one sender by [`HOLD_MS`].
struct DelayFloodsFrom;

impl Tamper<FloodMsg> for DelayFloodsFrom {
    fn disposition(&mut self, from: ProcessId, _: ProcessId, label: &'static str, _: u64) -> Fate {
        if from.raw() == SINGLED_OUT && label == "FLOOD" {
            Fate::Delay(HOLD_MS)
        } else {
            Fate::Deliver
        }
    }
}

/// A `Fate::Delay` holds a message back, and it is still delivered.
pub fn delayed_messages_are_delivered<R: Runtime<FloodMsg>>(mut rt: R) {
    let name = rt.name();
    flood(&mut rt, |_| FLOOD_N - 1);
    rt.set_tamper(Box::new(DelayFloodsFrom));
    let report = rt.run_to_completion();
    assert!(report.all_halted, "{name}: {report:?}");
    assert!(report.end_time >= HOLD_MS, "{name}: {report:?}");
    assert_eq!(report.stats.messages_dropped, 0, "{name}");
    assert_eq!(report.stats.messages_delivered, FLOODS + DONES, "{name}");
}

/// Actors in the worker-set run.
const RING_N: u64 = 256;

/// Sends one `Flood` to its ring successor and arms one timer; halts once
/// it has received its message and fired its timer. Records the thread of
/// every callback.
struct RingActor {
    id: ProcessId,
    next: ProcessId,
    got: bool,
    fired: bool,
    threads: Arc<Mutex<HashSet<ThreadId>>>,
}

impl RingActor {
    fn note_thread(&self) {
        self.threads.lock().unwrap().insert(thread::current().id());
    }

    fn halt_when_done(&self, ctx: &mut Context<FloodMsg>) {
        if self.got && self.fired {
            ctx.halt();
        }
    }
}

impl Actor<FloodMsg> for RingActor {
    fn id(&self) -> ProcessId {
        self.id
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn on_start(&mut self, ctx: &mut Context<FloodMsg>) {
        self.note_thread();
        ctx.send(self.next, FloodMsg::Flood);
        ctx.set_timer(1, 5);
    }
    fn on_message(&mut self, _: ProcessId, _: FloodMsg, ctx: &mut Context<FloodMsg>) {
        self.note_thread();
        self.got = true;
        self.halt_when_done(ctx);
    }
    fn on_timer(&mut self, _: TimerKind, ctx: &mut Context<FloodMsg>) {
        self.note_thread();
        self.fired = true;
        self.halt_when_done(ctx);
    }
}

fn cores() -> u64 {
    thread::available_parallelism().map_or(1, |n| n.get()) as u64
}

/// Many actors share a few workers: every callback of a 256-actor run
/// lands on one of at most `available_parallelism()` threads.
pub fn actors_share_a_bounded_worker_set<R: Runtime<FloodMsg>>(mut rt: R) {
    let name = rt.name();
    let threads = Arc::new(Mutex::new(HashSet::new()));
    for i in 1..=RING_N {
        rt.add_actor(Box::new(RingActor {
            id: ProcessId::new(i),
            next: ProcessId::new(i % RING_N + 1),
            got: false,
            fired: false,
            threads: threads.clone(),
        }));
    }
    let report = rt.run_to_completion();
    assert!(report.all_halted, "{name}: {report:?}");
    assert_eq!(report.stats.messages_delivered, RING_N, "{name}");
    assert_eq!(report.stats.timers_fired, RING_N, "{name}");
    let used = threads.lock().unwrap().len() as u64;
    assert!(
        (1..=cores()).contains(&used),
        "{name}: {RING_N} actors ran on {used} threads, {} cores",
        cores()
    );
}

/// Messages the flooder sends in the overflow run: past the 4096-message
/// mailbox cap.
const OVERFLOW: u64 = 6_000;
/// How long the flooded actor stalls in its first handler, so the flood
/// piles up behind it.
const STALL: Duration = Duration::from_millis(200);

/// Sends `OVERFLOW` floods to `to` and halts in the same handler.
struct Flooder {
    id: ProcessId,
    to: ProcessId,
}

impl Actor<FloodMsg> for Flooder {
    fn id(&self) -> ProcessId {
        self.id
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn on_start(&mut self, ctx: &mut Context<FloodMsg>) {
        for _ in 0..OVERFLOW {
            ctx.send(self.to, FloodMsg::Flood);
        }
        ctx.halt();
    }
    fn on_message(&mut self, _: ProcessId, _: FloodMsg, _: &mut Context<FloodMsg>) {}
}

/// Stalls on its first message, then halts on the `OVERFLOW`-th.
struct Stalled {
    id: ProcessId,
    got: u64,
}

impl Actor<FloodMsg> for Stalled {
    fn id(&self) -> ProcessId {
        self.id
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn on_message(&mut self, _: ProcessId, _: FloodMsg, ctx: &mut Context<FloodMsg>) {
        if self.got == 0 {
            thread::sleep(STALL);
        }
        self.got += 1;
        if self.got == OVERFLOW {
            ctx.halt();
        }
    }
}

/// A flood past the mailbox cap, sent by an actor that halts in the same
/// handler, all reaches a stalled receiver: a full mailbox holds the rest
/// back and loses nothing, and `NetStats` totals are conserved. Returns
/// the report (with an obs snapshot), so a caller can check how its link
/// held the overflow back.
pub fn flood_past_the_mailbox_cap_is_delivered<R: Runtime<FloodMsg>>(mut rt: R) -> RuntimeReport {
    let name = rt.name();
    let (flooder, stalled) = (ProcessId::new(1), ProcessId::new(2));
    rt.add_actor(Box::new(Flooder {
        id: flooder,
        to: stalled,
    }));
    rt.add_actor(Box::new(Stalled {
        id: stalled,
        got: 0,
    }));
    rt.set_recorder(Arc::new(Recorder::new()));
    let report = rt.run_to_completion();
    assert!(report.all_halted, "{name}: {report:?}");
    let receiver: &Stalled = rt.actor_as(stalled).expect("inspectable");
    assert_eq!(receiver.got, OVERFLOW, "{name}");
    let stats = &report.stats;
    assert_eq!(stats.messages_sent, OVERFLOW, "{name}");
    assert_eq!(stats.messages_delivered, OVERFLOW, "{name}");
    assert_eq!(stats.messages_dropped, 0, "{name}");
    assert_eq!(stats.label_count("FLOOD"), OVERFLOW, "{name}");
    assert_eq!(stats.payload_units, OVERFLOW * FLOOD_PAYLOAD, "{name}");
    assert_eq!(stats.payload_delivered_units, stats.payload_units, "{name}");
    report
}

/// Messages each hog sends itself at start in the fairness run.
const BACKLOG: u64 = 1_024;
/// What handling one backlog message costs a hog.
const HOG_WORK: Duration = Duration::from_micros(300);
/// Tickers in the fairness run.
const TICKERS: u64 = 4;
/// The tickers' timer period, in milliseconds.
const TICK_MS: u64 = 2;
/// The most backlog messages one hog may handle between two firings of
/// one ticker: a few 64-message turns, a quarter of the backlog.
const MAX_GAP: u64 = 4 * 64;

/// Sends itself `BACKLOG` floods at start, handles each slowly, and halts
/// on the last; publishes its progress.
struct Hog {
    id: ProcessId,
    handled: Arc<AtomicU64>,
}

impl Actor<FloodMsg> for Hog {
    fn id(&self) -> ProcessId {
        self.id
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn on_start(&mut self, ctx: &mut Context<FloodMsg>) {
        for _ in 0..BACKLOG {
            ctx.send(self.id, FloodMsg::Flood);
        }
    }
    fn on_message(&mut self, _: ProcessId, _: FloodMsg, ctx: &mut Context<FloodMsg>) {
        thread::sleep(HOG_WORK);
        if self.handled.fetch_add(1, Ordering::SeqCst) + 1 == BACKLOG {
            ctx.halt();
        }
    }
}

/// Fires every `TICK_MS` until every hog is done, noting at each firing
/// the most backlog messages one hog handled since its previous firing.
struct Ticker {
    id: ProcessId,
    hogs: Vec<Arc<AtomicU64>>,
    last: Vec<u64>,
    firings: u64,
    worst_gap: u64,
}

impl Actor<FloodMsg> for Ticker {
    fn id(&self) -> ProcessId {
        self.id
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn on_start(&mut self, ctx: &mut Context<FloodMsg>) {
        ctx.set_timer(1, TICK_MS);
    }
    fn on_message(&mut self, _: ProcessId, _: FloodMsg, _: &mut Context<FloodMsg>) {}
    fn on_timer(&mut self, _: TimerKind, ctx: &mut Context<FloodMsg>) {
        self.firings += 1;
        for (hog, last) in self.hogs.iter().zip(&mut self.last) {
            let now = hog.load(Ordering::SeqCst);
            self.worst_gap = self.worst_gap.max(now - *last);
            *last = now;
        }
        if self.last.iter().all(|&handled| handled == BACKLOG) {
            ctx.halt();
        } else {
            ctx.set_timer(1, TICK_MS);
        }
    }
}

/// While one hog per worker drains a long, slow backlog, every other
/// actor's timers keep firing: between two firings of a ticker no hog
/// handles more than a few 64-message turns.
pub fn backlog_does_not_starve_timers<R: Runtime<FloodMsg>>(mut rt: R) {
    let name = rt.name();
    let progress: Vec<Arc<AtomicU64>> = (0..cores()).map(|_| Arc::default()).collect();
    for (i, handled) in progress.iter().enumerate() {
        rt.add_actor(Box::new(Hog {
            id: ProcessId::new(1 + i as u64),
            handled: handled.clone(),
        }));
    }
    let tickers: Vec<ProcessId> = (1..=TICKERS).map(|i| ProcessId::new(1_000 + i)).collect();
    for &id in &tickers {
        rt.add_actor(Box::new(Ticker {
            id,
            hogs: progress.clone(),
            last: vec![0; progress.len()],
            firings: 0,
            worst_gap: 0,
        }));
    }
    let report = rt.run_to_completion();
    assert!(report.all_halted, "{name}: {report:?}");
    for id in tickers {
        let ticker: &Ticker = rt.actor_as(id).expect("inspectable");
        assert!(
            ticker.worst_gap <= MAX_GAP,
            "{name}: ticker {id} waited while a hog handled {} messages ({} firings)",
            ticker.worst_gap,
            ticker.firings
        );
    }
}
