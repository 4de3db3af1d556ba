//! The mechanisms every runtime needs exactly once: the delay [`Wheel`],
//! the send-time gate [`admit`], and — for the one wall-clock runtime
//! (`crate::wall`) — the actor thread's loop ([`actor_loop`] over an
//! [`Egress`]) and the driving thread's coordinator ([`supervise`]).
//!
//! On the wall-clock runtime the gate runs on the sending actor's own
//! thread: [`actor_loop`] counts each send, shows it to the tamper (one
//! shared lock, taken only when a tamper is installed) and hands only the
//! admitted messages to its link's [`Egress`]. How a message then travels
//! (router shards, TCP frames) is the link's business.

use std::collections::{BTreeSet, BinaryHeap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use cupft_graph::ProcessId;
use parking_lot::Mutex;

use crate::actor::{Actor, Context, Labeled, TimerKind};
use crate::stats::NetStats;
use crate::tamper::{Fate, Tamper};
use crate::Time;

/// A min-heap of items ordered by `(key, insertion order)`: the earliest
/// key pops first, and equal keys pop in the order they were pushed.
pub(crate) struct Wheel<K, T> {
    heap: BinaryHeap<Entry<K, T>>,
    seq: u64,
}

struct Entry<K, T> {
    key: K,
    seq: u64,
    item: T,
}

impl<K: Ord, T> PartialEq for Entry<K, T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl<K: Ord, T> Eq for Entry<K, T> {}
impl<K: Ord, T> PartialOrd for Entry<K, T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<K: Ord, T> Ord for Entry<K, T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // reversed: BinaryHeap is a max-heap, we want the earliest key first
        (&other.key, other.seq).cmp(&(&self.key, self.seq))
    }
}

impl<K: Ord + Copy, T> Wheel<K, T> {
    pub(crate) fn new() -> Self {
        Wheel {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    #[inline]
    pub(crate) fn push(&mut self, key: K, item: T) {
        self.seq += 1;
        self.heap.push(Entry {
            key,
            seq: self.seq,
            item,
        });
    }

    /// The key that pops next, if any.
    #[inline]
    pub(crate) fn next_key(&self) -> Option<K> {
        self.heap.peek().map(|e| e.key)
    }

    /// Pops the earliest entry if its key is at or before `now`; later
    /// entries stay queued.
    #[inline]
    pub(crate) fn pop_due(&mut self, now: K) -> Option<(K, T)> {
        if self.heap.peek()?.key > now {
            return None;
        }
        self.heap.pop().map(|e| (e.key, e.item))
    }
}

/// The send-time gate: counts the send, asks the tamper (if any) for its
/// one ruling on the message, and counts a drop. Returns the extra delay
/// the tamper imposed (`0` for a plain delivery), or `None` when the
/// message must not be delivered. `now` is only read when there is a
/// tamper to tell, so untampered wall-clock sends cost no clock read.
#[inline]
pub(crate) fn admit<M>(
    stats: &mut NetStats,
    tamper: Option<&mut Box<dyn Tamper<M>>>,
    from: ProcessId,
    to: ProcessId,
    label: &'static str,
    payload: u64,
    now: impl FnOnce() -> Time,
) -> Option<Time> {
    stats.record_send(label, payload);
    match tamper.map(|t| t.disposition(from, to, label, now())) {
        None | Some(Fate::Deliver) => Some(0),
        Some(Fate::Delay(extra)) => Some(extra),
        Some(Fate::Drop) => {
            stats.record_drop(payload);
            None
        }
    }
}

/// An actor thread's handle onto its link.
pub(crate) trait Egress<M> {
    /// Carries one admitted message, held back `extra` milliseconds on
    /// top of the link's own delay (a tamper's [`Fate::Delay`]).
    fn send(&self, from: ProcessId, to: ProcessId, msg: M, extra: Time);
}

/// What every actor thread of one wall-clock run shares.
pub(crate) struct Shared<M> {
    /// The installed tamper, consulted under this one lock.
    pub(crate) tamper: Option<Mutex<Box<dyn Tamper<M>>>>,
    /// Where an actor reports its halt to [`supervise`].
    pub(crate) halts: Sender<ProcessId>,
    /// Raised by the coordinator when the run is over; the link's
    /// threads watch it too.
    pub(crate) shutdown: Arc<AtomicBool>,
    /// Actor time is elapsed milliseconds since this instant.
    pub(crate) start: Instant,
}

impl<M> Shared<M> {
    fn now(&self) -> Time {
        self.start.elapsed().as_millis() as Time
    }
}

type Timers = BinaryHeap<(std::cmp::Reverse<Time>, TimerKind)>;

/// Runs one actor on the calling thread until it halts, `shutdown` is
/// raised, or its inbox disconnects; reports a halt on `halts`. Returns
/// the actor in its final state and the [`NetStats`] of its own thread:
/// every send it emitted (drops included) and every timer it fired.
pub(crate) fn actor_loop<M: Labeled, E: Egress<M>>(
    mut actor: Box<dyn Actor<M>>,
    inbox: Receiver<(ProcessId, M)>,
    egress: E,
    shared: &Shared<M>,
) -> (Box<dyn Actor<M>>, NetStats) {
    let id = actor.id();
    let mut timers = Timers::new();
    let mut stats = NetStats::default();
    let mut apply = |timers: &mut Timers, ctx: Context<M>, now: Time| {
        let (sends, new_timers, halted) = ctx.into_effects();
        for (to, msg) in sends {
            let mut tamper = shared.tamper.as_ref().map(|t| t.lock());
            let (label, payload) = (msg.label(), msg.payload_units());
            let admitted = admit(
                &mut stats,
                tamper.as_deref_mut(),
                id,
                to,
                label,
                payload,
                || shared.now(),
            );
            drop(tamper);
            if let Some(extra) = admitted {
                egress.send(id, to, msg, extra);
            }
        }
        for (kind, delay) in new_timers {
            timers.push((std::cmp::Reverse(now + delay), kind));
        }
        halted
    };
    let mut timers_fired = 0;

    let mut halted = {
        let mut ctx = Context::new(shared.now(), id);
        actor.on_start(&mut ctx);
        apply(&mut timers, ctx, shared.now())
    };

    while !halted && !shared.shutdown.load(Ordering::SeqCst) {
        let now = shared.now();
        // Fire due timers first.
        let mut fired = false;
        while timers
            .peek()
            .is_some_and(|&(std::cmp::Reverse(at), _)| at <= now)
        {
            let (_, kind) = timers.pop().expect("peeked");
            let mut ctx = Context::new(now, id);
            actor.on_timer(kind, &mut ctx);
            timers_fired += 1;
            halted = apply(&mut timers, ctx, now) || halted;
            fired = true;
            if halted {
                break;
            }
        }
        if halted {
            break;
        }
        if fired {
            // Fairness: an actor whose per-tick work exceeds its own timer
            // period would otherwise loop on due timers forever and never
            // drain its inbox — sends keep flowing out while every reply
            // rots undelivered (a livelock the family sweeps hit with
            // 10 ms discovery ticks and debug-build candidate searches).
            // Drain a bounded batch of queued messages between firings so
            // neither timers nor messages can starve the other.
            let mut drained = 0;
            while drained < 64 && !halted {
                match inbox.try_recv() {
                    Ok((from, msg)) => {
                        let mut ctx = Context::new(shared.now(), id);
                        actor.on_message(from, msg, &mut ctx);
                        halted = apply(&mut timers, ctx, shared.now()) || halted;
                        drained += 1;
                    }
                    Err(_) => break,
                }
            }
            if halted {
                break;
            }
            continue;
        }
        let wait = timers
            .peek()
            .map(|&(std::cmp::Reverse(at), _)| Duration::from_millis(at.saturating_sub(now)))
            .unwrap_or(Duration::from_millis(20))
            .min(Duration::from_millis(20));
        match inbox.recv_timeout(wait) {
            Ok((from, msg)) => {
                let mut ctx = Context::new(shared.now(), id);
                actor.on_message(from, msg, &mut ctx);
                halted = apply(&mut timers, ctx, shared.now()) || halted;
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    if halted {
        let _ = shared.halts.send(id);
    }
    stats.timers_fired = timers_fired;
    (actor, stats)
}

/// The coordinator loop of a wall-clock run, on the driving thread: waits
/// until every actor in `live` has reported its halt on `halts`, the
/// caller's `stop` condition fires, or `deadline` passes. Returns
/// `(all_halted, stopped)`. An empty `live` set is all-halted at once
/// (vacuous truth), whoever the caller is.
pub(crate) fn supervise(
    mut live: BTreeSet<ProcessId>,
    halts: &Receiver<ProcessId>,
    stop: &mut dyn FnMut() -> bool,
    deadline: Instant,
) -> (bool, bool) {
    let mut stopped = false;
    while !live.is_empty() {
        if stop() {
            stopped = true;
            break;
        }
        if Instant::now() >= deadline {
            break;
        }
        match halts.recv_timeout(Duration::from_millis(5)) {
            Ok(id) => {
                live.remove(&id);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    (live.is_empty(), stopped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::{bounded, unbounded};

    #[test]
    fn wheel_pops_equal_keys_in_push_order() {
        let mut wheel: Wheel<u64, &str> = Wheel::new();
        wheel.push(5, "late");
        wheel.push(3, "a");
        wheel.push(3, "b");
        wheel.push(3, "c");
        assert_eq!(wheel.len(), 4);
        assert_eq!(wheel.next_key(), Some(3));
        let order: Vec<_> = std::iter::from_fn(|| wheel.pop_due(u64::MAX)).collect();
        assert_eq!(order, [(3, "a"), (3, "b"), (3, "c"), (5, "late")]);
    }

    #[test]
    fn wheel_pop_due_includes_key_equal_to_now() {
        let mut wheel: Wheel<u64, ()> = Wheel::new();
        assert_eq!(wheel.pop_due(10), None);
        wheel.push(10, ());
        wheel.push(11, ());
        assert_eq!(wheel.pop_due(9), None, "not yet due");
        assert_eq!(wheel.pop_due(10), Some((10, ())), "due exactly now");
        assert_eq!(wheel.pop_due(10), None, "the later entry stays queued");
        assert_eq!(wheel.len(), 1);
    }

    /// A tamper with one fixed ruling.
    struct Rule(Fate);
    impl Tamper<()> for Rule {
        fn disposition(&mut self, _: ProcessId, _: ProcessId, _: &'static str, _: Time) -> Fate {
            self.0
        }
    }

    fn admit_under(fate: Option<Fate>) -> (Option<Time>, NetStats) {
        let mut stats = NetStats::default();
        let mut tamper = fate.map(|f| Box::new(Rule(f)) as Box<dyn Tamper<()>>);
        let (from, to) = (ProcessId::new(1), ProcessId::new(2));
        let verdict = admit(&mut stats, tamper.as_mut(), from, to, "X", 7, || 0);
        (verdict, stats)
    }

    #[test]
    fn admit_counts_a_drop_once_and_still_as_sent() {
        let (verdict, stats) = admit_under(Some(Fate::Drop));
        assert_eq!(verdict, None);
        assert_eq!(stats.messages_sent, 1);
        assert_eq!(stats.payload_units, 7);
        assert_eq!(stats.label_count("X"), 1);
        assert_eq!(stats.messages_dropped, 1);
        assert_eq!(stats.payload_dropped, 7);
    }

    #[test]
    fn admit_passes_a_delay_through() {
        let (verdict, stats) = admit_under(Some(Fate::Delay(120)));
        assert_eq!(verdict, Some(120));
        assert_eq!(stats.messages_sent, 1);
        assert_eq!(stats.messages_dropped, 0);
    }

    #[test]
    fn admit_without_tamper_equals_deliver() {
        let plain = admit_under(None);
        assert_eq!(plain.0, Some(0));
        assert_eq!(plain, admit_under(Some(Fate::Deliver)));
    }

    impl Labeled for u32 {
        fn label(&self) -> &'static str {
            "N"
        }
    }

    /// An egress that carries nothing anywhere.
    struct Discard;
    impl Egress<u32> for Discard {
        fn send(&self, _: ProcessId, _: ProcessId, _: u32, _: Time) {}
    }

    /// Re-arms its timer at delay 1 and works longer than that in the
    /// handler, so a timer is due every time the loop looks. Halts on the
    /// `last`-th message.
    struct Busy {
        last: u32,
        received: u32,
        /// `received` as seen at each timer firing.
        seen_at_firing: Vec<u32>,
        first_firing: Sender<()>,
    }
    impl Actor<u32> for Busy {
        fn id(&self) -> ProcessId {
            ProcessId::new(1)
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn on_start(&mut self, ctx: &mut Context<u32>) {
            ctx.set_timer(1, 1);
        }
        fn on_message(&mut self, _: ProcessId, _: u32, ctx: &mut Context<u32>) {
            self.received += 1;
            if self.received == self.last {
                ctx.halt();
            }
        }
        fn on_timer(&mut self, _: TimerKind, ctx: &mut Context<u32>) {
            if self.seen_at_firing.is_empty() {
                let _ = self.first_firing.send(());
            }
            self.seen_at_firing.push(self.received);
            std::thread::sleep(Duration::from_millis(3));
            ctx.set_timer(1, 1);
        }
    }

    #[test]
    fn always_due_timer_cannot_starve_the_inbox() {
        const MESSAGES: u32 = 150;
        let (inbox_tx, inbox_rx) = bounded::<(ProcessId, u32)>(MESSAGES as usize);
        let (halt_tx, halt_rx) = unbounded();
        let (fired_tx, fired_rx) = unbounded();
        let shared = Arc::new(Shared {
            tamper: None,
            halts: halt_tx,
            shutdown: Arc::default(),
            start: Instant::now(),
        });
        let actor = Box::new(Busy {
            last: MESSAGES,
            received: 0,
            seen_at_firing: Vec::new(),
            first_firing: fired_tx,
        });
        let handle = {
            let shared = shared.clone();
            std::thread::spawn(move || actor_loop(actor, inbox_rx, Discard, &shared))
        };
        // Only once the actor is inside its first (over-long) timer handler
        // do the messages arrive: from here on a timer is always due.
        fired_rx.recv().expect("timer fired");
        for n in 0..MESSAGES {
            inbox_tx.send((ProcessId::new(2), n)).expect("inbox open");
        }
        let halted = halt_rx.recv_timeout(Duration::from_secs(20));
        shared.shutdown.store(true, Ordering::SeqCst);
        let (actor, stats) = handle.join().expect("actor thread panicked");
        assert_eq!(halted, Ok(ProcessId::new(1)), "halted on the last message");
        let busy: &Busy = actor.as_any().downcast_ref().expect("a Busy");
        assert_eq!(busy.received, MESSAGES);
        assert_eq!(stats.timers_fired, busy.seen_at_firing.len() as u64);
        // Between two firings at most one 64-message batch is drained, so
        // 150 messages take three batches and the timer kept firing while
        // the inbox emptied.
        assert!(busy.seen_at_firing.len() >= 3, "{:?}", busy.seen_at_firing);
        for pair in busy.seen_at_firing.windows(2) {
            assert!(pair[1] - pair[0] <= 64, "{:?}", busy.seen_at_firing);
        }
    }
}
