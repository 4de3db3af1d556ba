//! The mechanisms every runtime needs exactly once: the delay [`Wheel`],
//! the send-time gate [`admit`], and — for the one wall-clock runtime
//! (`crate::wall`) — the actor thread's loop ([`actor_loop`] over an
//! [`Egress`]) and the driving thread's coordinator ([`supervise`]).
//!
//! The [`Wheel`] keeps one FIFO bucket per distinct key, because the
//! simulator queues thousands of events on each virtual tick; the
//! wall-clock keys (`Instant`s) are nearly unique and pay one small bucket
//! per item instead.
//!
//! On the wall-clock runtime the gate runs on the sending actor's own
//! thread: [`actor_loop`] counts each send, shows it to the tamper (one
//! shared lock, taken only when a tamper is installed) and hands only the
//! admitted messages to its link's [`Egress`]. How a message then travels
//! (router shards, TCP frames) is the link's business.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use cupft_graph::ProcessId;

use crate::actor::{Actor, Context, Labeled, TimerKind};
use crate::stats::NetStats;
use crate::tamper::{Fate, Tamper};
use crate::Time;

/// A queue of items ordered by `(key, insertion order)`: the earliest key
/// pops first, and equal keys pop in the order they were pushed.
///
/// One FIFO bucket per distinct key. The simulator is the heavy user:
/// thousands of its events share each virtual tick and only ~10² ticks are
/// pending, so a push appends to an existing bucket and a pop takes the
/// front of the first one, instead of sifting through a heap of every
/// pending event. The wall-clock users (router shards, the socket delay
/// thread) key by `Instant`, which is nearly unique, so there most buckets
/// hold one item.
pub(crate) struct Wheel<K, T> {
    buckets: BTreeMap<K, VecDeque<T>>,
    len: usize,
}

impl<K: Ord + Copy, T> Wheel<K, T> {
    pub(crate) fn new() -> Self {
        Wheel {
            buckets: BTreeMap::new(),
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub(crate) fn push(&mut self, key: K, item: T) {
        self.buckets.entry(key).or_default().push_back(item);
        self.len += 1;
    }

    /// The key that pops next, if any.
    #[inline]
    pub(crate) fn next_key(&self) -> Option<K> {
        self.buckets.first_key_value().map(|(&key, _)| key)
    }

    /// Pops the earliest entry if its key is at or before `now`; later
    /// entries stay queued.
    #[inline]
    pub(crate) fn pop_due(&mut self, now: K) -> Option<(K, T)> {
        let mut first = self.buckets.first_entry()?;
        let key = *first.key();
        if key > now {
            return None;
        }
        let item = first.get_mut().pop_front().expect("no empty bucket");
        if first.get().is_empty() {
            first.remove();
        }
        self.len -= 1;
        Some((key, item))
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

type Timers = Wheel<Time, TimerKind>;

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
            let mut tamper = shared
                .tamper
                .as_ref()
                .map(|t| t.lock().expect("tamper lock poisoned"));
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
            timers.push(now + delay, kind);
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
        while let Some((_, kind)) = timers.pop_due(now) {
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
            .next_key()
            .map(|at| Duration::from_millis(at.saturating_sub(now)))
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// Drives a seeded random interleaving of `push` and `pop_due` against
    /// a sorted `(key, push seq)` model, checking `len` and `next_key`
    /// after every step. `key_of(rng, seq)` draws each pushed key (≥ 1, so
    /// "just below the earliest key" always exists).
    fn wheel_matches_sorted_model(seed: u64, key_of: fn(&mut StdRng, u64) -> u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut wheel: Wheel<u64, u64> = Wheel::new();
        let mut model: BTreeSet<(u64, u64)> = BTreeSet::new();
        let (mut pops, mut misses) = (0, 0);
        for seq in 0..4_000 {
            if rng.random_range(0..10u8) < 6 {
                let key = key_of(&mut rng, seq);
                wheel.push(key, seq);
                model.insert((key, seq));
            } else {
                let earliest = model.first().map_or(1, |&(key, _)| key);
                let now = match rng.random_range(0..3u8) {
                    0 => earliest,
                    1 => earliest - 1,
                    _ => earliest + rng.random_range(0..4),
                };
                let due = model.first().copied().filter(|&(key, _)| key <= now);
                if let Some(entry) = due {
                    model.remove(&entry);
                    pops += 1;
                } else {
                    misses += 1;
                }
                assert_eq!(wheel.pop_due(now), due, "step {seq}, now {now}");
            }
            assert_eq!(wheel.len(), model.len(), "step {seq}");
            assert_eq!(wheel.next_key(), model.first().map(|&(key, _)| key));
        }
        assert!(pops > 300 && misses > 300, "{pops} pops, {misses} misses");
        let rest: Vec<_> = std::iter::from_fn(|| wheel.pop_due(u64::MAX)).collect();
        assert!(
            rest.into_iter().eq(model),
            "drains in (key, push seq) order"
        );
    }

    #[test]
    fn wheel_matches_model_on_duplicate_heavy_keys() {
        for seed in 0..4 {
            wheel_matches_sorted_model(seed, |rng, _| rng.random_range(1..=16));
        }
    }

    #[test]
    fn wheel_matches_model_on_distinct_keys() {
        for seed in 0..4 {
            // The push seq in the low bits makes every key unique.
            wheel_matches_sorted_model(seed, |rng, seq| {
                (rng.random_range(1..=1 << 20) << 12) | seq
            });
        }
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
