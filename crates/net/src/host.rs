//! The mechanisms every runtime needs exactly once: the delay [`Wheel`],
//! the send-time gate [`admit`], and — for the one wall-clock runtime
//! (`crate::wall`) — the worker [`Pool`] and the driving thread's
//! coordinator ([`supervise`]).
//!
//! On the wall-clock runtime the gate runs on the worker running the
//! sending actor: a turn counts each send, shows it to the tamper (one
//! shared lock, taken only when a tamper is installed), and parks it for
//! its link's [`Egress::delay`] on the pool's one wheel, beside the actors'
//! timer wake-ups. The worker that finds it due hands it to
//! [`Egress::carry`]: into a mailbox ([`Pool::deliver`]) or a TCP frame.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use cupft_graph::ProcessId;
use cupft_obs::Recorder;

use crate::actor::{Actor, Context, Labeled, TimerKind};
use crate::stats::NetStats;
use crate::tamper::{Fate, Tamper};
use crate::Time;

/// A queue of items ordered by `(due time, insertion order)`: the earliest
/// time pops first, and equal times pop in the order they were pushed.
///
/// One FIFO bucket per distinct time: the simulator's virtual tick
/// (thousands of its events share each tick and only ~10² ticks are
/// pending), or the wall-clock pool's elapsed millisecond. So a push
/// mostly appends to an existing bucket and a pop takes the front of the
/// first one, instead of sifting through a heap of every pending item.
pub(crate) struct Wheel<T> {
    buckets: BTreeMap<Time, VecDeque<T>>,
    len: usize,
}

impl<T> Wheel<T> {
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
    pub(crate) fn push(&mut self, at: Time, item: T) {
        self.buckets.entry(at).or_default().push_back(item);
        self.len += 1;
    }

    /// The time that pops next, if any.
    #[inline]
    pub(crate) fn next_key(&self) -> Option<Time> {
        self.buckets.first_key_value().map(|(&at, _)| at)
    }

    /// Pops the earliest entry if it is due at or before `now`; later
    /// entries stay queued.
    #[inline]
    pub(crate) fn pop_due(&mut self, now: Time) -> Option<(Time, T)> {
        let mut first = self.buckets.first_entry()?;
        let at = *first.key();
        if at > now {
            return None;
        }
        let item = first.get_mut().pop_front().expect("no empty bucket");
        if first.get().is_empty() {
            first.remove();
        }
        self.len -= 1;
        Some((at, item))
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

/// A worker's handle onto its link.
pub(crate) trait Egress<M> {
    /// How long an admitted message from `from` waits before
    /// [`Egress::carry`]: the link's own delay plus the `extra` ms of a
    /// tamper's [`Fate::Delay`]. A zero wait is carried at once.
    fn delay(&self, from: ProcessId, extra: Time) -> Duration;

    /// Carries a message whose wait is over. Hands it back when a full
    /// mailbox cannot take it yet; the pool retries it [`RETRY`] later.
    fn carry(&self, pool: &Pool<M>, from: ProcessId, to: ProcessId, msg: M) -> Option<M>;
}

/// The most messages one mailbox holds: a link that finds it full retries
/// later (the threaded link) or waits (a socket reader, which is TCP
/// back-pressure). Below the cap a mailbox allocates only for what it
/// holds.
const MAILBOX_CAP: usize = 4096;

/// How much later a message handed back by [`Egress::carry`] is retried.
const RETRY: Duration = Duration::from_millis(1);

/// The most messages one turn handles after the actor's due timers.
///
/// Fairness: an actor whose per-tick work exceeds its own timer period
/// would otherwise loop on due timers forever and never drain its mailbox
/// (a livelock the family sweeps hit with 10 ms discovery ticks and
/// debug-build candidate searches), and an actor with a long backlog would
/// hold its worker while every other actor's timers wait. A turn drains
/// one bounded batch and yields.
const BATCH: usize = 64;

/// How far apart the pool starts consecutive actors: actor `k` (in
/// registration order) starts `k` spacings into the run, or on its first
/// delivery if that comes sooner.
///
/// Actors that start in the same millisecond arm their periodic timers in
/// phase, so every period fires them all at once: the workers serialize
/// that burst, and every reply computed at the back of it answers a stale
/// request. On an 80-node dense Erdős–Rényi system over loopback TCP
/// (10 seeds, 2 cores), starting every actor at once sent 1.6× the
/// messages and 1.7× the certificates per decision that starts spread
/// over 8 ms send; spreading them over 3 ms kept most of the excess.
const START_SPACING: Duration = Duration::from_micros(100);

/// One actor's mailbox and scheduling state, shared with every thread
/// that delivers into it.
struct Mailbox<M> {
    queue: VecDeque<(ProcessId, M)>,
    /// Every message queued here, counted as it is queued.
    delivered: NetStats,
    /// On the ready list or running a turn; a delivery into an
    /// unscheduled mailbox puts its actor on the ready list.
    scheduled: bool,
    /// Halted, or the run is over: takes no more messages.
    closed: bool,
    /// When this actor is registered to wake on the pool's wheel; its
    /// wake-ups there for any other time are stale.
    wake: Option<Time>,
}

/// What only the worker running the actor's turn touches.
struct Body<M> {
    actor: Box<dyn Actor<M>>,
    timers: Wheel<TimerKind>,
    /// Every send it emitted (drops included) and every timer it fired.
    stats: NetStats,
    started: bool,
}

struct Cell<M> {
    mailbox: Mutex<Mailbox<M>>,
    /// Signalled when a full mailbox frees a slot or closes.
    space: Condvar,
    body: Mutex<Body<M>>,
}

/// What waits on the pool's wheel for its time.
enum Due<M> {
    /// The actor in this slot wakes for a timer (or for its start).
    Wake(usize),
    /// A message `(from, to, msg)` in flight, carried by the link.
    Carry(ProcessId, ProcessId, M),
}

/// The ready list and the one wheel of everything that waits for a time.
struct RunQueue<M> {
    ready: VecDeque<usize>,
    wheel: Wheel<Due<M>>,
}

/// What a finished turn leaves for the run queue.
enum After {
    Nothing,
    Requeue(usize),
    Wake(Time, usize),
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().expect("worker pool lock poisoned")
}

/// The wall-clock runtime's worker pool: every actor of a run, each with a
/// mailbox that grows as it fills (up to [`MAILBOX_CAP`]), run in turns by
/// a fixed set of workers ([`Pool::work`]), and every message in flight.
///
/// An actor is runnable when its mailbox is non-empty or one of its timers
/// is due, and it runs on one worker at a time. A turn starts the actor
/// (first turn only), fires its due timers, handles at most [`BATCH`]
/// messages, and yields. Each send is counted and shown to the tamper
/// ([`admit`]) on the worker running the sender, in program order, then
/// waits its [`Egress::delay`] on the pool's wheel; the worker that finds
/// it due hands it to [`Egress::carry`].
pub(crate) struct Pool<M> {
    slots: BTreeMap<ProcessId, usize>,
    cells: Vec<Cell<M>>,
    queue: Mutex<RunQueue<M>>,
    /// Signalled when the ready list gains an entry, the wheel an earlier
    /// one, or the run is over.
    work: Condvar,
    /// The installed tamper, consulted under this one lock.
    tamper: Option<Mutex<Box<dyn Tamper<M>>>>,
    /// Where `wheel_depth` and `mailbox_deferrals` go, if observed.
    recorder: Option<Arc<Recorder>>,
    /// Where a halt is reported to [`supervise`].
    halts: Sender<ProcessId>,
    /// Raised when the run is over; the link's threads watch it too.
    pub(crate) shutdown: Arc<AtomicBool>,
    /// Actor time is elapsed milliseconds since this instant.
    start: Instant,
}

impl<M: Labeled> Pool<M> {
    /// Actors start in registration order, [`START_SPACING`] apart.
    pub(crate) fn new(
        actors: Vec<Box<dyn Actor<M>>>,
        tamper: Option<Box<dyn Tamper<M>>>,
        recorder: Option<Arc<Recorder>>,
        halts: Sender<ProcessId>,
        start: Instant,
    ) -> Self {
        let slots = actors
            .iter()
            .enumerate()
            .map(|(slot, a)| (a.id(), slot))
            .collect();
        let (mut ready, mut wheel) = (VecDeque::new(), Wheel::new());
        let cells: Vec<Cell<M>> = actors
            .into_iter()
            .enumerate()
            .map(|(slot, actor)| {
                let at = (START_SPACING * slot as u32).as_millis() as Time;
                if at == 0 {
                    ready.push_back(slot);
                } else {
                    wheel.push(at, Due::Wake(slot));
                }
                Cell {
                    mailbox: Mutex::new(Mailbox {
                        queue: VecDeque::new(),
                        delivered: NetStats::default(),
                        scheduled: at == 0,
                        closed: false,
                        wake: (at > 0).then_some(at),
                    }),
                    space: Condvar::new(),
                    body: Mutex::new(Body {
                        actor,
                        timers: Wheel::new(),
                        stats: NetStats::default(),
                        started: false,
                    }),
                }
            })
            .collect();
        if let Some(rec) = &recorder {
            rec.counter_add("mailbox_deferrals", 0);
        }
        Pool {
            slots,
            queue: Mutex::new(RunQueue { ready, wheel }),
            cells,
            work: Condvar::new(),
            tamper: tamper.map(Mutex::new),
            recorder,
            halts,
            shutdown: Arc::default(),
            start,
        }
    }

    /// The local actors, in ID order.
    pub(crate) fn ids(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.slots.keys().copied()
    }

    /// How many workers the run gets: one per available core, and never
    /// more than there are actors.
    pub(crate) fn worker_count(&self) -> usize {
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(self.cells.len())
    }

    fn now(&self) -> Time {
        self.start.elapsed().as_millis() as Time
    }

    /// The wheel time at which `delay` from now has passed: rounded *up*
    /// to the millisecond, because an entry pops once the elapsed whole
    /// milliseconds reach its time.
    fn due_in(&self, delay: Duration) -> Time {
        (self.start.elapsed() + delay)
            .as_nanos()
            .div_ceil(1_000_000) as Time
    }

    /// Queues `msg` from `from` for actor `to` and counts it delivered. On
    /// a full mailbox ([`MAILBOX_CAP`]), hands the message back, or with
    /// `wait` blocks until a slot frees or the mailbox closes. A message
    /// for an actor that is not local, has halted, or whose run is over is
    /// discarded.
    pub(crate) fn deliver(&self, to: ProcessId, from: ProcessId, msg: M, wait: bool) -> Option<M> {
        let &slot = self.slots.get(&to)?;
        let cell = &self.cells[slot];
        let mut mailbox = lock(&cell.mailbox);
        while !mailbox.closed && mailbox.queue.len() >= MAILBOX_CAP {
            if !wait {
                return Some(msg);
            }
            mailbox = cell.space.wait(mailbox).expect("worker pool lock poisoned");
        }
        if mailbox.closed {
            return None;
        }
        mailbox.delivered.record_delivery(msg.payload_units());
        mailbox.queue.push_back((from, msg));
        let was_idle = !std::mem::replace(&mut mailbox.scheduled, true);
        drop(mailbox);
        if was_idle {
            lock(&self.queue).ready.push_back(slot);
            self.work.notify_one();
        }
        None
    }

    /// One worker: runs turns and carries due messages until the run is
    /// over.
    pub(crate) fn work<E: Egress<M>>(&self, egress: &E) {
        let mut after = After::Nothing;
        while let Some(slot) = self.next_turn(after, egress) {
            after = self.turn(slot, egress);
        }
    }

    /// Puts `due` on the wheel at `at`.
    fn park(&self, queue: &mut RunQueue<M>, at: Time, due: Due<M>) {
        if queue.wheel.next_key().is_none_or(|first| at < first) {
            // Another idle worker may be sleeping past `at`.
            self.work.notify_one();
        }
        queue.wheel.push(at, due);
    }

    /// Carries one message through the link; what it hands back is
    /// counted as a deferral and returned for the wheel, [`RETRY`] later.
    fn carry<E: Egress<M>>(
        &self,
        egress: &E,
        from: ProcessId,
        to: ProcessId,
        msg: M,
    ) -> Option<(Time, Due<M>)> {
        let msg = egress.carry(self, from, to, msg)?;
        if let Some(rec) = &self.recorder {
            rec.counter_add("mailbox_deferrals", 1);
        }
        Some((self.due_in(RETRY), Due::Carry(from, to, msg)))
    }

    /// Files what the last turn left, then waits for the next runnable
    /// actor: the ready list's front, after every due wake-up has joined
    /// it and every due message has been carried. `None` once the run is
    /// over.
    fn next_turn<E: Egress<M>>(&self, after: After, egress: &E) -> Option<usize> {
        let mut queue = lock(&self.queue);
        if let After::Wake(at, slot) = after {
            self.park(&mut queue, at, Due::Wake(slot));
        }
        let mut requeue = match after {
            After::Requeue(slot) => Some(slot),
            _ => None,
        };
        let mut carries = Vec::new();
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            while let Some((at, due)) = queue.wheel.pop_due(self.now()) {
                match due {
                    Due::Wake(slot) => {
                        let mut mailbox = lock(&self.cells[slot].mailbox);
                        if mailbox.wake == Some(at) {
                            mailbox.wake = None;
                            if !mailbox.closed && !std::mem::replace(&mut mailbox.scheduled, true) {
                                queue.ready.push_back(slot);
                            }
                        }
                    }
                    Due::Carry(from, to, msg) => carries.push((from, to, msg)),
                }
            }
            if !carries.is_empty() {
                if let Some(rec) = &self.recorder {
                    rec.hist_record("wheel_depth", queue.wheel.len() as u64);
                }
                // Carried outside the lock: a delivery takes it to put its
                // actor on the ready list.
                drop(queue);
                let retries: Vec<_> = carries
                    .drain(..)
                    .filter_map(|(from, to, msg)| self.carry(egress, from, to, msg))
                    .collect();
                queue = lock(&self.queue);
                for (at, due) in retries {
                    self.park(&mut queue, at, due);
                }
                continue;
            }
            // Behind the actors whose timers came due meanwhile.
            queue.ready.extend(requeue.take());
            if let Some(slot) = queue.ready.pop_front() {
                if !queue.ready.is_empty() {
                    self.work.notify_one();
                }
                return Some(slot);
            }
            queue = match queue.wheel.next_key() {
                Some(at) => {
                    let due = self.start + Duration::from_millis(at);
                    let wait = due.saturating_duration_since(Instant::now());
                    self.work
                        .wait_timeout(queue, wait)
                        .expect("worker pool lock poisoned")
                        .0
                }
                None => self.work.wait(queue).expect("worker pool lock poisoned"),
            };
        }
    }

    /// One turn of the actor in `slot`.
    fn turn<E: Egress<M>>(&self, slot: usize, egress: &E) -> After {
        let cell = &self.cells[slot];
        let mut body = lock(&cell.body);
        let body = &mut *body;
        let id = body.actor.id();
        let mut halted = false;
        if !body.started {
            body.started = true;
            let mut ctx = Context::new(self.now(), id);
            body.actor.on_start(&mut ctx);
            halted = self.apply(body, ctx, self.now(), egress);
        }
        let now = self.now();
        while !halted {
            let Some((_, kind)) = body.timers.pop_due(now) else {
                break;
            };
            let mut ctx = Context::new(now, id);
            body.actor.on_timer(kind, &mut ctx);
            body.stats.timers_fired += 1;
            halted = self.apply(body, ctx, now, egress);
        }
        for _ in 0..BATCH {
            if halted {
                break;
            }
            let Some((from, msg)) = self.pop(cell) else {
                break;
            };
            let mut ctx = Context::new(self.now(), id);
            body.actor.on_message(from, msg, &mut ctx);
            halted = self.apply(body, ctx, self.now(), egress);
        }
        let next = body.timers.next_key();

        let mut mailbox = lock(&cell.mailbox);
        if halted {
            mailbox.closed = true;
            mailbox.queue = VecDeque::new();
            drop(mailbox);
            cell.space.notify_all();
            let _ = self.halts.send(id);
            return After::Nothing;
        }
        if !mailbox.queue.is_empty() || next.is_some_and(|at| at <= self.now()) {
            return After::Requeue(slot);
        }
        mailbox.scheduled = false;
        match next {
            Some(at) if mailbox.wake.is_none_or(|wake| at < wake) => {
                mailbox.wake = Some(at);
                After::Wake(at, slot)
            }
            _ => After::Nothing,
        }
    }

    fn pop(&self, cell: &Cell<M>) -> Option<(ProcessId, M)> {
        let mut mailbox = lock(&cell.mailbox);
        if mailbox.queue.len() >= MAILBOX_CAP {
            cell.space.notify_all();
        }
        mailbox.queue.pop_front()
    }

    /// Applies a handler's effects: each send through [`admit`], in
    /// program order, then carried at once if its [`Egress::delay`] is
    /// zero and parked on the wheel otherwise (all of a handler's parked
    /// sends under one lock); each timer onto the actor's own wheel.
    /// Returns whether the handler halted the actor.
    fn apply<E: Egress<M>>(
        &self,
        body: &mut Body<M>,
        ctx: Context<M>,
        now: Time,
        egress: &E,
    ) -> bool {
        let id = ctx.self_id();
        let (sends, new_timers, halted) = ctx.into_effects();
        let mut parked = Vec::new();
        for (to, msg) in sends {
            let mut tamper = self.tamper.as_ref().map(lock);
            let (label, payload) = (msg.label(), msg.payload_units());
            let admitted = admit(
                &mut body.stats,
                tamper.as_deref_mut(),
                id,
                to,
                label,
                payload,
                || self.now(),
            );
            drop(tamper);
            if let Some(extra) = admitted {
                match egress.delay(id, extra) {
                    Duration::ZERO => parked.extend(self.carry(egress, id, to, msg)),
                    delay => parked.push((self.due_in(delay), Due::Carry(id, to, msg))),
                }
            }
        }
        if !parked.is_empty() {
            let mut queue = lock(&self.queue);
            for (at, due) in parked {
                self.park(&mut queue, at, due);
            }
        }
        for (kind, delay) in new_timers {
            body.timers.push(now + delay, kind);
        }
        halted
    }

    /// Ends the run: idle workers return, running ones after their turn,
    /// and every mailbox closes, so a link thread waiting on a full one
    /// moves on. Whatever is still on the wheel is discarded.
    pub(crate) fn shut_down(&self) {
        {
            let _queue = lock(&self.queue);
            self.shutdown.store(true, Ordering::SeqCst);
        }
        self.work.notify_all();
        for cell in &self.cells {
            lock(&cell.mailbox).closed = true;
            cell.space.notify_all();
        }
    }

    /// Every actor in its final state with its own counters (its sends,
    /// drops and timers, and the deliveries into its mailbox), in
    /// registration order.
    pub(crate) fn into_actors(self) -> impl Iterator<Item = (Box<dyn Actor<M>>, NetStats)> {
        self.cells.into_iter().map(|cell| {
            let mut body = cell.body.into_inner().expect("worker pool lock poisoned");
            let mailbox = cell
                .mailbox
                .into_inner()
                .expect("worker pool lock poisoned");
            body.stats.merge(&mailbox.delivered);
            (body.actor, body.stats)
        })
    }
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
    use crossbeam::channel::unbounded;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn wheel_pops_equal_keys_in_push_order() {
        let mut wheel: Wheel<&str> = Wheel::new();
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
        let mut wheel: Wheel<()> = Wheel::new();
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
        let mut wheel: Wheel<u64> = Wheel::new();
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
        fn delay(&self, _: ProcessId, _: Time) -> Duration {
            Duration::ZERO
        }
        fn carry(&self, _: &Pool<u32>, _: ProcessId, _: ProcessId, _: u32) -> Option<u32> {
            None
        }
    }

    /// Re-arms its timer at delay 1 and works longer than that in the
    /// handler, so a timer is due at every turn. Halts on the `last`-th
    /// message.
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
        let (halt_tx, halt_rx) = unbounded();
        let (fired_tx, fired_rx) = unbounded();
        let actor = Box::new(Busy {
            last: MESSAGES,
            received: 0,
            seen_at_firing: Vec::new(),
            first_firing: fired_tx,
        });
        let pool = Pool::new(vec![actor], None, None, halt_tx, Instant::now());
        let halted = std::thread::scope(|scope| {
            scope.spawn(|| pool.work(&Discard));
            // Only once the actor is inside its first (over-long) timer
            // handler do the messages arrive: from here on a timer is due
            // at every turn.
            fired_rx.recv().expect("timer fired");
            for n in 0..MESSAGES {
                let refused = pool.deliver(ProcessId::new(1), ProcessId::new(2), n, false);
                assert_eq!(refused, None);
            }
            let halted = halt_rx.recv_timeout(Duration::from_secs(20));
            pool.shut_down();
            halted
        });
        assert_eq!(halted, Ok(ProcessId::new(1)), "halted on the last message");
        let (actor, stats) = pool.into_actors().next().expect("one actor");
        let busy: &Busy = actor.as_any().downcast_ref().expect("a Busy");
        assert_eq!(busy.received, MESSAGES);
        assert_eq!(stats.timers_fired, busy.seen_at_firing.len() as u64);
        // Between two firings at most one 64-message batch is handled, so
        // 150 messages take three batches and the timer kept firing while
        // the mailbox emptied.
        assert!(busy.seen_at_firing.len() >= 3, "{:?}", busy.seen_at_firing);
        for pair in busy.seen_at_firing.windows(2) {
            assert!(pair[1] - pair[0] <= 64, "{:?}", busy.seen_at_firing);
        }
    }

    #[test]
    fn a_full_mailbox_refuses_or_waits_and_a_closed_one_discards() {
        let (halt_tx, _halt_rx) = unbounded();
        let actor = Box::new(Busy {
            last: u32::MAX,
            received: 0,
            seen_at_firing: Vec::new(),
            first_firing: unbounded().0,
        });
        let pool = Pool::new(vec![actor], None, None, halt_tx, Instant::now());
        let (to, from) = (ProcessId::new(1), ProcessId::new(2));
        for n in 0..MAILBOX_CAP as u32 {
            assert_eq!(pool.deliver(to, from, n, false), None);
        }
        assert_eq!(pool.deliver(to, from, 7, false), Some(7), "full");
        assert_eq!(pool.deliver(ProcessId::new(9), from, 7, false), None);
        std::thread::scope(|scope| {
            // A waiting delivery returns once the run is over.
            let waiting = scope.spawn(|| pool.deliver(to, from, 8, true));
            std::thread::sleep(Duration::from_millis(20));
            pool.shut_down();
            assert_eq!(waiting.join().expect("no panic"), None);
        });
        assert_eq!(pool.deliver(to, from, 9, false), None);
        // Only the queued messages count as delivered: not the refused
        // one, not the one for an unknown actor, not the discarded ones.
        let (_, stats) = pool.into_actors().next().expect("one actor");
        assert_eq!(stats.messages_delivered, MAILBOX_CAP as u64);
    }
}
