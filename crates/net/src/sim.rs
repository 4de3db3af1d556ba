//! Deterministic discrete-event simulator.
//!
//! A delivery event calls the receiver's `on_message` directly: nothing
//! runs between the event queue and the handler, so the handler does all
//! per-message work (certificate verification included) and the trace
//! records only what the actors did.

use std::collections::BTreeMap;
use std::sync::Arc;

use cupft_graph::ProcessId;
use cupft_obs::{ObsReport, Recorder};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::actor::{Actor, Context, Labeled, TimerKind};
use crate::delay::DelayPolicy;
use crate::host::{admit, Wheel};
use crate::runtime::{Runtime, RuntimeReport};
use crate::stats::NetStats;
use crate::tamper::Tamper;
use crate::Time;

/// Configuration for a simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// RNG seed; identical seeds replay identical executions.
    pub seed: u64,
    /// Hard stop: no event later than this is processed.
    pub max_time: Time,
    /// The delay policy (the scheduling adversary).
    pub policy: DelayPolicy,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            max_time: 100_000,
            policy: DelayPolicy::default(),
        }
    }
}

/// One send or delivery record in a simulation trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Send time or delivery time, by `kind`.
    pub time: Time,
    /// Sender.
    pub from: ProcessId,
    /// Addressee.
    pub to: ProcessId,
    /// Message label (from [`Labeled`]).
    pub label: &'static str,
    /// Whether the entry records a send or a delivery.
    pub kind: TraceKind,
}

/// What a [`TraceEntry`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// An actor handed the message to the network.
    Sent {
        /// Whether the tamper dropped it.
        dropped: bool,
    },
    /// The message reached its (live, registered) addressee.
    Delivered,
}

enum EventKind<M> {
    Deliver { from: ProcessId, msg: M },
    Timer { kind: TimerKind },
    Start,
}

/// The discrete-event simulator.
///
/// Events are processed in `(time, sequence)` order, making executions a
/// pure function of the configuration, the actor set, and the seed. The
/// determinism is load-bearing: the Theorem 7 reproduction compares whole
/// executions across systems A, B, and AB.
pub struct Simulation<M> {
    /// Actors and their halt flags, one slot each in registration order;
    /// `live` counts the unhalted.
    actors: Vec<Box<dyn Actor<M>>>,
    halted: Vec<bool>,
    live: usize,
    /// Each id's slot, read once per send; its key order is the id order
    /// `actor_ids` reports.
    slot_of: BTreeMap<ProcessId, usize>,
    /// Pending events `(target slot, kind)`, keyed by their time. A send to
    /// an unregistered id carries slot `usize::MAX`: counted, then dropped.
    queue: Wheel<(usize, EventKind<M>)>,
    now: Time,
    events_processed: u64,
    rng: StdRng,
    config: SimConfig,
    stats: NetStats,
    trace: Option<Vec<TraceEntry>>,
    tamper: Option<Box<dyn Tamper<M>>>,
    recorder: Option<Arc<Recorder>>,
    /// The virtual tick currently being profiled and how many events it
    /// has processed so far (only maintained while a recorder is set).
    tick_now: Time,
    tick_events: u64,
}

impl<M: Clone + Labeled + 'static> Simulation<M> {
    /// Creates a simulation with no actors.
    pub fn new(config: SimConfig) -> Self {
        Simulation {
            actors: Vec::new(),
            halted: Vec::new(),
            live: 0,
            slot_of: BTreeMap::new(),
            queue: Wheel::new(),
            now: 0,
            events_processed: 0,
            rng: StdRng::seed_from_u64(config.seed),
            config,
            stats: NetStats::default(),
            trace: None,
            tamper: None,
            recorder: None,
            tick_now: 0,
            tick_events: 0,
        }
    }

    /// Installs a message-interception layer (see [`crate::tamper`]).
    /// With no tamper installed the simulation behaves exactly as before —
    /// the RNG stream and event order are untouched.
    pub fn set_tamper(&mut self, tamper: Box<dyn Tamper<M>>) {
        self.tamper = Some(tamper);
    }

    /// Installs an observability recorder and stamps its report with the
    /// **virtual** clock domain: every timestamp recorded from here on is
    /// a simulated tick, so observed reports are byte-identical across
    /// same-seed runs. The simulator feeds the recorder its event-loop
    /// profile (events per tick, queue depth, tick advance); observation
    /// never touches the RNG stream, the event order, or the stats.
    pub fn set_recorder(&mut self, recorder: Arc<Recorder>) {
        recorder.set_virtual();
        self.recorder = Some(recorder);
    }

    /// Enables execution tracing: every send (at send time, after the
    /// tamper has ruled on it) and every delivery is recorded as a
    /// [`TraceEntry`], in execution order. Costs memory proportional to
    /// message volume; off by default.
    pub fn enable_trace(&mut self) {
        self.trace.get_or_insert_with(Vec::new);
    }

    /// The recorded trace (empty unless [`Self::enable_trace`] was called).
    pub fn trace(&self) -> &[TraceEntry] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Registers an actor and schedules its `on_start` at time 0.
    ///
    /// # Panics
    ///
    /// Panics if an actor with the same ID is already registered.
    pub fn add_actor(&mut self, actor: Box<dyn Actor<M>>) {
        let id = actor.id();
        let slot = self.actors.len();
        assert!(
            self.slot_of.insert(id, slot).is_none(),
            "duplicate actor {id}"
        );
        self.actors.push(actor);
        self.halted.push(false);
        self.live += 1;
        self.queue.push(0, (slot, EventKind::Start));
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Immutable access to an actor (for assertions between steps).
    pub fn actor(&self, id: ProcessId) -> Option<&dyn Actor<M>> {
        self.slot_of.get(&id).map(|&s| self.actors[s].as_ref())
    }

    /// Downcast access to an actor's concrete type.
    pub fn actor_as<T: 'static>(&self, id: ProcessId) -> Option<&T> {
        self.actor(id)?.as_any().downcast_ref()
    }

    /// Whether the given actor has halted.
    pub fn is_halted(&self, id: ProcessId) -> bool {
        self.slot_of.get(&id).is_some_and(|&slot| self.halted[slot])
    }

    /// Processes the next event. Returns `false` when the queue is empty,
    /// the time horizon is exceeded, or every actor has halted.
    pub fn step(&mut self) -> bool {
        if self.live == 0 {
            return false;
        }
        // Events past the horizon stay queued, so a later horizon
        // extension could resume.
        let Some((time, (slot, kind))) = self.queue.pop_due(self.config.max_time) else {
            return false;
        };
        self.now = self.now.max(time);
        self.events_processed += 1;
        if let Some(rec) = &self.recorder {
            if self.now != self.tick_now {
                // A new distinct virtual instant: flush the profile of
                // the tick just drained. All three series are virtual
                // quantities, so the profile is deterministic.
                rec.hist_record("sim_events_per_tick", self.tick_events);
                rec.hist_record("sim_tick_advance", self.now - self.tick_now);
                rec.counter_add("sim_ticks", 1);
                self.tick_now = self.now;
                self.tick_events = 0;
            }
            self.tick_events += 1;
            rec.hist_record("sim_queue_depth", self.queue.len() as u64);
        }

        if self.halted.get(slot).copied().unwrap_or(true) {
            return true; // drop events for halted/unregistered actors
        }
        let actor = &mut self.actors[slot];
        let target = actor.id();
        let mut ctx = Context::new(self.now, target);
        match kind {
            EventKind::Start => actor.on_start(&mut ctx),
            EventKind::Deliver { from, msg } => {
                self.stats.record_delivery(msg.payload_units());
                if let Some(trace) = &mut self.trace {
                    trace.push(TraceEntry {
                        time: self.now,
                        from,
                        to: target,
                        label: msg.label(),
                        kind: TraceKind::Delivered,
                    });
                }
                actor.on_message(from, msg, &mut ctx);
            }
            EventKind::Timer { kind } => {
                self.stats.timers_fired += 1;
                actor.on_timer(kind, &mut ctx);
            }
        }
        self.apply_effects(slot, target, ctx);
        true
    }

    fn apply_effects(&mut self, slot: usize, source: ProcessId, ctx: Context<M>) {
        let (sends, timers, halted) = ctx.into_effects();
        for (to, msg) in sends {
            // The policy delay is drawn before the gate is consulted, also
            // for messages the tamper drops: installing a tamper must not
            // shift the RNG stream of the messages that survive it.
            let delay = self
                .config
                .policy
                .delay(source, to, self.now, &mut self.rng);
            let admitted = admit(
                &mut self.stats,
                self.tamper.as_mut(),
                source,
                to,
                msg.label(),
                msg.payload_units(),
                || self.now,
            );
            if let Some(trace) = &mut self.trace {
                trace.push(TraceEntry {
                    time: self.now,
                    from: source,
                    to,
                    label: msg.label(),
                    kind: TraceKind::Sent {
                        dropped: admitted.is_none(),
                    },
                });
            }
            let Some(extra) = admitted else {
                continue;
            };
            let target = self.slot_of.get(&to).copied().unwrap_or(usize::MAX);
            let event = EventKind::Deliver { from: source, msg };
            self.queue.push(self.now + delay + extra, (target, event));
        }
        for (kind, delay) in timers {
            self.queue
                .push(self.now + delay, (slot, EventKind::Timer { kind }));
        }
        if halted && !self.halted[slot] {
            self.halted[slot] = true;
            self.live -= 1;
        }
    }

    /// Flushes the in-progress tick profile and snapshots the recorder,
    /// if one is installed. Called when a report is built; resets the
    /// partial-tick accumulator so a resumed (phased) run never
    /// double-counts the boundary tick.
    fn obs_snapshot(&mut self) -> Option<ObsReport> {
        let rec = self.recorder.as_ref()?;
        if self.tick_events > 0 {
            rec.hist_record("sim_events_per_tick", self.tick_events);
            rec.counter_add("sim_ticks", 1);
            self.tick_events = 0;
            self.tick_now = self.now;
        }
        Some(rec.snapshot())
    }

    /// The report of the run so far; `stopped` records whether a caller's
    /// stop condition ended it.
    fn report(&mut self, stopped: bool) -> RuntimeReport {
        let obs = self.obs_snapshot();
        RuntimeReport {
            all_halted: self.live == 0,
            stopped,
            end_time: self.now,
            events: self.events_processed,
            stats: self.stats.clone(),
            obs,
        }
    }

    /// Runs until no progress is possible (all halted, horizon reached, or
    /// no events left). No stop condition is involved, so the report's
    /// `stopped` is `false`.
    pub fn run(&mut self) -> RuntimeReport {
        while self.step() {}
        self.report(false)
    }

    /// Runs until `predicate` returns true (checked after each event) or no
    /// progress is possible. Returns whether the predicate fired.
    pub fn run_until<F>(&mut self, mut predicate: F) -> bool
    where
        F: FnMut(&Simulation<M>) -> bool,
    {
        loop {
            if predicate(self) {
                return true;
            }
            if !self.step() {
                return false;
            }
        }
    }

    /// Consumes the simulation, returning the actors for inspection.
    pub fn into_actors(self) -> BTreeMap<ProcessId, Box<dyn Actor<M>>> {
        BTreeMap::from_iter(self.actors.into_iter().map(|a| (a.id(), a)))
    }
}

impl<M: Clone + Labeled + 'static> Runtime<M> for Simulation<M> {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn add_actor(&mut self, actor: Box<dyn Actor<M>>) {
        Simulation::add_actor(self, actor);
    }

    fn set_tamper(&mut self, tamper: Box<dyn Tamper<M>>) {
        Simulation::set_tamper(self, tamper);
    }

    fn set_recorder(&mut self, recorder: Arc<Recorder>) {
        Simulation::set_recorder(self, recorder);
    }

    fn run_until_stopped(&mut self, stop: &mut dyn FnMut() -> bool) -> RuntimeReport {
        let stopped = self.run_until(|_| stop());
        self.report(stopped)
    }

    fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn actor_ids(&self) -> Vec<ProcessId> {
        self.slot_of.keys().copied().collect()
    }

    fn actor_dyn(&self, id: ProcessId) -> Option<&dyn Actor<M>> {
        self.actor(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    impl Labeled for Msg {
        fn label(&self) -> &'static str {
            match self {
                Msg::Ping(_) => "PING",
                Msg::Pong(_) => "PONG",
            }
        }
    }

    struct PingPong {
        id: ProcessId,
        peer: ProcessId,
        initiator: bool,
        rounds_left: u32,
        finished_at: Option<Time>,
    }

    impl Actor<Msg> for PingPong {
        fn id(&self) -> ProcessId {
            self.id
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn on_start(&mut self, ctx: &mut Context<Msg>) {
            if self.initiator {
                ctx.send(self.peer, Msg::Ping(self.rounds_left));
            }
        }
        fn on_message(&mut self, from: ProcessId, msg: Msg, ctx: &mut Context<Msg>) {
            match msg {
                Msg::Ping(n) => {
                    ctx.send(from, Msg::Pong(n));
                    if n == 0 {
                        ctx.halt();
                    }
                }
                Msg::Pong(n) => {
                    if n == 0 {
                        self.finished_at = Some(ctx.now());
                        ctx.halt();
                    } else {
                        ctx.send(from, Msg::Ping(n - 1));
                    }
                }
            }
        }
    }

    fn pingpong_sim(seed: u64) -> Simulation<Msg> {
        let mut sim = Simulation::new(SimConfig {
            seed,
            max_time: 1_000_000,
            policy: DelayPolicy::PartialSynchrony {
                gst: 100,
                delta: 10,
                pre_gst_max: 70,
            },
        });
        sim.add_actor(Box::new(PingPong {
            id: ProcessId::new(1),
            peer: ProcessId::new(2),
            initiator: true,
            rounds_left: 5,
            finished_at: None,
        }));
        sim.add_actor(Box::new(PingPong {
            id: ProcessId::new(2),
            peer: ProcessId::new(1),
            initiator: false,
            rounds_left: 0,
            finished_at: None,
        }));
        sim
    }

    #[test]
    fn pingpong_completes() {
        let mut sim = pingpong_sim(7);
        let report = sim.run();
        assert!(report.all_halted);
        assert_eq!(report.stats.label_count("PING"), 6);
        assert_eq!(report.stats.label_count("PONG"), 6);
        assert_eq!(report.stats.messages_sent, 12);
        assert_eq!(report.stats.messages_delivered, 12);
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let r1 = pingpong_sim(99).run();
        let r2 = pingpong_sim(99).run();
        assert_eq!(r1, r2);
    }

    #[test]
    fn different_seeds_change_timing() {
        let r1 = pingpong_sim(1).run();
        let r2 = pingpong_sim(2).run();
        // same message counts, (almost surely) different end time
        assert_eq!(r1.stats.messages_sent, r2.stats.messages_sent);
        assert_ne!(r1.end_time, r2.end_time);
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerActor {
            id: ProcessId,
            fired: Vec<TimerKind>,
        }
        #[derive(Clone)]
        struct NoMsg;
        impl Labeled for NoMsg {
            fn label(&self) -> &'static str {
                "NONE"
            }
        }
        impl Actor<NoMsg> for TimerActor {
            fn id(&self) -> ProcessId {
                self.id
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn on_start(&mut self, ctx: &mut Context<NoMsg>) {
                ctx.set_timer(3, 30);
                ctx.set_timer(1, 10);
                ctx.set_timer(2, 20);
            }
            fn on_message(&mut self, _: ProcessId, _: NoMsg, _: &mut Context<NoMsg>) {}
            fn on_timer(&mut self, kind: TimerKind, ctx: &mut Context<NoMsg>) {
                self.fired.push(kind);
                if self.fired.len() == 3 {
                    ctx.halt();
                }
            }
        }
        let mut sim: Simulation<NoMsg> = Simulation::new(SimConfig::default());
        sim.add_actor(Box::new(TimerActor {
            id: ProcessId::new(1),
            fired: vec![],
        }));
        let report = sim.run();
        assert!(report.all_halted);
        assert_eq!(report.end_time, 30);
    }

    #[test]
    fn horizon_stops_run() {
        let mut sim = Simulation::new(SimConfig {
            seed: 0,
            max_time: 5,
            policy: DelayPolicy::Synchronous { delta: 100 },
        });
        sim.add_actor(Box::new(PingPong {
            id: ProcessId::new(1),
            peer: ProcessId::new(2),
            initiator: true,
            rounds_left: 1,
            finished_at: None,
        }));
        sim.add_actor(Box::new(PingPong {
            id: ProcessId::new(2),
            peer: ProcessId::new(1),
            initiator: false,
            rounds_left: 0,
            finished_at: None,
        }));
        let report = sim.run();
        assert!(!report.all_halted);
        assert!(report.end_time <= 5);
    }

    #[test]
    fn run_until_predicate() {
        let mut sim = pingpong_sim(3);
        let fired = sim.run_until(|s| s.stats().messages_delivered >= 3);
        assert!(fired);
        assert!(sim.stats().messages_delivered >= 3);
    }

    #[test]
    #[should_panic(expected = "duplicate actor")]
    fn duplicate_actor_panics() {
        let mut sim = pingpong_sim(0);
        sim.add_actor(Box::new(PingPong {
            id: ProcessId::new(1),
            peer: ProcessId::new(2),
            initiator: false,
            rounds_left: 0,
            finished_at: None,
        }));
    }

    #[test]
    fn halted_actor_receives_nothing() {
        // actor 2 halts after first ping; further pings are dropped
        struct Spammer {
            id: ProcessId,
            peer: ProcessId,
            sent: u32,
        }
        impl Actor<Msg> for Spammer {
            fn id(&self) -> ProcessId {
                self.id
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn on_start(&mut self, ctx: &mut Context<Msg>) {
                for i in 0..5 {
                    ctx.send(self.peer, Msg::Ping(i));
                    self.sent += 1;
                }
                ctx.halt();
            }
            fn on_message(&mut self, _: ProcessId, _: Msg, _: &mut Context<Msg>) {}
        }
        struct OneShot {
            id: ProcessId,
            received: u32,
        }
        impl Actor<Msg> for OneShot {
            fn id(&self) -> ProcessId {
                self.id
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn on_message(&mut self, _: ProcessId, _: Msg, ctx: &mut Context<Msg>) {
                self.received += 1;
                ctx.halt();
            }
        }
        let mut sim: Simulation<Msg> = Simulation::new(SimConfig::default());
        sim.add_actor(Box::new(Spammer {
            id: ProcessId::new(1),
            peer: ProcessId::new(2),
            sent: 0,
        }));
        sim.add_actor(Box::new(OneShot {
            id: ProcessId::new(2),
            received: 0,
        }));
        let report = sim.run();
        assert!(report.all_halted);
        // only one delivery reached the actor
        assert_eq!(report.stats.messages_delivered, 1);
    }

    #[test]
    fn trace_records_deliveries() {
        let mut sim = pingpong_sim(4);
        sim.enable_trace();
        let report = sim.run();
        let delivered = sim
            .trace()
            .iter()
            .filter(|e| e.kind == TraceKind::Delivered)
            .count();
        assert_eq!(delivered, 12);
        // every send is traced too
        assert_eq!(
            sim.trace().len() as u64,
            report.stats.messages_delivered + report.stats.messages_sent
        );
        assert!(sim.trace().iter().any(|e| e.label == "PING"));
        assert!(sim.trace().iter().any(|e| e.label == "PONG"));
        // trace times are monotone
        for w in sim.trace().windows(2) {
            assert!(w[0].time <= w[1].time);
        }
    }

    #[test]
    fn trace_disabled_by_default() {
        let mut sim = pingpong_sim(4);
        sim.run();
        assert!(sim.trace().is_empty());
    }

    /// Halts on a timer `halt_after` ticks in, and keeps a later timer
    /// pending so the queue is never empty when it halts. On start it
    /// sends one `Ping` to each of `targets`.
    struct Sleeper {
        id: ProcessId,
        halt_after: Time,
        targets: Vec<ProcessId>,
    }
    impl Actor<Msg> for Sleeper {
        fn id(&self) -> ProcessId {
            self.id
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn on_start(&mut self, ctx: &mut Context<Msg>) {
            for &to in &self.targets {
                ctx.send(to, Msg::Ping(0));
            }
            ctx.set_timer(0, self.halt_after);
            ctx.set_timer(1, 1_000_000);
        }
        fn on_message(&mut self, _: ProcessId, _: Msg, _: &mut Context<Msg>) {}
        fn on_timer(&mut self, kind: TimerKind, ctx: &mut Context<Msg>) {
            if kind == 0 {
                ctx.halt();
            }
        }
    }

    fn sleepers(specs: &[(u64, Time)]) -> Simulation<Msg> {
        let mut sim = Simulation::new(SimConfig::default());
        for &(id, halt_after) in specs {
            sim.add_actor(Box::new(Sleeper {
                id: ProcessId::new(id),
                halt_after,
                targets: vec![],
            }));
        }
        sim
    }

    #[test]
    fn actors_registered_out_of_id_order_come_back_in_id_order() {
        let mut sim = sleepers(&[(7, 30), (2, 10), (5, 20)]);
        let ids: Vec<_> = [2, 5, 7].map(ProcessId::new).into();
        assert_eq!(Runtime::actor_ids(&sim), ids);
        for &id in &ids {
            assert_eq!(sim.actor_as::<Sleeper>(id).map(|s| s.id), Some(id));
            assert_eq!(sim.actor(id).map(|a| a.id()), Some(id));
        }
        assert!(sim.actor(ProcessId::new(3)).is_none());
        assert!(sim.run().all_halted);
        let actors = sim.into_actors();
        assert_eq!(actors.keys().copied().collect::<Vec<_>>(), ids);
        assert!(actors.iter().all(|(&id, actor)| actor.id() == id));
    }

    #[test]
    fn send_to_unregistered_id_is_counted_never_delivered() {
        let mut sim = Simulation::new(SimConfig::default());
        sim.add_actor(Box::new(Sleeper {
            id: ProcessId::new(1),
            halt_after: 500,
            targets: vec![ProcessId::new(99), ProcessId::new(1)],
        }));
        let report = sim.run();
        assert!(report.all_halted);
        assert_eq!(report.stats.messages_sent, 2);
        assert_eq!(report.stats.messages_delivered, 1, "only the self-send");
        // start, the two deliveries (one dropped when popped), the halt timer
        assert_eq!(report.events, 4);
        assert!(!sim.is_halted(ProcessId::new(99)));
    }

    #[test]
    fn all_halted_flips_exactly_when_the_last_actor_halts() {
        let mut sim = sleepers(&[(3, 30), (1, 10), (2, 20)]);
        let order = [1, 2, 3].map(ProcessId::new);
        for (i, &id) in order.iter().enumerate() {
            assert!(!sim.is_halted(id));
            assert!(sim.run_until(|s| s.is_halted(id)));
            let report = Runtime::run_until_stopped(&mut sim, &mut || true);
            assert_eq!(report.all_halted, i == order.len() - 1, "after {id}");
        }
        // Every actor still has a timer queued, yet nothing more runs.
        assert!(!sim.step());
    }

    #[test]
    fn empty_simulation_returns_at_once_all_halted() {
        let report = Simulation::<Msg>::new(SimConfig::default()).run();
        assert!(report.all_halted);
        assert_eq!((report.events, report.end_time), (0, 0));
    }
}
