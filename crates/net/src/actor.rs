//! The actor abstraction shared by every runtime.

use cupft_graph::ProcessId;

use crate::Time;

/// A timer identifier chosen by the actor (e.g. "discovery tick" = 1,
/// "view-change timeout" = 2).
pub type TimerKind = u64;

/// Message types carried by the runtimes implement `Labeled` so the
/// substrate can report per-kind message counts (used by the
/// message-complexity benches).
pub trait Labeled {
    /// A short, static label naming the message kind (e.g. `"GETPDS"`).
    fn label(&self) -> &'static str;

    /// The protocol-defined payload weight this message carries — for
    /// discovery, the number of PD certificates in a `SETPDS` (control
    /// traffic weighs 0). Runtimes sum it into
    /// [`crate::NetStats::payload_units`], which is what the delta-gossip
    /// benches compare: message *counts* barely move when replies shrink,
    /// payload units collapse.
    fn payload_units(&self) -> u64 {
        0
    }
}

/// A deterministic protocol participant.
///
/// Actors are single-threaded state machines: the runtime calls exactly one
/// of the `on_*` hooks at a time and the actor reacts by recording effects
/// (sends, timers, halting) on the [`Context`]. This makes the same actor
/// code runnable on the discrete-event simulator and on a worker pool.
pub trait Actor<M>: Send {
    /// This actor's process identifier.
    fn id(&self) -> ProcessId;

    /// Recovers the concrete type from a trait object (for post-run state
    /// inspection). Implement as `fn as_any(&self) -> &dyn Any { self }`.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Invoked once before any message delivery.
    fn on_start(&mut self, ctx: &mut Context<M>) {
        let _ = ctx;
    }

    /// Invoked for each delivered message.
    fn on_message(&mut self, from: ProcessId, msg: M, ctx: &mut Context<M>);

    /// Invoked when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, timer: TimerKind, ctx: &mut Context<M>) {
        let _ = (timer, ctx);
    }
}

/// The effect recorder handed to actor hooks.
///
/// All effects are buffered and applied by the runtime after the hook
/// returns, which keeps actors free of runtime details and keeps the
/// simulator deterministic.
#[derive(Debug)]
pub struct Context<M> {
    now: Time,
    self_id: ProcessId,
    pub(crate) sends: Vec<(ProcessId, M)>,
    pub(crate) timers: Vec<(TimerKind, Time)>,
    pub(crate) halted: bool,
}

impl<M> Context<M> {
    /// Creates a fresh context (used by the built-in runtimes, and by
    /// tests or custom runtimes driving actors manually).
    pub fn new(now: Time, self_id: ProcessId) -> Self {
        Context {
            now,
            self_id,
            sends: Vec::new(),
            timers: Vec::new(),
            halted: false,
        }
    }

    /// The sends queued so far (inspection for tests/custom runtimes).
    pub fn queued_sends(&self) -> &[(ProcessId, M)] {
        &self.sends
    }

    /// The timers queued so far.
    pub fn queued_timers(&self) -> &[(TimerKind, Time)] {
        &self.timers
    }

    /// Whether the actor has requested to halt.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Consumes the context, returning `(sends, timers, halted)` — for
    /// custom runtimes.
    #[allow(clippy::type_complexity)]
    pub fn into_effects(self) -> (Vec<(ProcessId, M)>, Vec<(TimerKind, Time)>, bool) {
        (self.sends, self.timers, self.halted)
    }

    /// The current time (simulated ticks or milliseconds since start,
    /// depending on runtime).
    pub fn now(&self) -> Time {
        self.now
    }

    /// The executing actor's own ID.
    pub fn self_id(&self) -> ProcessId {
        self.self_id
    }

    /// Sends `msg` to `to` over the reliable channel.
    ///
    /// Sending to oneself is allowed and delivered like any other message.
    /// The knowledge restriction of the model — a process may only send to
    /// processes it knows — is the *protocol's* responsibility; the
    /// communication network itself is complete (Section II-C).
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.sends.push((to, msg));
    }

    /// Sends a clone of `msg` to every recipient.
    pub fn send_all<I>(&mut self, recipients: I, msg: M)
    where
        I: IntoIterator<Item = ProcessId>,
        M: Clone,
    {
        for to in recipients {
            self.send(to, msg.clone());
        }
    }

    /// Schedules [`Actor::on_timer`] with `kind` to fire after `delay`
    /// ticks (minimum 1).
    pub fn set_timer(&mut self, kind: TimerKind, delay: Time) {
        self.timers.push((kind, delay.max(1)));
    }

    /// Marks this actor as halted: it receives no further events.
    ///
    /// Runtimes use the all-halted condition to terminate runs early.
    pub fn halt(&mut self) {
        self.halted = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_records_effects() {
        let mut ctx: Context<u32> = Context::new(5, ProcessId::new(1));
        assert_eq!(ctx.now(), 5);
        assert_eq!(ctx.self_id(), ProcessId::new(1));
        ctx.send(ProcessId::new(2), 42);
        ctx.send_all([ProcessId::new(3), ProcessId::new(4)], 7);
        ctx.set_timer(1, 0);
        ctx.halt();
        assert_eq!(ctx.sends.len(), 3);
        assert_eq!(ctx.timers, vec![(1, 1)]); // delay clamped to >= 1
        assert!(ctx.halted);
    }
}
