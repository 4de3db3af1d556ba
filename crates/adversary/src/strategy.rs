//! The composable Byzantine-strategy combinators.
//!
//! A faulty process is a plain [`cupft_net::Actor`]: what it *does* is its
//! three event hooks. The combinators here wrap one actor in another, so
//! "serve a fabricated PD, but only to processes 1–3, and only after tick
//! 400" is three nested values rather than a new hand-written actor, and
//! both runtimes execute the result unchanged.
//!
//! The adversary here is *static* (paper §II-A): a strategy is fixed
//! before the run. What it may do is bounded by the model — it can send
//! anything expressible in the message type to anyone, stay silent, or
//! misorder its own traffic, but signatures (enforced by receivers, not by
//! this layer) stop it from speaking for correct processes.

use cupft_graph::{ProcessId, ProcessSet};
use cupft_net::{Actor, Context, Time, TimerKind};

/// Runs `f` against a scratch context and merges the scratch effects back
/// into `ctx` through `keep_send` (timers and halt always pass through).
///
/// This is how wrapper combinators observe and filter an inner actor's
/// sends without the inner actor knowing it is wrapped.
fn reframe<M>(
    ctx: &mut Context<M>,
    f: impl FnOnce(&mut Context<M>),
    mut keep_send: impl FnMut(ProcessId, M, &mut Context<M>),
) {
    let mut scratch = Context::new(ctx.now(), ctx.self_id());
    f(&mut scratch);
    let (sends, timers, halted) = scratch.into_effects();
    for (to, msg) in sends {
        keep_send(to, msg, ctx);
    }
    for (kind, delay) in timers {
        ctx.set_timer(kind, delay);
    }
    if halted {
        ctx.halt();
    }
}

/// The stay-silent process: sends nothing, ever — the adversary's
/// strongest play against knowledge connectivity (paper Figs. 1a, 2a, 2b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mute(pub ProcessId);

impl<M: Send> Actor<M> for Mute {
    fn id(&self) -> ProcessId {
        self.0
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_message(&mut self, _: ProcessId, _: M, _: &mut Context<M>) {}
}

/// Combinator: run `inner`, but let only messages addressed to `targets`
/// leave the process (the rest are swallowed — within the model, a
/// Byzantine process may always choose not to send).
pub struct TargetSubset<M> {
    targets: ProcessSet,
    inner: Box<dyn Actor<M>>,
}

impl<M> TargetSubset<M> {
    /// Restricts `inner`'s sends to `targets`.
    pub fn new(targets: ProcessSet, inner: Box<dyn Actor<M>>) -> Self {
        TargetSubset { targets, inner }
    }
}

impl<M: Send + 'static> TargetSubset<M> {
    fn route(&mut self, ctx: &mut Context<M>, f: impl FnOnce(&mut dyn Actor<M>, &mut Context<M>)) {
        let (inner, targets) = (self.inner.as_mut(), &self.targets);
        reframe(
            ctx,
            |scratch| f(inner, scratch),
            |to, msg, ctx| {
                if targets.contains(&to) {
                    ctx.send(to, msg);
                }
            },
        );
    }
}

impl<M: Send + 'static> Actor<M> for TargetSubset<M> {
    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut Context<M>) {
        self.route(ctx, |inner, scratch| inner.on_start(scratch));
    }

    fn on_message(&mut self, from: ProcessId, msg: M, ctx: &mut Context<M>) {
        self.route(ctx, |inner, scratch| inner.on_message(from, msg, scratch));
    }

    fn on_timer(&mut self, kind: TimerKind, ctx: &mut Context<M>) {
        self.route(ctx, |inner, scratch| inner.on_timer(kind, scratch));
    }
}

/// The reserved timer kind [`DelayRelease`] uses to wake itself at the
/// release tick. Chosen far away from `DISCOVERY_TICK` (`0xD15C`) and the
/// committee's view-timer band (`0xC0 << 32` + view).
pub const RELEASE_TICK: TimerKind = 0xAD5E_0000_0000_0000;

/// Combinator: run `inner`, but hold every message it sends before
/// `release_at` and release the whole backlog at once at `release_at`
/// (withheld-PD / late-burst attacks). After the release tick, sends pass
/// through unmodified.
pub struct DelayRelease<M> {
    release_at: Time,
    inner: Box<dyn Actor<M>>,
    held: Vec<(ProcessId, M)>,
    armed: bool,
}

impl<M> DelayRelease<M> {
    /// Holds `inner`'s sends until `release_at`.
    pub fn new(release_at: Time, inner: Box<dyn Actor<M>>) -> Self {
        DelayRelease {
            release_at,
            inner,
            held: Vec::new(),
            armed: false,
        }
    }

    /// Messages currently held back.
    pub fn held(&self) -> usize {
        self.held.len()
    }
}

impl<M: Send + 'static> DelayRelease<M> {
    fn route(&mut self, ctx: &mut Context<M>, f: impl FnOnce(&mut dyn Actor<M>, &mut Context<M>)) {
        let releasing = ctx.now() >= self.release_at;
        let held = &mut self.held;
        let inner = self.inner.as_mut();
        reframe(
            ctx,
            |scratch| f(inner, scratch),
            |to, msg, ctx| {
                if releasing {
                    ctx.send(to, msg);
                } else {
                    held.push((to, msg));
                }
            },
        );
        if !releasing && !self.armed {
            self.armed = true;
            ctx.set_timer(RELEASE_TICK, self.release_at.saturating_sub(ctx.now()));
        }
    }

    fn flush(&mut self, ctx: &mut Context<M>) {
        for (to, msg) in self.held.drain(..) {
            ctx.send(to, msg);
        }
    }
}

impl<M: Send + 'static> Actor<M> for DelayRelease<M> {
    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut Context<M>) {
        self.route(ctx, |inner, scratch| inner.on_start(scratch));
    }

    fn on_message(&mut self, from: ProcessId, msg: M, ctx: &mut Context<M>) {
        self.route(ctx, |inner, scratch| inner.on_message(from, msg, scratch));
    }

    fn on_timer(&mut self, kind: TimerKind, ctx: &mut Context<M>) {
        // RELEASE_TICK is one shared kind, so nested DelayRelease wrappers
        // all receive each other's wake-ups: flush only once our own
        // deadline has passed, and always forward the tick inward so an
        // inner DelayRelease can flush at *its* deadline (its flushed
        // sends re-enter this wrapper's hold/pass filter; leaves ignore
        // unknown kinds). Swallowing the tick here would strand an inner
        // wrapper's backlog forever.
        if kind == RELEASE_TICK && ctx.now() >= self.release_at {
            self.flush(ctx);
        }
        self.route(ctx, |inner, scratch| inner.on_timer(kind, scratch));
    }
}

/// The reserved timer kind [`FlipAfter`] uses to wake itself at its flip
/// time, so the switch happens *at* `at` rather than lazily at the next
/// delivered event.
pub const FLIP_TICK: TimerKind = 0xAD5F_0000_0000_0000;

/// Combinator: behave as `before` until time `at`, then as `after`
/// (flip-after-round: `at` = round × the protocol's tick period).
/// A wake timer is armed at `on_start`, so `after` receives its
/// `on_start` at the moment of the flip even if no traffic arrives then.
/// `before`'s internal state (timers it armed, messages a nested
/// [`DelayRelease`] still holds) is abandoned at the flip — flipping away
/// from a buffering strategy discards its backlog by design.
pub struct FlipAfter<M> {
    at: Time,
    before: Box<dyn Actor<M>>,
    after: Box<dyn Actor<M>>,
    switched: bool,
}

impl<M> FlipAfter<M> {
    /// Runs `before` until `at`, then `after`.
    pub fn new(at: Time, before: Box<dyn Actor<M>>, after: Box<dyn Actor<M>>) -> Self {
        FlipAfter {
            at,
            before,
            after,
            switched: false,
        }
    }
}

impl<M: Send + 'static> FlipAfter<M> {
    fn active(&mut self, ctx: &mut Context<M>) -> &mut dyn Actor<M> {
        if ctx.now() >= self.at {
            if !self.switched {
                self.switched = true;
                self.after.on_start(ctx);
            }
            self.after.as_mut()
        } else {
            self.before.as_mut()
        }
    }
}

impl<M: Send + 'static> Actor<M> for FlipAfter<M> {
    fn id(&self) -> ProcessId {
        self.before.id()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut Context<M>) {
        if ctx.now() < self.at {
            ctx.set_timer(FLIP_TICK, self.at - ctx.now());
            self.before.on_start(ctx);
        } else if !self.switched {
            // already past the flip at startup: `active` latches the
            // switch and runs after.on_start — don't start it twice
            self.switched = true;
            self.after.on_start(ctx);
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: M, ctx: &mut Context<M>) {
        self.active(ctx).on_message(from, msg, ctx);
    }

    fn on_timer(&mut self, kind: TimerKind, ctx: &mut Context<M>) {
        // FLIP_TICK's only job is to pull `active` at the flip time (which
        // performs the switch and `after.on_start`); it is still forwarded
        // inward — FLIP_TICK is one shared kind, and a nested FlipAfter
        // distinguishes its own deadline by the same now-vs-at check.
        // Leaves ignore unknown kinds.
        self.active(ctx).on_timer(kind, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cupft_graph::process_set;

    /// Process 9, sending `n` to 1, 2, 3 on every event.
    struct Chatter(u32);

    impl Actor<u32> for Chatter {
        fn id(&self) -> ProcessId {
            ProcessId::new(9)
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn on_start(&mut self, ctx: &mut Context<u32>) {
            ctx.send_all([1, 2, 3].map(ProcessId::new), self.0);
        }
        fn on_message(&mut self, _: ProcessId, _: u32, ctx: &mut Context<u32>) {
            ctx.send_all([1, 2, 3].map(ProcessId::new), self.0);
        }
        fn on_timer(&mut self, _: TimerKind, ctx: &mut Context<u32>) {
            ctx.send_all([1, 2, 3].map(ProcessId::new), self.0);
        }
    }

    #[test]
    fn mute_sends_nothing() {
        let mut s = Mute(ProcessId::new(9));
        let mut ctx: Context<u32> = Context::new(0, ProcessId::new(9));
        s.on_start(&mut ctx);
        s.on_message(ProcessId::new(1), 7, &mut ctx);
        s.on_timer(1, &mut ctx);
        assert!(ctx.queued_sends().is_empty());
        assert!(ctx.queued_timers().is_empty());
    }

    #[test]
    fn target_subset_filters_sends() {
        let mut s = TargetSubset::new(process_set([1, 3]), Box::new(Chatter(5)));
        let mut ctx: Context<u32> = Context::new(0, ProcessId::new(9));
        s.on_start(&mut ctx);
        let tos: Vec<u64> = ctx.queued_sends().iter().map(|(to, _)| to.raw()).collect();
        assert_eq!(tos, vec![1, 3]);
        assert_eq!(s.id(), ProcessId::new(9));
    }

    #[test]
    fn delay_release_holds_then_flushes() {
        let mut s = DelayRelease::new(100, Box::new(Chatter(5)));
        let mut ctx: Context<u32> = Context::new(0, ProcessId::new(9));
        s.on_start(&mut ctx);
        assert!(ctx.queued_sends().is_empty());
        assert_eq!(s.held(), 3);
        // the wake timer was armed exactly once
        assert_eq!(ctx.queued_timers(), &[(RELEASE_TICK, 100)]);

        // a second pre-release event buffers more but does not re-arm
        let mut ctx2: Context<u32> = Context::new(50, ProcessId::new(9));
        s.on_message(ProcessId::new(1), 0, &mut ctx2);
        assert!(ctx2.queued_sends().is_empty());
        assert!(ctx2.queued_timers().is_empty());
        assert_eq!(s.held(), 6);

        // the release tick flushes the backlog (6) and is forwarded to the
        // inner strategy, which — reacting to every timer — adds 3 more;
        // real protocol leaves ignore unknown timer kinds
        let mut ctx3: Context<u32> = Context::new(100, ProcessId::new(9));
        s.on_timer(RELEASE_TICK, &mut ctx3);
        assert_eq!(ctx3.queued_sends().len(), 9);
        assert_eq!(s.held(), 0);

        // post-release traffic passes straight through
        let mut ctx4: Context<u32> = Context::new(150, ProcessId::new(9));
        s.on_message(ProcessId::new(1), 0, &mut ctx4);
        assert_eq!(ctx4.queued_sends().len(), 3);
    }

    #[test]
    fn nested_delay_release_flushes_inner_backlog() {
        // outer releases at 100, inner at 200: the inner wake-up at 200
        // must reach the inner wrapper through the outer one, and the
        // inner's flushed sends must pass the (already released) outer.
        let mut s = DelayRelease::new(100, Box::new(DelayRelease::new(200, Box::new(Chatter(5)))));
        let mut ctx: Context<u32> = Context::new(0, ProcessId::new(9));
        s.on_start(&mut ctx);
        assert!(ctx.queued_sends().is_empty());
        // outer's own tick at 100: nothing to flush (all 3 sends sit in
        // the *inner* wrapper), and the inner must not release early
        let mut ctx2: Context<u32> = Context::new(100, ProcessId::new(9));
        s.on_timer(RELEASE_TICK, &mut ctx2);
        assert!(ctx2.queued_sends().is_empty(), "inner released early");
        // inner's tick at 200: the backlog finally escapes both layers
        let mut ctx3: Context<u32> = Context::new(200, ProcessId::new(9));
        s.on_timer(RELEASE_TICK, &mut ctx3);
        assert!(
            ctx3.queued_sends().len() >= 3,
            "inner backlog was stranded: {} sends",
            ctx3.queued_sends().len()
        );
    }

    #[test]
    fn reversed_nesting_holds_inner_flush_until_outer_release() {
        // outer releases at 200, inner at 100: the inner's flush at 100
        // must be re-captured by the still-holding outer wrapper.
        let mut s = DelayRelease::new(200, Box::new(DelayRelease::new(100, Box::new(Chatter(5)))));
        let mut ctx: Context<u32> = Context::new(0, ProcessId::new(9));
        s.on_start(&mut ctx);
        let mut ctx2: Context<u32> = Context::new(100, ProcessId::new(9));
        s.on_timer(RELEASE_TICK, &mut ctx2);
        assert!(ctx2.queued_sends().is_empty(), "outer released early");
        // 3 from the inner flush + 3 from Chatter reacting to the
        // forwarded tick, all re-held by the still-closed outer wrapper
        assert_eq!(s.held(), 6, "inner flush re-held by outer");
        let mut ctx3: Context<u32> = Context::new(200, ProcessId::new(9));
        s.on_timer(RELEASE_TICK, &mut ctx3);
        assert!(ctx3.queued_sends().len() >= 3);
    }

    #[test]
    fn flip_after_arms_wake_timer_and_flips_without_traffic() {
        // Silent -> Chatter: without the wake timer the flip would never
        // happen (Mute receives no events to observe the clock through).
        let mut s = FlipAfter::new(100, Box::new(Mute(ProcessId::new(9))), Box::new(Chatter(5)));
        let mut ctx: Context<u32> = Context::new(0, ProcessId::new(9));
        s.on_start(&mut ctx);
        assert_eq!(ctx.queued_timers(), &[(FLIP_TICK, 100)]);
        assert!(ctx.queued_sends().is_empty());
        // the wake-up itself performs the switch: after.on_start runs (3
        // sends) and the forwarded tick hits Chatter::on_timer (3 more)
        let mut ctx2: Context<u32> = Context::new(100, ProcessId::new(9));
        s.on_timer(FLIP_TICK, &mut ctx2);
        assert_eq!(ctx2.queued_sends().len(), 6);
    }

    #[test]
    fn flip_after_switches_strategy() {
        let mut s = FlipAfter::new(100, Box::new(Mute(ProcessId::new(9))), Box::new(Chatter(5)));
        let mut ctx: Context<u32> = Context::new(0, ProcessId::new(9));
        s.on_message(ProcessId::new(1), 0, &mut ctx);
        assert!(ctx.queued_sends().is_empty());

        // at the flip, `after.on_start` runs and then handles the event
        let mut ctx2: Context<u32> = Context::new(100, ProcessId::new(9));
        s.on_message(ProcessId::new(1), 0, &mut ctx2);
        assert_eq!(ctx2.queued_sends().len(), 6);

        // the switch is latched: on_start is not repeated
        let mut ctx3: Context<u32> = Context::new(200, ProcessId::new(9));
        s.on_message(ProcessId::new(1), 0, &mut ctx3);
        assert_eq!(ctx3.queued_sends().len(), 3);
    }
}
