//! The message-interception hook: a pluggable network-level adversary.
//!
//! The [`Tamper`] layer sits between an actor's `send` and the substrate's
//! delivery scheduling. It sees every message *once, at send time*, in the
//! deterministic order the sending actor emitted it, and rules on its
//! [`Fate`]: deliver normally, deliver with extra delay (reordering), or
//! drop. All three substrates honor the same trait — install a tamper
//! with [`crate::Runtime::set_tamper`] and the identical adversarial
//! schedule logic runs on the simulator, on in-memory channels and over
//! sockets.
//!
//! Division of labor with the other adversary layers:
//!
//! * [`crate::DelayPolicy`] is the *baseline* scheduling adversary (GST,
//!   `δ`); the tamper's extra delay is added on top of the policy delay.
//! * A `Tamper` never sees message *contents* (only endpoints and the
//!   [`crate::Labeled`] label) — content-level misbehavior (equivocation,
//!   fabricated records) belongs to Byzantine endpoint strategies, not the
//!   network.
//! * Dropping is only within the paper's model (§II-A: reliable channels)
//!   when the sender or receiver is faulty — dropping correct→correct
//!   traffic models a *stronger* adversary than the paper's. The layer
//!   does not police this; experiment code is responsible for staying in
//!   (or deliberately stepping out of) the model.
//!
//! Implementations must be deterministic functions of their own state and
//! the call sequence; on the simulator the call sequence itself is
//! deterministic, so seeded tampers replay exactly.
//!
//! On the wall-clock runtime (both links) the tamper is consulted on the
//! worker running the sending actor's turn, under one lock: one `&mut` tamper state
//! sees every message once, at send time, with each sender's emissions in
//! program order — so a `TamperSpec`'s observable semantics do not change
//! with the link or with [`crate::ThreadedConfig::router_shards`].

use cupft_graph::ProcessId;

use crate::Time;

/// What the interception layer decided for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Deliver under the substrate's normal delay policy.
    Deliver,
    /// Deliver, but add this many ticks (simulator) / milliseconds
    /// (wall-clock runtime) on top of the policy delay.
    Delay(Time),
    /// Never deliver. Counted in [`crate::NetStats::messages_dropped`].
    Drop,
}

/// A network-level adversary consulted once per send.
///
/// `now` is the substrate's current time (simulated ticks or elapsed
/// milliseconds). State is `&mut` so tampers can count, window, or run
/// their own seeded RNG.
pub trait Tamper<M>: Send {
    /// Rules on the fate of one message.
    fn disposition(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        label: &'static str,
        now: Time,
    ) -> Fate;
}

/// A tamper that delivers everything untouched (the identity element —
/// useful as a default or chain terminator).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTamper;

impl<M> Tamper<M> for NoTamper {
    fn disposition(&mut self, _: ProcessId, _: ProcessId, _: &'static str, _: Time) -> Fate {
        Fate::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_tamper_delivers() {
        let mut t = NoTamper;
        assert_eq!(
            Tamper::<u32>::disposition(&mut t, ProcessId::new(1), ProcessId::new(2), "X", 0),
            Fate::Deliver
        );
    }
}
