//! The pre-delivery hook: a stateless [`Preflight`] over messages.
//!
//! A [`Preflight`] is pure, side-effect-free-with-respect-to-the-actor
//! work — signature verification, fingerprint computation — that could
//! run anywhere between a message leaving its sender and reaching its
//! receiver. All observable effects must flow through *shared memo
//! structures* that the receiving actor consults anyway, so skipping a
//! preflight can never change a protocol decision.
//!
//! **No runtime in this crate runs one.** [`crate::Runtime::set_preflight`]
//! keeps its default no-op on all three substrates, which the contract
//! below allows: a preflight may run zero times per message. Certificate
//! verification happens inside the receiving actor's `SETPDS` handler
//! (`cupft_discovery::DiscoveryState::absorb_batch`), against the run's
//! shared verdict memo, so each distinct certificate still costs one HMAC
//! system-wide. The trait and the setter stay because external code
//! (the `benchmark/` package's timing proxy) implements both.

use cupft_graph::ProcessId;

/// A stateless pre-delivery processing hook (see the [module docs](self)
/// for the contract).
///
/// `Send + Sync` so one preflight can be shared across threads;
/// implementations keep their state in concurrent shared structures (or
/// none at all).
pub trait Preflight<M>: Send + Sync {
    /// Processes `msg` before it is delivered to `to`.
    ///
    /// Must be idempotent and must not assume it runs at most once per
    /// message — a runtime is free to invoke it zero, one, or many times
    /// per delivery on any thread.
    fn preflight(&self, from: ProcessId, to: ProcessId, msg: &M);

    /// Whether this preflight has any work to do for `msg`. Must be a
    /// pure function of the message. A runtime may skip the preflight for
    /// messages it does not want; skipping stateless work can never
    /// change a protocol decision. The default wants everything.
    fn wants(&self, msg: &M) -> bool {
        let _ = msg;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    struct Counter(Arc<AtomicU64>);
    impl Preflight<u32> for Counter {
        fn preflight(&self, _from: ProcessId, _to: ProcessId, msg: &u32) {
            self.0.fetch_add(u64::from(*msg), Ordering::Relaxed);
        }
    }

    #[test]
    fn preflight_is_object_safe_and_shareable() {
        let seen = Arc::new(AtomicU64::new(0));
        let stage: Arc<dyn Preflight<u32>> = Arc::new(Counter(seen.clone()));
        let clone = stage.clone();
        clone.preflight(ProcessId::new(1), ProcessId::new(2), &5);
        stage.preflight(ProcessId::new(2), ProcessId::new(1), &7);
        assert_eq!(seen.load(Ordering::Relaxed), 12);
    }
}
