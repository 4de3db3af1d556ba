//! The per-peer poll gate shared by the two poll loops: Algorithm 1's
//! `GETPDS` rounds and Algorithm 3's `GetDecidedVal` learning rounds.

use std::collections::BTreeMap;

use cupft_graph::ProcessId;

/// At most one request in flight per peer.
///
/// A round asks [`Self::poll`] before sending to a peer. The first poll
/// goes out and leaves the peer *unanswered*; until [`Self::answered`]
/// clears it, the peer is polled again only after 1, 2, 4, 8 … skipped
/// rounds — the wait doubles on each poll that stays unanswered and resets
/// when the peer answers. A silent peer is therefore still polled
/// infinitely often, at O(log rounds) polls instead of one per round, and
/// a lost reply costs at most as many rounds as the silence before it.
///
/// The gate is volatile: it is never serialized, and a crash-recovery
/// starts with an empty one.
///
/// # Example
///
/// ```
/// use cupft_discovery::PollGate;
/// use cupft_graph::ProcessId;
///
/// let peer = ProcessId::new(2);
/// let mut gate = PollGate::default();
/// let rounds: Vec<bool> = (0..6).map(|_| gate.poll(peer)).collect();
/// // Polled, skipped 1, polled, skipped 2, polled.
/// assert_eq!(rounds, [true, false, true, false, false, true]);
/// assert_eq!(gate.take_deferred(), 3);
/// gate.answered(peer);
/// assert!(gate.poll(peer));
/// ```
#[derive(Debug, Clone, Default)]
pub struct PollGate {
    /// The unanswered peers and their re-poll schedule.
    waiting: BTreeMap<ProcessId, Backoff>,
    /// Polls withheld since the last [`Self::take_deferred`].
    deferred: u64,
}

/// The re-poll schedule of one unanswered peer.
#[derive(Debug, Clone, Copy)]
struct Backoff {
    /// Rounds still to skip before the next poll.
    skip: u64,
    /// The skip armed by the next poll that goes out.
    next: u64,
}

impl PollGate {
    /// Whether this round polls `peer`: `true` if the request goes out
    /// (the peer is then unanswered), `false` if it is withheld.
    pub fn poll(&mut self, peer: ProcessId) -> bool {
        let wait = self
            .waiting
            .entry(peer)
            .or_insert(Backoff { skip: 0, next: 1 });
        if wait.skip > 0 {
            wait.skip -= 1;
            self.deferred += 1;
            return false;
        }
        wait.skip = wait.next;
        wait.next = wait.next.saturating_mul(2);
        true
    }

    /// Records an answer from `peer`: its next poll goes out at once.
    pub fn answered(&mut self, peer: ProcessId) {
        self.waiting.remove(&peer);
    }

    /// Forgets every unanswered request (a new incarnation after a crash).
    pub fn clear(&mut self) {
        self.waiting.clear();
    }

    /// The polls withheld since the last call, resetting the count.
    pub fn take_deferred(&mut self) -> u64 {
        std::mem::take(&mut self.deferred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silent_peer_is_repolled_after_doubling_waits() {
        let peer = ProcessId::new(7);
        let mut gate = PollGate::default();
        let polled: Vec<usize> = (0..40).filter(|_| gate.poll(peer)).collect();
        // Skips of 1, 2, 4, 8, 16 rounds between polls.
        assert_eq!(polled, [0, 2, 5, 10, 19, 36]);
        assert_eq!(gate.take_deferred(), 40 - 6);
        assert_eq!(gate.take_deferred(), 0);
    }

    #[test]
    fn an_answer_resets_the_wait() {
        let (a, b) = (ProcessId::new(1), ProcessId::new(2));
        let mut gate = PollGate::default();
        for _ in 0..6 {
            gate.poll(a);
            gate.poll(b);
        }
        gate.answered(a);
        assert!(gate.poll(a), "an answered peer is polled at once");
        assert!(!gate.poll(a), "and is then unanswered again");
        assert!(!gate.poll(b), "the other peer keeps its wait");
        gate.clear();
        assert!(gate.poll(b));
    }
}
