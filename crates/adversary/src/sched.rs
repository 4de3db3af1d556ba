//! Scheduling adversaries: data-described [`cupft_net::Tamper`] layers.
//!
//! A [`TamperSpec`] is the network-side sibling of
//! [`crate::StrategySpec`]: a cloneable description of an adversarial
//! delivery schedule that [`TamperSpec::build`] compiles into a boxed
//! [`Tamper`] for any message type. Because the `Tamper` hook is honored
//! by both substrates, the same spec produces the same adversary on the
//! deterministic simulator and the OS-thread runtime.
//!
//! Model discipline (§II-A): channels between correct processes are
//! reliable, so [`TamperSpec::DropFrom`] stays *within* the paper's model
//! only when the listed senders are faulty (a Byzantine process choosing
//! silence). Delay-only specs are always within the model *before* GST;
//! after GST they effectively raise `δ` by their bound.

use cupft_graph::{ProcessId, ProcessSet};
use cupft_net::{Fate, Tamper, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A declarative adversarial delivery schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TamperSpec {
    /// Adds an independent random delay in `[0, window]` to every message
    /// (reorders deliveries within the window). Seeded independently of
    /// the substrate, so replays are exact.
    ReorderWindow {
        /// Maximum extra delay.
        window: Time,
        /// Seed of the tamper's own RNG.
        seed: u64,
    },
    /// Drops every message *sent by* one of `senders`. Within the model
    /// only when those senders are faulty.
    DropFrom {
        /// The silenced senders.
        senders: ProcessSet,
    },
    /// Applies every part in order: any `Drop` wins, extra delays add up.
    Chain(Vec<TamperSpec>),
}

impl TamperSpec {
    /// Compact display label (sweep labels, reports).
    pub fn label(&self) -> String {
        let set = crate::fmt_process_set;
        match self {
            TamperSpec::ReorderWindow { window, .. } => format!("reorder<{window}"),
            TamperSpec::DropFrom { senders } => format!("drop{}", set(senders)),
            TamperSpec::Chain(parts) => {
                let labels: Vec<String> = parts.iter().map(|p| p.label()).collect();
                labels.join("&")
            }
        }
    }

    /// Compiles the spec into an executable tamper for any message type.
    pub fn build<M: 'static>(&self) -> Box<dyn Tamper<M>> {
        match self {
            TamperSpec::ReorderWindow { window, seed } => Box::new(ReorderTamper {
                window: *window,
                rng: StdRng::seed_from_u64(*seed),
            }),
            TamperSpec::DropFrom { senders } => Box::new(DropFromTamper {
                senders: senders.clone(),
            }),
            TamperSpec::Chain(parts) => Box::new(ChainTamper {
                parts: parts.iter().map(|p| p.build()).collect(),
            }),
        }
    }
}

struct ReorderTamper {
    window: Time,
    rng: StdRng,
}

impl<M> Tamper<M> for ReorderTamper {
    fn disposition(&mut self, _: ProcessId, _: ProcessId, _: &'static str, _: Time) -> Fate {
        if self.window == 0 {
            Fate::Deliver
        } else {
            Fate::Delay(self.rng.random_range(0..=self.window))
        }
    }
}

struct DropFromTamper {
    senders: ProcessSet,
}

impl<M> Tamper<M> for DropFromTamper {
    fn disposition(&mut self, from: ProcessId, _: ProcessId, _: &'static str, _: Time) -> Fate {
        if self.senders.contains(&from) {
            Fate::Drop
        } else {
            Fate::Deliver
        }
    }
}

struct ChainTamper<M> {
    parts: Vec<Box<dyn Tamper<M>>>,
}

impl<M> Tamper<M> for ChainTamper<M> {
    fn disposition(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        label: &'static str,
        now: Time,
    ) -> Fate {
        let mut total: Time = 0;
        for part in &mut self.parts {
            match part.disposition(from, to, label, now) {
                Fate::Deliver => {}
                Fate::Delay(extra) => total += extra,
                Fate::Drop => return Fate::Drop,
            }
        }
        if total == 0 {
            Fate::Deliver
        } else {
            Fate::Delay(total)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cupft_graph::process_set;

    fn p(n: u64) -> ProcessId {
        ProcessId::new(n)
    }

    #[test]
    fn reorder_is_deterministic_per_seed() {
        let spec = TamperSpec::ReorderWindow {
            window: 50,
            seed: 7,
        };
        let mut a: Box<dyn Tamper<u32>> = spec.build();
        let mut b: Box<dyn Tamper<u32>> = spec.build();
        for i in 0..32 {
            let fa = a.disposition(p(1), p(2), "X", i);
            let fb = b.disposition(p(1), p(2), "X", i);
            assert_eq!(fa, fb);
            match fa {
                Fate::Deliver => {}
                Fate::Delay(d) => assert!(d <= 50),
                Fate::Drop => panic!("reorder never drops"),
            }
        }
    }

    #[test]
    fn drop_from_silences_senders() {
        let mut t: Box<dyn Tamper<u32>> = TamperSpec::DropFrom {
            senders: process_set([4]),
        }
        .build();
        assert_eq!(t.disposition(p(4), p(1), "X", 0), Fate::Drop);
        assert_eq!(t.disposition(p(1), p(2), "X", 0), Fate::Deliver);
    }

    #[test]
    fn chain_combines_drop_wins_delays_add() {
        let reorder = |seed| TamperSpec::ReorderWindow { window: 50, seed };
        let drop3 = TamperSpec::DropFrom {
            senders: process_set([3]),
        };
        let mut chain: Box<dyn Tamper<u32>> =
            TamperSpec::Chain(vec![reorder(1), reorder(2), drop3]).build();
        let mut a: Box<dyn Tamper<u32>> = reorder(1).build();
        let mut b: Box<dyn Tamper<u32>> = reorder(2).build();
        let delay = |fate: Fate| match fate {
            Fate::Deliver => 0,
            Fate::Delay(d) => d,
            Fate::Drop => panic!("reorder never drops"),
        };
        for now in 0..32 {
            // The drop is the last part, so both reorders see every message.
            let (from, to) = (p(now % 4), p(9));
            let sum =
                delay(a.disposition(from, to, "X", now)) + delay(b.disposition(from, to, "X", now));
            let want = match (from == p(3), sum) {
                (true, _) => Fate::Drop,
                (false, 0) => Fate::Deliver,
                (false, d) => Fate::Delay(d),
            };
            assert_eq!(chain.disposition(from, to, "X", now), want, "at {now}");
        }
    }

    #[test]
    fn labels() {
        assert_eq!(
            TamperSpec::DropFrom {
                senders: process_set([4])
            }
            .label(),
            "drop{4}"
        );
        let chain = TamperSpec::Chain(vec![
            TamperSpec::ReorderWindow { window: 9, seed: 0 },
            TamperSpec::DropFrom {
                senders: process_set([1]),
            },
        ]);
        assert_eq!(chain.label(), "reorder<9&drop{1}");
    }
}
