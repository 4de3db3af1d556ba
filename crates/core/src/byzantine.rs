//! Byzantine processes over [`NodeMsg`], built on the [`cupft_adversary`]
//! strategy engine.
//!
//! The adversary is *static* (Section II-A): the strategy of each faulty
//! process is fixed before the run. Signatures bound what a Byzantine
//! process can do in the discovery plane — it may fabricate *its own* PD
//! freely (even equivocate between several self-signed PDs), but cannot
//! alter or invent records for correct processes (a forgery attempt is
//! [`ByzantineStrategy::ForgeUnsignedPd`], and receivers reject it). In
//! the committee plane a Byzantine leader may equivocate proposals, and
//! any Byzantine member may stay silent.
//!
//! Strategies are *described* by [`ByzantineStrategy`] (=
//! [`cupft_adversary::StrategySpec`], re-exported for compatibility — a
//! cloneable, shrinkable expression tree) and *executed* as the
//! [`Actor`] that [`build_strategy`] compiles for the faulty process; the
//! scenario runner registers that actor as is, so combinator specs
//! (delay-release, target-subset, flip-after) compose with every protocol
//! strategy for free.

use std::sync::Arc;

use cupft_adversary::{DelayRelease, FlipAfter, Mute, TargetSubset};
use cupft_committee::{CommitteeMsg, Value};
use cupft_crypto::{KeyRegistry, SigningKey};
use cupft_detector::PdCertificate;
use cupft_discovery::{DiscoveryMsg, DiscoveryState, SyncState, DISCOVERY_TICK};
use cupft_graph::{ProcessId, ProcessSet};
use cupft_net::{Actor, Context};

use crate::msgs::NodeMsg;

/// What a faulty process does (compatibility re-export of
/// [`cupft_adversary::StrategySpec`]; see that type for the variants).
pub use cupft_adversary::StrategySpec as ByzantineStrategy;

/// Shared behavior of strategies that participate in the discovery plane:
/// run Algorithm 1 ticks on the configured period and answer discovery
/// traffic from a [`DiscoveryState`].
#[derive(Debug)]
struct DiscoveryLoop {
    discovery: DiscoveryState,
    period: u64,
}

impl DiscoveryLoop {
    fn new(key: &SigningKey, registry: KeyRegistry, pd: ProcessSet, period: u64) -> Self {
        DiscoveryLoop {
            discovery: DiscoveryState::new(key, registry, pd),
            period,
        }
    }

    fn id(&self) -> ProcessId {
        self.discovery.id()
    }

    fn start(&mut self, ctx: &mut Context<NodeMsg>) {
        self.tick(ctx);
        ctx.set_timer(DISCOVERY_TICK, self.period);
    }

    fn tick(&mut self, ctx: &mut Context<NodeMsg>) {
        for (to, msg) in self.discovery.tick() {
            ctx.send(to, NodeMsg::Discovery(msg));
        }
    }

    fn handle(&mut self, from: ProcessId, msg: DiscoveryMsg, ctx: &mut Context<NodeMsg>) {
        for (to, out) in self.discovery.handle(from, msg) {
            ctx.send(to, NodeMsg::Discovery(out));
        }
    }

    /// Returns whether the timer was the discovery tick (and re-arms it).
    fn on_timer(&mut self, kind: u64, ctx: &mut Context<NodeMsg>) -> bool {
        if kind != DISCOVERY_TICK {
            return false;
        }
        self.tick(ctx);
        ctx.set_timer(DISCOVERY_TICK, self.period);
        true
    }
}

/// Participates in discovery but advertises a fabricated own PD — the
/// Section III worked example (process 4 claiming `PD = {1,2,3}`). Silent
/// in the committee plane.
#[derive(Debug)]
struct FakePdStrategy {
    disc: DiscoveryLoop,
}

impl Actor<NodeMsg> for FakePdStrategy {
    fn id(&self) -> ProcessId {
        self.disc.id()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut Context<NodeMsg>) {
        self.disc.start(ctx);
    }

    fn on_message(&mut self, from: ProcessId, msg: NodeMsg, ctx: &mut Context<NodeMsg>) {
        if let NodeMsg::Discovery(m) = msg {
            self.disc.handle(from, m, ctx);
        }
    }

    fn on_timer(&mut self, kind: u64, ctx: &mut Context<NodeMsg>) {
        self.disc.on_timer(kind, ctx);
    }
}

/// Advertises different self-signed PDs to different requesters
/// (split-brain attempt in the discovery plane). Does not run discovery
/// rounds of its own.
#[derive(Debug)]
struct EquivocatePdStrategy {
    key: SigningKey,
    even: ProcessSet,
    odd: ProcessSet,
}

impl Actor<NodeMsg> for EquivocatePdStrategy {
    fn id(&self) -> ProcessId {
        ProcessId::new(self.key.id())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_message(&mut self, from: ProcessId, msg: NodeMsg, ctx: &mut Context<NodeMsg>) {
        if let NodeMsg::Discovery(DiscoveryMsg::GetPds { .. }) = msg {
            let pd = if from.raw().is_multiple_of(2) {
                &self.even
            } else {
                &self.odd
            };
            let cert = PdCertificate::sign(&self.key, pd);
            // A fabricated zero sync state never matches a correct
            // requester's own state, so requesters keep polling — exactly
            // the baseline behavior toward a Byzantine peer.
            ctx.send(
                from,
                NodeMsg::Discovery(DiscoveryMsg::SetPds {
                    certs: vec![Arc::new(cert)].into(),
                    state: SyncState::default(),
                }),
            );
        }
    }
}

/// Runs discovery honestly and *additionally* pushes a forged (unsigned)
/// PD record claiming to be `victim`'s — the attack Algorithm 1's
/// signatures exist to reject: correct receivers verify and discard it,
/// so consensus on a sufficient graph is unaffected.
#[derive(Debug)]
struct ForgeUnsignedPdStrategy {
    disc: DiscoveryLoop,
    victim: ProcessId,
    claimed: ProcessSet,
}

impl Actor<NodeMsg> for ForgeUnsignedPdStrategy {
    fn id(&self) -> ProcessId {
        self.disc.id()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut Context<NodeMsg>) {
        self.disc.start(ctx);
    }

    fn on_message(&mut self, from: ProcessId, msg: NodeMsg, ctx: &mut Context<NodeMsg>) {
        if let NodeMsg::Discovery(m) = msg {
            let requested = matches!(m, DiscoveryMsg::GetPds { .. });
            self.disc.handle(from, m, ctx);
            if requested {
                let forged = PdCertificate::forge(self.victim, &self.claimed);
                ctx.send(
                    from,
                    NodeMsg::Discovery(DiscoveryMsg::SetPds {
                        certs: vec![Arc::new(forged)].into(),
                        state: SyncState::default(),
                    }),
                );
            }
        }
    }

    fn on_timer(&mut self, kind: u64, ctx: &mut Context<NodeMsg>) {
        self.disc.on_timer(kind, ctx);
    }
}

/// Runs discovery honestly and answers every `GETDECIDEDVAL` with a
/// fabricated value — the direct attack on Algorithm 3's learning path
/// (line 7's `⌈(|S|+1)/2⌉` matching-answers threshold is what defeats it:
/// at most `f` members lie, and `⌈(|S|+1)/2⌉ ≥ f+1`).
#[derive(Debug)]
struct LieDecidedValStrategy {
    disc: DiscoveryLoop,
    value: Value,
}

impl Actor<NodeMsg> for LieDecidedValStrategy {
    fn id(&self) -> ProcessId {
        self.disc.id()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut Context<NodeMsg>) {
        self.disc.start(ctx);
    }

    fn on_message(&mut self, from: ProcessId, msg: NodeMsg, ctx: &mut Context<NodeMsg>) {
        match msg {
            NodeMsg::GetDecidedVal => {
                ctx.send(from, NodeMsg::DecidedVal(self.value.clone()));
            }
            NodeMsg::Discovery(m) => self.disc.handle(from, m, ctx),
            _ => {}
        }
    }

    fn on_timer(&mut self, kind: u64, ctx: &mut Context<NodeMsg>) {
        self.disc.on_timer(kind, ctx);
    }
}

/// Runs discovery honestly, then — as the view-0 leader of the given
/// committee — sends conflicting proposals to the two halves of the
/// committee and goes silent (the classic safety attack the prepare
/// quorum must absorb).
#[derive(Debug)]
struct EquivocateValueStrategy {
    key: SigningKey,
    disc: DiscoveryLoop,
    committee: ProcessSet,
    value_a: Value,
    value_b: Value,
    equivocation_sent: bool,
}

impl EquivocateValueStrategy {
    fn maybe_equivocate(&mut self, ctx: &mut Context<NodeMsg>) {
        if self.equivocation_sent {
            return;
        }
        let id = ProcessId::new(self.key.id());
        // Only meaningful while it would be the view-0 leader (lowest ID).
        if self.committee.iter().next() != Some(&id) {
            return;
        }
        let members: Vec<ProcessId> = self.committee.iter().copied().collect();
        let half = members.len() / 2;
        let a = CommitteeMsg::pre_prepare(&self.key, 0, self.value_a.clone(), vec![]);
        let b = CommitteeMsg::pre_prepare(&self.key, 0, self.value_b.clone(), vec![]);
        for (i, &m) in members.iter().enumerate() {
            if m == id {
                continue;
            }
            let msg = if i < half { a.clone() } else { b.clone() };
            ctx.send(m, msg.into());
        }
        self.equivocation_sent = true;
    }
}

impl Actor<NodeMsg> for EquivocateValueStrategy {
    fn id(&self) -> ProcessId {
        ProcessId::new(self.key.id())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut Context<NodeMsg>) {
        self.disc.start(ctx);
    }

    fn on_message(&mut self, from: ProcessId, msg: NodeMsg, ctx: &mut Context<NodeMsg>) {
        if let NodeMsg::Discovery(m) = msg {
            self.disc.handle(from, m, ctx);
        }
    }

    fn on_timer(&mut self, kind: u64, ctx: &mut Context<NodeMsg>) {
        if self.disc.on_timer(kind, ctx) {
            self.maybe_equivocate(ctx);
        }
    }
}

/// Compiles a [`ByzantineStrategy`] spec into the actor of the faulty
/// process holding `key`.
///
/// `true_pd` is what the participant detector actually returned; some
/// strategies ignore it and substitute their own claim. Combinator specs
/// recurse — the generic wrappers from [`cupft_adversary`] compose with
/// every protocol strategy.
pub fn build_strategy(
    spec: &ByzantineStrategy,
    key: &SigningKey,
    registry: &KeyRegistry,
    true_pd: &ProcessSet,
    period: u64,
) -> Box<dyn Actor<NodeMsg>> {
    match spec {
        ByzantineStrategy::Silent => Box::new(Mute(ProcessId::new(key.id()))),
        ByzantineStrategy::FakePd { claimed } => Box::new(FakePdStrategy {
            disc: DiscoveryLoop::new(key, registry.clone(), claimed.clone(), period),
        }),
        ByzantineStrategy::EquivocatePd { even, odd } => Box::new(EquivocatePdStrategy {
            key: key.clone(),
            even: even.clone(),
            odd: odd.clone(),
        }),
        ByzantineStrategy::ForgeUnsignedPd { victim, claimed } => {
            Box::new(ForgeUnsignedPdStrategy {
                disc: DiscoveryLoop::new(key, registry.clone(), true_pd.clone(), period),
                victim: *victim,
                claimed: claimed.clone(),
            })
        }
        ByzantineStrategy::LieDecidedVal { value } => Box::new(LieDecidedValStrategy {
            disc: DiscoveryLoop::new(key, registry.clone(), true_pd.clone(), period),
            value: value.clone(),
        }),
        ByzantineStrategy::EquivocateValue {
            committee,
            value_a,
            value_b,
        } => Box::new(EquivocateValueStrategy {
            key: key.clone(),
            disc: DiscoveryLoop::new(key, registry.clone(), true_pd.clone(), period),
            committee: committee.clone(),
            value_a: value_a.clone(),
            value_b: value_b.clone(),
            equivocation_sent: false,
        }),
        ByzantineStrategy::DelayRelease { until, inner } => Box::new(DelayRelease::new(
            *until,
            build_strategy(inner, key, registry, true_pd, period),
        )),
        ByzantineStrategy::TargetSubset { targets, inner } => Box::new(TargetSubset::new(
            targets.clone(),
            build_strategy(inner, key, registry, true_pd, period),
        )),
        ByzantineStrategy::FlipAfter { at, before, after } => Box::new(FlipAfter::new(
            *at,
            build_strategy(before, key, registry, true_pd, period),
            build_strategy(after, key, registry, true_pd, period),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cupft_graph::process_set;

    /// Builds faulty process 4 the way the scenario runner does.
    fn make(strategy: ByzantineStrategy) -> (Box<dyn Actor<NodeMsg>>, KeyRegistry) {
        let mut registry = KeyRegistry::new();
        let key = registry.register(4);
        let actor = build_strategy(&strategy, &key, &registry, &process_set([1, 2, 3]), 20);
        (actor, registry)
    }

    /// A minimal incoming request (empty have-set: "send me everything").
    fn get_pds() -> NodeMsg {
        NodeMsg::Discovery(DiscoveryMsg::GetPds {
            have: Arc::new(ProcessSet::new()),
            state: SyncState::default(),
        })
    }

    #[test]
    fn silent_never_sends() {
        let (mut actor, _) = make(ByzantineStrategy::Silent);
        let mut ctx = Context::new(0, actor.id());
        actor.on_start(&mut ctx);
        actor.on_message(ProcessId::new(1), get_pds(), &mut ctx);
        actor.on_message(ProcessId::new(1), NodeMsg::GetDecidedVal, &mut ctx);
        assert!(ctx.queued_sends().is_empty());
        assert!(ctx.queued_timers().is_empty());
    }

    #[test]
    fn fake_pd_serves_fabricated_claim() {
        let claimed = process_set([1, 2, 3]);
        let (mut actor, registry) = make(ByzantineStrategy::FakePd {
            claimed: claimed.clone(),
        });
        let mut ctx = Context::new(0, actor.id());
        actor.on_message(ProcessId::new(1), get_pds(), &mut ctx);
        let sends = ctx.queued_sends();
        assert_eq!(sends.len(), 1);
        match &sends[0].1 {
            NodeMsg::Discovery(DiscoveryMsg::SetPds { certs, .. }) => {
                let own = certs.iter().find(|c| c.author() == actor.id()).unwrap();
                assert_eq!(*own.pd(), claimed);
                // the lie is self-signed, hence verifiable
                assert!(own.verify(&registry));
            }
            other => panic!("expected SetPds, got {other:?}"),
        }
    }

    #[test]
    fn equivocate_pd_splits_by_requester() {
        let (mut actor, registry) = make(ByzantineStrategy::EquivocatePd {
            even: process_set([1]),
            odd: process_set([2]),
        });
        let pd_served = |actor: &mut Box<dyn Actor<NodeMsg>>, from: u64| {
            let mut ctx = Context::new(0, actor.id());
            actor.on_message(ProcessId::new(from), get_pds(), &mut ctx);
            match &ctx.queued_sends()[0].1 {
                NodeMsg::Discovery(DiscoveryMsg::SetPds { certs, .. }) => {
                    assert!(certs[0].verify(&registry));
                    certs[0].pd().clone()
                }
                _ => panic!("expected SetPds"),
            }
        };
        assert_eq!(pd_served(&mut actor, 2), process_set([1]));
        assert_eq!(pd_served(&mut actor, 3), process_set([2]));
    }

    #[test]
    fn forged_pd_fails_verification() {
        let (mut actor, registry) = make(ByzantineStrategy::ForgeUnsignedPd {
            victim: ProcessId::new(1),
            claimed: process_set([4]),
        });
        let mut ctx = Context::new(0, actor.id());
        actor.on_message(ProcessId::new(2), get_pds(), &mut ctx);
        let forged: Vec<&PdCertificate> = ctx
            .queued_sends()
            .iter()
            .filter_map(|(_, m)| match m {
                NodeMsg::Discovery(DiscoveryMsg::SetPds { certs, .. }) => certs
                    .iter()
                    .map(|c| c.as_ref())
                    .find(|c| c.author() == ProcessId::new(1)),
                _ => None,
            })
            .collect();
        assert_eq!(forged.len(), 1, "the forged record is pushed");
        assert!(!forged[0].verify(&registry), "and fails verification");
    }

    #[test]
    fn equivocate_value_sends_conflicting_proposals() {
        let mut registry = KeyRegistry::new();
        let key = registry.register(1); // lowest ID => view-0 leader
        let spec = ByzantineStrategy::EquivocateValue {
            committee: process_set([1, 2, 3, 4]),
            value_a: Value::from_static(b"A"),
            value_b: Value::from_static(b"B"),
        };
        let mut actor = build_strategy(&spec, &key, &registry, &process_set([2, 3, 4]), 20);
        let mut ctx = Context::new(100, actor.id());
        actor.on_timer(DISCOVERY_TICK, &mut ctx);
        let proposals: Vec<&NodeMsg> = ctx
            .queued_sends()
            .iter()
            .filter(|(_, m)| matches!(m, NodeMsg::Committee(_)))
            .map(|(_, m)| m)
            .collect();
        assert_eq!(proposals.len(), 3);
        // second tick must not re-send
        let mut ctx2 = Context::new(120, actor.id());
        actor.on_timer(DISCOVERY_TICK, &mut ctx2);
        assert!(ctx2
            .queued_sends()
            .iter()
            .all(|(_, m)| !matches!(m, NodeMsg::Committee(_))));
    }

    #[test]
    fn combinator_specs_compile_and_compose() {
        // delay-release around fake-PD: nothing escapes before the release
        let (mut actor, _) = make(ByzantineStrategy::DelayRelease {
            until: 500,
            inner: Box::new(ByzantineStrategy::FakePd {
                claimed: process_set([1, 2, 3]),
            }),
        });
        let mut ctx = Context::new(0, actor.id());
        actor.on_start(&mut ctx);
        assert!(ctx.queued_sends().is_empty(), "sends are held back");
        // ... but the discovery tick and the release timer are both armed
        assert_eq!(ctx.queued_timers().len(), 2);

        // target-subset around equivocate-PD: replies to 9 are swallowed
        let (mut actor, _) = make(ByzantineStrategy::TargetSubset {
            targets: process_set([1]),
            inner: Box::new(ByzantineStrategy::EquivocatePd {
                even: process_set([1]),
                odd: process_set([2]),
            }),
        });
        let mut ctx = Context::new(0, actor.id());
        actor.on_message(ProcessId::new(9), get_pds(), &mut ctx);
        assert!(ctx.queued_sends().is_empty());
        let mut ctx = Context::new(0, actor.id());
        actor.on_message(ProcessId::new(1), get_pds(), &mut ctx);
        assert_eq!(ctx.queued_sends().len(), 1);
    }

    /// Every compiled actor, combinators included, must answer to the
    /// faulty process's id: the runtimes register and address actors by
    /// `id()`, so a wrapper reporting anything else would strand the
    /// process.
    #[test]
    fn compiled_actors_answer_to_the_faulty_id() {
        let specs = vec![
            ByzantineStrategy::Silent,
            ByzantineStrategy::FakePd {
                claimed: process_set([1, 2, 3]),
            },
            ByzantineStrategy::EquivocatePd {
                even: process_set([1]),
                odd: process_set([2]),
            },
            ByzantineStrategy::ForgeUnsignedPd {
                victim: ProcessId::new(1),
                claimed: process_set([4]),
            },
            ByzantineStrategy::LieDecidedVal {
                value: Value::from_static(b"evil"),
            },
            ByzantineStrategy::EquivocateValue {
                committee: process_set([1, 2, 3]),
                value_a: Value::from_static(b"A"),
                value_b: Value::from_static(b"B"),
            },
            ByzantineStrategy::DelayRelease {
                until: 100,
                inner: Box::new(ByzantineStrategy::FakePd {
                    claimed: process_set([1, 2]),
                }),
            },
            ByzantineStrategy::TargetSubset {
                targets: process_set([1, 2]),
                inner: Box::new(ByzantineStrategy::Silent),
            },
            ByzantineStrategy::FlipAfter {
                at: 400,
                before: Box::new(ByzantineStrategy::FakePd {
                    claimed: process_set([1]),
                }),
                after: Box::new(ByzantineStrategy::Silent),
            },
        ];
        let mut registry = KeyRegistry::new();
        let key = registry.register(4);
        for spec in specs {
            let compiled = build_strategy(&spec, &key, &registry, &process_set([1, 2, 3]), 20);
            assert_eq!(compiled.id(), ProcessId::new(4), "{spec:?}");
        }
    }
}
