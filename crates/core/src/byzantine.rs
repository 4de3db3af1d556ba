//! Byzantine processes over [`NodeMsg`], built on the [`cupft_adversary`]
//! strategy engine.
//!
//! The adversary is *static* (Section II-A): the strategy of each faulty
//! process is fixed before the run. Signatures bound what a Byzantine
//! process can do in the discovery plane — it may fabricate *its own* PD
//! freely (even equivocate between several self-signed PDs), but cannot
//! alter or invent records for correct processes (a forgery attempt is
//! [`ByzantineStrategy::ForgeUnsignedPd`], and receivers reject it). Every
//! equivocation honest messages allow — PDs, proposals, votes, learning
//! answers — comes from [`ByzantineStrategy::Twins`], two honest [`Node`]s
//! under the faulty process's key; any Byzantine member may stay silent.
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
use cupft_committee::{CommitteeMsg, QuorumCert, Value};
use cupft_crypto::sha256::digest;
use cupft_detector::{PdCertificate, SystemSetup};
use cupft_discovery::{DiscoveryMsg, DiscoveryState, SyncState, DISCOVERY_TICK};
use cupft_graph::{ProcessId, ProcessSet};
use cupft_net::{Actor, Context};

use crate::msgs::NodeMsg;
use crate::node::{Node, NodeConfig};

/// What a faulty process does (compatibility re-export of
/// [`cupft_adversary::StrategySpec`]; see that type for the variants).
pub use cupft_adversary::StrategySpec as ByzantineStrategy;

/// What a discovery-running leaf does beyond honest discovery.
#[derive(Debug)]
enum Extra {
    /// [`ByzantineStrategy::FakePd`]: nothing; the lie is the PD it runs
    /// discovery on — the Section III worked example (process 4 claiming
    /// `PD = {1,2,3}`).
    Nothing,
    /// [`ByzantineStrategy::ForgeUnsignedPd`]: every `GETPDS` reply is
    /// followed by a forged (unsigned) record claiming `claimed` as
    /// `victim`'s PD — the attack Algorithm 1's signatures exist to reject:
    /// correct receivers verify and discard it.
    Forge {
        victim: ProcessId,
        claimed: ProcessSet,
    },
    /// [`ByzantineStrategy::LieDecidedVal`]: every `GETDECIDEDVAL` is
    /// answered with a commit certificate for a fabricated value that
    /// holds only the liar's own commit — the direct attack on Algorithm
    /// 3's learning path. It is no quorum, so it is never adopted.
    Lie(Arc<QuorumCert>),
}

/// A leaf that runs Algorithm 1 ticks on the configured period, answers
/// discovery traffic from a [`DiscoveryState`], adds its [`Extra`], and is
/// otherwise silent in the committee plane.
#[derive(Debug)]
struct DiscoveryLeaf {
    discovery: DiscoveryState,
    period: u64,
    extra: Extra,
}

impl DiscoveryLeaf {
    fn tick(&mut self, ctx: &mut Context<NodeMsg>) {
        for (to, msg) in self.discovery.tick() {
            ctx.send(to, NodeMsg::Discovery(msg));
        }
        ctx.set_timer(DISCOVERY_TICK, self.period);
    }
}

impl Actor<NodeMsg> for DiscoveryLeaf {
    fn id(&self) -> ProcessId {
        self.discovery.id()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut Context<NodeMsg>) {
        self.tick(ctx);
    }

    fn on_message(&mut self, from: ProcessId, msg: NodeMsg, ctx: &mut Context<NodeMsg>) {
        match (msg, &self.extra) {
            (NodeMsg::Discovery(m), extra) => {
                let requested = matches!(m, DiscoveryMsg::GetPds { .. });
                for (to, out) in self.discovery.handle(from, m) {
                    ctx.send(to, NodeMsg::Discovery(out));
                }
                if let (true, Extra::Forge { victim, claimed }) = (requested, extra) {
                    let forged = PdCertificate::forge(*victim, claimed);
                    ctx.send(
                        from,
                        NodeMsg::Discovery(DiscoveryMsg::SetPds {
                            certs: vec![Arc::new(forged)].into(),
                            state: SyncState::default(),
                        }),
                    );
                }
            }
            (NodeMsg::GetDecidedVal, Extra::Lie(cert)) => {
                ctx.send(from, NodeMsg::DecidedVal(cert.clone()));
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, kind: u64, ctx: &mut Context<NodeMsg>) {
        if kind == DISCOVERY_TICK {
            self.tick(ctx);
        }
    }
}

/// The timer-kind bit that marks twin B's timers, so each firing reaches
/// the twin that armed it. No other timer kind sets it: the discovery,
/// churn and view-timer kinds are far smaller, and `RELEASE_TICK` and
/// `FLIP_TICK` have the top byte `0xAD`.
const TWIN_B_TICK: u64 = 1 << 62;

/// [`ByzantineStrategy::Twins`]: two honest nodes under one key. Twin A
/// hears from and speaks to `side_a`, twin B everyone else; a twin's sends
/// to its own id are delivered back to that twin at once.
#[derive(Debug)]
struct Twins {
    side_a: ProcessSet,
    a: Node,
    b: Node,
}

impl Twins {
    /// Runs `f` on twin B (`to_b`) or twin A and applies its effects:
    /// sends to its own id are handed back to it until none are left,
    /// sends to the other side are dropped, and twin B's timers carry
    /// [`TWIN_B_TICK`].
    fn step(
        &mut self,
        to_b: bool,
        ctx: &mut Context<NodeMsg>,
        f: impl FnOnce(&mut Node, &mut Context<NodeMsg>),
    ) {
        let me = ctx.self_id();
        let twin = if to_b { &mut self.b } else { &mut self.a };
        let mut scratch = Context::new(ctx.now(), me);
        f(twin, &mut scratch);
        loop {
            let (sends, timers, _) = scratch.into_effects();
            for (kind, delay) in timers {
                ctx.set_timer(if to_b { kind | TWIN_B_TICK } else { kind }, delay);
            }
            scratch = Context::new(ctx.now(), me);
            let mut own = Vec::new();
            for (to, msg) in sends {
                if to == me {
                    own.push(msg);
                } else if self.side_a.contains(&to) != to_b {
                    ctx.send(to, msg);
                }
            }
            if own.is_empty() {
                return;
            }
            for msg in own {
                twin.on_message(me, msg, &mut scratch);
            }
        }
    }
}

impl Actor<NodeMsg> for Twins {
    fn id(&self) -> ProcessId {
        self.a.id()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut Context<NodeMsg>) {
        self.step(false, ctx, |twin, ctx| twin.on_start(ctx));
        self.step(true, ctx, |twin, ctx| twin.on_start(ctx));
    }

    fn on_message(&mut self, from: ProcessId, msg: NodeMsg, ctx: &mut Context<NodeMsg>) {
        let to_b = !self.side_a.contains(&from);
        self.step(to_b, ctx, |twin, ctx| twin.on_message(from, msg, ctx));
    }

    fn on_timer(&mut self, kind: u64, ctx: &mut Context<NodeMsg>) {
        let to_b = kind & TWIN_B_TICK != 0;
        self.step(to_b, ctx, |twin, ctx| {
            twin.on_timer(kind & !TWIN_B_TICK, ctx)
        });
    }
}

/// Compiles a [`ByzantineStrategy`] spec into the actor of faulty
/// process `id` of `setup`.
///
/// `value` is the process's own proposal and `config` the configuration
/// its honest twin nodes run with. Strategies that run discovery on the
/// true PD start from the record the setup signed; `FakePd` and a twin's
/// `pd_b` sign their own claim. Combinator specs recurse — the generic
/// wrappers from [`cupft_adversary`] compose with every protocol strategy.
///
/// # Panics
///
/// Panics if `id` is not a vertex of `setup`.
pub fn build_strategy(
    spec: &ByzantineStrategy,
    setup: &SystemSetup,
    id: ProcessId,
    value: &Value,
    config: &NodeConfig,
) -> Box<dyn Actor<NodeMsg>> {
    let key = setup.key_of(id).expect("the faulty process is a vertex");
    let registry = setup.registry();
    let leaf = |discovery, extra| -> Box<dyn Actor<NodeMsg>> {
        Box::new(DiscoveryLeaf {
            discovery,
            period: config.discovery_period,
            extra,
        })
    };
    let true_pd = || DiscoveryState::from_setup(setup, id).expect("vertex");
    let build = |inner: &ByzantineStrategy| build_strategy(inner, setup, id, value, config);
    match spec {
        ByzantineStrategy::Silent => Box::new(Mute(id)),
        ByzantineStrategy::FakePd { claimed } => leaf(
            DiscoveryState::new(key, registry.clone(), claimed.clone()),
            Extra::Nothing,
        ),
        ByzantineStrategy::ForgeUnsignedPd { victim, claimed } => leaf(
            true_pd(),
            Extra::Forge {
                victim: *victim,
                claimed: claimed.clone(),
            },
        ),
        ByzantineStrategy::LieDecidedVal { value } => {
            let commit = CommitteeMsg::commit(key, 0, digest(value));
            let cert = QuorumCert {
                view: 0,
                value: value.clone(),
                signatures: vec![*commit.signature()],
            };
            leaf(true_pd(), Extra::Lie(Arc::new(cert)))
        }
        ByzantineStrategy::Twins {
            side_a,
            value_b,
            pd_b,
        } => {
            let twin = |value: &Value| {
                Node::from_setup(setup, id, value.clone(), config.clone()).expect("vertex")
            };
            let b = match pd_b {
                Some(pd) => Node::new(
                    key.clone(),
                    registry.clone(),
                    pd.clone(),
                    value_b.clone(),
                    config.clone(),
                ),
                None => twin(value_b),
            };
            Box::new(Twins {
                side_a: side_a.clone(),
                a: twin(value),
                b,
            })
        }
        ByzantineStrategy::DelayRelease { until, inner } => {
            Box::new(DelayRelease::new(*until, build(inner)))
        }
        ByzantineStrategy::TargetSubset { targets, inner } => {
            Box::new(TargetSubset::new(targets.clone(), build(inner)))
        }
        ByzantineStrategy::FlipAfter { at, before, after } => {
            Box::new(FlipAfter::new(*at, build(before), build(after)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::ProtocolMode;
    use cupft_committee::CommitteeMsg;
    use cupft_crypto::KeyRegistry;
    use cupft_graph::{fig1b, process_set};

    /// Builds faulty process `id` of Fig. 1b the way the scenario runner
    /// does, under `KnownThreshold(1)` (committee `{1,2,3,4}`).
    fn build(id: u64, strategy: &ByzantineStrategy) -> (Box<dyn Actor<NodeMsg>>, SystemSetup) {
        let setup = SystemSetup::new(fig1b().graph());
        let config = NodeConfig {
            mode: ProtocolMode::KnownThreshold(1),
            ..NodeConfig::default()
        };
        let value = Value::from(format!("v{id}").into_bytes());
        let actor = build_strategy(strategy, &setup, ProcessId::new(id), &value, &config);
        (actor, setup)
    }

    fn make(strategy: ByzantineStrategy) -> (Box<dyn Actor<NodeMsg>>, KeyRegistry) {
        let (actor, setup) = build(4, &strategy);
        (actor, setup.registry().clone())
    }

    /// A minimal incoming request (empty have-set: "send me everything").
    fn get_pds() -> NodeMsg {
        NodeMsg::Discovery(DiscoveryMsg::GetPds {
            have: Arc::new(ProcessSet::new()),
            state: SyncState::default(),
        })
    }

    fn twins(side_a: ProcessSet, pd_b: Option<ProcessSet>) -> ByzantineStrategy {
        ByzantineStrategy::Twins {
            side_a,
            value_b: Value::from_static(b"B"),
            pd_b,
        }
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

    /// Twins with even IDs on side A and a second PD for twin B: even
    /// requesters get the true PD, odd ones `pd_b`, both validly signed.
    #[test]
    fn equivocate_pd_splits_by_requester() {
        let (mut actor, setup) =
            build(4, &twins(process_set([2, 6, 8]), Some(process_set([5, 7]))));
        let pd_served = |actor: &mut Box<dyn Actor<NodeMsg>>, from: u64| {
            let mut ctx = Context::new(0, actor.id());
            actor.on_message(ProcessId::new(from), get_pds(), &mut ctx);
            let [(to, NodeMsg::Discovery(DiscoveryMsg::SetPds { certs, .. }))] = ctx.queued_sends()
            else {
                panic!("expected one SetPds, got {:?}", ctx.queued_sends());
            };
            assert_eq!(to.raw(), from);
            let own = certs.iter().find(|c| c.author() == actor.id()).unwrap();
            assert!(own.verify(setup.registry()));
            own.pd().clone()
        };
        assert_eq!(
            &pd_served(&mut actor, 2),
            setup
                .shared_certificate_for(ProcessId::new(4))
                .unwrap()
                .pd()
        );
        assert_eq!(pd_served(&mut actor, 3), process_set([5, 7]));
    }

    /// A twinned view-0 leader: once each twin holds the whole view and
    /// ticks, twin A proposes the process's own value to side A only and
    /// twin B its `value_b` to the rest of the committee only.
    #[test]
    fn equivocate_value_sends_conflicting_proposals() {
        let (mut actor, setup) = build(1, &twins(process_set([2]), None));
        let view: Arc<[_]> = fig1b()
            .graph()
            .vertices()
            .map(|v| setup.shared_certificate_for(v).expect("registered"))
            .collect();
        let everything = || {
            NodeMsg::Discovery(DiscoveryMsg::SetPds {
                certs: view.clone(),
                state: SyncState::default(),
            })
        };
        let mut ctx = Context::new(0, actor.id());
        actor.on_message(ProcessId::new(2), everything(), &mut ctx);
        actor.on_message(ProcessId::new(3), everything(), &mut ctx);
        let mut ctx = Context::new(20, actor.id());
        actor.on_timer(DISCOVERY_TICK, &mut ctx);
        actor.on_timer(DISCOVERY_TICK | TWIN_B_TICK, &mut ctx);
        let proposals: Vec<(u64, &[u8])> = ctx
            .queued_sends()
            .iter()
            .filter_map(|(to, m)| match m {
                NodeMsg::Committee(c) => match c.as_ref() {
                    CommitteeMsg::PrePrepare { value, .. } => Some((to.raw(), value.as_ref())),
                    _ => None,
                },
                _ => None,
            })
            .collect();
        assert_eq!(
            proposals,
            [(2, &b"v1"[..]), (3, &b"B"[..]), (4, &b"B"[..])],
            "{:?}",
            ctx.queued_sends()
        );
        // Twin B's timers carry the tag bit; twin A's do not.
        let timers = ctx.queued_timers();
        assert!(timers
            .iter()
            .any(|(kind, _)| *kind == DISCOVERY_TICK | TWIN_B_TICK));
        assert!(timers.iter().any(|(kind, _)| *kind & TWIN_B_TICK == 0));
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

        // target-subset around fake-PD: replies to 9 are swallowed
        let (mut actor, _) = make(ByzantineStrategy::TargetSubset {
            targets: process_set([1]),
            inner: Box::new(ByzantineStrategy::FakePd {
                claimed: process_set([1]),
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
            ByzantineStrategy::ForgeUnsignedPd {
                victim: ProcessId::new(1),
                claimed: process_set([4]),
            },
            ByzantineStrategy::LieDecidedVal {
                value: Value::from_static(b"evil"),
            },
            twins(process_set([1]), None),
            twins(process_set([2]), Some(process_set([1]))),
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
        for spec in specs {
            let (compiled, _) = make(spec.clone());
            assert_eq!(compiled.id(), ProcessId::new(4), "{spec:?}");
        }
    }
}
