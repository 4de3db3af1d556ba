//! Node-level white-box tests: the Algorithm 3 learning path (one commit
//! certificate decides), the answer protocol, and crash behavior, driven
//! by hand through `Context`.

use bft_cupft::committee::{CommitteeMsg, QuorumCert, Value, Vote};
use bft_cupft::core::{ChurnEvent, Node, NodeConfig, NodeMsg, Phase, ProtocolMode};
use bft_cupft::crypto::sha256::digest;
use bft_cupft::crypto::Signature;
use bft_cupft::detector::SystemSetup;
use bft_cupft::discovery::{DiscoveryMsg, SyncState, DISCOVERY_TICK};
use bft_cupft::graph::{fig1b, process_set, ProcessId};
use bft_cupft::net::{Actor, Context};
use std::sync::Arc;

fn p(n: u64) -> ProcessId {
    ProcessId::new(n)
}

/// Wraps certificates in a SETPDS message.
fn set_pds(certs: Vec<Arc<bft_cupft::detector::PdCertificate>>) -> NodeMsg {
    NodeMsg::Discovery(DiscoveryMsg::SetPds {
        certs: certs.into(),
        state: SyncState::default(),
    })
}

/// Builds a non-member node (process 7 of Fig. 1b) and walks it to the
/// Learning phase by feeding it the sink's PDs directly.
fn learning_node() -> Node {
    let fig = fig1b();
    let setup = SystemSetup::new(fig.graph());
    let mut node = Node::from_setup(
        &setup,
        p(7),
        Value::from_static(b"mine"),
        NodeConfig {
            mode: ProtocolMode::KnownThreshold(1),
            ..NodeConfig::default()
        },
    )
    .unwrap();
    // Feed every correct process's signed PD through one SETPDS.
    let certs: Vec<_> = fig
        .graph()
        .vertices()
        .map(|v| setup.shared_certificate_for(v).unwrap())
        .collect();
    let mut ctx = Context::new(10, p(7));
    node.on_message(p(5), set_pds(certs), &mut ctx);
    // Identification runs on the discovery tick, not per message.
    node.on_timer(DISCOVERY_TICK, &mut ctx);
    assert_eq!(node.phase(), Phase::Learning, "{:?}", node.detection());
    assert_eq!(
        node.detection().unwrap().members(),
        process_set([1, 2, 3, 4])
    );
    node
}

#[test]
fn learner_requests_decided_value_from_all_members() {
    let fig = fig1b();
    let setup = SystemSetup::new(fig.graph());
    let mut node = Node::from_setup(
        &setup,
        p(7),
        Value::from_static(b"mine"),
        NodeConfig {
            mode: ProtocolMode::KnownThreshold(1),
            ..NodeConfig::default()
        },
    )
    .unwrap();
    let certs: Vec<_> = fig
        .graph()
        .vertices()
        .map(|v| setup.shared_certificate_for(v).unwrap())
        .collect();
    let mut ctx = Context::new(10, p(7));
    node.on_message(p(5), set_pds(certs), &mut ctx);
    node.on_timer(DISCOVERY_TICK, &mut ctx);
    let targets: Vec<u64> = ctx
        .queued_sends()
        .iter()
        .filter(|(_, m)| matches!(m, NodeMsg::GetDecidedVal))
        .map(|(to, _)| to.raw())
        .collect();
    assert_eq!(targets, vec![1, 2, 3, 4]);
}

/// `vote` signatures over `(view, digest(value))` by each of `signers`,
/// with their keys from Fig. 1b's setup.
fn signatures(vote: Vote, view: u64, value: &[u8], signers: &[u64]) -> Vec<Signature> {
    let setup = SystemSetup::new(fig1b().graph());
    let d = digest(value);
    signers
        .iter()
        .map(|&id| *CommitteeMsg::vote(setup.key_of(p(id)).unwrap(), vote, view, d).signature())
        .collect()
}

/// A `DecidedVal` claiming `value` was decided in `view` on `signatures`.
fn decided_val(view: u64, value: &'static [u8], signatures: Vec<Signature>) -> NodeMsg {
    NodeMsg::DecidedVal(Arc::new(QuorumCert {
        view,
        value: Value::from_static(value),
        signatures,
    }))
}

/// A valid commit certificate: members 1, 2 and 3, a quorum of Fig. 1b's
/// committee `{1, 2, 3, 4}` at `g = 1`, committed `value` in `view`.
fn commit_cert(view: u64, value: &'static [u8]) -> NodeMsg {
    decided_val(
        view,
        value,
        signatures(Vote::Commit, view, value, &[1, 2, 3]),
    )
}

/// One valid commit certificate decides a learner in one message, whoever
/// sends it: a member, a non-member, or the learner itself.
#[test]
fn learner_decides_on_one_valid_commit_certificate() {
    for from in [1u64, 4, 6, 7] {
        let mut node = learning_node();
        node.on_message(p(from), commit_cert(0, b"X"), &mut Context::new(20, p(7)));
        assert_eq!(
            node.decision().map(|v| v.as_ref()),
            Some(&b"X"[..]),
            "from {from}"
        );
        assert_eq!(node.decided_time, Some(20), "from {from}");
    }
}

/// A certificate that is not a quorum of the learner's committee's commits
/// over its own view and value decides nothing, even when every member
/// sends it.
#[test]
fn learner_rejects_every_invalid_certificate() {
    let commits = |signers: &[u64]| signatures(Vote::Commit, 0, b"X", signers);
    let cases = [
        ("under-quorum", decided_val(0, b"X", commits(&[1, 2]))),
        (
            "non-member signer",
            decided_val(0, b"X", commits(&[1, 2, 5])),
        ),
        (
            "duplicated signer",
            decided_val(0, b"X", commits(&[1, 1, 2])),
        ),
        ("forged signature", {
            let mut forged = commits(&[1, 2]);
            forged.push(Signature::forged(3));
            decided_val(0, b"X", forged)
        }),
        (
            "signed over another value",
            decided_val(0, b"X", signatures(Vote::Commit, 0, b"Y", &[1, 2, 3])),
        ),
        (
            "signed over another view",
            decided_val(0, b"X", signatures(Vote::Commit, 1, b"X", &[1, 2, 3])),
        ),
        (
            "prepare quorum as commit quorum",
            decided_val(0, b"X", signatures(Vote::Prepare, 0, b"X", &[1, 2, 3])),
        ),
    ];
    for (case, msg) in cases {
        let mut node = learning_node();
        let mut ctx = Context::new(20, p(7));
        for member in 1..=4 {
            node.on_message(p(member), msg.clone(), &mut ctx);
        }
        assert!(node.decision().is_none(), "{case} decided");
    }
}

/// Integrity (§II-B): a decision is final. A later valid certificate for
/// another value changes neither the value nor its time.
#[test]
fn learner_decides_once() {
    let mut node = learning_node();
    node.on_message(p(1), commit_cert(0, b"X"), &mut Context::new(20, p(7)));
    assert_eq!(node.decision().map(|v| v.as_ref()), Some(&b"X"[..]));
    assert_eq!(node.decided_time, Some(20));
    let mut later = Context::new(90, p(7));
    for member in [1u64, 2, 3, 4] {
        node.on_message(p(member), commit_cert(1, b"Y"), &mut later);
    }
    assert_eq!(node.decision().map(|v| v.as_ref()), Some(&b"X"[..]));
    assert_eq!(node.decided_time, Some(20));
}

#[test]
fn undecided_node_parks_requests_and_answers_on_decision() {
    let mut node = learning_node();
    let mut ctx = Context::new(20, p(7));
    node.on_message(p(8), NodeMsg::GetDecidedVal, &mut ctx);
    assert!(
        ctx.queued_sends().is_empty(),
        "no answer before a decision exists"
    );
    // Decide on one certificate; the parked request must be answered in
    // the same step, with that certificate.
    let mut ctx = Context::new(30, p(7));
    node.on_message(p(1), commit_cert(0, b"Z"), &mut ctx);
    let answered: Vec<(u64, &[u8])> = ctx
        .queued_sends()
        .iter()
        .filter_map(|(to, m)| match m {
            NodeMsg::DecidedVal(cert) => Some((to.raw(), cert.value.as_ref())),
            _ => None,
        })
        .collect();
    assert!(answered.contains(&(8, &b"Z"[..])));
    // a later request is answered immediately
    let mut ctx = Context::new(40, p(7));
    node.on_message(p(6), NodeMsg::GetDecidedVal, &mut ctx);
    assert_eq!(ctx.queued_sends().len(), 1);
}

#[test]
fn crashed_node_stops_mid_protocol() {
    // A silent departure (no goodbye) is, to everyone else, a crash.
    let fig = fig1b();
    let setup = SystemSetup::new(fig.graph());
    let mut node = Node::from_setup(
        &setup,
        p(7),
        Value::from_static(b"mine"),
        NodeConfig {
            mode: ProtocolMode::KnownThreshold(1),
            churn: vec![ChurnEvent::LeaveAt {
                tick: 15,
                node: p(7),
            }],
            ..NodeConfig::default()
        },
    )
    .unwrap();
    let mut ctx = Context::new(0, p(7));
    node.on_start(&mut ctx);
    assert!(!ctx.queued_sends().is_empty(), "alive before the crash");
    // The leave timer is the one start armed for tick 15.
    let leave_tick = ctx
        .queued_timers()
        .iter()
        .find(|&&(_, delay)| delay == 15)
        .expect("leave timer armed")
        .0;
    let mut ctx = Context::new(15, p(7));
    node.on_timer(leave_tick, &mut ctx);
    let mut ctx = Context::new(20, p(7));
    node.on_message(p(1), NodeMsg::GetDecidedVal, &mut ctx);
    node.on_timer(bft_cupft::discovery::DISCOVERY_TICK, &mut ctx);
    assert!(ctx.queued_sends().is_empty(), "silent after the crash");
    assert!(ctx.queued_timers().is_empty());
}

#[test]
fn member_node_starts_replica_and_proposes() {
    // Process 1 is a sink member and the view-0 leader.
    let fig = fig1b();
    let setup = SystemSetup::new(fig.graph());
    let mut node = Node::from_setup(
        &setup,
        p(1),
        Value::from_static(b"lead"),
        NodeConfig {
            mode: ProtocolMode::KnownThreshold(1),
            ..NodeConfig::default()
        },
    )
    .unwrap();
    let certs: Vec<_> = fig
        .graph()
        .vertices()
        .map(|v| setup.shared_certificate_for(v).unwrap())
        .collect();
    let mut ctx = Context::new(10, p(1));
    node.on_message(p(2), set_pds(certs), &mut ctx);
    node.on_timer(DISCOVERY_TICK, &mut ctx);
    assert_eq!(node.phase(), Phase::Member);
    assert_eq!(node.replica_view(), Some(0));
    let proposals = ctx
        .queued_sends()
        .iter()
        .filter(|(_, m)| matches!(m, NodeMsg::Committee(_)))
        .count();
    assert!(proposals >= 4, "leader must broadcast its pre-prepare");
}

/// ROADMAP item 11: one sender cannot fill the pre-identification
/// committee backlog. Process 5 floods member 2 with 8 192 junk votes
/// before 2 identifies; the view-0 leader's pre-prepare, delivered after
/// the flood, must still be queued, so identifying makes 2 broadcast its
/// view-0 prepare.
#[test]
fn committee_backlog_flood_from_one_sender_keeps_the_leaders_proposal() {
    let fig = fig1b();
    let setup = SystemSetup::new(fig.graph());
    let mut node = Node::from_setup(
        &setup,
        p(2),
        Value::from_static(b"mine"),
        NodeConfig {
            mode: ProtocolMode::KnownThreshold(1),
            ..NodeConfig::default()
        },
    )
    .unwrap();
    let mut ctx = Context::new(10, p(2));
    let flooder = setup.key_of(p(5)).unwrap();
    for view in 0..8_192u64 {
        let junk = CommitteeMsg::prepare(flooder, view, [0xAB; 32]);
        node.on_message(p(5), junk.into(), &mut ctx);
    }
    let leader = setup.key_of(p(1)).unwrap();
    let proposal = CommitteeMsg::pre_prepare(leader, 0, Value::from_static(b"lead"), vec![]);
    node.on_message(p(1), proposal.into(), &mut ctx);
    assert!(
        ctx.queued_sends().is_empty(),
        "nothing sent before identifying"
    );
    let certs: Vec<_> = fig
        .graph()
        .vertices()
        .map(|v| setup.shared_certificate_for(v).unwrap())
        .collect();
    node.on_message(p(3), set_pds(certs), &mut ctx);
    node.on_timer(DISCOVERY_TICK, &mut ctx);
    assert_eq!(node.phase(), Phase::Member);
    let prepared_to: Vec<u64> = ctx
        .queued_sends()
        .iter()
        .filter_map(|(to, m)| match m {
            NodeMsg::Committee(c) => match **c {
                CommitteeMsg::Vote {
                    kind: Vote::Prepare,
                    view: 0,
                    ..
                } => Some(to.raw()),
                _ => None,
            },
            _ => None,
        })
        .collect();
    assert_eq!(prepared_to, [1, 2, 3, 4], "member 2 prepares view 0");
}
