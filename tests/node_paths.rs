//! Node-level white-box tests: the Algorithm 3 learning path, the answer
//! protocol, and crash behavior, driven by hand through `Context`.

use bft_cupft::committee::{CommitteeMsg, Value};
use bft_cupft::core::{ChurnEvent, Node, NodeConfig, NodeMsg, Phase, ProtocolMode};
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

#[test]
fn learner_decides_on_majority_of_matching_answers() {
    let mut node = learning_node();
    let mut ctx = Context::new(20, p(7));
    // |S| = 4: learning threshold = ceil(5/2) = 3 distinct members.
    node.on_message(
        p(1),
        NodeMsg::DecidedVal(Value::from_static(b"X")),
        &mut ctx,
    );
    assert!(node.decision().is_none());
    // duplicate from the same member does not advance the tally
    node.on_message(
        p(1),
        NodeMsg::DecidedVal(Value::from_static(b"X")),
        &mut ctx,
    );
    assert!(node.decision().is_none());
    // a conflicting answer opens its own tally
    node.on_message(
        p(4),
        NodeMsg::DecidedVal(Value::from_static(b"Y")),
        &mut ctx,
    );
    assert!(node.decision().is_none());
    node.on_message(
        p(2),
        NodeMsg::DecidedVal(Value::from_static(b"X")),
        &mut ctx,
    );
    assert!(node.decision().is_none());
    node.on_message(
        p(3),
        NodeMsg::DecidedVal(Value::from_static(b"X")),
        &mut ctx,
    );
    assert_eq!(node.decision().map(|v| v.as_ref()), Some(&b"X"[..]));
}

/// Integrity (§II-B): a decision is final. A later quorum of matching
/// answers for another value changes neither the value nor its time.
#[test]
fn learner_decides_once() {
    let mut node = learning_node();
    let mut ctx = Context::new(20, p(7));
    for member in [1u64, 2, 3] {
        node.on_message(
            p(member),
            NodeMsg::DecidedVal(Value::from_static(b"X")),
            &mut ctx,
        );
    }
    assert_eq!(node.decision().map(|v| v.as_ref()), Some(&b"X"[..]));
    assert_eq!(node.decided_time, Some(20));
    let mut later = Context::new(90, p(7));
    for member in [1u64, 2, 3, 4] {
        node.on_message(
            p(member),
            NodeMsg::DecidedVal(Value::from_static(b"Y")),
            &mut later,
        );
    }
    assert_eq!(node.decision().map(|v| v.as_ref()), Some(&b"X"[..]));
    assert_eq!(node.decided_time, Some(20));
}

#[test]
fn learner_ignores_answers_from_non_members() {
    let mut node = learning_node();
    let mut ctx = Context::new(20, p(7));
    for from in [5u64, 6, 8] {
        node.on_message(
            p(from),
            NodeMsg::DecidedVal(Value::from_static(b"X")),
            &mut ctx,
        );
    }
    assert!(
        node.decision().is_none(),
        "answers from non-members must not count"
    );
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
    // Decide via three matching answers; the parked request must be
    // answered in the same step.
    let mut ctx = Context::new(30, p(7));
    for from in [1u64, 2, 3] {
        node.on_message(
            p(from),
            NodeMsg::DecidedVal(Value::from_static(b"Z")),
            &mut ctx,
        );
    }
    let answered: Vec<(u64, &[u8])> = ctx
        .queued_sends()
        .iter()
        .filter_map(|(to, m)| match m {
            NodeMsg::DecidedVal(v) => Some((to.raw(), v.as_ref())),
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
                CommitteeMsg::Prepare { view: 0, .. } => Some(to.raw()),
                _ => None,
            },
            _ => None,
        })
        .collect();
    assert_eq!(prepared_to, [1, 2, 3, 4], "member 2 prepares view 0");
}
