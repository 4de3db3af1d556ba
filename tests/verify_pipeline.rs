//! Acceptance tests for shared certificate verification: every
//! `DiscoveryState` attached to the run's `CertPool` settles the
//! certificates of each `SETPDS` bundle in `absorb_batch` against one
//! system-wide verdict memo (one HMAC per distinct record), instead of
//! verifying every certificate itself.
//!
//! Two claims, both at the `DiscoveryState` level, with no runtime stage:
//!
//! 1. **Fixpoint insensitivity** (property test) — under message
//!    reordering and sender-dropping adversaries, absorbing through the
//!    shared pool reaches the same knowledge fixpoint as private
//!    verification, view-for-view; and delivering every message as a
//!    freshly decoded copy (what the socket link does: new, not yet
//!    hashed certificates) reaches the same fixpoint as in-process
//!    delivery.
//! 2. **Forgery accounting under concurrency** — a forged record replayed
//!    into many processes absorbing concurrently against one shared pool
//!    is counted exactly once globally and once per process, whether the
//!    replay is the shared allocation or a decoded copy.

mod discovery_sim;

use std::sync::Arc;

use bft_cupft::adversary::TamperSpec;
use bft_cupft::detector::{PdCertificate, SystemSetup};
use bft_cupft::discovery::{DiscoveryActor, DiscoveryMsg, DiscoveryState};
use bft_cupft::graph::{fig1b, process_set, DiGraph, GraphFamily, KnowledgeView, ProcessId};
use bft_cupft::net::{Actor, Context, TimerKind};
use bft_cupft::wire::{decode_from_slice, encode_to_vec};
use discovery_sim::{final_views, silencing, DiscoverySim};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A family sample picked by index, at a small size.
fn arb_graph() -> impl Strategy<Value = DiGraph> {
    (0u8..3, 10usize..18, 0u64..50).prop_map(|(which, size, seed)| {
        let family = match which {
            0 => GraphFamily::erdos_renyi(size, 1),
            1 => GraphFamily::k_diamond(size, 1),
            _ => GraphFamily::bridged_partition(size.max(12), 1),
        };
        family
            .scaled(size)
            .generate(seed)
            .expect("valid family parameters")
            .system
            .graph
    })
}

fn arb_tamper() -> impl Strategy<Value = Option<TamperSpec>> {
    (0u8..2, 1u64..60, 0u64..1000).prop_map(|(which, window, seed)| match which {
        0 => None,
        _ => Some(TamperSpec::ReorderWindow { window, seed }),
    })
}

/// Round-trips a message through its wire encoding, as the socket link
/// does: every certificate comes back as a fresh, unhashed allocation.
fn wire_copy(msg: &DiscoveryMsg) -> DiscoveryMsg {
    decode_from_slice(&encode_to_vec(msg)).expect("an encoded message decodes")
}

/// A discovery actor that receives every message as a [`wire_copy`].
struct Decoding(DiscoveryActor);

impl Actor<DiscoveryMsg> for Decoding {
    fn id(&self) -> ProcessId {
        self.0.id()
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self.0.as_any()
    }
    fn on_start(&mut self, ctx: &mut Context<DiscoveryMsg>) {
        self.0.on_start(ctx);
    }
    fn on_message(&mut self, from: ProcessId, msg: DiscoveryMsg, ctx: &mut Context<DiscoveryMsg>) {
        self.0.on_message(from, wire_copy(&msg), ctx);
    }
    fn on_timer(&mut self, timer: TimerKind, ctx: &mut Context<DiscoveryMsg>) {
        self.0.on_timer(timer, ctx);
    }
}

/// Runs discovery-only actors under `tamper`, each verifying privately or
/// through the setup's shared pool, returning each process's final view.
fn run_discovery(
    graph: &DiGraph,
    pooled: bool,
    seed: u64,
    tamper: &Option<TamperSpec>,
    silenced: Option<ProcessId>,
) -> BTreeMap<ProcessId, KnowledgeView> {
    run_discovery_with(graph, pooled, seed, tamper, silenced, false)
}

/// [`run_discovery`], optionally delivering every message decoded.
fn run_discovery_with(
    graph: &DiGraph,
    pooled: bool,
    seed: u64,
    tamper: &Option<TamperSpec>,
    silenced: Option<ProcessId>,
    decoded: bool,
) -> BTreeMap<ProcessId, KnowledgeView> {
    let mut sim = DiscoverySim::new(graph, seed, 20_000)
        .with_shared_pool(pooled)
        .with_tamper(silencing(tamper, silenced));
    if decoded {
        sim = sim.with_wrapper(|actor| Box::new(Decoding(actor)));
    }
    let mut sim = sim.build();
    sim.run_until(|s| s.now() > 12_000);
    final_views(sim)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Sharing verdicts never moves the knowledge fixpoint, under
    /// reordering adversaries.
    #[test]
    fn pooled_absorb_preserves_fixpoint_under_reordering(
        graph in arb_graph(),
        seed in 0u64..500,
        tamper in arb_tamper(),
    ) {
        let serial = run_discovery(&graph, false, seed, &tamper, None);
        let pooled = run_discovery(&graph, true, seed, &tamper, None);
        prop_assert_eq!(&serial, &pooled);
        prop_assert!(pooled.values().all(|v| v.received_count() >= 2));
    }

    /// Same with a silenced (DropFrom) periphery sender: the shared memo
    /// cannot resurrect certificates the network never carried.
    #[test]
    fn pooled_absorb_preserves_fixpoint_under_drops(
        graph in arb_graph(),
        seed in 0u64..500,
        tamper in arb_tamper(),
    ) {
        let victim = graph.vertices().max().expect("non-empty graph");
        let serial = run_discovery(&graph, false, seed, &tamper, Some(victim));
        let pooled = run_discovery(&graph, true, seed, &tamper, Some(victim));
        prop_assert_eq!(&serial, &pooled);
        for (&id, view) in &pooled {
            if id != victim {
                prop_assert!(!view.has_pd_of(victim));
            }
        }
    }

    /// Delivering every message as a decoded copy — fresh certificates
    /// whose fingerprints nobody has computed, dropped as duplicates by
    /// exact equality — reaches the in-process pooled fixpoint, under
    /// reordering with or without a silenced sender.
    #[test]
    fn decoded_delivery_preserves_pooled_fixpoint(
        graph in arb_graph(),
        seed in 0u64..500,
        tamper in arb_tamper(),
        silence in any::<bool>(),
    ) {
        let victim = silence.then(|| graph.vertices().max().expect("non-empty graph"));
        let in_process = run_discovery(&graph, true, seed, &tamper, victim);
        let decoded = run_discovery_with(&graph, true, seed, &tamper, victim, true);
        prop_assert_eq!(&in_process, &decoded);
        prop_assert!(decoded
            .iter()
            .all(|(&id, v)| Some(id) == victim || v.received_count() >= 2));
    }
}

/// Many processes concurrently absorbing the same forged-replay bundle
/// against one shared pool: the pool counts the forgery exactly once
/// system-wide, every process counts it exactly once locally, and the
/// genuine certificates aboard the same bundle all land.
#[test]
fn forged_replay_is_counted_once_by_the_shared_memo_under_concurrency() {
    let fig = fig1b();
    let setup = SystemSetup::new(fig.graph());
    let forged = Arc::new(PdCertificate::forge(ProcessId::new(2), &process_set([999])));
    let mut bundle: Vec<Arc<PdCertificate>> = fig
        .graph()
        .vertices()
        .map(|v| setup.shared_certificate_for(v).expect("registered"))
        .collect();
    bundle.push(forged.clone());

    let states: Vec<DiscoveryState> = std::thread::scope(|scope| {
        let handles: Vec<_> = fig
            .graph()
            .vertices()
            .map(|v| {
                let setup = &setup;
                let bundle = &bundle;
                scope.spawn(move || {
                    let mut state = DiscoveryState::from_setup(setup, v)
                        .unwrap()
                        .with_shared_pool(setup.pool().clone());
                    // Replay the identical bundle several times: only the
                    // first absorb of each record does any work.
                    for _ in 0..4 {
                        state.absorb_batch(bundle);
                    }
                    state
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("absorbing thread panicked"))
            .collect()
    });

    assert_eq!(
        setup.pool().forged_records(),
        1,
        "the shared memo must count the forged record once system-wide"
    );
    assert_eq!(setup.pool().verdict(forged.fingerprint()), Some(false));
    let n = fig.graph().vertices().count();
    for state in &states {
        assert_eq!(state.rejected_forgeries, 1, "once per process");
        assert_eq!(
            state.certificates().count(),
            n,
            "every genuine certificate aboard the bundle must land"
        );
        assert!(!state.view().has_pd_of(ProcessId::new(999)));
    }
}

/// The concurrency test above with decoded replays: every thread alternates
/// between a freshly decoded copy of the forged bundle (new, unhashed
/// certificates, as the socket link delivers them) and the shared
/// allocation. The forgery still counts once per process and once
/// system-wide, and every genuine certificate lands.
#[test]
fn decoded_forged_replay_is_counted_once_by_the_shared_memo_under_concurrency() {
    let fig = fig1b();
    let setup = SystemSetup::new(fig.graph());
    let forged = Arc::new(PdCertificate::forge(ProcessId::new(2), &process_set([999])));
    let mut bundle: Vec<Arc<PdCertificate>> = fig
        .graph()
        .vertices()
        .map(|v| setup.shared_certificate_for(v).expect("registered"))
        .collect();
    bundle.push(forged.clone());
    let msg = DiscoveryMsg::SetPds {
        certs: bundle.into(),
        state: Default::default(),
    };

    let states: Vec<DiscoveryState> = std::thread::scope(|scope| {
        let handles: Vec<_> = fig
            .graph()
            .vertices()
            .map(|v| {
                let setup = &setup;
                let msg = &msg;
                scope.spawn(move || {
                    let mut state = DiscoveryState::from_setup(setup, v)
                        .unwrap()
                        .with_shared_pool(setup.pool().clone());
                    for round in 0..4 {
                        let delivered = if round % 2 == 0 {
                            wire_copy(msg)
                        } else {
                            msg.clone()
                        };
                        state.handle(ProcessId::new(1), delivered);
                    }
                    state
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("absorbing thread panicked"))
            .collect()
    });

    assert_eq!(setup.pool().forged_records(), 1, "once system-wide");
    assert_eq!(setup.pool().verdict(forged.fingerprint()), Some(false));
    let n = fig.graph().vertices().count();
    for state in &states {
        assert_eq!(state.rejected_forgeries, 1, "once per process");
        assert_eq!(state.certificates().count(), n);
        assert!(!state.view().has_pd_of(ProcessId::new(999)));
    }
}
