//! Property tests for the delta-gossip dissemination layer.
//!
//! * Per-peer ack (sync-state) bookkeeping must never suppress a
//!   certificate a peer has not received — phrased operationally,
//!   delta-mode discovery must reach the same final `KnowledgeView`s as
//!   the full-`S_PD` baseline under the same seed and the same network
//!   adversary, across random topologies, seeds, and tamper schedules
//!   (message reordering, and dropping the traffic of a periphery
//!   "silenced" process).
//! * `absorb_batch` matches a plain sequential model of Algorithm 1 lines
//!   4–6 over random bundles cut at random batch boundaries: held records,
//!   decoded equal copies, forgeries and their replays, and two validly
//!   signed PDs from one author.
//! * A `GETPDS` reply ships exactly the held certificates whose author the
//!   requester's have-set lacks, in ascending author order (delta mode),
//!   or every held certificate in author order (full mode).

mod discovery_sim;

use bft_cupft::adversary::TamperSpec;
use bft_cupft::detector::{PdCertificate, SystemSetup};
use bft_cupft::discovery::{DiscoveryMsg, DiscoveryState, GossipMode, SyncState};
use bft_cupft::graph::{process_set, DiGraph, GraphFamily, KnowledgeView, ProcessId, ProcessSet};
use bft_cupft::wire::{decode_from_slice, encode_to_vec};
use discovery_sim::{final_views, silencing, DiscoverySim};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A family sample picked by index, at a small size (the properties are
/// about protocol logic, not scale).
fn arb_graph() -> impl Strategy<Value = DiGraph> {
    (0u8..4, 10usize..20, 0u64..50).prop_map(|(which, size, seed)| {
        let family = match which {
            0 => GraphFamily::erdos_renyi(size, 1),
            1 => GraphFamily::ring_of_cliques(size, 1),
            2 => GraphFamily::k_diamond(size, 1),
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

/// Reordering plus (sometimes) a silenced highest-ID sender — the
/// `DropFrom` discipline of the model: the dropped process is effectively
/// Byzantine-silent, identically so in both gossip modes.
fn arb_tamper() -> impl Strategy<Value = Option<TamperSpec>> {
    (0u8..3, 1u64..60, 0u64..1000).prop_map(|(which, window, seed)| match which {
        0 => None,
        1 => Some(TamperSpec::ReorderWindow { window, seed }),
        _ => Some(TamperSpec::Chain(vec![TamperSpec::ReorderWindow {
            window,
            seed,
        }])),
    })
}

/// Runs discovery-only actors to a generous horizon under `tamper`,
/// returning each process's final view.
fn run_discovery(
    graph: &DiGraph,
    mode: GossipMode,
    seed: u64,
    tamper: &Option<TamperSpec>,
    silenced: Option<ProcessId>,
) -> BTreeMap<ProcessId, KnowledgeView> {
    let mut sim = DiscoverySim::new(graph, seed, 20_000)
        .with_gossip(mode)
        .with_tamper(silencing(tamper, silenced))
        .build();
    sim.run_until(|s| s.now() > 12_000);
    final_views(sim)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Ack state never suppresses an unseen certificate: at the horizon,
    /// delta views equal full-baseline views process-for-process, under
    /// the same reordering schedule.
    #[test]
    fn delta_never_suppresses_under_reordering(
        graph in arb_graph(),
        seed in 0u64..500,
        tamper in arb_tamper(),
    ) {
        let full = run_discovery(&graph, GossipMode::Full, seed, &tamper, None);
        let delta = run_discovery(&graph, GossipMode::Delta, seed, &tamper, None);
        prop_assert_eq!(&full, &delta);
        // Sanity: the runs actually disseminated something — every view
        // holds at least its own PD plus one more on these families.
        prop_assert!(delta.values().all(|v| v.received_count() >= 2));
    }

    /// Same property with a silenced (DropFrom) periphery process: both
    /// modes see the identical weaker network, so both converge to the
    /// same (reduced) views — a certificate that never crossed the wire
    /// in the baseline must also not be "remembered away" by delta
    /// bookkeeping, and vice versa.
    #[test]
    fn delta_never_suppresses_under_drops(
        graph in arb_graph(),
        seed in 0u64..500,
        tamper in arb_tamper(),
    ) {
        // Highest ID is always a periphery/outer vertex under the
        // families' sink-first ID layout; silencing it stays in-model.
        let victim = graph.vertices().max().expect("non-empty graph");
        let full = run_discovery(&graph, GossipMode::Full, seed, &tamper, Some(victim));
        let delta = run_discovery(&graph, GossipMode::Delta, seed, &tamper, Some(victim));
        prop_assert_eq!(&full, &delta);
        // The victim's own certificate must be absent everywhere else:
        // its sends (the only source) were dropped.
        for (&id, view) in &delta {
            if id != victim {
                prop_assert!(!view.has_pd_of(victim));
            }
        }
    }
}

/// Processes of the small system the record-level properties run on.
const N: u64 = 8;

/// A bidirectional ring over `1..=N`: every PD has two members.
fn ring_setup() -> SystemSetup {
    let edges = (1..=N).flat_map(|i| {
        let next = i % N + 1;
        [(i, next), (next, i)]
    });
    SystemSetup::new(&DiGraph::from_edges(edges))
}

/// One shipped record, drawn as (kind, author, variant).
#[derive(Debug, Clone, Copy)]
enum Shipped {
    /// The setup's shared certificate (pointer-equal across processes).
    Held(u64),
    /// A wire-decoded copy of the setup's certificate: equal bytes, a
    /// distinct allocation.
    Decoded(u64),
    /// A forgery claiming `author`'s PD is `{100 + variant}`; equal
    /// variants are replays of one forged record.
    Forged(u64, u64),
    /// A second validly signed PD of `author`, `{200 + variant}`.
    Equivocation(u64, u64),
}

fn arb_shipped() -> impl Strategy<Value = Shipped> {
    (0u8..4, 1..=N, 0u64..2).prop_map(|(kind, author, variant)| match kind {
        0 => Shipped::Held(author),
        1 => Shipped::Decoded(author),
        2 => Shipped::Forged(author, variant),
        _ => Shipped::Equivocation(author, variant),
    })
}

impl Shipped {
    /// The record itself, and whether its signature verifies.
    fn record(self, setup: &SystemSetup) -> (Arc<PdCertificate>, bool) {
        let id = ProcessId::new;
        match self {
            Shipped::Held(a) => (setup.shared_certificate_for(id(a)).unwrap(), true),
            Shipped::Decoded(a) => {
                let bytes = encode_to_vec(&*setup.shared_certificate_for(id(a)).unwrap());
                (Arc::new(decode_from_slice(&bytes).unwrap()), true)
            }
            Shipped::Forged(a, v) => {
                let forged = PdCertificate::forge(id(a), &process_set([100 + v]));
                (Arc::new(forged), false)
            }
            Shipped::Equivocation(a, v) => {
                let key = setup.key_of(id(a)).unwrap();
                let signed = PdCertificate::sign(key, &process_set([200 + v]));
                (Arc::new(signed), true)
            }
        }
    }
}

/// Algorithm 1 lines 4–6 record by record: a record equal to the held one
/// is a no-op, a forgery is counted once per distinct record, a verified
/// record from a held author is a conflict (first wins), and any other
/// verified record is held and enters the view.
struct AbsorbModel {
    held: BTreeMap<ProcessId, PdCertificate>,
    view: KnowledgeView,
    sync: SyncState,
    forged: BTreeSet<(ProcessId, ProcessSet)>,
    conflicts: u64,
}

impl AbsorbModel {
    fn new(setup: &SystemSetup, me: ProcessId) -> Self {
        let own = PdCertificate::clone(&setup.shared_certificate_for(me).unwrap());
        let mut sync = SyncState::default();
        sync.add(own.fingerprint());
        AbsorbModel {
            view: KnowledgeView::new(me, own.pd().clone()),
            held: BTreeMap::from([(me, own)]),
            sync,
            forged: BTreeSet::new(),
            conflicts: 0,
        }
    }

    fn absorb(&mut self, record: &PdCertificate, verifies: bool) {
        let author = record.author();
        if self.held.get(&author) == Some(record) {
            return;
        }
        if !verifies {
            self.forged.insert((author, record.pd().clone()));
        } else if self.held.contains_key(&author) {
            self.conflicts += 1;
        } else {
            self.sync.add(record.fingerprint());
            self.view.record_pd(author, record.pd().clone());
            self.held.insert(author, record.clone());
        }
    }
}

/// The certificates of one `GETPDS` reply from `responder` to process
/// `N + 1` (never a member, so never the responder).
fn reply_to(responder: &mut DiscoveryState, have: ProcessSet) -> Vec<PdCertificate> {
    let request = DiscoveryMsg::GetPds {
        have: Arc::new(have),
        state: SyncState::default(),
    };
    match responder.handle(ProcessId::new(N + 1), request).as_slice() {
        [(_, DiscoveryMsg::SetPds { certs, .. })] => certs.iter().map(|c| (**c).clone()).collect(),
        other => panic!("expected one SETPDS, got {other:?}"),
    }
}

/// A requester's have-set: empty, a superset of every process plus IDs
/// nobody holds, or a random mix of held and unheld IDs.
fn arb_have() -> impl Strategy<Value = ProcessSet> {
    (
        0u8..4,
        proptest::collection::btree_set(1..=N + 4, 0..(N as usize + 4)),
    )
        .prop_map(|(kind, ids)| match kind {
            0 => ProcessSet::new(),
            1 => (1..=N + 4).map(ProcessId::new).collect(),
            _ => ids.into_iter().map(ProcessId::new).collect(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `absorb_batch` over random bundles, cut at random batch boundaries,
    /// ends exactly where the sequential model does: the same view,
    /// `SyncState`, counters and held certificates (in author order).
    #[test]
    fn absorb_batch_matches_sequential_model(
        me in 1..=N,
        shipped in proptest::collection::vec(arb_shipped(), 0..40),
        cuts in proptest::collection::vec(1usize..9, 1..6),
        shared_pool in 0u8..2,
    ) {
        let setup = ring_setup();
        let me = ProcessId::new(me);
        let mut state = DiscoveryState::from_setup(&setup, me).unwrap();
        if shared_pool == 1 {
            state = state.with_shared_pool(setup.pool().clone());
        }
        let mut model = AbsorbModel::new(&setup, me);
        let records: Vec<(Arc<PdCertificate>, bool)> =
            shipped.iter().map(|s| s.record(&setup)).collect();
        for (record, verifies) in &records {
            model.absorb(record, *verifies);
        }
        let bundle: Vec<Arc<PdCertificate>> = records.into_iter().map(|(r, _)| r).collect();
        let mut rest = bundle.as_slice();
        for &cut in cuts.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (batch, tail) = rest.split_at(cut.min(rest.len()));
            state.absorb_batch(batch);
            rest = tail;
        }
        prop_assert_eq!(state.view(), &model.view);
        prop_assert_eq!(state.sync_state(), model.sync);
        prop_assert_eq!(state.rejected_forgeries, model.forged.len() as u64);
        prop_assert_eq!(state.conflicting_records, model.conflicts);
        let held: Vec<&PdCertificate> = model.held.values().collect();
        prop_assert_eq!(state.certificates().collect::<Vec<_>>(), held);
    }

    /// A delta reply is exactly the held certificates whose author is not
    /// in the request's have-set, in ascending author order; a full-mode
    /// reply is every held certificate in author order.
    #[test]
    fn getpds_reply_is_the_ordered_difference(
        me in 1..=N,
        absorbed in proptest::collection::vec(1..=N, 0..12),
        have in arb_have(),
    ) {
        let setup = ring_setup();
        let me = ProcessId::new(me);
        let mut delta = DiscoveryState::from_setup(&setup, me).unwrap();
        let certs: Vec<Arc<PdCertificate>> = absorbed
            .iter()
            .map(|&a| setup.shared_certificate_for(ProcessId::new(a)).unwrap())
            .collect();
        delta.absorb_batch(&certs);
        let mut full = delta.clone().with_gossip(GossipMode::Full);
        let held: BTreeSet<ProcessId> =
            absorbed.iter().map(|&a| ProcessId::new(a)).chain([me]).collect();
        let expect = |authors: &mut dyn Iterator<Item = &ProcessId>| -> Vec<PdCertificate> {
            authors
                .map(|&a| PdCertificate::clone(&setup.shared_certificate_for(a).unwrap()))
                .collect()
        };
        let missing = expect(&mut held.iter().filter(|a| !have.contains(a)));
        prop_assert_eq!(reply_to(&mut delta, have.clone()), missing);
        prop_assert_eq!(reply_to(&mut full, have), expect(&mut held.iter()));
    }
}
