//! Property-based tests over the protocol stacks: consensus properties
//! under randomized seeds, fault placements, and delay parameters.

use bft_cupft::committee::Value;
use bft_cupft::core::{run_scenario, ByzantineStrategy, ProtocolMode, Scenario};
use bft_cupft::crypto::KeyRegistry;
use bft_cupft::detector::PdCertificate;
use bft_cupft::graph::{fig1b, fig4b, process_set, GdiParams, Generator, ProcessId};
use bft_cupft::net::DelayPolicy;
use proptest::prelude::*;

fn arb_strategy() -> impl Strategy<Value = ByzantineStrategy> {
    prop_oneof![
        Just(ByzantineStrategy::Silent),
        proptest::collection::btree_set(1u64..9, 0..4).prop_map(|s| ByzantineStrategy::FakePd {
            claimed: s.into_iter().map(ProcessId::new).collect(),
        }),
        // Twins split by parity: even IDs hear the true PD, odd IDs a
        // second self-signed one.
        proptest::collection::btree_set(1u64..9, 0..3).prop_map(|b| ByzantineStrategy::Twins {
            side_a: process_set([2, 4, 6, 8]),
            value_b: Value::from_static(b"twin-b"),
            pd_b: Some(b.into_iter().map(ProcessId::new).collect()),
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// BFT-CUP on Fig. 1b: consensus holds for every Byzantine strategy,
    /// seed, and (reasonable) GST placement.
    #[test]
    fn bft_cup_consensus_properties(
        seed in 0u64..1000,
        gst in 50u64..500,
        strategy in arb_strategy(),
    ) {
        let scenario = Scenario::new(fig1b().graph().clone(), ProtocolMode::KnownThreshold(1))
            .with_byzantine(4, strategy)
            .with_policy(DelayPolicy::PartialSynchrony {
                gst,
                delta: 10,
                pre_gst_max: gst.max(20),
            })
            .with_seed(seed)
            .with_horizon(500_000);
        let outcome = run_scenario(&scenario);
        let check = outcome.check();
        prop_assert!(check.consensus_solved(), "{check:?}");
        prop_assert!(check.committee_agreement, "{check:?}");
    }

    /// BFT-CUPFT on Fig. 4b: same sweep, fault threshold withheld.
    #[test]
    fn bft_cupft_consensus_properties(
        seed in 0u64..1000,
        gst in 50u64..400,
        strategy in arb_strategy(),
    ) {
        let scenario = Scenario::new(fig4b().graph().clone(), ProtocolMode::UnknownThreshold)
            .with_byzantine(4, strategy)
            .with_policy(DelayPolicy::PartialSynchrony {
                gst,
                delta: 10,
                pre_gst_max: gst.max(20),
            })
            .with_seed(seed)
            .with_horizon(500_000);
        let outcome = run_scenario(&scenario);
        let check = outcome.check();
        prop_assert!(check.consensus_solved(), "{check:?}");
        prop_assert!(check.committee_agreement, "{check:?}");
        prop_assert_eq!(outcome.distinct_detections().len(), 1);
    }

    /// Generated systems: BFT-CUP with a silent Byzantine across the
    /// parameter space.
    #[test]
    fn bft_cup_on_generated_systems(gen_seed in 0u64..50, run_seed in 0u64..50) {
        let sys = Generator::from_seed(gen_seed)
            .generate(&GdiParams::new(1))
            .unwrap();
        let byz = *sys.byzantine.iter().next().unwrap();
        let scenario = Scenario::new(sys.graph.clone(), ProtocolMode::KnownThreshold(1))
            .with_byzantine(byz.raw(), ByzantineStrategy::Silent)
            .with_seed(run_seed);
        let outcome = run_scenario(&scenario);
        let check = outcome.check();
        prop_assert!(check.consensus_solved(), "{check:?}");
        prop_assert!(check.committee_agreement, "{check:?}");
        prop_assert_eq!(
            outcome.distinct_detections(),
            [sys.expected_detection()].into_iter().collect()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Crypto: signing round-trips, tampering is always caught.
    #[test]
    fn signed_pd_tamper_evidence(
        author in 1u64..1000,
        pd in proptest::collection::vec(1u64..1000, 0..20),
        tamper in proptest::collection::vec(1u64..1000, 1..20),
    ) {
        let mut registry = KeyRegistry::new();
        let key = registry.register(author);
        let pd = process_set(pd);
        let record = PdCertificate::sign(&key, &pd);
        prop_assert!(record.verify(&registry));
        // Any record with different contents must be a forgery.
        let tampered_pd = process_set(pd.iter().map(|p| p.raw()).chain(tamper));
        if tampered_pd != pd {
            let forged = PdCertificate::forge(ProcessId::new(author), &tampered_pd);
            prop_assert!(!forged.verify(&registry));
        }
    }

    /// Crypto: a signature never verifies under another ID.
    #[test]
    fn signatures_not_transferable(a in 1u64..500, b in 501u64..1000, msg in any::<Vec<u8>>()) {
        let mut registry = KeyRegistry::new();
        let key_a = registry.register(a);
        registry.register(b);
        let sig = key_a.sign(&msg);
        prop_assert!(registry.verify(a, &msg, &sig));
        prop_assert!(!registry.verify(b, &msg, &sig));
    }

    /// The sink quorum intersection property holds for every legal
    /// committee shape: 2q − |S| ≥ f + 1.
    #[test]
    fn quorum_intersection_all_shapes(f in 0usize..6, extra in 0usize..6) {
        let n = 2 * f + 1 + extra.min(f);
        let committee = bft_cupft::committee::Committee::new(
            process_set(1..=(n as u64)),
            f,
        );
        let q = committee.quorum_size();
        prop_assert!(2 * q > n + f);
        prop_assert!(q <= n, "quorum must be formable");
    }
}
