//! Property tests holding every [`GraphFamily`] to its advertisement: a
//! family may only *claim* what each of its samples actually satisfies,
//! across seeds, sizes, and fault thresholds, as judged by the exact
//! recognizer and the SCC-based sink search.

use bft_cupft::graph::{
    osr_report, sink_with_threshold, FamilyGuarantees, GraphFamily, ProcessSet,
};
use proptest::prelude::*;

/// Strategy: one family of the catalogue, re-scaled to an arbitrary small
/// size, with an arbitrary seed. Sizes stay below the generator's exact
/// verification cutoff so the osr_report cross-checks here are cheap.
fn arb_family_case() -> impl Strategy<Value = (GraphFamily, u64)> {
    (0usize..5, 1usize..=2, 10usize..=40, any::<u32>()).prop_map(|(idx, f, size, seed)| {
        let family = GraphFamily::catalogue(f)[idx].scaled(size);
        (family, seed as u64)
    })
}

/// Whether the sample advertises a unique sink that qualifies at its fault
/// threshold: at least `2f + 1` members, `κ ≥ f + 1`.
fn advertises_qualified_sink(adv: &FamilyGuarantees) -> bool {
    adv.unique_sink
        && adv.sink_size > 2 * adv.fault_threshold
        && adv.sink_connectivity > adv.fault_threshold
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Generation is byte-deterministic per seed.
    #[test]
    fn generation_deterministic_per_seed(case in arb_family_case()) {
        let (family, seed) = case;
        let a = family.generate(seed).unwrap();
        let b = family.generate(seed).unwrap();
        prop_assert_eq!(&a.system.graph, &b.system.graph, "{}", family.label());
        prop_assert_eq!(&a.system.sink, &b.system.sink);
        prop_assert_eq!(a.advertised, b.advertised);
    }

    /// The advertised planted sink is exactly what the SCC-based fast path
    /// identifies at the advertised fault threshold.
    #[test]
    fn planted_sink_found_by_sink_with_threshold(case in arb_family_case()) {
        let (family, seed) = case;
        let sample = family.generate(seed).unwrap();
        let adv = sample.advertised;
        if advertises_qualified_sink(&adv) {
            prop_assert_eq!(
                sink_with_threshold(&sample.system.graph, adv.fault_threshold).as_ref(),
                Some(&sample.system.sink),
                "{}", family.label()
            );
        }
    }

    /// The advertised connectivity bound holds: capping at the bound
    /// saturates it.
    #[test]
    fn advertised_kappa_bound_holds(case in arb_family_case()) {
        let (family, seed) = case;
        let sample = family.generate(seed).unwrap();
        let sub = sample.system.graph.induced(&sample.system.sink);
        let adv = sample.advertised.sink_connectivity;
        prop_assert_eq!(
            sub.strong_connectivity_capped(adv), adv,
            "{}: advertised kappa >= {adv} does not hold", family.label()
        );
    }

    /// A definite k-OSR advertisement (`Some(b)`) matches the exact
    /// recognizer's verdict, and an advertised qualified sink is the sink
    /// the recognizer reports.
    #[test]
    fn k_osr_advertisement_matches_recognizers(case in arb_family_case()) {
        let (family, seed) = case;
        let sample = family.generate(seed).unwrap();
        let adv = sample.advertised;
        let exact = osr_report(&sample.system.graph, adv.fault_threshold + 1);
        if let Some(expected) = adv.k_osr {
            prop_assert_eq!(exact.is_k_osr(), expected, "{}: {:?}", family.label(), exact);
        }
        if advertises_qualified_sink(&adv) {
            prop_assert_eq!(exact.sink_members(), Some(&sample.system.sink), "{}", family.label());
        }
    }

    /// The advertised minimum non-sink → sink disjoint-path count holds on
    /// every sample that promises one.
    #[test]
    fn advertised_path_floor_holds(case in arb_family_case()) {
        let (family, seed) = case;
        let sample = family.generate(seed).unwrap();
        if let Some(floor) = sample.advertised.min_sink_paths {
            let g = &sample.system.graph;
            let non_sink: ProcessSet = g
                .vertices()
                .filter(|v| !sample.system.sink.contains(v))
                .collect();
            if !non_sink.is_empty() {
                let got = g.min_cross_disjoint_paths_capped(&non_sink, &sample.system.sink, floor);
                prop_assert_eq!(got, floor, "{}", family.label());
            }
        }
    }

    /// Different seeds explore the family's random choices but never
    /// change the advertised structure (vertex count, sink, guarantees).
    #[test]
    fn seeds_vary_edges_not_structure(case in arb_family_case()) {
        let (family, seed) = case;
        let a = family.generate(seed).unwrap();
        let b = family.generate(seed.wrapping_add(1)).unwrap();
        prop_assert_eq!(
            a.system.graph.vertex_count(),
            b.system.graph.vertex_count()
        );
        prop_assert_eq!(&a.system.sink, &b.system.sink);
        prop_assert_eq!(a.advertised, b.advertised);
    }
}
