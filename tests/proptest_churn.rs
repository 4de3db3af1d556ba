//! Property tests for the churn layer.
//!
//! Two properties:
//!
//! 1. **Snapshot round-trip** — the crash snapshot codec is the identity:
//!    for any mid-run [`DiscoveryState`] (random family topology, random
//!    seed), `from_bytes(to_bytes())` restores a state whose re-encoding
//!    is byte-identical and whose [`KnowledgeView`] equals the original.
//!    This is what makes crash-rejoin deterministic: the recovered node's
//!    knowledge is exactly the encoded knowledge, nothing renormalized.
//! 2. **Churn-agreement** — under a random churn schedule (join, leave,
//!    crash-rejoin over periphery vertices) composed with a random
//!    within-model message reordering, no two processes that both decide
//!    ever decide differently, departed deciders included. Liveness is
//!    *not* asserted (a hostile schedule may legitimately strand a
//!    joiner); `ScenarioOutcome::check`'s agreement must still hold on
//!    whatever did decide.

mod discovery_sim;

use bft_cupft::adversary::{ChurnEvent, ChurnSpec, TamperSpec};
use bft_cupft::core::{run_scenario, ProtocolMode, Scenario};
use bft_cupft::detector::SystemSetup;
use bft_cupft::discovery::DiscoveryState;
use bft_cupft::graph::{process_set, FamilySample, GraphFamily};
use discovery_sim::{final_states, psync, DiscoverySim};
use proptest::prelude::*;

/// A family sample picked by index, at a small size (the properties are
/// about protocol logic, not scale).
fn arb_sample() -> impl Strategy<Value = FamilySample> {
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
    })
}

/// A random churn schedule over the sample's three highest vertex IDs
/// (joiner / leaver / crash-recoverer, each independently present), with
/// ticks drawn from the whole discovery window. Schedules may be hostile
/// to liveness — that is the point; only agreement is asserted.
fn arb_churn(n_events: std::ops::Range<u8>) -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
    proptest::collection::vec(
        (0u8..3, 1u64..1_500, 50u64..800),
        n_events.start as usize..n_events.end as usize,
    )
}

fn churn_spec_for(sample: &FamilySample, raw_events: &[(u8, u64, u64)]) -> ChurnSpec {
    let mut ids: Vec<u64> = sample.system.graph.vertices().map(|v| v.raw()).collect();
    ids.sort_unstable();
    let top: Vec<u64> = ids.iter().rev().take(3).copied().collect();
    let mut events = Vec::new();
    for (slot, (kind, tick, extra)) in raw_events.iter().enumerate() {
        // One node per slot: the spec rejects two events for one process.
        let Some(&node) = top.get(slot) else { break };
        let node = bft_cupft::graph::ProcessId::new(node);
        events.push(match kind {
            0 => ChurnEvent::JoinAt {
                tick: *tick,
                node,
                seed_peers: process_set([ids[0]]),
            },
            1 => ChurnEvent::LeaveAt { tick: *tick, node },
            _ => ChurnEvent::CrashRecoverAt {
                tick: *tick,
                node,
                down_for: *extra,
            },
        });
    }
    ChurnSpec::new(events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `from_bytes ∘ to_bytes` is the identity on mid-run discovery
    /// states: byte-identical re-encoding, equal knowledge views.
    #[test]
    fn snapshot_codec_round_trips_mid_run_states(
        sample in arb_sample(),
        seed in 0u64..500,
    ) {
        let graph = &sample.system.graph;
        let setup = SystemSetup::new(graph);
        let mut sim = DiscoverySim::new(graph, seed, 20_000).build();
        // Stop mid-run on purpose: partially-propagated states exercise
        // the codec harder than converged ones.
        sim.run_until(|s| s.now() > 900);
        let states = final_states(sim, |state| (state.to_bytes(), state.view().clone()));
        for (id, (bytes, view)) in states {
            let restored = DiscoveryState::from_bytes(&bytes, setup.registry().clone())
                .expect("round-trip decodes");
            prop_assert_eq!(
                restored.to_bytes(),
                bytes,
                "re-encoding must be byte-identical for {}",
                id
            );
            prop_assert_eq!(restored.view(), &view);
        }
    }

    /// No churn schedule (composed with within-model reordering) makes
    /// two deciders disagree.
    #[test]
    fn random_churn_never_breaks_agreement(
        sample in arb_sample(),
        raw_events in arb_churn(1..4),
        seed in 0u64..200,
        window in 1u64..40,
    ) {
        let spec = churn_spec_for(&sample, &raw_events);
        let scenario = Scenario::new(
            sample.system.graph.clone(),
            ProtocolMode::KnownThreshold(1),
        )
        .with_seed(seed)
        .with_policy(psync())
        .with_horizon(100_000)
        .with_tamper(TamperSpec::ReorderWindow { window, seed })
        .with_churn(spec);
        let outcome = run_scenario(&scenario);
        // Agreement over whatever decided — liveness is out of scope for
        // hostile schedules.
        prop_assert!(
            outcome.check().agreement,
            "churn must not split decisions: {:?}",
            outcome.decisions
        );
    }
}
