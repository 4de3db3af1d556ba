//! Cross-crate integration: the four consensus properties over the paper's
//! witness graphs and generated graph families, across Byzantine
//! strategies, fault placements, and seeds.

use bft_cupft::committee::Value;
use bft_cupft::core::{run_scenario, ByzantineStrategy, ProtocolMode, Scenario};
use bft_cupft::graph::{fig1b, fig4a, fig4b, process_set, GdiParams, Generator};

fn strategies() -> Vec<(&'static str, ByzantineStrategy)> {
    vec![
        ("silent", ByzantineStrategy::Silent),
        (
            "fake_pd",
            ByzantineStrategy::FakePd {
                claimed: process_set([1, 2, 3]),
            },
        ),
        (
            // Twins: even IDs hear twin A (the true PD), odd IDs twin B,
            // which advertises a second self-signed PD and proposes its
            // own value.
            "equivocate_pd",
            ByzantineStrategy::Twins {
                side_a: process_set([2, 4, 6, 8]),
                value_b: Value::from_static(b"twin-b"),
                pd_b: Some(process_set([2, 3])),
            },
        ),
    ]
}

#[test]
fn bft_cup_fig1b_all_strategies_all_seeds() {
    for (name, strategy) in strategies() {
        for seed in 0..5 {
            let scenario = Scenario::new(fig1b().graph().clone(), ProtocolMode::KnownThreshold(1))
                .with_byzantine(4, strategy.clone())
                .with_seed(seed);
            let outcome = run_scenario(&scenario);
            let check = outcome.check();
            assert!(
                check.consensus_solved(),
                "fig1b/{name}/seed{seed}: {check:?}"
            );
        }
    }
}

#[test]
fn bft_cupft_fig4a_seed_sweep() {
    for seed in 0..8 {
        let scenario =
            Scenario::new(fig4a().graph().clone(), ProtocolMode::UnknownThreshold).with_seed(seed);
        let outcome = run_scenario(&scenario);
        let check = outcome.check();
        assert!(check.consensus_solved(), "fig4a/seed{seed}: {check:?}");
        assert_eq!(
            outcome.distinct_detections(),
            [process_set([1, 2, 3, 4, 5])].into_iter().collect(),
            "fig4a/seed{seed}: every correct process must identify the core"
        );
    }
}

#[test]
fn bft_cupft_fig4b_byzantine_sweep() {
    for (name, strategy) in strategies() {
        for seed in 0..3 {
            let scenario = Scenario::new(fig4b().graph().clone(), ProtocolMode::UnknownThreshold)
                .with_byzantine(4, strategy.clone())
                .with_seed(seed);
            let outcome = run_scenario(&scenario);
            let check = outcome.check();
            assert!(
                check.consensus_solved(),
                "fig4b/{name}/seed{seed}: {check:?}"
            );
        }
    }
}

#[test]
fn bft_cupft_fig4b_equivocating_core_leader() {
    // Process 5 is the lowest-ID core member, hence view-0 leader. As
    // twins it proposes its own value to side A and `evil-B` to the rest,
    // and both twins keep voting. With side A = {6} twin B's side holds a
    // commit quorum; with {6, 7} neither side does and view 1 decides.
    for side_a in [process_set([6]), process_set([6, 7])] {
        for seed in 0..3 {
            let scenario = Scenario::new(fig4b().graph().clone(), ProtocolMode::UnknownThreshold)
                .with_byzantine(
                    5,
                    ByzantineStrategy::Twins {
                        side_a: side_a.clone(),
                        value_b: Value::from_static(b"evil-B"),
                        pd_b: None,
                    },
                )
                .with_seed(seed);
            let outcome = run_scenario(&scenario);
            let check = outcome.check();
            assert!(
                check.consensus_solved() && check.committee_agreement,
                "side A {side_a:?}, seed{seed}: {check:?}"
            );
        }
    }
}

#[test]
fn bft_cup_generated_graphs_with_silent_byzantine() {
    for seed in 0..6 {
        let sys = Generator::from_seed(seed)
            .generate(&GdiParams::new(1))
            .expect("generation succeeds");
        let byz = *sys.byzantine.iter().next().expect("one Byzantine");
        let scenario = Scenario::new(sys.graph.clone(), ProtocolMode::KnownThreshold(1))
            .with_byzantine(byz.raw(), ByzantineStrategy::Silent)
            .with_seed(seed);
        let outcome = run_scenario(&scenario);
        let check = outcome.check();
        assert!(check.consensus_solved(), "gen/seed{seed}: {check:?}");
    }
}

#[test]
fn bft_cup_generated_f2() {
    let mut params = GdiParams::new(2);
    params.non_sink_size = 4;
    for seed in 0..3 {
        let sys = Generator::from_seed(100 + seed)
            .generate(&params)
            .expect("generation succeeds");
        let mut scenario =
            Scenario::new(sys.graph.clone(), ProtocolMode::KnownThreshold(2)).with_seed(seed);
        for b in &sys.byzantine {
            scenario = scenario.with_byzantine(b.raw(), ByzantineStrategy::Silent);
        }
        let outcome = run_scenario(&scenario);
        let check = outcome.check();
        assert!(check.consensus_solved(), "gen-f2/seed{seed}: {check:?}");
    }
}

#[test]
fn bft_cupft_generated_extended_graphs() {
    let mut params = GdiParams::new(1);
    params.extended = true;
    params.byzantine_count = 0;
    params.non_sink_size = 5;
    for seed in 0..5 {
        let sys = Generator::from_seed(seed)
            .generate(&params)
            .expect("generation succeeds");
        let scenario =
            Scenario::new(sys.graph.clone(), ProtocolMode::UnknownThreshold).with_seed(seed);
        let outcome = run_scenario(&scenario);
        let check = outcome.check();
        assert!(check.consensus_solved(), "gen-ext/seed{seed}: {check:?}");
        assert_eq!(
            outcome.distinct_detections(),
            [sys.sink.clone()].into_iter().collect(),
            "gen-ext/seed{seed}: core must match ground truth"
        );
    }
}

#[test]
fn validity_decided_value_always_proposed() {
    // Under every passing scenario above validity is asserted; this test
    // additionally pins the *specific* value: the view-0 leader of the
    // fig1b sink is process 1, so its proposal must win the happy path.
    let scenario = Scenario::new(fig1b().graph().clone(), ProtocolMode::KnownThreshold(1))
        .with_byzantine(4, ByzantineStrategy::Silent)
        .with_value(1, b"the-genesis");
    let outcome = run_scenario(&scenario);
    let check = outcome.check();
    assert!(check.consensus_solved());
    assert_eq!(
        check.decided_values.iter().next().map(Vec::as_slice),
        Some(&b"the-genesis"[..])
    );
}

#[test]
fn integrity_no_node_decides_twice() {
    // decided_times is populated exactly once per node by construction;
    // run a scenario and confirm every decider has exactly one time and
    // one value (the API makes double-decision unrepresentable, this
    // guards against regressions that would re-set it).
    let scenario = Scenario::new(fig4a().graph().clone(), ProtocolMode::UnknownThreshold);
    let outcome = run_scenario(&scenario);
    for (id, decision) in &outcome.decisions {
        assert!(decision.is_some(), "{id} decided");
        assert!(outcome.decided_times[id].is_some());
    }
}

#[test]
fn lying_decided_val_cannot_poison_learners() {
    // Byzantine sink member answers every GETDECIDEDVAL with a fabricated
    // value; learners require ⌈(|S|+1)/2⌉ ≥ f+1 matching answers, so one
    // liar can neither convince them nor block them.
    for seed in 0..4 {
        let scenario = Scenario::new(fig1b().graph().clone(), ProtocolMode::KnownThreshold(1))
            .with_byzantine(
                4,
                ByzantineStrategy::LieDecidedVal {
                    value: Value::from_static(b"poison"),
                },
            )
            .with_seed(seed);
        let outcome = run_scenario(&scenario);
        let check = outcome.check();
        assert!(check.consensus_solved(), "seed{seed}: {check:?}");
        assert!(
            !check.decided_values.contains(b"poison".as_slice()),
            "seed{seed}: the fabricated value must never be decided"
        );
    }
}

#[test]
fn lying_decided_val_on_cupft_core_member() {
    for seed in 0..3 {
        let scenario = Scenario::new(fig4b().graph().clone(), ProtocolMode::UnknownThreshold)
            .with_byzantine(
                6,
                ByzantineStrategy::LieDecidedVal {
                    value: Value::from_static(b"poison"),
                },
            )
            .with_seed(seed);
        let outcome = run_scenario(&scenario);
        let check = outcome.check();
        assert!(check.consensus_solved(), "seed{seed}: {check:?}");
        assert!(!check.decided_values.contains(b"poison".as_slice()));
    }
}

#[test]
fn combined_byzantine_attack_f2_extended() {
    // Two Byzantine processes with DIFFERENT strategies at once, on a
    // generated extended graph with f = 2: one lies about its PD, the
    // other poisons the learning path. The core (2f+1 = 5 complete) must
    // absorb both.
    let mut params = GdiParams::new(2);
    params.extended = true;
    params.sink_size = 5;
    params.non_sink_size = 4;
    params.byzantine_count = 2;
    for seed in 0..3 {
        let sys = Generator::from_seed(300 + seed)
            .generate(&params)
            .expect("generation succeeds");
        let byz: Vec<_> = sys.byzantine.iter().copied().collect();
        assert_eq!(byz.len(), 2);
        let scenario = Scenario::new(sys.graph.clone(), ProtocolMode::UnknownThreshold)
            .with_byzantine(
                byz[0].raw(),
                ByzantineStrategy::FakePd {
                    claimed: sys.sink.clone(),
                },
            )
            .with_byzantine(
                byz[1].raw(),
                ByzantineStrategy::LieDecidedVal {
                    value: Value::from_static(b"poison"),
                },
            )
            .with_seed(seed)
            .with_horizon(400_000);
        let outcome = run_scenario(&scenario);
        let check = outcome.check();
        assert!(check.consensus_solved(), "seed{seed}: {check:?}");
        assert!(!check.decided_values.contains(b"poison".as_slice()));
    }
}
