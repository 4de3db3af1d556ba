//! Acceptance tests for the threaded link and its sharded router plane.
//!
//! Three claims, each swept across `router_shards ∈ {1, 2, 4}`:
//!
//! 1. **Decision parity** — the threaded runtime reaches exactly the
//!    decisions the deterministic simulator reaches, no matter how many
//!    router shards carry the traffic.
//! 2. **Link conformance** — the shared flood body of `tests/link`
//!    (also run on the socket link by `tests/socket_parity.rs`): exact
//!    `NetStats` conservation, with the merged multi-shard block equal to
//!    the single-shard one; exact tamper drop accounting; per-sender
//!    emission order at the tamper; a tamper delay still delivered.
//! 3. **Tamper semantics under sharding** — a `TamperSpec` (the
//!    `adversary_sweep` grid's within-model drop, plus a reorder chain)
//!    runs on the sending actor's thread, ahead of the shards, so
//!    drop/delay accounting and consensus verdicts are independent of
//!    shard count.
//!
//! The n = 1000 cells live in `tests/family_sweep.rs`
//! (`thousand_vertex_cells_match_sim_decisions`, `#[ignore]`d); shard
//! throughput is `benchmark/`'s `net.threaded.msgs_s.shards{1,2}`.

use std::time::Duration;

use bft_cupft::core::{
    ByzantineStrategy, FaultCase, ProtocolMode, RuntimeKind, Scenario, ScenarioGrid, TamperSpec,
};
use bft_cupft::graph::{fig1b, process_set, GraphFamily};
use bft_cupft::net::{ThreadedConfig, ThreadedRuntime};
use link::FloodMsg;

mod link;

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// Retunes tick-denominated knobs for the threaded substrate (they are
/// read as milliseconds there) and pins the shard count.
fn threaded_variant(scenario: &Scenario, shards: usize) -> Scenario {
    let mut s = scenario.clone().with_router_shards(shards);
    s.discovery_period = 10;
    s.view_timeout_base = 2_000;
    s
}

/// The parity workloads: the Fig. 1(b) witness graph and a generated
/// Erdős–Rényi planted-sink topology (the family whose Θ(n²) traffic
/// motivated sharding in the first place).
fn parity_scenarios() -> Vec<(String, Scenario)> {
    let er = GraphFamily::erdos_renyi(16, 1)
        .generate(11)
        .expect("valid family parameterization");
    vec![
        (
            "fig1b/silent4".into(),
            Scenario::new(fig1b().graph().clone(), ProtocolMode::KnownThreshold(1))
                .with_byzantine(4, ByzantineStrategy::Silent)
                .with_seed(3),
        ),
        (
            "erdos-renyi@n16".into(),
            Scenario::new(er.system.graph, ProtocolMode::KnownThreshold(1)).with_seed(5),
        ),
    ]
}

#[test]
fn decisions_match_sim_at_every_shard_count() {
    for (label, scenario) in parity_scenarios() {
        let sim = scenario.run_on(RuntimeKind::Sim);
        assert!(sim.check().consensus_solved(), "{label} on sim: {sim:?}");
        for shards in SHARD_COUNTS {
            let threaded = threaded_variant(&scenario, shards).run_on(RuntimeKind::Threaded);
            assert!(
                threaded.check().consensus_solved(),
                "{label} threaded x{shards}: {:?}",
                threaded.decisions
            );
            assert_eq!(
                sim.decisions, threaded.decisions,
                "{label}: threaded (shards={shards}) decisions must equal sim"
            );
        }
    }
}

#[test]
fn suite_shard_knob_pins_every_entry() {
    let mut suite = ScenarioGrid::new()
        .graph(
            "fig1b",
            fig1b().graph().clone(),
            ProtocolMode::KnownThreshold(1),
        )
        .fault(FaultCase::none())
        .fault(FaultCase::silent(4))
        .seeds(0..2)
        .build();
    for entry in suite.entries_mut() {
        entry.scenario.discovery_period = 10;
        entry.scenario.view_timeout_base = 2_000;
        entry.scenario.router_shards = Some(2);
    }
    for entry in suite.entries() {
        assert_eq!(entry.scenario.router_shards, Some(2));
    }
    let report = suite.run(RuntimeKind::Threaded);
    assert!(
        report.all_solved(),
        "failures under shards=2: {:?}",
        report.failures()
    );
}

// ---- link conformance: the flood workload of tests/link ----

fn flood_runtime(shards: usize) -> ThreadedRuntime<FloodMsg> {
    ThreadedRuntime::new(ThreadedConfig {
        wall_timeout: Duration::from_secs(20),
        router_shards: shards,
        seed: 7,
        ..ThreadedConfig::default()
    })
}

#[test]
fn netstats_totals_are_conserved_across_shards() {
    let single = link::conserves_netstats(flood_runtime(1));
    for shards in SHARD_COUNTS {
        // The merged multi-shard stats equal the single-router stats
        // exactly — the whole NetStats surface, not just the totals.
        let merged = link::conserves_netstats(flood_runtime(shards));
        assert_eq!(single, merged, "shards={shards}");
    }
}

#[test]
fn tamper_drop_accounting_is_exact_under_sharding() {
    for shards in SHARD_COUNTS {
        link::drop_accounting_is_exact(flood_runtime(shards));
    }
}

#[test]
fn tamper_sees_per_sender_emission_order_on_every_shard_count() {
    for shards in SHARD_COUNTS {
        link::tamper_sees_emission_order(flood_runtime(shards));
    }
}

#[test]
fn tamper_delay_is_delivered_on_every_shard_count() {
    for shards in SHARD_COUNTS {
        link::delayed_messages_are_delivered(flood_runtime(shards));
    }
}

#[test]
fn actors_share_a_bounded_worker_set() {
    link::actors_share_a_bounded_worker_set(flood_runtime(2));
}

#[test]
fn flood_past_the_mailbox_cap_is_deferred_then_delivered() {
    for shards in SHARD_COUNTS {
        let report = link::flood_past_the_mailbox_cap_is_delivered(flood_runtime(shards));
        let obs = report.obs.expect("recorder installed");
        assert!(
            obs.counter("router_deferrals") > 0,
            "shards={shards}: the full mailbox must defer the overflow"
        );
    }
}

#[test]
fn backlog_does_not_starve_timers() {
    link::backlog_does_not_starve_timers(flood_runtime(2));
}

/// The `adversary_sweep` within-model cell (Byzantine process 4 forging a
/// PD while the network drops its output, chained behind a reorder
/// window) keeps its verdict and its drop accounting on every shard
/// count.
#[test]
fn adversary_sweep_tamper_cell_solves_under_sharding() {
    let scenario = Scenario::new(fig1b().graph().clone(), ProtocolMode::KnownThreshold(1))
        .with_byzantine(
            4,
            ByzantineStrategy::FakePd {
                claimed: process_set([1, 2, 3]),
            },
        )
        .with_tamper(TamperSpec::Chain(vec![
            TamperSpec::ReorderWindow { window: 5, seed: 9 },
            TamperSpec::DropFrom {
                senders: process_set([4]),
            },
        ]))
        .with_seed(2);
    let sim = scenario.run_on(RuntimeKind::Sim);
    assert!(sim.check().consensus_solved(), "sim: {:?}", sim.decisions);
    for shards in [2, 4] {
        let outcome = threaded_variant(&scenario, shards).run_on(RuntimeKind::Threaded);
        assert!(
            outcome.check().consensus_solved(),
            "shards={shards}: {:?}",
            outcome.decisions
        );
        assert!(
            outcome.stats.messages_dropped > 0,
            "shards={shards}: the drop tamper must keep biting"
        );
        assert_eq!(
            sim.decisions, outcome.decisions,
            "shards={shards}: tampered decisions must equal sim"
        );
    }
}
