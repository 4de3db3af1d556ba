//! Acceptance tests for the sharded threaded router plane.
//!
//! Three claims, each swept across `router_shards ∈ {1, 2, 4}`:
//!
//! 1. **Decision parity** — the threaded runtime reaches exactly the
//!    decisions the deterministic simulator reaches, no matter how many
//!    router shards carry the traffic.
//! 2. **Stats conservation** — with a protocol whose traffic is
//!    timing-independent, the per-shard `NetStats` blocks merge to
//!    exactly the totals a single shard records: messages and payload
//!    units are conserved across the shard split.
//! 3. **Tamper semantics under sharding** — a `TamperSpec` (the
//!    `adversary_sweep` grid's within-model drop, plus a reorder chain)
//!    is serialized through the dedicated tamper shard, so drop/delay
//!    accounting and consensus verdicts are independent of shard count.
//!
//! The n = 1000 cells live in `tests/family_sweep.rs`
//! (`thousand_vertex_cells_match_sim_decisions`, `#[ignore]`d); shard
//! throughput is `benchmark/`'s `net.threaded.msgs_s.shards{1,2}`.

use std::time::Duration;

use bft_cupft::core::{
    ByzantineStrategy, FaultCase, ProtocolMode, RuntimeKind, Scenario, ScenarioGrid, TamperSpec,
};
use bft_cupft::graph::{fig1b, process_set, GraphFamily, ProcessId};
use bft_cupft::net::threaded::{run_threaded, ThreadedConfig};
use bft_cupft::net::{Actor, Context, Labeled, NetStats, Runtime, Tamper, ThreadedRuntime};

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
    }
    suite.set_router_shards(2);
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

// ---- stats conservation with a timing-independent workload ----

/// Number of flood actors.
const FLOOD_N: u64 = 9;
/// Rounds each actor floods at startup.
const FLOOD_R: u64 = 5;
/// Payload units per flood message.
const FLOOD_PAYLOAD: u64 = 3;

#[derive(Clone)]
enum FloodMsg {
    /// A payload-bearing round message.
    Flood,
    /// The sender's final message, emitted after all its floods — so a
    /// receiver that has counted every expected message knows the
    /// router plane has already processed (delivered *or* dropped)
    /// everything sent before it by the same sender.
    Done,
}

impl Labeled for FloodMsg {
    fn label(&self) -> &'static str {
        match self {
            FloodMsg::Flood => "FLOOD",
            FloodMsg::Done => "DONE",
        }
    }
    fn payload_units(&self) -> u64 {
        match self {
            FloodMsg::Flood => FLOOD_PAYLOAD,
            FloodMsg::Done => 0,
        }
    }
}

/// Sends `FLOOD_R` flood rounds plus one `Done` to every peer at
/// startup, halts after receiving a preset count. Traffic totals are
/// exact functions of the topology — independent of delivery timing and
/// shard interleaving — and the trailing per-sender `Done` makes the
/// halt condition causally later than every drop decision, so the final
/// stats are exact, not racy.
struct FloodActor {
    id: ProcessId,
    peers: Vec<ProcessId>,
    expect: u64,
    got: u64,
}

impl Actor<FloodMsg> for FloodActor {
    fn id(&self) -> ProcessId {
        self.id
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn on_start(&mut self, ctx: &mut Context<FloodMsg>) {
        for _ in 0..FLOOD_R {
            for &peer in &self.peers {
                ctx.send(peer, FloodMsg::Flood);
            }
        }
        for &peer in &self.peers {
            ctx.send(peer, FloodMsg::Done);
        }
        if self.got >= self.expect {
            ctx.halt();
        }
    }
    fn on_message(&mut self, _: ProcessId, _: FloodMsg, ctx: &mut Context<FloodMsg>) {
        self.got += 1;
        if self.got >= self.expect {
            ctx.halt();
        }
    }
}

/// Builds the all-to-all flood; `expect_floods_from` counts the senders
/// whose floods each actor waits for (all peers, or all peers minus
/// tamper-silenced ones); every actor additionally waits for one `Done`
/// per peer.
fn flood_actors(expect_floods_from: impl Fn(ProcessId) -> u64) -> Vec<Box<dyn Actor<FloodMsg>>> {
    let ids: Vec<ProcessId> = (1..=FLOOD_N).map(ProcessId::new).collect();
    ids.iter()
        .map(|&id| {
            Box::new(FloodActor {
                id,
                peers: ids.iter().copied().filter(|&p| p != id).collect(),
                expect: expect_floods_from(id) * FLOOD_R + (FLOOD_N - 1),
                got: 0,
            }) as Box<dyn Actor<FloodMsg>>
        })
        .collect()
}

fn flood_config(shards: usize) -> ThreadedConfig {
    ThreadedConfig {
        wall_timeout: Duration::from_secs(20),
        router_shards: shards,
        seed: 7,
        ..ThreadedConfig::default()
    }
}

#[test]
fn netstats_totals_are_conserved_across_shards() {
    let floods = FLOOD_N * (FLOOD_N - 1) * FLOOD_R;
    let dones = FLOOD_N * (FLOOD_N - 1);
    let total = floods + dones;
    let mut reference: Option<NetStats> = None;
    for shards in SHARD_COUNTS {
        let report = run_threaded(flood_actors(|_| FLOOD_N - 1), flood_config(shards));
        assert!(report.all_halted, "shards={shards}: {report:?}");
        let stats = &report.stats;
        assert_eq!(stats.messages_sent, total, "shards={shards}");
        assert_eq!(stats.messages_delivered, total, "shards={shards}");
        assert_eq!(stats.messages_dropped, 0, "shards={shards}");
        assert_eq!(
            stats.payload_units,
            floods * FLOOD_PAYLOAD,
            "shards={shards}"
        );
        assert_eq!(stats.label_count("FLOOD"), floods, "shards={shards}");
        assert_eq!(stats.label_count("DONE"), dones, "shards={shards}");
        assert_eq!(
            stats.label_payload("FLOOD"),
            floods * FLOOD_PAYLOAD,
            "shards={shards}"
        );
        // Payload is counted again at actual delivery — once per
        // delivered message, however many shard hops it took — and the
        // fully-delivered run conserves it exactly.
        assert_eq!(
            stats.payload_delivered_units,
            floods * FLOOD_PAYLOAD,
            "shards={shards}"
        );
        assert_eq!(
            stats.payload_delivered_units,
            stats.payload_delivered(),
            "shards={shards}"
        );
        // The merged multi-shard stats equal the single-router stats
        // exactly — the whole NetStats surface, not just the totals.
        match &reference {
            None => reference = Some(stats.clone()),
            Some(single) => assert_eq!(
                single, stats,
                "shards={shards}: merged stats must equal the single-router block"
            ),
        }
    }
}

/// Drops only the payload-bearing floods of one sender; its trailing
/// `Done` messages still flow, so every receiver's halt stays causally
/// behind the drop decisions (the tamper shard handles one sender's
/// emissions in order).
struct DropFloodsFrom {
    sender: ProcessId,
}

impl Tamper<FloodMsg> for DropFloodsFrom {
    fn disposition(
        &mut self,
        from: ProcessId,
        _: ProcessId,
        label: &'static str,
        _: u64,
    ) -> bft_cupft::net::Fate {
        if from == self.sender && label == "FLOOD" {
            bft_cupft::net::Fate::Drop
        } else {
            bft_cupft::net::Fate::Deliver
        }
    }
}

#[test]
fn tamper_drop_accounting_is_exact_under_sharding() {
    let silenced = ProcessId::new(1);
    let floods = FLOOD_N * (FLOOD_N - 1) * FLOOD_R;
    let dones = FLOOD_N * (FLOOD_N - 1);
    let total = floods + dones;
    let dropped = (FLOOD_N - 1) * FLOOD_R;
    for shards in SHARD_COUNTS {
        let actors = flood_actors(|id| {
            if id == silenced {
                FLOOD_N - 1 // still hears everyone's floods
            } else {
                FLOOD_N - 2 // everyone's floods except the silenced sender's
            }
        });
        let mut rt: ThreadedRuntime<FloodMsg> = ThreadedRuntime::new(flood_config(shards));
        for actor in actors {
            rt.add_actor(actor);
        }
        Runtime::set_tamper(&mut rt, Box::new(DropFloodsFrom { sender: silenced }));
        let report = rt.run_to_completion();
        assert!(report.all_halted, "shards={shards}: {report:?}");
        let stats = &report.stats;
        assert_eq!(stats.messages_sent, total, "shards={shards}");
        assert_eq!(stats.messages_dropped, dropped, "shards={shards}");
        assert_eq!(stats.messages_delivered, total - dropped, "shards={shards}");
        assert_eq!(
            stats.payload_dropped,
            dropped * FLOOD_PAYLOAD,
            "shards={shards}"
        );
        assert_eq!(
            stats.payload_delivered(),
            (floods - dropped) * FLOOD_PAYLOAD,
            "shards={shards}"
        );
        // Delivery-side accounting agrees: everything the tamper spared
        // was delivered, and only counted once.
        assert_eq!(
            stats.payload_delivered_units,
            (floods - dropped) * FLOOD_PAYLOAD,
            "shards={shards}"
        );
    }
}

/// A serialized tamper must see each sender's emissions in order even
/// when deliveries fan out across shards: this tamper asserts the
/// per-sender monotone round structure the flood emits (R batches of
/// peers in ID order) — any reordering before the tamper would trip it.
struct OrderAssertingTamper {
    last_to: std::collections::BTreeMap<ProcessId, (u64, u64)>, // sender -> (round, last peer idx)
}

impl Tamper<FloodMsg> for OrderAssertingTamper {
    fn disposition(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        _: &'static str,
        _: u64,
    ) -> bft_cupft::net::Fate {
        let entry = self.last_to.entry(from).or_insert((0, 0));
        let to_idx = to.raw();
        if to_idx <= entry.1 {
            entry.0 += 1; // new round wrapped past the sender's peer list
            assert!(
                entry.0 < FLOOD_R + 1,
                "sender {from} emitted more rounds than it floods"
            );
        }
        entry.1 = to_idx;
        bft_cupft::net::Fate::Deliver
    }
}

#[test]
fn tamper_sees_per_sender_emission_order_on_every_shard_count() {
    for shards in SHARD_COUNTS {
        let mut rt: ThreadedRuntime<FloodMsg> = ThreadedRuntime::new(flood_config(shards));
        for actor in flood_actors(|_| FLOOD_N - 1) {
            rt.add_actor(actor);
        }
        Runtime::set_tamper(
            &mut rt,
            Box::new(OrderAssertingTamper {
                last_to: std::collections::BTreeMap::new(),
            }),
        );
        let report = rt.run_to_completion();
        assert!(report.all_halted, "shards={shards}: {report:?}");
    }
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
