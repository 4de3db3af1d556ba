//! The five benchmark workloads: what one instance is, how many run, and on
//! which substrate. Sizing and reasons are recorded in `../README.md`.

use bft_cupft::core::{ByzantineStrategy, ProtocolMode, RuntimeKind, Scenario};
use bft_cupft::graph::{GdiParams, Generator, GraphFamily, ProcessSet};
use std::time::Duration;

/// One single-shot consensus instance: the scenario handed to the program
/// and the sink/core every correct node must identify.
pub struct Instance {
    pub scenario: Scenario,
    pub expected: ProcessSet,
}

/// A named workload. `pace` is instances per second of `--seconds`: the
/// instance count is a pure function of `--seconds`, never of how fast the
/// program ran, so the simulator's counters repeat exactly for a given seed.
pub struct Workload {
    pub name: &'static str,
    pub kind: RuntimeKind,
    pub pace: f64,
    build: fn(u64) -> Instance,
}

impl Workload {
    /// Instances the timed loop runs for a `--seconds` budget.
    pub fn count(&self, seconds: f64) -> usize {
        ((self.pace * seconds).round() as usize).max(3)
    }

    /// Instance `i` of a run seeded `seed`: graph sample `generate(seed+i)`,
    /// delay/RNG seed `seed+i`.
    pub fn instance(&self, seed: u64, i: usize) -> Instance {
        (self.build)(seed + i as u64)
    }

    pub fn is_sim(&self) -> bool {
        self.kind == RuntimeKind::Sim
    }
}

/// Wall budget of one threaded/socket instance. Correct runs stop the moment
/// every correct node has decided (well under a second); the budget only
/// bounds a run that fails to decide, so a broken build fails the gate in
/// seconds per instance instead of the runtimes' 60 s default.
const WALL_TIMEOUT: Duration = Duration::from_secs(15);

fn family_instance(family: GraphFamily, seed: u64) -> Instance {
    let sample = family.generate(seed).expect("family sample generates");
    // Scenario::new's default delay policy is the stated injected delay:
    // PartialSynchrony { gst: 200, delta: 10, pre_gst_max: 120 }.
    let scenario =
        Scenario::new(sample.system.graph, ProtocolMode::KnownThreshold(1)).with_seed(seed);
    Instance {
        scenario,
        expected: sample.system.sink,
    }
}

fn sim_dense(seed: u64) -> Instance {
    family_instance(GraphFamily::erdos_renyi(100, 1).scaled(300), seed)
}

fn sim_wide(seed: u64) -> Instance {
    family_instance(GraphFamily::k_diamond(100, 1).scaled(10_000), seed)
}

fn sim_core_unknown_f(seed: u64) -> Instance {
    let params = GdiParams {
        extended: true,
        sink_size: 5,
        non_sink_size: 20,
        byzantine_count: 1,
        ..GdiParams::new(2)
    };
    let sys = Generator::from_seed(seed)
        .generate(&params)
        .expect("extended G_di sample generates");
    let mut scenario = Scenario::new(sys.graph.clone(), ProtocolMode::UnknownThreshold)
        .with_seed(seed)
        .with_horizon(400_000);
    for b in &sys.byzantine {
        scenario = scenario.with_byzantine(b.raw(), ByzantineStrategy::Silent);
    }
    Instance {
        scenario,
        expected: sys.expected_detection(),
    }
}

fn threaded_sparse(seed: u64) -> Instance {
    let mut inst = family_instance(GraphFamily::k_diamond(100, 1).scaled(200), seed);
    inst.scenario = inst
        .scenario
        .with_router_shards(2)
        .with_threaded_wall_timeout(WALL_TIMEOUT);
    inst.scenario.discovery_period = 20;
    inst.scenario.view_timeout_base = 4000;
    inst
}

fn socket_dense(seed: u64) -> Instance {
    let mut inst = family_instance(GraphFamily::erdos_renyi(100, 1).scaled(80), seed);
    inst.scenario = inst.scenario.with_threaded_wall_timeout(WALL_TIMEOUT);
    inst.scenario.discovery_period = 50;
    inst.scenario.view_timeout_base = 4000;
    inst
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "sim-dense",
        kind: RuntimeKind::Sim,
        pace: 0.67,
        build: sim_dense,
    },
    Workload {
        name: "sim-wide",
        kind: RuntimeKind::Sim,
        pace: 0.34,
        build: sim_wide,
    },
    Workload {
        name: "sim-core-unknown-f",
        kind: RuntimeKind::Sim,
        pace: 9.0,
        build: sim_core_unknown_f,
    },
    Workload {
        name: "threaded-sparse",
        kind: RuntimeKind::Threaded,
        pace: 8.0,
        build: threaded_sparse,
    },
    Workload {
        name: "socket-dense",
        kind: RuntimeKind::Socket,
        pace: 2.6,
        build: socket_dense,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
