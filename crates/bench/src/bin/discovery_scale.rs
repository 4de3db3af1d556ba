//! S6 — delta-gossip discovery scale series.
//!
//! Two sections, mirroring the two claims of the delta-gossip rework:
//!
//! 1. **Sweep payload** — the four family-sweep topologies at three sizes,
//!    each run twice through discovery-only simulations (full-`S_PD`
//!    baseline vs. delta gossip) to the same horizon. Reports the
//!    delivered `SETPDS` payload (certificates · messages) of both modes
//!    and asserts the final [`KnowledgeView`]s are byte-identical — the
//!    observational-equivalence claim — while the payload collapses (the
//!    ≥10x acceptance bar of the PR).
//! 2. **End-to-end consensus at scale** — full discovery → identification
//!    → committee consensus → learning on planted-committee families at
//!    n = 100 / 500 / 1000 (plus 2000 with `--full`), on **both**
//!    runtimes. With the sharded router plane
//!    ([`cupft_net::ThreadedConfig::router_shards`]) every family —
//!    including Erdős–Rényi's Θ(n²) traffic and scale-free's hub
//!    hotspots, which used to cap the threaded substrate at a few hundred
//!    nodes — runs the n=1000 cell threaded, and every threaded cell's
//!    decisions are asserted identical to the simulator's. Both runtimes
//!    run the certificate-verification pipeline (shared verdict pool +
//!    preflight stage), so each distinct certificate pays for at most one
//!    HMAC system-wide; per-family wall totals land as flat
//!    `e2e_wall_seconds_<family>` regression scalars.
//! 3. **Router shard axis** — one Erdős–Rényi topology run threaded at
//!    `router_shards ∈ {1, 2, 4}`, for cross-PR wall-clock comparison of
//!    the shard split itself.
//! 4. **Churn axis** — the n=100 cells of two families re-run under a
//!    seeded join + crash-rejoin [`ChurnSpec`] (a periphery vertex joins
//!    late, another crashes and rejoins from its snapshot), on both
//!    runtimes with threaded decisions checked against sim. Under
//!    `--obs` the sim cells land `obs_phase_*_churn_<family>`
//!    virtual-time scalars in the regression object — hard-gated like
//!    the stable-membership phase scalars — plus an advisory
//!    `e2e_wall_seconds_churn` wall total.
//!
//! `--json <path>` leaves the machine-readable artifact `scripts/bench.sh`
//! merges into `BENCH_discovery.json`; the flat `regression` keys in it
//! are what `bench.sh --check-regression` compares. `--obs` additionally
//! runs the n=100 sim cells observed and lands their virtual-time phase
//! scalars (`obs_phase_{spd_fixpoint,sink_identified,decided}_<family>`)
//! in the regression object — deterministic per seed, so they gate hard
//! where the wall scalars can only advise — plus the full per-family
//! [`ObsReport`]s as a `<json>.obs.json` sibling (see
//! `docs/OBSERVABILITY.md`).
//!
//! Determinism knobs for CI↔laptop comparability (`scripts/bench.sh`
//! forwards both): `BENCH_SEED=<u64>` offsets every scenario seed
//! (default: the committed artifact's seeds), `--shards <n>` pins the
//! threaded cells' router shard count (default: `min(cores, 4)`, the
//! runtime's auto resolution).

use std::collections::BTreeMap;
use std::time::Instant;

use cupft_bench::{header, json_path_from_args, obs_json, write_json, Json};
use cupft_core::{ChurnEvent, ChurnSpec, ProtocolMode, RuntimeKind, Scenario};
use cupft_detector::SystemSetup;
use cupft_discovery::{DiscoveryActor, DiscoveryMsg, DiscoveryState, GossipMode};
use cupft_graph::{DiGraph, GraphFamily, KnowledgeView, ProcessId};
use cupft_net::sim::Simulation;
use cupft_net::{DelayPolicy, SimConfig};
use cupft_obs::{ObsReport, PhaseMark};

const FAULT_THRESHOLD: usize = 1;
const SWEEP_SIZES: [usize; 3] = [12, 18, 24];
const SWEEP_HORIZON: u64 = 4_000;
const E2E_SIZES: [usize; 3] = [100, 500, 1_000];
const E2E_FULL_SIZES: [usize; 1] = [2_000];
const SHARD_AXIS: [usize; 3] = [1, 2, 4];
const SHARD_AXIS_N: usize = 200;

/// `BENCH_SEED` offset, added to every scenario seed (sweep runs and
/// e2e cells alike). The default of 0 reproduces the committed artifact.
fn seed_offset() -> u64 {
    std::env::var("BENCH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// `--obs` flag: run the n=100 sim cells observed ([`Scenario::with_observe`])
/// and emit their virtual-time phase scalars (`obs_phase_*`) into the
/// regression object, plus the full per-family [`ObsReport`]s as a
/// `<json>.obs.json` sibling artifact. Virtual time is byte-deterministic
/// per seed, so — unlike the advisory `e2e_wall_seconds_*` scalars — these
/// gate hard in `bench.sh --check-regression`.
fn obs_enabled() -> bool {
    std::env::args().any(|a| a == "--obs")
}

/// `--shards <n>` override for the threaded cells' router shard count.
fn shards_override() -> Option<usize> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--shards")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// The shard count threaded e2e cells run with: the `--shards` override,
/// or the runtime's own auto resolution (`min(cores, 4)`).
fn e2e_shards() -> usize {
    shards_override()
        .unwrap_or_else(|| cupft_net::ThreadedConfig::default().effective_router_shards())
}

fn psync() -> DelayPolicy {
    DelayPolicy::PartialSynchrony {
        gst: 200,
        delta: 10,
        pre_gst_max: 120,
    }
}

/// The family-sweep topologies (same parameterization as
/// `tests/family_sweep.rs`).
fn sweep_families() -> Vec<GraphFamily> {
    vec![
        GraphFamily::erdos_renyi(16, FAULT_THRESHOLD),
        GraphFamily::RingOfCliques {
            cliques: 3,
            clique_size: 4,
            bridges: 3,
            fault_threshold: FAULT_THRESHOLD,
        },
        GraphFamily::k_diamond(16, FAULT_THRESHOLD),
        GraphFamily::BridgedPartition {
            a_size: 8,
            sink_size: 3,
            bridge_width: 3,
            fault_threshold: FAULT_THRESHOLD,
        },
    ]
}

/// Planted-committee families for the end-to-end scale section (the ring
/// is excluded: its sink spans the whole graph, so identification means
/// computing the connectivity of an n-vertex set — a different scaling
/// story than committee discovery).
fn e2e_families() -> Vec<GraphFamily> {
    vec![
        GraphFamily::erdos_renyi(100, FAULT_THRESHOLD),
        GraphFamily::k_diamond(100, FAULT_THRESHOLD),
        GraphFamily::scale_free(100, FAULT_THRESHOLD),
        GraphFamily::bridged_partition(100, FAULT_THRESHOLD),
    ]
}

/// Runs discovery-only actors over `graph` to the horizon and returns
/// (delivered SETPDS payload, messages sent, final views).
fn discovery_run(
    graph: &DiGraph,
    mode: GossipMode,
    seed: u64,
) -> (u64, u64, Vec<(ProcessId, KnowledgeView)>) {
    let setup = SystemSetup::new(graph);
    let mut sim: Simulation<DiscoveryMsg> = Simulation::new(SimConfig {
        seed,
        max_time: SWEEP_HORIZON + 100,
        policy: psync(),
    });
    for v in graph.vertices() {
        let state = DiscoveryState::from_setup(&setup, v)
            .expect("vertex registered")
            .with_gossip(mode);
        sim.add_actor(Box::new(DiscoveryActor::new(state, 20)));
    }
    sim.run_until(|s| s.now() > SWEEP_HORIZON);
    let payload = sim.stats().label_payload("SETPDS");
    let messages = sim.stats().messages_sent;
    let views = sim
        .into_actors()
        .into_iter()
        .map(|(id, actor)| {
            let discovery = actor
                .as_any()
                .downcast_ref::<DiscoveryActor>()
                .expect("discovery actor");
            (id, discovery.state().view().clone())
        })
        .collect();
    (payload, messages, views)
}

struct SweepTotals {
    full_payload: u64,
    delta_payload: u64,
    min_ratio: f64,
}

fn sweep_section(rows: &mut Vec<Json>) -> SweepTotals {
    let mut totals = SweepTotals {
        full_payload: 0,
        delta_payload: 0,
        min_ratio: f64::INFINITY,
    };
    for family in sweep_families() {
        for size in SWEEP_SIZES {
            let scaled = family.scaled(size);
            let sample = scaled
                .generate(11)
                .unwrap_or_else(|e| panic!("{}: {e}", scaled.label()));
            let graph = &sample.system.graph;
            let run_seed = size as u64 + seed_offset();
            let (full_payload, full_msgs, full_views) =
                discovery_run(graph, GossipMode::Full, run_seed);
            let (delta_payload, delta_msgs, delta_views) =
                discovery_run(graph, GossipMode::Delta, run_seed);
            assert_eq!(
                full_views,
                delta_views,
                "{}@n{size}: delta views must be byte-identical to the baseline",
                family.name()
            );
            let ratio = full_payload as f64 / delta_payload.max(1) as f64;
            totals.full_payload += full_payload;
            totals.delta_payload += delta_payload;
            totals.min_ratio = totals.min_ratio.min(ratio);
            println!(
                "  {:<18} n={:<3} SETPDS payload: full={:<8} delta={:<6} ({ratio:>6.1}x)  msgs: full={} delta={}",
                family.name(),
                graph.vertex_count(),
                full_payload,
                delta_payload,
                full_msgs,
                delta_msgs,
            );
            rows.push(Json::obj([
                ("family", Json::str(family.name())),
                ("n", Json::U64(graph.vertex_count() as u64)),
                ("full_payload", Json::U64(full_payload)),
                ("delta_payload", Json::U64(delta_payload)),
                ("full_messages", Json::U64(full_msgs)),
                ("delta_messages", Json::U64(delta_msgs)),
                ("ratio", Json::F64(ratio)),
            ]));
        }
    }
    totals
}

/// The scenario behind one end-to-end cell (shared by sim and threaded
/// runs of the same (family, n), so decisions are comparable).
fn e2e_scenario(family: &GraphFamily, n: usize) -> (Scenario, usize) {
    let scaled = family.scaled(n);
    let sample = scaled
        .generate(n as u64)
        .unwrap_or_else(|e| panic!("{}: {e}", scaled.label()));
    let actual_n = sample.system.graph.vertex_count();
    let scenario = Scenario::new(
        sample.system.graph,
        ProtocolMode::KnownThreshold(FAULT_THRESHOLD),
    )
    .with_seed(1 + seed_offset())
    .with_policy(psync())
    .with_horizon(2_000_000);
    (scenario, actual_n)
}

/// Per-cell decisions, for sim↔threaded parity assertions.
type Decisions = BTreeMap<ProcessId, Option<Vec<u8>>>;

struct CellResult {
    solved: bool,
    wall: f64,
    row: Json,
    decisions: Decisions,
    /// `Some` when a sim baseline was supplied: whether this cell's
    /// decisions equal it (the same verdict printed and recorded in the
    /// row — computed once).
    matches_sim: Option<bool>,
    /// The cell's observability snapshot when it ran with `observe`.
    obs: Option<ObsReport>,
}

fn run_e2e_cell(
    family: &GraphFamily,
    scenario: &Scenario,
    actual_n: usize,
    kind: RuntimeKind,
    shards: Option<usize>,
    sim_decisions: Option<&Decisions>,
    observe: bool,
) -> CellResult {
    let mut scenario = scenario.clone();
    if observe {
        scenario = scenario.with_observe(true);
    }
    if kind == RuntimeKind::Threaded {
        if let Some(shards) = shards {
            scenario = scenario.with_router_shards(shards);
        }
        if actual_n >= 500 {
            // Tick knobs read as milliseconds on the threaded substrate:
            // slow the polling cadence so hundreds of nodes don't swamp
            // the router plane during the discovery transient, and give
            // the run a wall budget matched to the slower cadence (it
            // still stops the instant every correct node decides).
            scenario.discovery_period = 100;
            scenario.view_timeout_base = 4_000;
            scenario = scenario.with_threaded_wall_timeout(std::time::Duration::from_secs(600));
        }
    }
    let started = Instant::now();
    let outcome = scenario.run_on(kind);
    let wall = started.elapsed().as_secs_f64();
    let check = outcome.check();
    let solved = check.consensus_solved();
    let matches_sim = sim_decisions.map(|sim| sim == &outcome.decisions);
    println!(
        "  {:<18} n={:<5} {:<8} {} wall={:>7.2}s end_time={:<8} msgs={:<9} payload={}{}",
        family.name(),
        actual_n,
        kind.label(),
        if solved { "solved ✓" } else { "FAILED ✗" },
        wall,
        outcome.end_time,
        outcome.stats.messages_sent,
        outcome.stats.payload_units,
        match matches_sim {
            Some(true) => "  decisions==sim",
            Some(false) => "  DECISIONS DIVERGE FROM SIM",
            None => "",
        },
    );
    let mut fields = vec![
        ("family".to_string(), Json::str(family.name())),
        ("n".to_string(), Json::U64(actual_n as u64)),
        ("runtime".to_string(), Json::str(kind.label())),
        ("solved".to_string(), Json::Bool(solved)),
        ("agreement".to_string(), Json::Bool(check.agreement)),
        ("wall_seconds".to_string(), Json::F64(wall)),
        ("end_time".to_string(), Json::U64(outcome.end_time)),
        (
            "messages".to_string(),
            Json::U64(outcome.stats.messages_sent),
        ),
        (
            "payload_units".to_string(),
            Json::U64(outcome.stats.payload_units),
        ),
    ];
    if let Some(shards) = shards {
        fields.push(("router_shards".to_string(), Json::U64(shards as u64)));
    }
    if let Some(matches) = matches_sim {
        fields.push(("decisions_match_sim".to_string(), Json::Bool(matches)));
    }
    if let Some(obs) = &outcome.obs {
        fields.push((
            "obs_complete_timelines".to_string(),
            Json::U64(obs.complete_timelines() as u64),
        ));
    }
    CellResult {
        solved,
        wall,
        row: Json::Obj(fields),
        decisions: outcome.decisions,
        matches_sim,
        obs: outcome.obs,
    }
}

/// One Erdős–Rényi topology threaded across the shard axis: wall clock
/// and verdicts per `router_shards`, each checked against the simulator's
/// decisions.
fn shard_axis_section(rows: &mut Vec<Json>) {
    let family = GraphFamily::erdos_renyi(100, FAULT_THRESHOLD);
    let (mut scenario, actual_n) = e2e_scenario(&family, SHARD_AXIS_N);
    // The x1 cell runs Θ(n²) Erdős–Rényi traffic through one router
    // thread — the exact bottleneck the axis measures — so apply the
    // slow-cadence knobs unconditionally (run_e2e_cell only applies them
    // from n=500 up) and a generous wall budget: the axis compares shard
    // counts under one cadence, and must not time out on slower machines.
    scenario.discovery_period = 100;
    scenario.view_timeout_base = 4_000;
    scenario = scenario.with_threaded_wall_timeout(std::time::Duration::from_secs(600));
    let sim = run_e2e_cell(
        &family,
        &scenario,
        actual_n,
        RuntimeKind::Sim,
        None,
        None,
        false,
    );
    assert!(sim.solved, "shard axis: sim cell must solve consensus");
    for shards in SHARD_AXIS {
        let cell = run_e2e_cell(
            &family,
            &scenario,
            actual_n,
            RuntimeKind::Threaded,
            Some(shards),
            Some(&sim.decisions),
            false,
        );
        assert!(
            cell.solved,
            "shard axis: threaded x{shards} must solve consensus"
        );
        rows.push(cell.row);
    }
}

/// Churn axis: the n=100 cells of two families re-run under a seeded
/// join + crash-rejoin schedule on both runtimes (threaded decisions
/// checked against sim). Returns the axis's wall total; under `observe`
/// the sim cells' phase scalars land in `scalars` as
/// `obs_phase_{phase}_churn_{family}` (virtual clock, so they hard-gate
/// in `bench.sh --check-regression` alongside the stable-membership
/// ones).
fn churn_section(rows: &mut Vec<Json>, scalars: &mut Vec<(String, Json)>, observe: bool) -> f64 {
    let mut wall = 0.0;
    let n = E2E_SIZES[0];
    for family in [
        GraphFamily::k_diamond(100, FAULT_THRESHOLD),
        GraphFamily::erdos_renyi(100, FAULT_THRESHOLD),
    ] {
        let scaled = family.scaled(n);
        let sample = scaled
            .generate(n as u64)
            .unwrap_or_else(|e| panic!("{}: {e}", scaled.label()));
        let actual_n = sample.system.graph.vertex_count();
        // Churn the two highest periphery (non-sink) IDs — the planted
        // committee must stay intact; fall back to the highest IDs
        // outright if strong connectivity qualified the whole graph.
        let mut candidates: Vec<u64> = sample
            .system
            .graph
            .vertices()
            .filter(|v| !sample.system.sink.contains(v))
            .map(|v| v.raw())
            .collect();
        if candidates.len() < 2 {
            candidates = sample.system.graph.vertices().map(|v| v.raw()).collect();
        }
        candidates.sort_unstable();
        let recoverer = candidates.pop().expect("graph has vertices");
        let joiner = candidates.pop().expect("graph has ≥2 vertices");
        let seed_peer = sample
            .system
            .graph
            .vertices()
            .map(|v| v.raw())
            .min()
            .expect("graph has vertices");
        let spec = ChurnSpec::new(vec![
            ChurnEvent::JoinAt {
                tick: 400,
                node: ProcessId::new(joiner),
                seed_peers: cupft_graph::process_set([seed_peer]),
            },
            ChurnEvent::CrashRecoverAt {
                tick: 200,
                node: ProcessId::new(recoverer),
                down_for: 400,
            },
        ]);
        let churn_label = spec.label();
        let scenario = Scenario::new(
            sample.system.graph,
            ProtocolMode::KnownThreshold(FAULT_THRESHOLD),
        )
        .with_seed(1 + seed_offset())
        .with_policy(psync())
        .with_horizon(2_000_000)
        .with_churn(spec);
        let family_key = family.name().replace('-', "_");

        let sim = run_e2e_cell(
            &family,
            &scenario,
            actual_n,
            RuntimeKind::Sim,
            None,
            None,
            observe,
        );
        assert!(sim.solved, "churn axis: {family_key} sim cell must solve");
        if let Some(report) = &sim.obs {
            // The schedule demonstrably executed: one join, one crash,
            // one recovery, visible in the deterministic obs counters.
            assert_eq!(report.counter("churn_joins"), 1);
            assert_eq!(report.counter("churn_crashes"), 1);
            assert_eq!(report.counter("churn_recoveries"), 1);
            for (key, mark) in [
                ("spd_fixpoint", PhaseMark::SpdFixpoint),
                ("sink_identified", PhaseMark::SinkIdentified),
                ("decided", PhaseMark::Decided),
            ] {
                let at = report
                    .phase_max(mark)
                    .unwrap_or_else(|| panic!("churn axis: {family_key} reached no {key} phase"));
                scalars.push((format!("obs_phase_{key}_churn_{family_key}"), Json::U64(at)));
            }
        }
        wall += sim.wall;
        let threaded = run_e2e_cell(
            &family,
            &scenario,
            actual_n,
            RuntimeKind::Threaded,
            None,
            Some(&sim.decisions),
            false,
        );
        assert!(
            threaded.solved,
            "churn axis: {family_key} threaded cell must solve"
        );
        assert!(
            threaded.matches_sim.unwrap_or(false),
            "churn axis: {family_key} threaded decisions must equal sim"
        );
        wall += threaded.wall;
        for cell in [sim, threaded] {
            let Json::Obj(mut fields) = cell.row else {
                unreachable!("run_e2e_cell rows are objects")
            };
            fields.push(("churn".to_string(), Json::str(&churn_label)));
            rows.push(Json::Obj(fields));
        }
    }
    wall
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let obs = obs_enabled();
    println!(
        "Delta-gossip discovery scale series (f = {FAULT_THRESHOLD}{}{})",
        if full { ", --full" } else { "" },
        if obs { ", --obs" } else { "" },
    );

    header("Sweep: delivered SETPDS payload, full-S_PD baseline vs delta gossip");
    let mut sweep_rows = Vec::new();
    let totals = sweep_section(&mut sweep_rows);
    let total_ratio = totals.full_payload as f64 / totals.delta_payload.max(1) as f64;
    println!(
        "  -- totals: full={} delta={} ({:.1}x overall, worst cell {:.1}x)",
        totals.full_payload, totals.delta_payload, total_ratio, totals.min_ratio
    );
    assert!(
        total_ratio >= 10.0,
        "delta gossip must deliver ≥10x fewer SETPDS payload units on the sweep"
    );

    header("End-to-end consensus at scale (discovery → identification → consensus → learning)");
    let threaded_shards = e2e_shards();
    println!("  (threaded cells run router_shards = {threaded_shards})");
    let mut e2e_rows = Vec::new();
    let mut all_solved = true;
    let mut all_match_sim = true;
    let mut e2e_wall_total = 0.0;
    // Per-family wall totals (sim + threaded cells), emitted as flat
    // `e2e_wall_seconds_<family>` regression scalars so
    // `bench.sh --check-regression` can advise on each family's
    // trajectory instead of only the blended total.
    let mut e2e_wall_by_family: BTreeMap<String, f64> = BTreeMap::new();
    // `--obs`: per-family (phase scalars, full report) from the observed
    // n=100 sim cells. Virtual-time marks, so deterministic per seed.
    let mut obs_scalars: Vec<(String, Json)> = Vec::new();
    let mut obs_families: Vec<(String, Json)> = Vec::new();
    let mut sizes: Vec<usize> = E2E_SIZES.to_vec();
    if full {
        sizes.extend(E2E_FULL_SIZES);
    }
    for family in e2e_families() {
        for &n in &sizes {
            let (scenario, actual_n) = e2e_scenario(&family, n);
            let family_key = family.name().replace('-', "_");
            let observe = obs && n == E2E_SIZES[0];
            let sim = run_e2e_cell(
                &family,
                &scenario,
                actual_n,
                RuntimeKind::Sim,
                None,
                None,
                observe,
            );
            if let Some(report) = &sim.obs {
                let deciders = sim.decisions.values().filter(|d| d.is_some()).count();
                assert_eq!(
                    report.complete_timelines(),
                    deciders,
                    "{family_key}@n{actual_n}: every deciding node must carry all five phase marks"
                );
                assert_eq!(
                    report.clock_domain.name(),
                    "virtual",
                    "{family_key}@n{actual_n}: sim obs must be on the virtual clock"
                );
                println!(
                    "      obs: {deciders} complete timelines, decided by t={}, S_PD fixpoint by t={}",
                    report.phase_max(PhaseMark::Decided).unwrap_or(0),
                    report.phase_max(PhaseMark::SpdFixpoint).unwrap_or(0),
                );
                for (key, mark) in [
                    ("spd_fixpoint", PhaseMark::SpdFixpoint),
                    ("sink_identified", PhaseMark::SinkIdentified),
                    ("decided", PhaseMark::Decided),
                ] {
                    let at = report.phase_max(mark).unwrap_or_else(|| {
                        panic!("{family_key}@n{actual_n}: no node reached phase {key}")
                    });
                    obs_scalars.push((format!("obs_phase_{key}_{family_key}"), Json::U64(at)));
                }
                obs_families.push((family_key.clone(), obs_json(report)));
            }
            all_solved &= sim.solved;
            e2e_wall_total += sim.wall;
            *e2e_wall_by_family.entry(family_key.clone()).or_default() += sim.wall;
            e2e_rows.push(sim.row);
            // 2000 OS threads is a stress test, not a benchmark cell.
            // Everything up to n=1000 runs threaded too: the sharded
            // router plane drains Erdős–Rényi's Θ(n²) periphery traffic
            // and scale-free's hub hotspots, which used to cap the
            // threaded substrate at a few hundred nodes.
            if n > 1_000 {
                continue;
            }
            let threaded = run_e2e_cell(
                &family,
                &scenario,
                actual_n,
                RuntimeKind::Threaded,
                Some(threaded_shards),
                Some(&sim.decisions),
                false,
            );
            all_solved &= threaded.solved;
            all_match_sim &= threaded.matches_sim.unwrap_or(false);
            e2e_wall_total += threaded.wall;
            *e2e_wall_by_family.entry(family_key).or_default() += threaded.wall;
            e2e_rows.push(threaded.row);
        }
    }
    assert!(all_solved, "every end-to-end cell must solve consensus");
    assert!(
        all_match_sim,
        "every threaded cell must reach the simulator's decisions"
    );

    header("Router shard axis (erdos-renyi, threaded, router_shards in {1, 2, 4})");
    let mut shard_rows = Vec::new();
    shard_axis_section(&mut shard_rows);

    header("Churn axis (join + crash-rejoin at n=100, both runtimes)");
    let mut churn_rows = Vec::new();
    let churn_wall = churn_section(&mut churn_rows, &mut obs_scalars, obs);

    println!();
    println!("Expected shape: sweep payload drops ≥10x because delta replies carry only");
    println!("unseen certificates and synced pairs stop polling; end-to-end n=1000 runs on");
    println!("both substrates because identification is dirty-gated per tick and delivery");
    println!("scheduling fans out across router shards instead of one router thread.");

    if let Some(path) = json_path_from_args() {
        let doc = Json::obj([
            ("fault_threshold", Json::U64(FAULT_THRESHOLD as u64)),
            ("router_shards", Json::U64(threaded_shards as u64)),
            ("sweep", Json::Arr(sweep_rows)),
            ("e2e", Json::Arr(e2e_rows)),
            ("shard_axis", Json::Arr(shard_rows)),
            ("churn", Json::Arr(churn_rows)),
            ("regression", {
                let mut fields = vec![
                    (
                        "sweep_full_payload".to_string(),
                        Json::U64(totals.full_payload),
                    ),
                    (
                        "sweep_delta_payload".to_string(),
                        Json::U64(totals.delta_payload),
                    ),
                    ("sweep_payload_ratio".to_string(), Json::F64(total_ratio)),
                    (
                        "e2e_wall_note".to_string(),
                        Json::str(
                            "e2e_wall_seconds_* are advisory-only (cross-machine wall clock); \
                             the obs_phase_* virtual-time scalars are the canonical \
                             deterministic latency trajectory",
                        ),
                    ),
                    (
                        "e2e_wall_seconds_total".to_string(),
                        Json::F64(e2e_wall_total),
                    ),
                    ("e2e_wall_seconds_churn".to_string(), Json::F64(churn_wall)),
                ];
                for (family, wall) in &e2e_wall_by_family {
                    fields.push((format!("e2e_wall_seconds_{family}"), Json::F64(*wall)));
                }
                for (key, value) in &obs_scalars {
                    fields.push((key.clone(), value.clone()));
                }
                Json::Obj(fields)
            }),
        ]);
        write_json(&path, &doc);
        if !obs_families.is_empty() {
            // Full per-family ObsReports ride beside the main artifact —
            // bench.sh publishes the sibling as OBS_discovery.json.
            let obs_path = path.with_extension("obs.json");
            write_json(&obs_path, &Json::Obj(obs_families));
        }
    }
}
