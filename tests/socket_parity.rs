//! Acceptance tests for the real-socket runtime.
//!
//! Three claims:
//!
//! 1. **In-process parity** — a `SocketRuntime` hosting every node of a
//!    scenario (all traffic over loopback TCP through its own listener)
//!    reaches exactly the decisions the deterministic simulator reaches,
//!    across three generated graph families.
//! 2. **Multi-process parity** — the `socket_cell` driver binary spawns
//!    one OS process per vertex, runs consensus over genuine inter-process
//!    TCP, and asserts decision parity against the simulator itself
//!    (printing the `SOCKET PARITY OK` line this test greps, same as CI).
//! 3. **Link conformance** — the shared flood body of `tests/link`, the
//!    same one `tests/threaded_link.rs` runs on the threaded link: exact
//!    `NetStats` conservation, exact tamper drop accounting, per-sender
//!    emission order at the tamper (even though deliveries fan out across
//!    connections), and a tamper delay that is still delivered.

use std::process::Command;
use std::time::Duration;

use bft_cupft::core::{ProtocolMode, RuntimeKind, Scenario};
use bft_cupft::graph::GraphFamily;
use bft_cupft::net::{SocketConfig, SocketRuntime};
use link::FloodMsg;

mod link;

/// Retunes tick-denominated knobs for the socket substrate (read as
/// milliseconds there, same as the threaded retuning).
fn socket_variant(scenario: &Scenario) -> Scenario {
    let mut s = scenario
        .clone()
        .with_threaded_wall_timeout(Duration::from_secs(60));
    s.discovery_period = 100;
    s.view_timeout_base = 4_000;
    s
}

#[test]
fn socket_decisions_match_sim_on_three_families() {
    let families = [
        GraphFamily::erdos_renyi(12, 1),
        GraphFamily::k_diamond(12, 1),
        GraphFamily::ring_of_cliques(12, 1),
    ];
    for family in families {
        let label = family.label();
        let sample = family.generate(11).expect("valid family parameterization");
        let scenario =
            Scenario::new(sample.system.graph, ProtocolMode::KnownThreshold(1)).with_seed(5);
        let sim = scenario.run_on(RuntimeKind::Sim);
        assert!(sim.check().consensus_solved(), "{label} on sim: {sim:?}");
        let socket = socket_variant(&scenario).run_on(RuntimeKind::Socket);
        assert!(
            socket.check().consensus_solved(),
            "{label} on socket: {:?}",
            socket.decisions
        );
        assert_eq!(
            sim.decisions, socket.decisions,
            "{label}: socket decisions must equal sim"
        );
        // Socket runs deliver what they send (no tamper, no loss) —
        // whatever was still in flight at shutdown is the only slack.
        assert!(
            socket.stats.messages_delivered <= socket.stats.messages_sent,
            "{label}: delivered > sent"
        );
    }
}

/// Runs the `socket_cell` coordinator (which spawns one OS process per
/// vertex) and asserts it reports parity — a real distributed deployment
/// of the full stack, exercised from the test suite exactly as CI runs it.
fn cell_reports_parity(family: &str, n: usize) {
    let out = Command::new(env!("CARGO_BIN_EXE_socket_cell"))
        .args(["--family", family, "--n", &n.to_string(), "--f", "1"])
        .output()
        .expect("run socket_cell");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "socket_cell {family} n={n} failed: {stdout}\n{stderr}"
    );
    assert!(
        stdout.contains("SOCKET PARITY OK"),
        "missing parity line: {stdout}\n{stderr}"
    );
}

#[test]
fn multiprocess_cell_matches_sim_on_k_diamond() {
    cell_reports_parity("k-diamond", 10);
}

#[test]
fn multiprocess_cell_matches_sim_on_erdos_renyi() {
    cell_reports_parity("erdos-renyi", 10);
}

// ---- link conformance: the flood workload of tests/link ----

fn flood_runtime() -> SocketRuntime<FloodMsg> {
    SocketRuntime::new(SocketConfig {
        wall_timeout: Duration::from_secs(30),
        ..SocketConfig::default()
    })
    .expect("bind")
}

#[test]
fn socket_netstats_totals_are_conserved() {
    link::conserves_netstats(flood_runtime());
}

#[test]
fn socket_tamper_drop_accounting_is_exact() {
    link::drop_accounting_is_exact(flood_runtime());
}

#[test]
fn socket_tamper_sees_per_sender_emission_order() {
    link::tamper_sees_emission_order(flood_runtime());
}

#[test]
fn socket_tamper_delay_is_delivered() {
    link::delayed_messages_are_delivered(flood_runtime());
}

#[test]
fn socket_actors_share_a_bounded_worker_set() {
    link::actors_share_a_bounded_worker_set(flood_runtime());
}

#[test]
fn socket_flood_past_the_mailbox_cap_is_delivered() {
    link::flood_past_the_mailbox_cap_is_delivered(flood_runtime());
}

#[test]
fn socket_backlog_does_not_starve_timers() {
    link::backlog_does_not_starve_timers(flood_runtime());
}
