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

use std::net::TcpStream;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bft_cupft::committee::{QuorumCert, Value};
use bft_cupft::core::{
    run_scenario_on, ByzantineStrategy, NodeMsg, ProtocolMode, RuntimeKind, Scenario,
};
use bft_cupft::crypto::Signature;
use bft_cupft::graph::{fig1b, GraphFamily, ProcessId};
use bft_cupft::net::{SocketConfig, SocketRuntime};
use bft_cupft::wire::frame::write_frame;
use bft_cupft::wire::Encode;
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

// ---- forged senders on the real wire ----

/// A `DecidedVal` for `forged`, a value nobody proposed, in a commit
/// certificate whose signatures claim members 1, 2 and 3 but were made
/// without their keys.
fn forged_decided_val() -> NodeMsg {
    NodeMsg::DecidedVal(Arc::new(QuorumCert {
        view: 0,
        value: Value::from_static(b"forged"),
        signatures: (1..=3).map(Signature::forged).collect(),
    }))
}

/// A raw TCP client connects to the listener of a `fig1b` socket run
/// (`KnownThreshold(1)`, member 4 silent) and, until the run ends, writes
/// framed envelopes that claim `from` = 1, 2 and 3 and carry a
/// `DecidedVal` for a value nobody proposed, addressed to every learner.
/// The envelope's `from` is taken on trust, so only the message itself
/// can stop the forgery: no correct process may decide it.
#[test]
fn forged_decided_val_frames_decide_no_correct_process() {
    let scenario = socket_variant(
        &Scenario::new(fig1b().graph().clone(), ProtocolMode::KnownThreshold(1))
            .with_byzantine(4, ByzantineStrategy::Silent),
    );
    let mut runtime: SocketRuntime<NodeMsg> =
        SocketRuntime::new(scenario.socket_config()).expect("bind");
    let addr = runtime.local_addr();
    let learners: Vec<ProcessId> = scenario
        .correct()
        .into_iter()
        .filter(|p| p.raw() > 4)
        .collect();
    let frames: Vec<Vec<u8>> = learners
        .iter()
        .flat_map(|&to| {
            (1..=3).map(move |from| {
                let mut payload = Vec::new();
                ProcessId::new(from).encode(&mut payload);
                to.encode(&mut payload);
                forged_decided_val().encode(&mut payload);
                payload
            })
        })
        .collect();
    let done = Arc::new(AtomicBool::new(false));
    let forger = {
        let done = done.clone();
        std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect to the run");
            // A closed run may leave a write blocked on a full window: the
            // timeout ends the forger then, well after any backpressure
            // within the run.
            stream
                .set_write_timeout(Some(Duration::from_secs(1)))
                .expect("write timeout");
            let mut written = 0u64;
            while !done.load(Ordering::SeqCst) {
                for payload in &frames {
                    if write_frame(&mut stream, payload).is_err() {
                        return written;
                    }
                    written += 1;
                }
                std::thread::yield_now();
            }
            written
        })
    };
    let outcome = run_scenario_on(&scenario, &mut runtime);
    done.store(true, Ordering::SeqCst);
    let written = forger.join().expect("forger thread");
    let check = outcome.check();
    println!(
        "forged frames written: {written}; decisions: {:?}",
        outcome
            .decisions
            .iter()
            .map(|(p, d)| (p.raw(), d.as_deref().map(String::from_utf8_lossy)))
            .collect::<Vec<_>>()
    );
    assert!(written > 0, "the forger wrote nothing");
    assert!(
        !check.decided_values.contains(b"forged".as_slice()),
        "a correct process decided the forged value: {:?}",
        outcome.decisions
    );
    assert!(check.consensus_solved(), "{check:?}");
}
