//! One scenario, three substrates: the deterministic simulator, one OS
//! thread per node, or loopback TCP with every send wire-encoded — the
//! protocol stack is not a simulator artifact.
//!
//! ```sh
//! cargo run --example runtimes -- sim        # or: threaded | socket
//! ```
//!
//! The Fig. 4b graph with nobody told the fault threshold and process 4
//! silent. The wall-clock runtimes may interleave differently on every
//! run; the decided value is the simulator's all the same.

use bft_cupft::core::{ByzantineStrategy, ProtocolMode, RuntimeKind, Scenario};
use bft_cupft::graph::fig4b;

fn main() {
    let kind = match std::env::args().nth(1).as_deref() {
        None | Some("sim") => RuntimeKind::Sim,
        Some("threaded") => RuntimeKind::Threaded,
        Some("socket") => RuntimeKind::Socket,
        Some(other) => {
            eprintln!("usage: runtimes [sim | threaded | socket] (got {other:?})");
            std::process::exit(2);
        }
    };

    let mut scenario = Scenario::new(fig4b().graph().clone(), ProtocolMode::UnknownThreshold)
        .with_byzantine(4, ByzantineStrategy::Silent)
        .with_seed(99);
    // Ticks are milliseconds on threads and sockets: a view timeout of
    // seconds keeps scheduling jitter from forcing a view change.
    scenario.view_timeout_base = 2_000;

    let outcome = scenario.run_on(kind);
    println!(
        "{}: {} messages, end time {}",
        kind.label(),
        outcome.stats.messages_sent,
        outcome.end_time
    );
    for (id, decision) in &outcome.decisions {
        println!(
            "  {id} decided {:?}",
            decision
                .as_ref()
                .map(|v| String::from_utf8_lossy(v))
                .unwrap_or_default()
        );
    }
    assert!(
        outcome.check().consensus_solved(),
        "consensus must hold on {}",
        kind.label()
    );
}
