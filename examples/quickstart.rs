//! Quickstart: solve Byzantine consensus where nobody knows who is in the
//! system or how many faults it tolerates.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! Nine processes join knowing only their participant-detector outputs
//! (the Fig. 4a knowledge connectivity graph). No process is given the
//! system membership or the fault threshold. They discover each other
//! (Algorithm 1), identify the unique core (Algorithm 4), run committee
//! consensus inside it, and spread the decision outward (Algorithm 3).

use bft_cupft::core::{run_scenario, ProtocolMode, Scenario};
use bft_cupft::graph::fig4a;

fn main() {
    let fig = fig4a();
    println!("knowledge connectivity graph (Fig. 4a):\n{}", fig.graph());

    let scenario = Scenario::new(fig.graph().clone(), ProtocolMode::UnknownThreshold)
        .with_value(1, b"block #1: genesis")
        .with_seed(2024);
    let outcome = run_scenario(&scenario);

    println!("per-process results:");
    for (id, decision) in &outcome.decisions {
        let core = outcome.detections[id]
            .as_ref()
            .map(|c| {
                let ids: Vec<String> = c.members().iter().map(|p| p.raw().to_string()).collect();
                format!("{{{}}} (g = {})", ids.join(","), c.fault_threshold())
            })
            .unwrap_or_else(|| "?".into());
        println!(
            "  {id}: identified core {core}, decided {:?} at t={}",
            decision
                .as_ref()
                .map(|v| String::from_utf8_lossy(v))
                .unwrap_or_default(),
            outcome.decided_times[id].unwrap_or_default(),
        );
    }

    let check = outcome.check();
    println!(
        "\nconsensus solved: {} (agreement={}, termination={}, validity={})",
        check.consensus_solved(),
        check.agreement,
        check.termination,
        check.validity
    );
    println!(
        "simulated time: {} ticks, messages: {}",
        outcome.end_time, outcome.stats.messages_sent
    );
    assert!(check.consensus_solved());
}
