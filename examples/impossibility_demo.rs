//! A guided walk through Theorem 7: why BFT-CUP graphs are NOT enough once
//! the fault threshold is withheld — and how the BFT-CUPFT graphs repair
//! it.
//!
//! ```sh
//! cargo run --example impossibility_demo
//! ```

use bft_cupft::core::{run_scenario, ByzantineStrategy, ProtocolMode, Scenario};
use bft_cupft::graph::{fig2a, fig2b, fig2c, fig4a, process_set};
use bft_cupft::net::DelayPolicy;

const NAIVE: ProtocolMode = ProtocolMode::NaiveGuess;

fn main() {
    println!("─── Theorem 7, scene 1: system A (Fig. 2a) ───");
    println!("four processes, process 4 silent, everyone proposes v");
    let a = Scenario::new(fig2a().graph().clone(), NAIVE)
        .with_byzantine(4, ByzantineStrategy::Silent)
        .with_value(1, b"v")
        .with_value(2, b"v")
        .with_value(3, b"v");
    let oa = run_scenario(&a);
    println!(
        "  {{1,2,3}} decide {:?} by t={}\n",
        oa.check().decided_values,
        oa.last_decision_time().unwrap_or_default()
    );

    println!("─── scene 2: system B (Fig. 2b) ───");
    println!("four other processes, process 5 silent, everyone proposes u");
    let b = Scenario::new(fig2b().graph().clone(), NAIVE)
        .with_byzantine(5, ByzantineStrategy::Silent)
        .with_value(6, b"u")
        .with_value(7, b"u")
        .with_value(8, b"u");
    let ob = run_scenario(&b);
    println!(
        "  {{6,7,8}} decide {:?} by t={}\n",
        ob.check().decided_values,
        ob.last_decision_time().unwrap_or_default()
    );

    println!("─── scene 3: system AB (Fig. 2c) ───");
    println!("ALL EIGHT are correct; cross-group messages are just slow.");
    println!("{{1,2,3}} cannot distinguish AB from A; {{6,7,8}} cannot from B.");
    let cross = (oa
        .last_decision_time()
        .unwrap_or_default()
        .max(ob.last_decision_time().unwrap_or_default())
        + 1)
        * 10;
    let ab = Scenario::new(fig2c().graph().clone(), NAIVE)
        .with_policy(DelayPolicy::Partitioned {
            delta: 10,
            groups: vec![process_set([1, 2, 3, 4]), process_set([5, 6, 7, 8])],
            cross_delay: cross,
        })
        .with_value(1, b"v")
        .with_value(2, b"v")
        .with_value(3, b"v")
        .with_value(4, b"v")
        .with_value(5, b"u")
        .with_value(6, b"u")
        .with_value(7, b"u")
        .with_value(8, b"u")
        .with_horizon(cross * 4);
    let oab = run_scenario(&ab);
    let check = oab.check();
    println!(
        "  decisions: {:?} — agreement {}",
        check.decided_values, check.agreement
    );
    assert!(!check.agreement, "the impossibility must manifest");
    println!("  ✗ two values decided in one system: consensus is impossible here.\n");

    println!("─── repair: a BFT-CUPFT graph (Fig. 4a) ───");
    println!("extended 2-OSR: a unique maximum-connectivity core exists.");
    let fixed = Scenario::new(fig4a().graph().clone(), ProtocolMode::UnknownThreshold);
    let of = run_scenario(&fixed);
    let check = of.check();
    println!(
        "  all correct processes decide {:?}: consensus solved = {}",
        check.decided_values,
        check.consensus_solved()
    );
    assert!(check.consensus_solved());
}
