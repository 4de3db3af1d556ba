//! Figure 4 — BFT-CUPFT on extended k-OSR graphs: the Core algorithm
//! identifies a unique core and consensus is solved with no process
//! knowing the fault threshold.

use cupft_bench::{fmt_set, header, print_suite, Row};
use cupft_core::{ByzantineStrategy, ProtocolMode, RuntimeKind, Scenario, ScenarioSuite};
use cupft_graph::{fig4a, fig4b, is_extended_k_osr, process_set};

fn main() {
    println!("Figure 4 — BFT-CUPFT consensus on extended k-OSR graphs");

    header("Fig. 4a — core strictly inside the sink component");
    let fig = fig4a();
    let report = is_extended_k_osr(fig.graph(), 2, 12).expect("small graph");
    let core = report.core.as_ref().expect("core exists");
    println!(
        "  extended 2-OSR? {}   core = {} (k_Gdi = {})   sink component size = {}",
        report.holds(),
        fmt_set(&core.members),
        core.connectivity,
        report
            .base
            .sink_members()
            .map(|s| s.len())
            .unwrap_or_default(),
    );
    assert!(report.holds());

    let mut seed_suite = ScenarioSuite::new();
    for seed in [0u64, 1, 2] {
        seed_suite.push(
            format!("fig4a, all correct, seed {seed}"),
            Scenario::new(fig.graph().clone(), ProtocolMode::UnknownThreshold).with_seed(seed),
        );
    }
    let seed_report = seed_suite.run(RuntimeKind::Sim);
    for verdict in &seed_report.verdicts {
        let row = Row::from_outcome(&verdict.label, &verdict.outcome);
        row.print();
        assert!(verdict.solved());
        assert_eq!(row.detections, vec![process_set([1, 2, 3, 4, 5])]);
    }

    header("Fig. 4b — core equals the sink component; Byzantine sweep");
    let fig = fig4b();
    let report = is_extended_k_osr(fig.graph(), 2, 12).expect("small graph");
    let core = report.core.as_ref().expect("core exists");
    println!(
        "  extended 2-OSR? {}   core = {} (k_Gdi = {})",
        report.holds(),
        fmt_set(&core.members),
        core.connectivity,
    );
    assert!(report.holds());

    let strategies: [(&str, u64, ByzantineStrategy); 4] = [
        ("non-core 4 silent", 4, ByzantineStrategy::Silent),
        (
            "non-core 4 fake PD",
            4,
            ByzantineStrategy::FakePd {
                claimed: process_set([1, 2, 3]),
            },
        ),
        (
            "non-core 4 equivocating PDs",
            4,
            ByzantineStrategy::EquivocatePd {
                even: process_set([5, 8]),
                odd: process_set([1, 2, 3]),
            },
        ),
        (
            "core leader 5 equivocates values",
            5,
            ByzantineStrategy::EquivocateValue {
                committee: process_set([5, 6, 7, 8, 9]),
                value_a: cupft_committee::Value::from_static(b"evil-A"),
                value_b: cupft_committee::Value::from_static(b"evil-B"),
            },
        ),
    ];
    let mut strategy_suite = ScenarioSuite::new();
    for (name, byz, strategy) in strategies {
        strategy_suite.push(
            format!("fig4b, {name}"),
            Scenario::new(fig.graph().clone(), ProtocolMode::UnknownThreshold)
                .with_byzantine(byz, strategy),
        );
    }
    let strategy_report = strategy_suite.run(RuntimeKind::Sim);
    print_suite(&strategy_report);
    assert!(
        strategy_report.all_solved(),
        "fig4b must solve consensus under every strategy: {:?}",
        strategy_report.failures()
    );

    println!();
    println!("Figure 4 reproduced: unique core identified and consensus solved with unknown f,");
    println!("including under a value-equivocating Byzantine core leader.");
}
