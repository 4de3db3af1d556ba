//! Figure 1 — knowledge connectivity requirements of BFT-CUP.
//!
//! * Fig. 1a violates the requirements: with process 4 silent, `{1,2,3}`
//!   and `{5,6,7,8}` cannot learn of each other and consensus is
//!   impossible (no decision; with the naive guesser, even disagreement).
//! * Fig. 1b satisfies them: consensus is solved with one Byzantine
//!   process under every strategy in the playbook.

use cupft_bench::{fmt_set, header, print_suite, Row};
use cupft_core::{ByzantineStrategy, ProtocolMode, RuntimeKind, Scenario, ScenarioSuite};
use cupft_graph::{fig1a, fig1b, osr_report, process_set};

fn main() {
    println!("Figure 1 — BFT-CUP knowledge connectivity requirements (f = 1)");

    header("Fig. 1a — requirements violated");
    let fig = fig1a();
    let report = osr_report(&fig.safe_subgraph(), 2);
    println!(
        "  G_safe 2-OSR? {} (sink components: {})",
        report.is_k_osr(),
        report.sink_count
    );
    assert!(!report.is_k_osr());

    // The honest BFT-CUP stack: with process 4 silent the two components
    // never learn of each other, each identifies a "sink" of its own, and
    // they decide independently — the exact failure mode the paper's
    // introduction describes for this graph ("the correct participants in
    // each disconnected component may decide on a value independently").
    let scenario = Scenario::new(fig.graph().clone(), ProtocolMode::KnownThreshold(1))
        .with_byzantine(4, ByzantineStrategy::Silent)
        .with_horizon(50_000);
    let row = Row::run("BFT-CUP, process 4 silent", &scenario);
    row.print();
    assert!(!row.solved, "fig1a must fail to solve consensus");
    assert!(
        !row.check.agreement,
        "each component decides independently: Agreement violated"
    );

    header("Fig. 1b — requirements satisfied");
    let fig = fig1b();
    let report = osr_report(&fig.safe_subgraph(), 2);
    println!(
        "  G_safe 2-OSR? {} (sink = {})",
        report.is_k_osr(),
        fmt_set(report.sink_members().expect("unique sink"))
    );
    assert!(report.is_k_osr());

    let strategies: [(&str, ByzantineStrategy); 3] = [
        ("silent", ByzantineStrategy::Silent),
        (
            "fake PD {1,2,3} (worked example)",
            ByzantineStrategy::FakePd {
                claimed: process_set([1, 2, 3]),
            },
        ),
        (
            "equivocating PDs",
            ByzantineStrategy::EquivocatePd {
                even: process_set([1, 2]),
                odd: process_set([2, 3]),
            },
        ),
    ];
    let mut suite = ScenarioSuite::new();
    for (name, strategy) in strategies {
        suite.push(
            format!("BFT-CUP, process 4 {name}"),
            Scenario::new(fig.graph().clone(), ProtocolMode::KnownThreshold(1))
                .with_byzantine(4, strategy),
        );
    }
    let report = suite.run(RuntimeKind::Sim);
    print_suite(&report);
    assert!(
        report.all_solved(),
        "fig1b must solve consensus under every strategy: {:?}",
        report.failures()
    );

    println!();
    println!("Figure 1 reproduced: 1a impossible (✗), 1b solved under 3 Byzantine strategies (✓).");
}
