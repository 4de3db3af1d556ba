//! Paper-artifact harness: the Table I suite and the row formatting the
//! table/figure binaries share.
//!
//! Each binary under `src/bin/` regenerates one artifact of the paper and
//! asserts it:
//!
//! | binary   | artifact |
//! |----------|----------|
//! | `table1` | Table I — (im)possibility matrix |
//! | `fig1`   | Fig. 1 — BFT-CUP requirement violation/satisfaction |
//! | `fig2`   | Fig. 2 — Theorem 7 impossibility executions |
//! | `fig3`   | Fig. 3 — false-sink self-declaration |
//! | `fig4`   | Fig. 4 — BFT-CUPFT core identification and consensus |
//! | `ablation_auth` | Section III claim — signatures vs. RRB baseline |
//!
//! Performance is measured elsewhere: `benchmark/` (see `BENCHMARK.json`)
//! is the repository's one benchmark.

#![forbid(unsafe_code)]

use cupft_core::{
    run_scenario, ConsensusCheck, FaultCase, ProtocolMode, Scenario, ScenarioGrid, ScenarioOutcome,
    ScenarioSuite, SuiteReport,
};
use cupft_graph::{fig1b, fig4a, process_set, DiGraph, ProcessSet};
use cupft_net::DelayPolicy;

/// Table I as one suite: {known n & f, unknown n & known f (BFT-CUP),
/// unknown n & f (BFT-CUPFT)} × {synchronous, partially synchronous,
/// asynchronous}, each column on a witness graph with one silent
/// Byzantine process. Labels are `<column>/…/<sync|psync|async>/…`.
///
/// The asynchronous policy never stabilizes within its horizon (delays
/// up to 10^6 on a 10^5 horizon) — the checkable shadow of FLP: those
/// three cells must stall without disagreeing, the other six must solve
/// consensus.
pub fn table1_suite() -> ScenarioSuite {
    let column = |label: &str, graph: DiGraph, mode: ProtocolMode, byzantine: u64| {
        ScenarioGrid::new()
            .graph(label, graph, mode)
            .fault(FaultCase::silent(byzantine))
            .policy("sync", DelayPolicy::Synchronous { delta: 10 }, 100_000)
            .policy(
                "psync",
                DelayPolicy::PartialSynchrony {
                    gst: 300,
                    delta: 10,
                    pre_gst_max: 200,
                },
                200_000,
            )
            .policy(
                "async",
                DelayPolicy::Asynchronous {
                    delta: 10,
                    unbounded_max: 1_000_000,
                },
                100_000,
            )
            .build()
    };
    // "Known n and f": every process's PD is the full membership.
    let mut suite = column(
        "known n, known f",
        DiGraph::complete(&process_set(1..=4)),
        ProtocolMode::KnownThreshold(1),
        4,
    );
    suite.extend(column(
        "unknown n, known f (BFT-CUP)",
        fig1b().graph().clone(),
        ProtocolMode::KnownThreshold(1),
        4,
    ));
    suite.extend(column(
        "unknown n, unknown f (BFT-CUPFT)",
        fig4a().graph().clone(),
        ProtocolMode::UnknownThreshold,
        9,
    ));
    suite
}

/// One printed experiment row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Experiment label.
    pub label: String,
    /// Whether consensus was solved (agreement ∧ termination ∧ validity).
    pub solved: bool,
    /// Individual property verdicts.
    pub check: ConsensusCheck,
    /// Simulated end time.
    pub end_time: u64,
    /// Total messages.
    pub messages: u64,
    /// Total payload units (certificates carried by SETPDS traffic).
    pub payload_units: u64,
    /// Distinct sink/core detections among correct processes.
    pub detections: Vec<ProcessSet>,
}

impl Row {
    /// Runs a scenario and summarizes it under `label`.
    pub fn run(label: impl Into<String>, scenario: &Scenario) -> Row {
        let outcome = run_scenario(scenario);
        Row::from_outcome(label, &outcome)
    }

    /// Summarizes an already-run outcome.
    pub fn from_outcome(label: impl Into<String>, outcome: &ScenarioOutcome) -> Row {
        let check = outcome.check();
        Row {
            label: label.into(),
            solved: check.consensus_solved(),
            check,
            end_time: outcome.end_time,
            messages: outcome.stats.messages_sent,
            payload_units: outcome.stats.payload_units,
            detections: outcome.distinct_detections().into_iter().collect(),
        }
    }

    /// Renders the row.
    pub fn print(&self) {
        let mark = if self.solved { "✓" } else { "✗" };
        let values: Vec<String> = self
            .check
            .decided_values
            .iter()
            .map(|v| String::from_utf8_lossy(v).into_owned())
            .collect();
        println!(
            "  {mark} {:<46} agree={} term={} valid={}  t_end={:<7} msgs={:<6} decided={:?}",
            self.label,
            self.check.agreement,
            self.check.termination,
            self.check.validity,
            self.end_time,
            self.messages,
            values,
        );
        if !self.detections.is_empty() {
            let sets: Vec<String> = self.detections.iter().map(fmt_set).collect();
            println!("      identified sink/core set(s): {}", sets.join(" | "));
        }
    }
}

/// Prints a section header.
pub fn header(title: &str) {
    println!();
    println!("== {title} ==");
}

/// Prints every verdict of a parallel suite run as a [`Row`], followed by
/// the aggregate summary line.
pub fn print_suite(report: &SuiteReport) {
    for verdict in &report.verdicts {
        Row::from_outcome(&verdict.label, &verdict.outcome).print();
    }
    println!("  -- {}", report.summary());
}

/// Formats a process set compactly (delegates to the fault-injection
/// engine's shared formatter so bench output and suite/shrink labels
/// cannot drift apart).
pub fn fmt_set(s: &ProcessSet) -> String {
    cupft_adversary::fmt_process_set(s)
}
