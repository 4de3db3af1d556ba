//! The end-to-end metric table: names, units, directions and bounds. The
//! same rows are written in `../../BENCHMARK.json` (a test keeps the two in
//! step); `--selfcheck` and `compare` judge with these bounds.

/// One end-to-end metric every workload reports.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the base value by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
    /// Whether two runs of one seed must agree exactly on the simulator
    /// (virtual-clock latencies and traffic counters do; clocks do not).
    pub exact_on_sim: bool,
}

const fn row(
    name: &'static str,
    unit: &'static str,
    lower_is_better: bool,
    bound: f64,
    exact_on_sim: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        lower_is_better,
        bound,
        exact_on_sim,
    }
}

pub const END_TO_END: [EndToEnd; 8] = [
    row("setup_s", "s", true, 0.25, false),
    row("decide_wall_s_p50", "s", true, 0.25, false),
    row("instances_per_s", "1/s", false, 0.25, false),
    row("cpu_s_per_decision", "s", true, 0.25, false),
    row("decide_ticks_p50", "ticks", true, 0.25, true),
    row("msgs_per_decision", "msgs", true, 0.25, true),
    row("payload_per_decision", "certs", true, 0.25, true),
    row("peak_rss_mb", "MiB", true, 0.25, false),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}
