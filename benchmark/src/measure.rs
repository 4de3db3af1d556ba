//! The untraced pass: set-up, one warm-up, the timed closed loop, the
//! correctness gate, and the end-to-end metrics.

use std::collections::BTreeSet;
use std::time::Instant;

use bft_cupft::core::ScenarioOutcome;

use crate::workloads::{Instance, Workload};

/// One named number with its unit and the sample count behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// What one benchmark process reports.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    /// Why `correct` is false, one line per finding (printed to stderr).
    pub findings: Vec<String>,
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in 0..=1).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Process user+system CPU seconds, live and joined threads included
/// (`/proc/self/stat` fields 14 and 15, in `USER_HZ` = 100 ticks per second).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let mut ticks = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .expect("stat has utime and stime") as f64
    };
    (ticks() + ticks()) / 100.0
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("status has VmHWM");
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM is a number of kB");
    kib / 1024.0
}

/// One set-up: graph generation (with the generator's own re-verification)
/// plus scenario construction for every instance of the run.
pub fn instances(w: &Workload, seed: u64, count: usize) -> Vec<Instance> {
    (0..count).map(|i| w.instance(seed, i)).collect()
}

/// Sets the run up over and over — at least five times and for at least a
/// quarter of a second, since one set-up is milliseconds — appending each
/// set-up's time to `times`. Returns the instances of the last one.
fn timed_setups(w: &Workload, seed: u64, count: usize, times: &mut Vec<f64>) -> Vec<Instance> {
    const MIN_REPS: usize = 5;
    const MAX_REPS: usize = 200;
    const MIN_TOTAL_S: f64 = 0.25;
    let started = Instant::now();
    let first = times.len();
    loop {
        let t = Instant::now();
        let instances = instances(w, seed, count);
        times.push(t.elapsed().as_secs_f64());
        let reps = times.len() - first;
        let enough = reps >= MIN_REPS && started.elapsed().as_secs_f64() >= MIN_TOTAL_S;
        if enough || reps >= MAX_REPS {
            return instances;
        }
    }
}

/// The correctness gate of one instance: consensus solved, and every
/// correct node identified exactly the expected sink/core.
pub fn gate(inst: &Instance, outcome: &ScenarioOutcome) -> Result<(), String> {
    let check = outcome.check();
    if !check.consensus_solved() {
        return Err(format!(
            "consensus not solved (agreement={} termination={} validity={})",
            check.agreement, check.termination, check.validity
        ));
    }
    let expected: BTreeSet<_> = [inst.expected.clone()].into();
    if outcome.distinct_detections() != expected {
        return Err(format!(
            "detections {:?} differ from the expected {:?}",
            outcome.distinct_detections(),
            inst.expected
        ));
    }
    Ok(())
}

/// Whether two runs of one scenario are the same execution as far as a
/// user can see: same decisions, same traffic.
pub fn same_execution(a: &ScenarioOutcome, b: &ScenarioOutcome) -> bool {
    a.decisions == b.decisions && a.stats == b.stats
}

/// Runs the untraced pass of `w` and returns the end-to-end metrics.
pub fn end_to_end(w: &Workload, seed: u64, seconds: f64) -> RunResult {
    let count = w.count(seconds);
    let mut setup_times = Vec::new();
    let instances = timed_setups(w, seed, count, &mut setup_times);

    // Warm-up: instance 0, untimed. On the simulator its outcome doubles as
    // the determinism reference for the timed instance 0.
    let warm = instances[0].scenario.run_on(w.kind);

    // A program that got several times slower must still end well inside the
    // driver's per-run limit: instances not started by then count as failed.
    let deadline = 6.0 * seconds + 30.0;
    let mut walls = Vec::with_capacity(count);
    let mut outcomes = Vec::with_capacity(count);
    let cpu_before = cpu_seconds();
    let loop_start = Instant::now();
    for inst in &instances {
        if loop_start.elapsed().as_secs_f64() > deadline {
            break;
        }
        let t = Instant::now();
        let outcome = inst.scenario.run_on(w.kind);
        walls.push(t.elapsed().as_secs_f64());
        outcomes.push(outcome);
    }
    let loop_wall = loop_start.elapsed().as_secs_f64();
    let cpu = cpu_seconds() - cpu_before;
    let ran = outcomes.len();
    // Set-up is timed again after the loop, so that its median is taken at
    // two moments a loop apart and one busy moment of a shared box cannot
    // colour every sample.
    timed_setups(w, seed, count, &mut setup_times);

    let mut findings = Vec::new();
    let mut failed = count - ran;
    if failed > 0 {
        findings.push(format!(
            "{}: {failed} of {count} instances not started within {deadline:.0} s",
            w.name
        ));
    }
    for (i, (inst, outcome)) in instances.iter().zip(&outcomes).enumerate() {
        if let Err(why) = gate(inst, outcome) {
            failed += 1;
            findings.push(format!("{} instance {i}: {why}", w.name));
        }
    }
    let mut correct = failed == 0;
    if w.is_sim() && !same_execution(&warm, &outcomes[0]) {
        correct = false;
        findings.push(format!(
            "{}: two runs of instance 0 differ (simulator determinism)",
            w.name
        ));
    }

    let per = |f: &dyn Fn(&ScenarioOutcome) -> u64| -> Vec<f64> {
        outcomes.iter().map(|o| f(o) as f64).collect()
    };
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
    let mut metrics = vec![
        Metric::new("setup_s", median(&setup_times), "s", setup_times.len()),
        Metric::new("decide_wall_s_p50", median(&walls), "s", ran),
        Metric::new("instances_per_s", ran as f64 / loop_wall, "1/s", ran),
        Metric::new("cpu_s_per_decision", cpu / ran as f64, "s", ran),
        Metric::new(
            "decide_ticks_p50",
            median(&per(&|o| o.end_time)),
            "ticks",
            ran,
        ),
        Metric::new(
            "msgs_per_decision",
            mean(per(&|o| o.stats.messages_sent)),
            "msgs",
            ran,
        ),
        Metric::new(
            "payload_per_decision",
            mean(per(&|o| o.stats.payload_units)),
            "certs",
            ran,
        ),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB", 1),
        Metric::new("failed_share", failed as f64 / count as f64, "ratio", count),
    ];
    // The 90th percentile is reported only where at least ten samples lie
    // beyond it.
    if ran >= 100 {
        let p90 = percentile(&walls, 0.9);
        metrics.push(Metric::new("decide_wall_s_p90", p90, "s", ran));
    }
    RunResult {
        correct,
        attempted: count,
        failed,
        metrics,
        findings,
    }
}
