//! The traced pass: the in-situ per-layer numbers of one workload.
//!
//! Each of the first ⌈count/4⌉ instances runs four times — plain (the base
//! every overhead is taken against, and the source of the traffic
//! counters), with `with_observe(true)` alone, through a span-recording
//! [`TimedRuntime`] (observing too, for the `cupft_obs` counters), and
//! through a byte-counting [`TimedRuntime`]. Threaded and socket instances
//! also run once on the simulator, as the parity reference. End-to-end
//! metrics are never taken from this pass.

use std::time::Instant;

use bft_cupft::core::{run_scenario_on, NodeMsg, RuntimeKind, Scenario, ScenarioOutcome};
use bft_cupft::net::sim::Simulation;
use bft_cupft::net::{Runtime, SocketRuntime, ThreadedRuntime};

use crate::measure::{cpu_seconds, gate, instances, median, same_execution, Metric, RunResult};
use crate::timed::{Bucket, Probe, SpanReport, TimedRuntime};
use crate::workloads::Workload;

/// One proxied run: the outcome, the spans, and where the runner's own
/// set-up and collection fell.
struct Proxied {
    outcome: ScenarioOutcome,
    spans: SpanReport,
    setup_s: f64,
    total_s: f64,
    cpu_s: f64,
}

fn proxied_on<R: Runtime<NodeMsg>>(scenario: &Scenario, inner: R, probe: Probe) -> Proxied {
    let mut runtime = TimedRuntime::new(inner, probe);
    let cpu_before = cpu_seconds();
    let entry = Instant::now();
    let outcome = run_scenario_on(scenario, &mut runtime);
    let total_s = entry.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu_before;
    let run_entry = runtime.run_entry().expect("the runner ran the runtime");
    Proxied {
        outcome,
        spans: runtime.report(),
        setup_s: run_entry.duration_since(entry).as_secs_f64(),
        total_s,
        cpu_s,
    }
}

/// `Scenario::run_on`, with the fresh runtime wrapped in the proxy.
fn proxied(scenario: &Scenario, kind: RuntimeKind, probe: Probe) -> Proxied {
    match kind {
        RuntimeKind::Sim => proxied_on(scenario, Simulation::new(scenario.sim.clone()), probe),
        RuntimeKind::Threaded => proxied_on(
            scenario,
            ThreadedRuntime::new(scenario.threaded_config()),
            probe,
        ),
        RuntimeKind::Socket => proxied_on(
            scenario,
            SocketRuntime::new(scenario.socket_config()).expect("bind socket runtime"),
            probe,
        ),
    }
}

fn timed_run(scenario: &Scenario, kind: RuntimeKind) -> (ScenarioOutcome, f64) {
    let t = Instant::now();
    let outcome = scenario.run_on(kind);
    (outcome, t.elapsed().as_secs_f64())
}

/// Sums kept across the traced instances; every share is a ratio of sums.
#[derive(Default)]
struct Totals {
    /// What shares are taken of: instance wall on the simulator (one
    /// thread, so wall is processor time), process CPU-seconds on the
    /// threaded and socket runtimes.
    denominator: f64,
    setup: f64,
    collect: f64,
    run: f64,
    preflight: f64,
    actor_seconds: [f64; Bucket::ALL.len()],
    actor_calls: [u64; Bucket::ALL.len()],
    events: u64,
    wire_bytes: u64,
    detect_attempts: u64,
    memo_hits: u64,
    memo_misses: u64,
    useful_certs: u64,
    payload_delivered: u64,
    setpds_payload: u64,
    setpds_msgs: u64,
    viewchange_msgs: u64,
    parity: usize,
}

/// Runs the traced pass of `w` and returns its in-situ per-layer metrics.
pub fn in_situ(w: &Workload, seed: u64, seconds: f64) -> RunResult {
    let traced = w.count(seconds).div_ceil(4);
    let instances = instances(w, seed, traced);

    let mut findings = Vec::new();
    let mut failed = 0;
    let mut sums = Totals::default();
    let (mut plain_walls, mut observed_walls, mut span_walls) =
        (Vec::new(), Vec::new(), Vec::new());
    // Untimed warm-up, as in the untraced pass.
    instances[0].scenario.run_on(w.kind);
    for (i, inst) in instances.iter().enumerate() {
        let observing = inst.scenario.clone().with_observe(true);
        // Whichever variant runs first on a fresh instance pays for cold
        // caches, so the three timed variants take turns going first.
        let (mut plain, mut observed, mut spans) = (None, None, None);
        for turn in 0..3 {
            match (turn + i) % 3 {
                0 => plain = Some(timed_run(&inst.scenario, w.kind)),
                1 => observed = Some(timed_run(&observing, w.kind)),
                _ => spans = Some(proxied(&observing, w.kind, Probe::Spans)),
            }
        }
        let (Some((plain, plain_wall)), Some((observed, observed_wall)), Some(spans)) =
            (plain, observed, spans)
        else {
            unreachable!("three turns run the three variants once each");
        };
        let bytes = proxied(&inst.scenario, w.kind, Probe::Bytes);
        plain_walls.push(plain_wall);
        observed_walls.push(observed_wall);
        span_walls.push(spans.total_s);

        for (what, outcome) in [
            ("plain", &plain),
            ("observed", &observed),
            ("span-traced", &spans.outcome),
            ("byte-traced", &bytes.outcome),
        ] {
            if let Err(why) = gate(inst, outcome) {
                failed += 1;
                findings.push(format!("{} instance {i} ({what}): {why}", w.name));
            }
        }
        if w.is_sim() {
            // On the simulator neither observation nor the proxy may change
            // the execution.
            let same = [&observed, &spans.outcome, &bytes.outcome]
                .iter()
                .all(|o| same_execution(&plain, o));
            if !same {
                failed += 1;
                findings.push(format!(
                    "{} instance {i}: observed or proxied run differs from the plain run",
                    w.name
                ));
            }
            sums.parity += usize::from(same);
        } else {
            // A timing-induced view change may legitimately change the
            // decided value, so parity with the simulator is reported, not
            // gated.
            let reference = inst.scenario.run_on(RuntimeKind::Sim);
            sums.parity += usize::from(reference.decisions == plain.decisions);
        }

        let s = &spans.spans;
        sums.denominator += if w.is_sim() {
            spans.total_s
        } else {
            spans.cpu_s
        };
        sums.setup += spans.setup_s;
        sums.run += s.run_seconds;
        sums.collect += spans.total_s - spans.setup_s - s.run_seconds;
        sums.preflight += s.preflight.seconds;
        for bucket in Bucket::ALL {
            sums.actor_seconds[bucket as usize] += s.actor(bucket).seconds;
            sums.actor_calls[bucket as usize] += s.actor(bucket).calls;
        }
        sums.events += s.events;
        sums.wire_bytes += bytes.spans.wire_bytes;
        let obs = spans.outcome.obs.as_ref().expect("observing run reports");
        sums.detect_attempts += obs.counter("detect_attempts");
        sums.memo_hits += obs.gauges.get("cert_memo_hits").copied().unwrap_or(0);
        sums.memo_misses += obs.gauges.get("cert_memo_misses").copied().unwrap_or(0);
        sums.useful_certs += plain
            .final_views
            .values()
            .map(|v| v.len() as u64)
            .sum::<u64>();
        sums.payload_delivered += plain.stats.payload_delivered_units;
        sums.setpds_payload += plain.stats.label_payload("SETPDS");
        sums.setpds_msgs += plain.stats.label_count("SETPDS");
        sums.viewchange_msgs += plain.stats.label_count("VIEWCHANGE");
    }

    let n = traced as f64;
    let share = |x: f64| x / sums.denominator;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    // Median over instances of variant ÷ plain − 1: each pair ran seconds
    // apart, so the box's drift over the pass cancels.
    let overhead = |walls: &[f64]| {
        let ratios: Vec<f64> = walls
            .iter()
            .zip(&plain_walls)
            .map(|(variant, plain)| variant / plain - 1.0)
            .collect();
        median(&ratios)
    };
    let actor_total: f64 = sums.actor_seconds.iter().sum();
    // On the simulator everything inside `run_until_stopped` that is not an
    // actor handler or the preflight stage is the event loop itself. On the
    // threaded and socket runtimes the same remainder is taken of CPU: what
    // the process burned that no span claims (routers, channels, sockets,
    // codec, thread spawn).
    let runtime_self = if w.is_sim() {
        sums.run - actor_total - sums.preflight
    } else {
        sums.denominator - sums.setup - sums.collect - actor_total - sums.preflight
    };
    let mut metrics = vec![
        Metric::new("trace.setup_share", share(sums.setup), "ratio", traced),
        Metric::new(
            "trace.runtime_self_share",
            share(runtime_self),
            "ratio",
            traced,
        ),
        Metric::new(
            "trace.preflight_share",
            share(sums.preflight),
            "ratio",
            traced,
        ),
        Metric::new("trace.collect_share", share(sums.collect), "ratio", traced),
    ];
    for bucket in Bucket::ALL {
        metrics.push(Metric::new(
            format!("trace.actor_share.{}", bucket.name()),
            share(sums.actor_seconds[bucket as usize]),
            "ratio",
            traced,
        ));
    }
    for bucket in Bucket::ALL {
        metrics.push(Metric::new(
            format!("trace.calls.{}", bucket.name()),
            sums.actor_calls[bucket as usize] as f64 / n,
            "calls",
            traced,
        ));
    }
    metrics.extend([
        Metric::new(
            "trace.overhead_share",
            overhead(&span_walls),
            "ratio",
            traced,
        ),
        Metric::new(
            "obs.overhead_share",
            overhead(&observed_walls),
            "ratio",
            traced,
        ),
        Metric::new(
            "net.sim.events_per_decision",
            sums.events as f64 / n,
            "events",
            traced,
        ),
        Metric::new(
            "graph.detect_attempts_per_decision",
            sums.detect_attempts as f64 / n,
            "calls",
            traced,
        ),
        Metric::new(
            "detector.memo_hit_share",
            ratio(sums.memo_hits, sums.memo_hits + sums.memo_misses),
            "ratio",
            traced,
        ),
        Metric::new(
            "discovery.useful_cert_share",
            ratio(sums.useful_certs, sums.payload_delivered),
            "ratio",
            traced,
        ),
        Metric::new(
            "discovery.payload_per_setpds",
            ratio(sums.setpds_payload, sums.setpds_msgs),
            "certs",
            traced,
        ),
        Metric::new(
            "committee.viewchange_msgs_per_decision",
            sums.viewchange_msgs as f64 / n,
            "msgs",
            traced,
        ),
        Metric::new(
            "wire.bytes_per_decision",
            sums.wire_bytes as f64 / n,
            "bytes",
            traced,
        ),
        Metric::new("net.parity_share", sums.parity as f64 / n, "ratio", traced),
    ]);
    RunResult {
        correct: failed == 0,
        attempted: 4 * traced,
        failed,
        metrics,
        findings,
    }
}
