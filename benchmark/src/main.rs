//! Command line of the benchmark; `run.sh` builds this binary and hands its
//! arguments over. Three ways in:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload in this process; the last line of standard output is the
//!   result object the driver reads.
//! * no `--workload` — the whole report: every workload untraced (each in
//!   its own process, so `peak_rss_mb` is per workload), the layer kernels,
//!   then every workload traced. `--selfcheck` instead runs two untraced
//!   sets (three interleaved runs each, medians compared) and fails if the
//!   two disagree by more than the bounds.
//! * `compare A.json B.json` — two saved reports, side by side.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use cupft_benchmark::json::{self, Json};
use cupft_benchmark::measure::{median, Metric, RunResult};
use cupft_benchmark::workloads::{by_name, Workload, WORKLOADS};
use cupft_benchmark::{kernels, measure, spec, traced};

/// `run_seconds` of `BENCHMARK.json`: the budget the instance counts were
/// sized for.
const DEFAULT_SECONDS: f64 = 15.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layers {
    All,
    InSitu,
    Kernels,
}

struct Options {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    layers: Layers,
    selfcheck: bool,
    runs: Option<usize>,
    out: Option<String>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        layers: Layers::All,
        selfcheck: false,
        runs: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = || WORKLOADS.map(|w| w.name).join(", ");
                opts.workload = Some(
                    by_name(name)
                        .ok_or_else(|| format!("unknown workload {name}; known: {}", known()))?,
                );
            }
            "--seed" => opts.seed = number(value()?)?,
            "--seconds" => {
                let v = value()?;
                opts.seconds = v.parse().map_err(|e| format!("--seconds {v}: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err(format!("--seconds {v} is outside 0..=600"));
                }
            }
            "--trace" => {
                opts.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--layers" => {
                opts.layers = match value()? {
                    "all" => Layers::All,
                    "insitu" => Layers::InSitu,
                    "kernels" => Layers::Kernels,
                    v => return Err(format!("--layers takes all, insitu or kernels, not {v}")),
                }
            }
            "--selfcheck" => opts.selfcheck = true,
            "--runs" => opts.runs = Some(number(value()?)?.max(1) as usize),
            "--out" => opts.out = Some(value()?.to_string()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(opts)
}

/// `"name": {"value": v, "unit": u<extra>}` — one metric of a JSON object.
fn metric_json(name: &str, value: f64, unit: &str, extra: &str) -> String {
    format!(
        "{}: {{\"value\": {}, \"unit\": {}{extra}}}",
        json::quote(name),
        json::number(value),
        json::quote(unit)
    )
}

fn metrics_json(metrics: &[Metric], with_samples: bool) -> String {
    let rows: Vec<String> = metrics
        .iter()
        .map(|m| {
            let samples = if with_samples {
                format!(", \"n\": {}", m.samples)
            } else {
                String::new()
            };
            metric_json(&m.name, m.value, m.unit, &samples)
        })
        .collect();
    format!("{{{}}}", rows.join(", "))
}

/// One workload in this process. Prints every metric with its sample count
/// on a `detail:` line (the report reads it), then the result object the
/// driver reads — with exactly the metrics `BENCHMARK.json` lists — as the
/// last line.
fn single(w: &'static Workload, opts: &Options) -> ExitCode {
    let result = if opts.trace {
        let mut result = RunResult {
            correct: true,
            ..RunResult::default()
        };
        if opts.layers != Layers::Kernels {
            result = traced::in_situ(w, opts.seed, opts.seconds);
        }
        if opts.layers != Layers::InSitu {
            // On their own (the report) the kernels repeat 5 × 0.3 s each.
            // Sharing a driver run with the traced instances they repeat
            // 3 × 30 ms (at 15 s), so the whole ledger adds about 6 s.
            let budget = if opts.layers == Layers::Kernels {
                kernels::Budget {
                    rep: Duration::from_millis(300),
                    reps: 5,
                }
            } else {
                kernels::Budget {
                    rep: Duration::from_secs_f64(opts.seconds / 500.0),
                    reps: 3,
                }
            };
            result.metrics.extend(kernels::run(opts.seed, budget));
            result.attempted = result.attempted.max(1);
        }
        result
    } else {
        measure::end_to_end(w, opts.seed, opts.seconds)
    };
    for finding in &result.findings {
        eprintln!("FAILED {finding}");
    }
    println!("detail: {}", metrics_json(&result.metrics, true));
    let listed: Vec<Metric> = result
        .metrics
        .iter()
        .filter(|m| opts.trace || spec::end_to_end(&m.name).is_some())
        .cloned()
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        result.correct,
        result.attempted,
        result.failed,
        metrics_json(&listed, false)
    );
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One reported metric: its value (the median of `runs` when the report
/// holds several), unit and sample count.
struct Value {
    value: f64,
    unit: String,
    n: u64,
    runs: Vec<f64>,
}

type Values = BTreeMap<String, Value>;

/// Runs this binary again for one workload and returns what its `detail:`
/// line reported, or `None` if the run failed its correctness gate.
fn child(w: &Workload, opts: &Options, extra: &[&str]) -> Option<Values> {
    let exe = std::env::current_exe().expect("own executable path");
    let output = Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("run the workload process");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let detail = stdout.lines().find_map(|l| l.strip_prefix("detail: "))?;
    let parsed = json::parse(detail).expect("own detail line parses");
    let mut values = Values::new();
    for (name, m) in parsed.as_obj()? {
        let field = |k: &str| m.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        values.insert(
            name.clone(),
            Value {
                value: field("value"),
                unit: unit.to_string(),
                n: field("n") as u64,
                runs: vec![field("value")],
            },
        );
    }
    output.status.success().then_some(values)
}

fn print_values(scope: &str, values: &Values) {
    for (name, v) in values {
        println!(
            "{scope:<20} {name:<42} {:>16.6} {:<6} n={}",
            v.value, v.unit, v.n
        );
    }
}

fn values_json(values: &Values) -> String {
    let rows: Vec<String> = values
        .iter()
        .map(|(name, v)| {
            let runs: Vec<String> = v.runs.iter().map(|r| json::number(*r)).collect();
            let extra = format!(", \"n\": {}, \"runs\": [{}]", v.n, runs.join(", "));
            metric_json(name, v.value, &v.unit, &extra)
        })
        .collect();
    format!("{{{}}}", rows.join(", "))
}

type UntracedSet = BTreeMap<&'static str, Values>;

/// The untraced pass of every workload, one process each.
fn untraced_set(opts: &Options) -> Option<UntracedSet> {
    let mut set = BTreeMap::new();
    for w in &WORKLOADS {
        eprintln!(
            "# {}: untraced, {} instances",
            w.name,
            w.count(opts.seconds)
        );
        let Some(values) = child(w, opts, &["--trace", "0"]) else {
            eprintln!("FAILED {}: the untraced pass did not pass its gate", w.name);
            return None;
        };
        print_values(w.name, &values);
        set.insert(w.name, values);
    }
    Some(set)
}

/// `sets` untraced sets of `runs` runs each, every metric the median of its
/// runs. The sets take turns (A B A B …), so a busy spell of a shared box
/// falls on all of them alike.
fn untraced_sets(opts: &Options, sets: usize, runs: usize) -> Option<Vec<UntracedSet>> {
    let mut merged: Vec<UntracedSet> = Vec::new();
    for run in 0..runs {
        for set in 0..sets {
            let again = untraced_set(opts)?;
            if run == 0 {
                merged.push(again);
                continue;
            }
            for (workload, values) in again {
                for (name, v) in values {
                    let kept = merged[set]
                        .get_mut(workload)
                        .and_then(|m| m.get_mut(&name))
                        .expect("every run reports the same metrics");
                    kept.runs.push(v.value);
                    kept.value = median(&kept.runs);
                }
            }
        }
    }
    Some(merged)
}

/// How a metric moved from `base` to `new`, as a share of `base`, signed so
/// that positive is worse.
fn worsening(metric: &spec::EndToEnd, base: f64, new: f64) -> f64 {
    let change = new / base - 1.0;
    if metric.lower_is_better {
        change
    } else {
        -change
    }
}

fn selfcheck(opts: &Options) -> ExitCode {
    // One run per set cannot tell the program from the box on a shared host;
    // three interleaved runs per set can.
    let Some(sets) = untraced_sets(opts, 2, opts.runs.unwrap_or(3)) else {
        return ExitCode::FAILURE;
    };
    let (first, second) = (&sets[0], &sets[1]);
    let mut disagreements = 0;
    for w in &WORKLOADS {
        for metric in &spec::END_TO_END {
            let (a, b) = (
                first[w.name][metric.name].value,
                second[w.name][metric.name].value,
            );
            let exact = w.is_sim() && metric.exact_on_sim;
            let moved = worsening(metric, a, b);
            let agree = if exact {
                a == b
            } else {
                moved.abs() <= metric.bound
            };
            println!(
                "{:<20} {:<24} {a:>16.6} {b:>16.6} {:>+8.2}% of {a:.6} (bound {}) {}",
                w.name,
                metric.name,
                100.0 * (b / a - 1.0),
                if exact {
                    "exact".to_string()
                } else {
                    format!("{:.0}%", 100.0 * metric.bound)
                },
                if agree { "ok" } else { "DISAGREE" }
            );
            disagreements += usize::from(!agree);
        }
    }
    if disagreements == 0 {
        println!("selfcheck: two sets of runs agree within the bounds");
        ExitCode::SUCCESS
    } else {
        println!("selfcheck: {disagreements} metrics disagree between the two sets");
        ExitCode::FAILURE
    }
}

fn report(opts: &Options) -> ExitCode {
    if opts.selfcheck {
        return selfcheck(opts);
    }
    let Some(mut sets) = untraced_sets(opts, 1, opts.runs.unwrap_or(1)) else {
        return ExitCode::FAILURE;
    };
    let end_to_end = sets.remove(0);

    eprintln!("# layer kernels");
    // The kernels ignore the workload; the command line just wants one.
    let Some(kernel_values) = child(
        &WORKLOADS[0],
        opts,
        &["--trace", "1", "--layers", "kernels"],
    ) else {
        eprintln!("FAILED layer kernels");
        return ExitCode::FAILURE;
    };
    print_values("kernel", &kernel_values);

    let mut in_situ = BTreeMap::new();
    for w in &WORKLOADS {
        eprintln!("# {}: traced", w.name);
        let Some(values) = child(w, opts, &["--trace", "1", "--layers", "insitu"]) else {
            eprintln!("FAILED {}: the traced pass did not pass its gate", w.name);
            return ExitCode::FAILURE;
        };
        print_values(w.name, &values);
        in_situ.insert(w.name, values);
    }

    if let Some(path) = &opts.out {
        let workloads: Vec<String> = WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    "{}: {{\"end_to_end\": {}, \"in_situ\": {}}}",
                    json::quote(w.name),
                    values_json(&end_to_end[w.name]),
                    values_json(&in_situ[w.name])
                )
            })
            .collect();
        let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
        let text = format!(
            "{{\"seed\": {}, \"seconds\": {}, \"cores\": {cores}, \"workloads\": {{{}}}, \"kernels\": {}}}\n",
            opts.seed,
            json::number(opts.seconds),
            workloads.join(", "),
            values_json(&kernel_values)
        );
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("# report written to {path}");
    }
    ExitCode::SUCCESS
}

/// The values of one end-to-end metric in a saved report: the `runs` list
/// when the report holds several runs, else the single `value`.
fn saved_runs(report: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let m = report
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    match m.get("runs") {
        Some(Json::Arr(runs)) => runs.iter().map(Json::as_f64).collect(),
        _ => Some(vec![m.get("value")?.as_f64()?]),
    }
}

/// Distance between the first and third quartile as a share of the median
/// (0 for fewer than four runs, where no quartile can be told).
fn spread(runs: &[f64]) -> f64 {
    if runs.len() < 4 {
        return 0.0;
    }
    let mut v = runs.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |q: f64| {
        // Exclusive method, as Python's statistics.quantiles(n=4).
        let pos = q * (v.len() + 1) as f64 - 1.0;
        let lo = (pos.floor().max(0.0) as usize).min(v.len() - 1);
        let hi = (lo + 1).min(v.len() - 1);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64).clamp(0.0, 1.0)
    };
    (quartile(0.75) - quartile(0.25)) / median(&v)
}

fn compare(paths: &[String]) -> ExitCode {
    let [a_path, b_path] = paths else {
        eprintln!("usage: compare A.json B.json");
        return ExitCode::from(2);
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<20} {:<24} {:>14} {:>14} {:>26} verdict",
        "workload", "metric", "A", "B", "B/A"
    );
    let mut worse = 0;
    for w in &WORKLOADS {
        for metric in &spec::END_TO_END {
            let (Some(runs_a), Some(runs_b)) = (
                saved_runs(&a, w.name, metric.name),
                saved_runs(&b, w.name, metric.name),
            ) else {
                continue;
            };
            let (base, new) = (median(&runs_a), median(&runs_b));
            let moved = worsening(metric, base, new);
            // Every run of B reads better than every run of A.
            let clear_win = runs_b
                .iter()
                .all(|&y| runs_a.iter().all(|&x| worsening(metric, x, y) < 0.0));
            let noisy = spread(&runs_a).max(spread(&runs_b)) > metric.bound;
            let verdict = if noisy && !clear_win {
                "unresolved"
            } else if moved > metric.bound {
                worse += 1;
                "worse"
            } else {
                "ok"
            };
            println!(
                "{:<20} {:<24} {base:>14.6} {new:>14.6} {:>10.4} of {base:<12.6} {verdict}",
                w.name,
                metric.name,
                new / base
            );
        }
    }
    if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        return compare(&args[1..]);
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(why) => {
            eprintln!("{why}");
            return ExitCode::from(2);
        }
    };
    match opts.workload {
        Some(w) => single(w, &opts),
        None => report(&opts),
    }
}
