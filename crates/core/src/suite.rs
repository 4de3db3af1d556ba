//! The batch engine: run whole families of [`Scenario`]s in parallel.
//!
//! A [`ScenarioSuite`] is an ordered list of labeled scenarios; `run`
//! fans them across OS threads with [`std::thread::scope`] and returns a
//! [`SuiteReport`] of per-scenario verdicts plus aggregates. Scenarios are
//! independent by construction (each builds its own registry, actors, and
//! runtime), so the fan-out is embarrassingly parallel; report order is
//! always the insertion order regardless of which worker finished first,
//! and — on the deterministic simulator — every verdict is identical to a
//! sequential run.
//!
//! [`ScenarioGrid`] builds the standard cross product the sweep tests
//! run: graph family × fault assignment × delay policy × seed. A fault
//! assignment ([`FaultCase`]) maps processes to [`ByzantineStrategy`] spec
//! trees from the fault-injection engine. The graph axis accepts
//! hand-picked graphs ([`ScenarioGrid::graph`]) or a whole *family × size*
//! sweep generated from a [`cupft_graph::GraphFamily`]
//! ([`ScenarioGrid::family`]), so suites can scale topology families
//! alongside faults and seeds.
//!
//! # Example
//!
//! ```
//! use cupft_core::{ProtocolMode, RuntimeKind, Scenario, ScenarioSuite};
//! use cupft_graph::fig4a;
//!
//! let mut suite = ScenarioSuite::new();
//! for seed in 0..4 {
//!     suite.push(
//!         format!("fig4a/s{seed}"),
//!         Scenario::new(fig4a().graph().clone(), ProtocolMode::UnknownThreshold)
//!             .with_seed(seed),
//!     );
//! }
//! let report = suite.run(RuntimeKind::Sim);
//! assert_eq!(report.verdicts.len(), 4);
//! assert!(report.all_solved());
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use cupft_graph::{DiGraph, GraphFamily};
use cupft_net::{DelayPolicy, Time};

use crate::byzantine::ByzantineStrategy;
use crate::detect::ProtocolMode;
use crate::scenario::{ConsensusCheck, RuntimeKind, Scenario, ScenarioOutcome};

/// One labeled scenario of a suite.
#[derive(Debug, Clone)]
pub struct SuiteEntry {
    /// Display label (grid entries use `graph/fault/policy/seed`).
    pub label: String,
    /// The experiment.
    pub scenario: Scenario,
}

/// An ordered batch of scenarios executable in parallel.
#[derive(Debug, Clone, Default)]
pub struct ScenarioSuite {
    entries: Vec<SuiteEntry>,
}

impl ScenarioSuite {
    /// An empty suite.
    pub fn new() -> Self {
        ScenarioSuite::default()
    }

    /// Appends a labeled scenario.
    pub fn push(&mut self, label: impl Into<String>, scenario: Scenario) {
        self.entries.push(SuiteEntry {
            label: label.into(),
            scenario,
        });
    }

    /// Appends every entry of `other` (used to join per-graph
    /// [`ScenarioGrid`]s whose fault axes differ — e.g. each graph has its
    /// own Byzantine process ID).
    pub fn extend(&mut self, other: ScenarioSuite) {
        self.entries.extend(other.entries);
    }

    /// The scenarios in insertion order.
    pub fn entries(&self) -> &[SuiteEntry] {
        &self.entries
    }

    /// Mutable access to the scenarios — e.g. to retune tick-denominated
    /// knobs (discovery period, view timeout) before a wall-clock run on
    /// the threaded substrate, where they are read as milliseconds.
    pub fn entries_mut(&mut self) -> &mut [SuiteEntry] {
        &mut self.entries
    }

    /// Number of scenarios.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the suite holds no scenarios.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn worker_count(&self, kind: RuntimeKind) -> usize {
        let hw = std::thread::available_parallelism().map_or(4, |n| n.get());
        // A wall-clock scenario brings its own worker pool (one worker per
        // core) and router shards, so scenarios run side by side already
        // oversubscribe the cores: cap the fan-out.
        let cap = match kind {
            RuntimeKind::Sim => hw,
            RuntimeKind::Threaded => hw.min(4),
            // Socket scenarios additionally hold TCP listeners, writer,
            // and reader threads, so fan out even more conservatively.
            RuntimeKind::Socket => hw.min(2),
        };
        cap.min(self.entries.len()).max(1)
    }

    /// Runs every scenario on the given substrate, fanning across worker
    /// threads. Verdict order matches insertion order.
    pub fn run(&self, kind: RuntimeKind) -> SuiteReport {
        let started = Instant::now();
        let workers = self.worker_count(kind);
        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<SuiteVerdict>>> =
            Mutex::new((0..self.entries.len()).map(|_| None).collect());

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let Some(entry) = self.entries.get(idx) else {
                        break;
                    };
                    let run_started = Instant::now();
                    let outcome = entry.scenario.run_on(kind);
                    let verdict = SuiteVerdict {
                        label: entry.label.clone(),
                        check: outcome.check(),
                        wall: run_started.elapsed(),
                        outcome,
                    };
                    results.lock().expect("worker panicked holding results")[idx] = Some(verdict);
                });
            }
        });

        let verdicts = results
            .into_inner()
            .expect("worker panicked holding results")
            .into_iter()
            .map(|v| v.expect("every index visited"))
            .collect();
        SuiteReport {
            kind,
            workers,
            verdicts,
            wall: started.elapsed(),
        }
    }
}

/// One scenario's result inside a [`SuiteReport`].
#[derive(Debug, Clone)]
pub struct SuiteVerdict {
    /// The entry's label.
    pub label: String,
    /// Consensus-property verdicts.
    pub check: ConsensusCheck,
    /// Wall-clock time this scenario took on its worker.
    pub wall: Duration,
    /// The full per-process observations.
    pub outcome: ScenarioOutcome,
}

impl SuiteVerdict {
    /// Whether consensus was solved (agreement ∧ termination ∧ validity).
    pub fn solved(&self) -> bool {
        self.check.consensus_solved()
    }
}

/// Aggregated outcome of a [`ScenarioSuite`] run.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// The substrate the suite ran on.
    pub kind: RuntimeKind,
    /// Worker threads used.
    pub workers: usize,
    /// Per-scenario verdicts, in suite insertion order.
    pub verdicts: Vec<SuiteVerdict>,
    /// Wall-clock time for the whole batch.
    pub wall: Duration,
}

impl SuiteReport {
    /// Number of scenarios that solved consensus.
    pub fn solved_count(&self) -> usize {
        self.verdicts.iter().filter(|v| v.solved()).count()
    }

    /// Whether every scenario solved consensus.
    pub fn all_solved(&self) -> bool {
        self.solved_count() == self.verdicts.len()
    }

    /// The labels of scenarios that failed a consensus property.
    pub fn failures(&self) -> Vec<&str> {
        self.verdicts
            .iter()
            .filter(|v| !v.solved())
            .map(|v| v.label.as_str())
            .collect()
    }

    /// Total messages sent across all scenarios.
    pub fn total_messages(&self) -> u64 {
        self.verdicts
            .iter()
            .map(|v| v.outcome.stats.messages_sent)
            .sum()
    }

    /// One-line summary of the run.
    pub fn summary(&self) -> String {
        format!(
            "{}/{} solved on {} ({} workers, {} msgs, {:.2?} wall)",
            self.solved_count(),
            self.verdicts.len(),
            self.kind.label(),
            self.workers,
            self.total_messages(),
            self.wall,
        )
    }
}

/// A graph-family axis entry of a [`ScenarioGrid`].
#[derive(Debug, Clone)]
pub struct GraphCase {
    /// Display label (e.g. `"fig1b"`).
    pub label: String,
    /// The knowledge connectivity graph.
    pub graph: DiGraph,
    /// The identification mode correct nodes run on it.
    pub mode: ProtocolMode,
}

/// A fault-assignment axis entry of a [`ScenarioGrid`]: which processes
/// are Byzantine and which strategy each one runs.
#[derive(Debug, Clone, Default)]
pub struct FaultCase {
    /// Display label (e.g. `"silent4"`, `"silent@4"`).
    pub label: String,
    /// Byzantine assignments (raw process ID → strategy).
    pub byzantine: Vec<(u64, ByzantineStrategy)>,
}

impl FaultCase {
    /// The fault-free assignment.
    pub fn none() -> Self {
        FaultCase {
            label: "correct".into(),
            ..FaultCase::default()
        }
    }

    /// A single silent Byzantine process.
    pub fn silent(id: u64) -> Self {
        FaultCase {
            label: format!("silent{id}"),
            byzantine: vec![(id, ByzantineStrategy::Silent)],
        }
    }

    /// A single process running `spec`, labeled `<spec-label>@<id>`.
    pub fn single(id: u64, spec: ByzantineStrategy) -> Self {
        FaultCase {
            label: format!("{}@{id}", spec.label()),
            byzantine: vec![(id, spec)],
        }
    }
}

/// A delay-policy axis entry of a [`ScenarioGrid`].
#[derive(Debug, Clone)]
pub struct PolicyCase {
    /// Display label (e.g. `"psync"`).
    pub label: String,
    /// The scheduling adversary.
    pub policy: DelayPolicy,
    /// Simulation horizon for cells under this policy.
    pub horizon: Time,
}

/// The cross product the sweep tests run: graph family × fault
/// assignment × delay policy × seed, expanded into a [`ScenarioSuite`].
#[derive(Debug, Clone, Default)]
pub struct ScenarioGrid {
    graphs: Vec<GraphCase>,
    faults: Vec<FaultCase>,
    policies: Vec<PolicyCase>,
    seeds: Vec<u64>,
}

impl ScenarioGrid {
    /// An empty grid.
    pub fn new() -> Self {
        ScenarioGrid::default()
    }

    /// Adds a graph-family axis entry.
    pub fn graph(mut self, label: impl Into<String>, graph: DiGraph, mode: ProtocolMode) -> Self {
        self.graphs.push(GraphCase {
            label: label.into(),
            graph,
            mode,
        });
        self
    }

    /// Adds a *family × size* axis: one graph entry per requested size,
    /// generated from `family` re-parameterized by
    /// [`GraphFamily::scaled`] and labeled `"<family>@n<size>"`. All
    /// entries share `seed` (vary the scenario seed axis, not the
    /// topology, within one grid) and run in `mode`.
    ///
    /// Family samples embed no Byzantine processes; cross them with
    /// [`FaultCase`] entries by vertex ID (IDs are
    /// contiguous from 1 with the sink first — see the
    /// [`cupft_graph::GraphFamily`] docs for the layout).
    ///
    /// # Panics
    ///
    /// Panics if a scaled parameterization is invalid or fails to
    /// generate — a grid construction bug, not a runtime condition.
    pub fn family(
        mut self,
        family: &GraphFamily,
        sizes: impl IntoIterator<Item = usize>,
        seed: u64,
        mode: ProtocolMode,
    ) -> Self {
        for size in sizes {
            let scaled = family.scaled(size);
            let sample = scaled
                .generate(seed)
                .unwrap_or_else(|e| panic!("family axis {}: {e}", scaled.label()));
            self.graphs.push(GraphCase {
                label: format!("{}@n{size}", family.name()),
                graph: sample.system.graph,
                mode,
            });
        }
        self
    }

    /// Adds a fault-assignment axis entry.
    pub fn fault(mut self, case: FaultCase) -> Self {
        self.faults.push(case);
        self
    }

    /// Adds a delay-policy axis entry.
    pub fn policy(mut self, label: impl Into<String>, policy: DelayPolicy, horizon: Time) -> Self {
        self.policies.push(PolicyCase {
            label: label.into(),
            policy,
            horizon,
        });
        self
    }

    /// Sets the seed axis.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Expands the cross product. Unset fault/policy/seed axes fall back
    /// to a single default entry (fault-free / the [`Scenario::new`]
    /// defaults / seed 0), so a grid is runnable as soon as it has one
    /// graph.
    pub fn build(&self) -> ScenarioSuite {
        let default_faults = [FaultCase::none()];
        let faults: &[FaultCase] = if self.faults.is_empty() {
            &default_faults
        } else {
            &self.faults
        };
        let seeds: &[u64] = if self.seeds.is_empty() {
            &[0]
        } else {
            &self.seeds
        };
        let policy_axis: Vec<Option<&PolicyCase>> = if self.policies.is_empty() {
            vec![None]
        } else {
            self.policies.iter().map(Some).collect()
        };
        let mut suite = ScenarioSuite::new();
        for g in &self.graphs {
            for f in faults {
                for p in &policy_axis {
                    for &seed in seeds {
                        let mut scenario = Scenario::new(g.graph.clone(), g.mode).with_seed(seed);
                        for (id, strategy) in &f.byzantine {
                            scenario = scenario.with_byzantine(*id, strategy.clone());
                        }
                        let policy_label = match *p {
                            Some(case) => {
                                scenario = scenario
                                    .with_policy(case.policy.clone())
                                    .with_horizon(case.horizon);
                                case.label.as_str()
                            }
                            None => "default",
                        };
                        suite.push(
                            format!("{}/{}/{}/s{}", g.label, f.label, policy_label, seed),
                            scenario,
                        );
                    }
                }
            }
        }
        suite
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cupft_graph::{fig1b, fig4a};

    fn small_grid() -> ScenarioGrid {
        ScenarioGrid::new()
            .graph(
                "fig1b",
                fig1b().graph().clone(),
                ProtocolMode::KnownThreshold(1),
            )
            .graph(
                "fig4a",
                fig4a().graph().clone(),
                ProtocolMode::UnknownThreshold,
            )
            .fault(FaultCase::none())
            .policy(
                "psync",
                DelayPolicy::PartialSynchrony {
                    gst: 200,
                    delta: 10,
                    pre_gst_max: 120,
                },
                200_000,
            )
            .seeds(0..2)
    }

    #[test]
    fn grid_expands_cross_product() {
        let suite = small_grid().build();
        assert_eq!(suite.len(), 4); // 2 graphs x 1 fault x 1 policy x 2 seeds
        assert_eq!(suite.entries()[0].label, "fig1b/correct/psync/s0");
        assert_eq!(suite.entries()[3].label, "fig4a/correct/psync/s1");
    }

    #[test]
    fn grid_defaults_fill_missing_axes() {
        let suite = ScenarioGrid::new()
            .graph(
                "fig4a",
                fig4a().graph().clone(),
                ProtocolMode::UnknownThreshold,
            )
            .build();
        assert_eq!(suite.len(), 1);
        assert_eq!(suite.entries()[0].label, "fig4a/correct/default/s0");
    }

    #[test]
    fn suite_runs_in_parallel_and_preserves_order() {
        let suite = small_grid().build();
        let report = suite.run(RuntimeKind::Sim);
        assert_eq!(report.verdicts.len(), 4);
        assert!(report.all_solved(), "failures: {:?}", report.failures());
        let labels: Vec<&str> = report.verdicts.iter().map(|v| v.label.as_str()).collect();
        let expected: Vec<&str> = suite.entries().iter().map(|e| e.label.as_str()).collect();
        assert_eq!(labels, expected);
        assert!(report.total_messages() > 0);
        assert!(report.summary().contains("4/4 solved on sim"));
    }

    #[test]
    fn parallel_suite_matches_sequential_outcomes() {
        let suite = small_grid().build();
        let parallel = suite.run(RuntimeKind::Sim);
        for (p, entry) in parallel.verdicts.iter().zip(suite.entries()) {
            let s = entry.scenario.run_on(RuntimeKind::Sim);
            assert_eq!(p.label, entry.label);
            assert_eq!(p.check, s.check());
            assert_eq!(p.outcome.decisions, s.decisions);
            assert_eq!(p.outcome.end_time, s.end_time);
        }
    }

    #[test]
    fn strategy_axis_crosses_and_labels() {
        let suite = ScenarioGrid::new()
            .graph(
                "fig1b",
                fig1b().graph().clone(),
                ProtocolMode::KnownThreshold(1),
            )
            .fault(FaultCase::single(4, ByzantineStrategy::Silent))
            .fault(FaultCase::single(
                4,
                ByzantineStrategy::TargetSubset {
                    targets: cupft_graph::process_set([1, 2]),
                    inner: Box::new(ByzantineStrategy::Silent),
                },
            ))
            .seeds(0..2)
            .build();
        assert_eq!(suite.len(), 4); // 1 graph x 2 strategies x 2 seeds
        assert_eq!(suite.entries()[0].label, "fig1b/silent@4/default/s0");
        assert_eq!(
            suite.entries()[2].label,
            "fig1b/target{1,2}(silent)@4/default/s0"
        );
        let byz = &suite.entries()[2].scenario.byzantine;
        assert!(byz.contains_key(&cupft_graph::ProcessId::new(4)));
    }

    #[test]
    fn family_axis_expands_sizes_into_graph_entries() {
        let family = GraphFamily::erdos_renyi(16, 1);
        let suite = ScenarioGrid::new()
            .family(&family, [10, 16, 22], 3, ProtocolMode::KnownThreshold(1))
            .seeds(0..2)
            .build();
        assert_eq!(suite.len(), 6); // 3 sizes x 2 seeds
        assert_eq!(
            suite.entries()[0].label,
            "erdos-renyi@n10/correct/default/s0"
        );
        assert_eq!(
            suite.entries()[4].label,
            "erdos-renyi@n22/correct/default/s0"
        );
        let sizes: Vec<usize> = suite
            .entries()
            .iter()
            .step_by(2)
            .map(|e| e.scenario.graph.vertex_count())
            .collect();
        assert_eq!(sizes, vec![10, 16, 22]);
    }

    #[test]
    fn family_axis_runs_consensus() {
        let family = GraphFamily::erdos_renyi(12, 1);
        let report = ScenarioGrid::new()
            .family(&family, [9, 12], 1, ProtocolMode::KnownThreshold(1))
            .build()
            .run(RuntimeKind::Sim);
        assert!(report.all_solved(), "failures: {:?}", report.failures());
    }

    #[test]
    fn failures_are_reported_by_label() {
        // An asynchronous cell cannot terminate within the horizon.
        let suite = ScenarioGrid::new()
            .graph(
                "fig1b",
                fig1b().graph().clone(),
                ProtocolMode::KnownThreshold(1),
            )
            .policy(
                "async",
                DelayPolicy::Asynchronous {
                    delta: 10,
                    unbounded_max: 1_000_000,
                },
                20_000,
            )
            .build();
        let report = suite.run(RuntimeKind::Sim);
        assert_eq!(report.solved_count(), 0);
        assert_eq!(report.failures(), vec!["fig1b/correct/async/s0"]);
        // Safety must hold even where liveness cannot.
        assert!(report.verdicts[0].check.agreement);
    }
}
