//! What the sweep tests share: the family × size axis and an
//! order-preserving fan-out over scenario runs.
//!
//! A sweep is a plain loop that builds `(label, Scenario)` cells, runs
//! them through [`fan_out`] and judges each outcome with
//! `ScenarioOutcome::check`. Each test that includes it uses only part of
//! it.

#![allow(dead_code)]

use bft_cupft::graph::GraphFamily;

/// The sizes each sweep family is generated at.
pub const SIZES: [usize; 3] = [10, 14, 18];

/// The sweep families. Ring and bridge widths are `f + 2` so that the
/// fault sweep can remove one vertex and stay within the `(f+1)`-OSR
/// conditions; Erdős–Rényi and k-diamond are already one-periphery-vertex
/// resilient (peripheries never route through each other's victims).
pub fn sweep_families() -> Vec<GraphFamily> {
    vec![
        GraphFamily::erdos_renyi(16, 1),
        GraphFamily::RingOfCliques {
            cliques: 3,
            clique_size: 4,
            bridges: 3,
            fault_threshold: 1,
        },
        GraphFamily::k_diamond(16, 1),
        GraphFamily::BridgedPartition {
            a_size: 8,
            sink_size: 3,
            bridge_width: 3,
            fault_threshold: 1,
        },
    ]
}

/// `run` over every item, results in item order, on scoped threads over
/// contiguous chunks: at most `available_parallelism().min(4)` runs at
/// once. The cap is for wall-clock scenarios, each of which brings its own
/// worker pool of one worker per core.
pub fn fan_out<T: Sync, R: Send>(items: &[T], run: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let run = &run;
    std::thread::scope(|scope| {
        let chunks: Vec<_> = items
            .chunks(items.len().div_ceil(workers).max(1))
            .map(|chunk| scope.spawn(move || chunk.iter().map(run).collect::<Vec<R>>()))
            .collect();
        chunks
            .into_iter()
            .flat_map(|chunk| chunk.join().expect("a sweep run panicked"))
            .collect()
    })
}
