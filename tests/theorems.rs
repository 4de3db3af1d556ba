//! Cross-crate integration: executable checks of the paper's theorems on
//! witness graphs and generated families.

use bft_cupft::core::{run_scenario, ByzantineStrategy, ProtocolMode, Scenario};
use bft_cupft::discovery::DiscoveryActor;
use bft_cupft::graph::{
    exact_best_sink, fig1b, fig4a, fig4b, is_extended_k_osr, osr_report, process_set,
    CandidateSearch, GdiParams, GeneratedSystem, Generator, KnowledgeView, ProcessSet,
};
use bft_cupft::net::sim::Simulation;
use bft_cupft::net::{DelayPolicy, SimConfig};
use discovery_sim::{DiscoverySim, PERIOD};
use rrb::{RrbActor, RrbMsg};

mod discovery_sim;
mod rrb;

/// Theorem 1 (necessity side, spot check): the witness graphs satisfying
/// BFT-CUP have (f+1)-OSR safe subgraphs with ≥ 2f+1 sinks.
#[test]
fn theorem1_requirements_on_witnesses() {
    let fig = fig1b();
    let report = osr_report(&fig.safe_subgraph(), 2);
    assert!(report.is_k_osr());
    assert!(report.sink_members().unwrap().len() >= 3);
}

/// Theorem 2: after GST, every correct process discovers all correct sink
/// members and receives their PDs, within a delay bounded by the graph
/// distance structure.
#[test]
fn theorem2_discovery_convergence_and_bound() {
    let fig = fig1b();
    let gst = 200u64;
    let delta = 10u64;
    let period = PERIOD;
    let mut sim = DiscoverySim::new(fig.graph(), 3, 100_000)
        .with_policy(DelayPolicy::PartialSynchrony {
            gst,
            delta,
            pre_gst_max: 150,
        })
        .only(fig.correct())
        .build();
    let correct_sink = process_set([1, 2, 3]);
    let correct: Vec<_> = fig.correct().into_iter().collect();
    let converged = sim.run_until(|s| {
        correct.iter().all(|&v| {
            s.actor_as::<DiscoveryActor>(v)
                .is_some_and(|a| correct_sink.iter().all(|&m| a.state().view().has_pd_of(m)))
        })
    });
    assert!(converged);
    // Theorem 2's bound is GST + 2(d−1)δ in the round-free model; with a
    // periodic tick the per-hop cost gains one period. d ≤ diameter of the
    // correct graph.
    let d = fig.safe_subgraph().max_finite_distance() as u64;
    let bound = gst + 2 * d * (delta + period);
    assert!(
        sim.now() <= bound,
        "converged at {} > bound {bound}",
        sim.now()
    );
}

/// Theorems 4/5: the Sink algorithm returns all and only sink members —
/// identically at every correct process, matching the exact search.
#[test]
fn theorem5_sink_detection_sound_and_consistent() {
    for seed in 0..6 {
        let sys = Generator::from_seed(seed)
            .generate(&GdiParams::new(1))
            .unwrap();
        let view = KnowledgeView::omniscient(&sys.graph);
        let heuristic = CandidateSearch
            .sink_with_threshold(&view, 1)
            .expect("sink found");
        assert_eq!(heuristic.members(), sys.expected_detection(), "seed {seed}");
        let cutoff = CandidateSearch::EXACT_CUTOFF;
        if view.received().len() <= cutoff {
            let exact = bft_cupft::graph::exact_sink_with_threshold(&view, 1, cutoff)
                .unwrap()
                .expect("exact sink");
            assert_eq!(exact.members(), heuristic.members(), "seed {seed}");
        }
    }
}

/// Theorems 8/9: the Core algorithm returns the unique core on extended
/// graphs, and its member set equals the best exact sink's.
#[test]
fn theorem9_core_detection_matches_exact() {
    for fig in [fig4a(), fig4b()] {
        let view = KnowledgeView::omniscient(fig.graph());
        let core = CandidateSearch.best_core(&view).expect("core found");
        assert_eq!(
            &core.members(),
            fig.expected_sink().unwrap(),
            "{}",
            fig.name()
        );
        let exact = exact_best_sink(&view, CandidateSearch::EXACT_CUTOFF)
            .unwrap()
            .expect("exact best");
        assert_eq!(exact.members(), core.members(), "{}", fig.name());
        assert_eq!(exact.threshold, core.threshold, "{}", fig.name());
    }
}

/// Definition 2 sanity across the generated extended family.
#[test]
fn extended_family_generated_graphs_validate() {
    let mut params = GdiParams::new(1);
    params.extended = true;
    params.byzantine_count = 0;
    params.non_sink_size = 4;
    for seed in 0..4 {
        let sys = Generator::from_seed(seed).generate(&params).unwrap();
        let report = is_extended_k_osr(&sys.safe_subgraph(), 2, 12).unwrap();
        assert!(report.holds(), "seed {seed}: {report:?}");
        assert_eq!(report.core.unwrap().members, sys.sink);
    }
}

/// Theorem 10 end-to-end: consensus in the BFT-CUPFT model, with the core
/// detection consistent across every correct process (the property whose
/// absence breaks mixed-committee safety).
#[test]
fn theorem10_consistent_detection_then_consensus() {
    for seed in 0..4 {
        let scenario = Scenario::new(fig4b().graph().clone(), ProtocolMode::UnknownThreshold)
            .with_byzantine(4, ByzantineStrategy::Silent)
            .with_seed(seed);
        let outcome = run_scenario(&scenario);
        assert!(outcome.check().consensus_solved(), "seed {seed}");
        assert_eq!(
            outcome.distinct_detections().len(),
            1,
            "seed {seed}: all correct processes must return the same core"
        );
    }
}

/// The Section III worked example, end to end: process 2 slow (crashy
/// scheduling via partition), Byzantine 4 claiming PD {1,2,3}; process 1
/// still identifies sink {1,2,3,4}.
#[test]
fn section3_worked_example_detection() {
    let mut view = KnowledgeView::new(1.into(), process_set([2, 3, 4]));
    view.record_pd(3.into(), process_set([1, 2, 4]));
    view.record_pd(4.into(), process_set([1, 2, 3]));
    let detection = CandidateSearch
        .sink_with_threshold(&view, 1)
        .expect("worked example must identify the sink");
    assert_eq!(detection.members(), process_set([1, 2, 3, 4]));
}

/// Time to goal (`None` if the horizon passed first) and messages sent.
type GoalRun = (Option<u64>, u64);

fn section3_config(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        max_time: 100_000,
        policy: DelayPolicy::PartialSynchrony {
            gst: 100,
            delta: 10,
            pre_gst_max: 60,
        },
    }
}

/// Signed discovery until every correct sink member holds every sink
/// member's PD.
fn run_signed_discovery(sys: &GeneratedSystem, seed: u64) -> GoalRun {
    let config = section3_config(seed);
    let mut sim = DiscoverySim::new(&sys.graph, seed, config.max_time)
        .with_policy(config.policy)
        .only(sys.correct())
        .build();
    let sink: Vec<_> = sys.sink.iter().copied().collect();
    let reached = sim.run_until(|s| {
        sink.iter().all(|&member| {
            s.actor_as::<DiscoveryActor>(member)
                .is_some_and(|a| sink.iter().all(|&other| a.state().view().has_pd_of(other)))
        })
    });
    (reached.then_some(sim.now()), sim.stats().messages_sent)
}

/// Reachable reliable broadcast of every PD until every correct sink
/// member has delivered every other sink member's PD.
fn run_rrb(sys: &GeneratedSystem, seed: u64) -> GoalRun {
    let mut sim: Simulation<RrbMsg> = Simulation::new(section3_config(seed));
    for v in &sys.correct() {
        let pd: ProcessSet = sys.graph.out_neighbors(*v);
        let content: Vec<u64> = pd.iter().map(|q| q.raw()).collect();
        sim.add_actor(Box::new(RrbActor::new(
            *v,
            sys.fault_threshold,
            pd,
            content,
        )));
    }
    let sink: Vec<_> = sys.sink.iter().copied().collect();
    let reached = sim.run_until(|s| {
        sink.iter().all(|&member| {
            s.actor_as::<RrbActor>(member).is_some_and(|a| {
                sink.iter()
                    .filter(|&&o| o != member)
                    .all(|&other| a.state().delivered().any(|p| p.origin == other))
            })
        })
    });
    (reached.then_some(sim.now()), sim.stats().messages_sent)
}

/// Section III: with signatures a PD record is trusted on receipt, so
/// discovery drops reachable reliable broadcast (a record must arrive over
/// more than `f` node-disjoint paths). On the same generated `G_di`
/// systems both stacks reach the goal, and RRB's message cost outgrows
/// signed discovery's with system size: the RRB/signed ratio rises
/// strictly with size and is at least 10 on the largest system. (On the
/// smallest f = 1 system signed discovery sends more, and times often tie,
/// so neither "fewer messages" nor "no later" holds everywhere.)
#[test]
fn section3_signatures_outscale_reliable_broadcast() {
    for f in [1usize, 2] {
        let mut ratios = Vec::new();
        for (sink_extra, periphery) in [(0usize, 2usize), (2, 6), (4, 12)] {
            let mut params = GdiParams::new(f);
            params.sink_size = 2 * f + 1 + sink_extra;
            params.non_sink_size = periphery;
            let sys = Generator::from_seed(42 + sink_extra as u64)
                .generate(&params)
                .expect("generation succeeds");
            let (signed_time, signed_msgs) = run_signed_discovery(&sys, 7);
            let (rrb_time, rrb_msgs) = run_rrb(&sys, 7);
            let ratio = rrb_msgs as f64 / signed_msgs as f64;
            println!(
                "f={f} n={} signed: t={signed_time:?} msgs={signed_msgs}  rrb: t={rrb_time:?} msgs={rrb_msgs}  ratio={ratio:.2}",
                sys.graph.vertex_count()
            );
            assert!(signed_time.is_some(), "f={f}: signed discovery stuck");
            assert!(rrb_time.is_some(), "f={f}: RRB stuck");
            ratios.push(ratio);
        }
        assert!(
            ratios.windows(2).all(|w| w[0] < w[1]),
            "f={f}: RRB/signed ratio must grow with size: {ratios:?}"
        );
        assert!(ratios[2] >= 10.0, "f={f}: largest ratio {ratios:?}");
    }
}
