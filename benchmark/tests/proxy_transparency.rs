//! The tracing proxy must be invisible to the program: for one instance of
//! each simulator workload, a run through `TimedRuntime<Simulation>` is the
//! same execution as `Scenario::run_on(Sim)`, and the spans it records fit
//! inside the run they were taken from.

use bft_cupft::core::{run_scenario_on, NodeMsg, RuntimeKind};
use bft_cupft::net::sim::Simulation;
use cupft_benchmark::timed::{Bucket, Probe, TimedRuntime};
use cupft_benchmark::workloads::WORKLOADS;

#[test]
fn timed_runtime_is_transparent_on_every_sim_workload() {
    for w in WORKLOADS.iter().filter(|w| w.is_sim()) {
        let instance = w.instance(1, 0);
        let plain = instance.scenario.run_on(RuntimeKind::Sim);
        assert!(plain.check().consensus_solved(), "{}: plain run", w.name);

        for probe in [Probe::Spans, Probe::Bytes] {
            let sim: Simulation<NodeMsg> = Simulation::new(instance.scenario.sim.clone());
            let mut runtime = TimedRuntime::new(sim, probe);
            let proxied = run_scenario_on(&instance.scenario, &mut runtime);
            let what = format!("{} through {probe:?}", w.name);
            assert_eq!(proxied.decisions, plain.decisions, "{what}: decisions");
            assert_eq!(proxied.detections, plain.detections, "{what}: detections");
            assert_eq!(proxied.end_time, plain.end_time, "{what}: end_time");
            assert_eq!(proxied.stats, plain.stats, "{what}: NetStats");

            let spans = runtime.report();
            assert!(spans.events > 0, "{what}: events");
            if probe == Probe::Spans {
                let handled: u64 = Bucket::ALL.iter().map(|&b| spans.actor(b).calls).sum();
                let expected = plain.stats.messages_delivered
                    + plain.stats.timers_fired
                    + instance.scenario.graph.vertex_count() as u64;
                assert_eq!(handled, expected, "{what}: one span per handler call");
                assert!(
                    spans.actor_seconds() + spans.preflight.seconds <= spans.run_seconds,
                    "{what}: spans {} + {} exceed the run's {} s",
                    spans.actor_seconds(),
                    spans.preflight.seconds,
                    spans.run_seconds
                );
                assert_eq!(spans.wire_bytes, 0);
            } else {
                assert!(spans.wire_bytes > 0, "{what}: encoded bytes");
                assert_eq!(spans.actor_seconds(), 0.0);
            }
        }
    }
}
