//! Acceptance tests for the threaded link.
//!
//! Three claims:
//!
//! 1. **Decision parity** — the threaded runtime reaches exactly the
//!    decisions the deterministic simulator reaches, with and without a
//!    tamper (the `adversary_sweep` grid's within-model drop, plus a
//!    reorder chain, ruled on the sending actor's worker).
//! 2. **Link conformance** — the shared flood body of `tests/link`
//!    (also run on the socket link by `tests/socket_parity.rs`): exact
//!    `NetStats` conservation; exact tamper drop accounting; per-sender
//!    emission order at the tamper; a tamper delay still delivered; and
//!    the worker pool's bounded workers, mailbox cap and timer fairness.
//! 3. **The link delay is a floor** — no message is handled before
//!    `min_delay` has passed since its send, and a tamper delay comes on
//!    top of it.
//!
//! The n = 1000 cells live in `tests/family_sweep.rs`
//! (`thousand_vertex_cells_match_sim_decisions`, `#[ignore]`d).

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bft_cupft::core::{ByzantineStrategy, ProtocolMode, RuntimeKind, Scenario, TamperSpec};
use bft_cupft::graph::{fig1b, process_set, GraphFamily, ProcessId};
use bft_cupft::net::{
    Actor, Context, Fate, Labeled, Runtime, Tamper, ThreadedConfig, ThreadedRuntime,
};
use link::FloodMsg;

mod link;

/// Retunes tick-denominated knobs for the threaded substrate (they are
/// read as milliseconds there).
fn threaded_variant(scenario: &Scenario) -> Scenario {
    let mut s = scenario.clone();
    s.discovery_period = 10;
    s.view_timeout_base = 2_000;
    s
}

/// The parity workloads: the Fig. 1(b) witness graph and a generated
/// Erdős–Rényi planted-sink topology (Θ(n²) all-to-all traffic).
fn parity_scenarios() -> Vec<(String, Scenario)> {
    let er = GraphFamily::erdos_renyi(16, 1)
        .generate(11)
        .expect("valid family parameterization");
    vec![
        (
            "fig1b/silent4".into(),
            Scenario::new(fig1b().graph().clone(), ProtocolMode::KnownThreshold(1))
                .with_byzantine(4, ByzantineStrategy::Silent)
                .with_seed(3),
        ),
        (
            "erdos-renyi@n16".into(),
            Scenario::new(er.system.graph, ProtocolMode::KnownThreshold(1)).with_seed(5),
        ),
    ]
}

#[test]
fn decisions_match_sim() {
    for (label, scenario) in parity_scenarios() {
        let sim = scenario.run_on(RuntimeKind::Sim);
        assert!(sim.check().consensus_solved(), "{label} on sim: {sim:?}");
        let threaded = threaded_variant(&scenario).run_on(RuntimeKind::Threaded);
        assert!(
            threaded.check().consensus_solved(),
            "{label} threaded: {:?}",
            threaded.decisions
        );
        assert_eq!(
            sim.decisions, threaded.decisions,
            "{label}: threaded decisions must equal sim"
        );
    }
}

// ---- link conformance: the flood workload of tests/link ----

fn flood_runtime() -> ThreadedRuntime<FloodMsg> {
    ThreadedRuntime::new(ThreadedConfig {
        wall_timeout: Duration::from_secs(20),
        seed: 7,
        ..ThreadedConfig::default()
    })
}

#[test]
fn netstats_totals_are_conserved() {
    link::conserves_netstats(flood_runtime());
}

#[test]
fn tamper_drop_accounting_is_exact() {
    link::drop_accounting_is_exact(flood_runtime());
}

#[test]
fn tamper_sees_per_sender_emission_order() {
    link::tamper_sees_emission_order(flood_runtime());
}

#[test]
fn tamper_delay_is_delivered() {
    link::delayed_messages_are_delivered(flood_runtime());
}

#[test]
fn actors_share_a_bounded_worker_set() {
    link::actors_share_a_bounded_worker_set(flood_runtime());
}

#[test]
fn flood_past_the_mailbox_cap_is_deferred_then_delivered() {
    let report = link::flood_past_the_mailbox_cap_is_delivered(flood_runtime());
    let obs = report.obs.expect("recorder installed");
    assert!(
        obs.counter("mailbox_deferrals") > 0,
        "the full mailbox must defer the overflow"
    );
}

#[test]
fn backlog_does_not_starve_timers() {
    link::backlog_does_not_starve_timers(flood_runtime());
}

/// The `adversary_sweep` within-model cell (Byzantine process 4 forging a
/// PD while the network drops its output, chained behind a reorder
/// window) keeps its verdict and its drop accounting on the threaded
/// link.
#[test]
fn adversary_sweep_tamper_cell_solves() {
    let scenario = Scenario::new(fig1b().graph().clone(), ProtocolMode::KnownThreshold(1))
        .with_byzantine(
            4,
            ByzantineStrategy::FakePd {
                claimed: process_set([1, 2, 3]),
            },
        )
        .with_tamper(TamperSpec::Chain(vec![
            TamperSpec::ReorderWindow { window: 5, seed: 9 },
            TamperSpec::DropFrom {
                senders: process_set([4]),
            },
        ]))
        .with_seed(2);
    let sim = scenario.run_on(RuntimeKind::Sim);
    assert!(sim.check().consensus_solved(), "sim: {:?}", sim.decisions);
    let outcome = threaded_variant(&scenario).run_on(RuntimeKind::Threaded);
    assert!(
        outcome.check().consensus_solved(),
        "threaded: {:?}",
        outcome.decisions
    );
    assert!(
        outcome.stats.messages_dropped > 0,
        "the drop tamper must keep biting"
    );
    assert_eq!(
        sim.decisions, outcome.decisions,
        "tampered decisions must equal sim"
    );
}

// ---- the link delay is a floor ----

/// The fixed link delay of [`link_delay_is_a_floor`].
const LINK_DELAY: Duration = Duration::from_millis(25);
/// The tamper delay laid on top of it for `LATE` messages.
const EXTRA: u64 = 40;
/// Round trips between the two actors.
const ROUNDS: u32 = 12;

/// A message stamped with the instant its handler sent it.
#[derive(Clone)]
struct Stamped {
    sent: Instant,
    late: bool,
}

impl Labeled for Stamped {
    fn label(&self) -> &'static str {
        if self.late {
            "LATE"
        } else {
            "ON_TIME"
        }
    }
}

/// Delays every `LATE` message by [`EXTRA`] ms.
struct DelayLate;
impl Tamper<Stamped> for DelayLate {
    fn disposition(&mut self, _: ProcessId, _: ProcessId, label: &'static str, _: u64) -> Fate {
        if label == "LATE" {
            Fate::Delay(EXTRA)
        } else {
            Fate::Deliver
        }
    }
}

/// Bounces a stamped message back and forth, [`ROUNDS`] round trips, and
/// logs each message's send-to-handling time by label. Before each send
/// it sleeps a varying fraction of a millisecond, so the sends fall at
/// every offset within a millisecond rather than just after a wheel tick.
struct Bouncer {
    id: ProcessId,
    peer: ProcessId,
    handled: u32,
    waits: Arc<Mutex<Vec<(bool, Duration)>>>,
}

impl Bouncer {
    fn bounce(&mut self, ctx: &mut Context<Stamped>) {
        std::thread::sleep(Duration::from_micros(
            150 + 97 * u64::from(self.handled % 8),
        ));
        ctx.send(
            self.peer,
            Stamped {
                sent: Instant::now(),
                late: self.handled % 3 == 1,
            },
        );
    }
}

impl Actor<Stamped> for Bouncer {
    fn id(&self) -> ProcessId {
        self.id
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn on_start(&mut self, ctx: &mut Context<Stamped>) {
        if self.id == ProcessId::new(1) {
            self.bounce(ctx);
        }
    }
    /// Process 2 answers all [`ROUNDS`] of process 1's messages; process 1
    /// answers all but the last answer.
    fn on_message(&mut self, _: ProcessId, msg: Stamped, ctx: &mut Context<Stamped>) {
        let waited = msg.sent.elapsed();
        self.waits.lock().unwrap().push((msg.late, waited));
        self.handled += 1;
        if self.handled < ROUNDS || self.id == ProcessId::new(2) {
            self.bounce(ctx);
        }
        if self.handled == ROUNDS {
            ctx.halt();
        }
    }
}

/// With `min_delay = max_delay = 25 ms`, no message is handled sooner than
/// 25 ms after its handler sent it — a due time rounded down to the
/// millisecond, or a send with no tamper delay skipping the link delay,
/// breaks that — and a `Fate::Delay(40)` message no sooner than 65 ms.
#[test]
fn link_delay_is_a_floor() {
    let waits = Arc::new(Mutex::new(Vec::new()));
    let mut rt: ThreadedRuntime<Stamped> = ThreadedRuntime::new(ThreadedConfig {
        min_delay: LINK_DELAY,
        max_delay: LINK_DELAY,
        wall_timeout: Duration::from_secs(20),
        ..ThreadedConfig::default()
    });
    for (id, peer) in [(1, 2), (2, 1)] {
        rt.add_actor(Box::new(Bouncer {
            id: ProcessId::new(id),
            peer: ProcessId::new(peer),
            handled: 0,
            waits: waits.clone(),
        }));
    }
    rt.set_tamper(Box::new(DelayLate));
    let report = rt.run_to_completion();
    assert!(report.all_halted, "{report:?}");
    let waits = waits.lock().unwrap();
    assert_eq!(waits.len(), 2 * ROUNDS as usize);
    let late_floor = LINK_DELAY + Duration::from_millis(EXTRA);
    let (mut on_time, mut late) = (0, 0);
    for &(is_late, waited) in waits.iter() {
        if is_late {
            late += 1;
            assert!(
                waited >= late_floor,
                "a LATE message was handled after {waited:?}"
            );
        } else {
            on_time += 1;
            assert!(
                waited >= LINK_DELAY,
                "a message was handled after {waited:?}"
            );
        }
    }
    assert!(on_time > 0 && late > 0, "{on_time} on time, {late} late");
}
