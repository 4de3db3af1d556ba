//! Isolated layer kernels: public calls of each crate timed on fixed inputs
//! built from `--seed`. One figure per metric — the median over `reps`
//! repetitions of at least `rep` each — named `<layer>.<what>`.

use std::hint::black_box;
use std::io::Cursor;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bft_cupft::committee::{Committee, CommitteeMsg, Replica, ReplicaConfig, Value};
use bft_cupft::core::NodeMsg;
use bft_cupft::crypto::{hmac, sha256, KeyRegistry};
use bft_cupft::detector::{CertPool, PdCertificate, SystemSetup};
use bft_cupft::discovery::{DiscoveryActor, DiscoveryMsg, DiscoveryState};
use bft_cupft::graph::{
    process_set, CandidateSearch, DiGraph, GdiParams, Generator, GraphFamily, KnowledgeView,
    ProcessId, ProcessSet,
};
use bft_cupft::net::sim::Simulation;
use bft_cupft::net::threaded::run_threaded;
use bft_cupft::net::{
    Actor, Context, Labeled, Runtime, SimConfig, SocketConfig, SocketRuntime, ThreadedConfig,
    TimerKind,
};
use bft_cupft::wire::frame::{read_frame, write_frame};
use bft_cupft::wire::{decode_from_slice, encode_to_vec};

use crate::measure::{median, Metric};

/// How long and how often each kernel repeats.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub rep: Duration,
    pub reps: usize,
}

struct Ledger {
    budget: Budget,
    metrics: Vec<Metric>,
}

impl Ledger {
    /// Median over the repetitions of work units per second; `body` does
    /// some work and returns how many units that was. A body that alone
    /// outlasts ten repetitions' budget is measured once.
    fn per_second(&self, mut body: impl FnMut() -> u64) -> (f64, usize) {
        let mut rates = Vec::new();
        for _ in 0..self.budget.reps {
            let start = Instant::now();
            let mut units = 0;
            let mut calls = 0u32;
            loop {
                units += body();
                calls += 1;
                if start.elapsed() >= self.budget.rep {
                    break;
                }
            }
            let elapsed = start.elapsed();
            rates.push(units as f64 / elapsed.as_secs_f64());
            if calls == 1 && elapsed > 10 * self.budget.rep {
                break;
            }
        }
        (median(&rates), rates.len())
    }

    /// Records a throughput metric: `scale` × units per second.
    fn rate(&mut self, name: &str, unit: &'static str, scale: f64, body: impl FnMut() -> u64) {
        let (per_s, samples) = self.per_second(body);
        self.metrics
            .push(Metric::new(name, per_s * scale, unit, samples));
    }

    /// Records a latency metric: time per unit, in `per_second / scale`
    /// (scale 1e3 gives milliseconds, 1e6 microseconds, 1 seconds).
    fn time(&mut self, name: &str, unit: &'static str, scale: f64, body: impl FnMut() -> u64) {
        let (per_s, samples) = self.per_second(body);
        self.metrics
            .push(Metric::new(name, scale / per_s, unit, samples));
    }

    fn count(&mut self, name: &str, unit: &'static str, value: usize) {
        self.metrics.push(Metric::new(name, value as f64, unit, 1));
    }
}

/// Deterministic filler bytes (splitmix64 stream of `seed`).
fn filler(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed;
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
    }
    out.truncate(len);
    out
}

const MIB: f64 = 1024.0 * 1024.0;

fn er300(seed: u64) -> DiGraph {
    GraphFamily::erdos_renyi(100, 1)
        .scaled(300)
        .generate(seed)
        .expect("family sample generates")
        .system
        .graph
}

fn kdiamond10k(seed: u64) -> DiGraph {
    GraphFamily::k_diamond(100, 1)
        .scaled(10_000)
        .generate(seed)
        .expect("family sample generates")
        .system
        .graph
}

fn extended_params(non_sink_size: usize) -> GdiParams {
    GdiParams {
        extended: true,
        sink_size: 5,
        non_sink_size,
        byzantine_count: 1,
        ..GdiParams::new(2)
    }
}

fn extended(seed: u64, non_sink_size: usize) -> DiGraph {
    Generator::from_seed(seed)
        .generate(&extended_params(non_sink_size))
        .expect("extended G_di sample generates")
        .graph
}

/// The 300-vertex Erdős–Rényi system most kernels share: its graph, its
/// keys and oracle, and every process's signed PD certificate.
struct Er300 {
    graph: DiGraph,
    setup: SystemSetup,
    certs: Vec<Arc<PdCertificate>>,
}

impl Er300 {
    fn new(seed: u64) -> Self {
        let graph = er300(seed);
        let setup = SystemSetup::new(&graph);
        let certs = setup
            .processes()
            .iter()
            .map(|&id| setup.shared_certificate_for(id).expect("registered"))
            .collect();
        Er300 {
            graph,
            setup,
            certs,
        }
    }
}

fn crypto(l: &mut Ledger, seed: u64) {
    let block = filler(seed, 1 << 20);
    l.rate("crypto.sha256_mb_s", "MiB/s", 1.0, || {
        black_box(sha256::digest(black_box(&block)));
        1
    });
    let key_bytes = filler(seed ^ 1, 32);
    let message = filler(seed ^ 2, 264);
    l.rate("crypto.hmac_ops_s", "1/s", 1.0, || {
        black_box(hmac::hmac_sha256(
            black_box(&key_bytes),
            black_box(&message),
        ));
        1
    });
    let mut registry = KeyRegistry::new();
    let key = registry.register(1);
    l.rate("crypto.sign_ops_s", "1/s", 1.0, || {
        black_box(key.sign(black_box(&message)));
        1
    });
    let signature = key.sign(&message);
    l.rate("crypto.verify_ops_s", "1/s", 1.0, || {
        assert!(registry.verify(1, black_box(&message), &signature));
        1
    });
    l.rate("crypto.batch_verify_ops_s", "1/s", 1.0, || {
        let batch = registry.batch();
        for _ in 0..64 {
            assert!(batch.verify(1, black_box(&message), &signature));
        }
        64
    });
}

/// The three message shapes the wire kernels use: a 64-certificate
/// `SETPDS` bundle, a `GETPDS` whose have-set names 300 authors, and a
/// committee `PREPARE` vote.
fn wire_messages(er: &Er300) -> [(&'static str, NodeMsg); 3] {
    let (setup, certs) = (&er.setup, &er.certs);
    let state = DiscoveryState::from_setup(setup, ProcessId::new(1))
        .expect("vertex registered")
        .sync_state();
    let setpds = DiscoveryMsg::SetPds {
        certs: certs[..64].to_vec().into(),
        state,
    };
    let getpds = DiscoveryMsg::GetPds {
        have: Arc::new(setup.processes()),
        state,
    };
    let mut registry = KeyRegistry::new();
    let key = registry.register(1);
    let prepare = CommitteeMsg::prepare(&key, 0, sha256::digest(b"value"));
    [
        ("setpds64", setpds.into()),
        ("getpds300", getpds.into()),
        ("prepare", prepare.into()),
    ]
}

fn wire(l: &mut Ledger, messages: &[(&'static str, NodeMsg); 3]) {
    for (name, msg) in messages {
        let bytes = encode_to_vec(msg);
        l.count(&format!("wire.bytes.{name}"), "bytes", bytes.len());
        l.rate(&format!("wire.encode_ops_s.{name}"), "1/s", 1.0, || {
            black_box(encode_to_vec(black_box(msg)));
            1
        });
        l.rate(&format!("wire.decode_ops_s.{name}"), "1/s", 1.0, || {
            let decoded: NodeMsg = decode_from_slice(black_box(&bytes)).expect("decodes");
            black_box(decoded);
            1
        });
    }

    let payload = encode_to_vec(&messages[0].1);
    let payload_mib = payload.len() as f64 / MIB;
    let mut buffer = Vec::with_capacity(payload.len() + 16);
    l.rate("wire.frame_mem_mb_s", "MiB/s", payload_mib, || {
        buffer.clear();
        write_frame(&mut buffer, &payload).expect("write to memory");
        let back = read_frame(&mut Cursor::new(&buffer))
            .expect("well-formed frame")
            .expect("one frame");
        black_box(back);
        1
    });

    // One loopback connection, one echo thread: every frame the kernel
    // writes is read, and answered with a frame of the same payload.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    let echo = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        stream.set_nodelay(true).expect("nodelay");
        while let Ok(Some(frame)) = read_frame(&mut stream) {
            if write_frame(&mut stream, &frame).is_err() {
                break;
            }
        }
    });
    let mut stream = TcpStream::connect(addr).expect("connect loopback");
    stream.set_nodelay(true).expect("nodelay");
    let mut round_trip = |payload: &[u8]| {
        write_frame(&mut stream, payload).expect("write frame");
        let back = read_frame(&mut stream)
            .expect("well-formed frame")
            .expect("echoed frame");
        assert_eq!(back.len(), payload.len());
    };
    // Both directions carry the payload, so a round trip moves it twice.
    l.rate("wire.frame_tcp_mb_s", "MiB/s", 2.0 * payload_mib, || {
        round_trip(&payload);
        1
    });
    let small = encode_to_vec(&messages[2].1);
    l.time("wire.frame_tcp_rtt_us", "us", 1e6, || {
        round_trip(&small);
        1
    });
    drop(stream);
    echo.join().expect("echo thread ends with the connection");
}

/// A trivial message for the channel runtimes.
#[derive(Clone)]
struct Token;

impl Labeled for Token {
    fn label(&self) -> &'static str {
        "TOKEN"
    }
}

/// Ring flood: every actor sends `burst` copies of `template` to its
/// successor at start and forwards its first `forwards` receipts. Each
/// actor therefore receives exactly `burst + forwards` messages, and halts
/// on the last.
struct RingActor<M> {
    id: ProcessId,
    next: ProcessId,
    template: M,
    burst: u64,
    forwards: u64,
    received: u64,
}

impl<M: Clone + Send + 'static> Actor<M> for RingActor<M> {
    fn id(&self) -> ProcessId {
        self.id
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn on_start(&mut self, ctx: &mut Context<M>) {
        for _ in 0..self.burst {
            ctx.send(self.next, self.template.clone());
        }
        if self.burst + self.forwards == 0 {
            ctx.halt();
        }
    }
    fn on_message(&mut self, _from: ProcessId, msg: M, ctx: &mut Context<M>) {
        self.received += 1;
        if self.received <= self.forwards {
            ctx.send(self.next, msg);
        }
        if self.received == self.burst + self.forwards {
            ctx.halt();
        }
    }
}

fn ring<M: Clone + Send + 'static>(
    actors: u64,
    template: &M,
    burst: u64,
    forwards: u64,
) -> Vec<Box<dyn Actor<M>>> {
    (1..=actors)
        .map(|i| {
            Box::new(RingActor {
                id: ProcessId::new(i),
                next: ProcessId::new(i % actors + 1),
                template: template.clone(),
                burst,
                forwards,
                received: 0,
            }) as Box<dyn Actor<M>>
        })
        .collect()
}

/// Re-arms one timer `fires` times, then halts.
struct TimerActor {
    id: ProcessId,
    fires: u64,
}

impl Actor<Token> for TimerActor {
    fn id(&self) -> ProcessId {
        self.id
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn on_start(&mut self, ctx: &mut Context<Token>) {
        ctx.set_timer(1, 1 + self.id.raw() % 7);
    }
    fn on_message(&mut self, _from: ProcessId, _msg: Token, _ctx: &mut Context<Token>) {}
    fn on_timer(&mut self, _timer: TimerKind, ctx: &mut Context<Token>) {
        self.fires -= 1;
        if self.fires == 0 {
            ctx.halt();
        } else {
            ctx.set_timer(1, 1 + self.id.raw() % 7);
        }
    }
}

fn socket_ring(template: &NodeMsg, actors: u64, burst: u64, forwards: u64) -> u64 {
    let mut runtime: SocketRuntime<NodeMsg> =
        SocketRuntime::new(SocketConfig::default()).expect("bind socket runtime");
    for actor in ring(actors, template, burst, forwards) {
        runtime.add_actor(actor);
    }
    let report = runtime.run_to_completion();
    assert!(report.all_halted, "socket ring did not drain");
    report.stats.messages_delivered
}

fn net(l: &mut Ledger, seed: u64, messages: &[(&'static str, NodeMsg); 3]) {
    let sim_config = || SimConfig {
        seed,
        ..SimConfig::default()
    };
    l.rate("net.sim.msg_events_s", "1/s", 1.0, || {
        let mut sim: Simulation<Token> = Simulation::new(sim_config());
        for actor in ring(1000, &Token, 1, 49) {
            sim.add_actor(actor);
        }
        let report = sim.run();
        assert!(report.all_halted);
        report.stats.messages_delivered
    });
    l.rate("net.sim.timer_events_s", "1/s", 1.0, || {
        let mut sim: Simulation<Token> = Simulation::new(sim_config());
        for i in 1..=1000 {
            sim.add_actor(Box::new(TimerActor {
                id: ProcessId::new(i),
                fires: 50,
            }));
        }
        let report = sim.run();
        assert!(report.all_halted);
        report.stats.timers_fired
    });

    // The router plane with its injected delay set to zero, so the figure is
    // channel hops and scheduling, not sleeping.
    let threaded = |shards: usize| ThreadedConfig {
        min_delay: Duration::ZERO,
        max_delay: Duration::ZERO,
        seed,
        router_shards: shards,
        ..ThreadedConfig::default()
    };
    for shards in [1, 2] {
        l.rate(
            &format!("net.threaded.msgs_s.shards{shards}"),
            "1/s",
            1.0,
            || {
                let report = run_threaded(ring(16, &Token, 8, 492), threaded(shards));
                assert!(report.all_halted, "threaded ring did not drain");
                report.stats.messages_delivered
            },
        );
    }
    l.time("net.threaded.spawn_us_per_actor", "us", 1e6, || {
        let report = run_threaded(ring(200, &Token, 0, 0), threaded(2));
        assert!(report.all_halted);
        200
    });

    l.rate("net.socket.msgs_s.small", "1/s", 1.0, || {
        socket_ring(&NodeMsg::GetDecidedVal, 8, 8, 492)
    });
    l.rate("net.socket.msgs_s.setpds64", "1/s", 1.0, || {
        socket_ring(&messages[0].1, 8, 4, 96)
    });
    l.time("net.socket.spawn_us_per_actor", "us", 1e6, || {
        socket_ring(&NodeMsg::GetDecidedVal, 100, 0, 0);
        100
    });
}

fn detector(l: &mut Ledger, er: &Er300, wide: &DiGraph) {
    let vertices = wide.vertex_count() as u64;
    l.time("detector.setup_us_per_vertex", "us", 1e6, || {
        black_box(SystemSetup::new(black_box(wide)));
        vertices
    });
    let setup = &er.setup;
    let bundle = &er.certs[..64];
    l.rate("detector.verify_batch_certs_s.cold", "1/s", 1.0, || {
        let pool = CertPool::new();
        black_box(pool.verify_batch(bundle, setup.registry()));
        64
    });
    let warm = CertPool::new();
    warm.verify_batch(bundle, setup.registry());
    l.rate("detector.verify_batch_certs_s.warm", "1/s", 1.0, || {
        black_box(warm.verify_batch(bundle, setup.registry()));
        64
    });
}

/// Runs `DiscoveryActor`s alone on the simulator until every process holds
/// the certificate of everyone it can reach; returns messages delivered.
fn discovery_fixpoint(graph: &DiGraph, seed: u64) -> u64 {
    let setup = SystemSetup::new(graph);
    let mut sim: Simulation<DiscoveryMsg> = Simulation::new(SimConfig {
        seed,
        ..SimConfig::default()
    });
    let mut expected = Vec::new();
    for v in graph.vertices() {
        let state = DiscoveryState::from_setup(&setup, v).expect("vertex registered");
        sim.add_actor(Box::new(DiscoveryActor::new(state, 20)));
        expected.push((v, graph.reachable_from(v).len()));
    }
    let at_fixpoint = |sim: &Simulation<DiscoveryMsg>| {
        expected.iter().all(|&(v, reach)| {
            sim.actor_as::<DiscoveryActor>(v)
                .is_some_and(|a| a.state().view().received_count() == reach)
        })
    };
    // The predicate walks every actor, so poll it every few thousand events.
    while !at_fixpoint(&sim) {
        for _ in 0..4096 {
            assert!(sim.step(), "discovery stalled before its fixpoint");
        }
    }
    sim.stats().messages_delivered
}

fn discovery(l: &mut Ledger, seed: u64, er: &Er300) {
    let (graph, setup, certs) = (&er.graph, &er.setup, &er.certs);
    let me = ProcessId::new(1);
    let fresh = || DiscoveryState::from_setup(setup, me).expect("vertex registered");

    l.rate("discovery.absorb_certs_s.cold", "1/s", 1.0, || {
        let mut state = fresh();
        state.absorb_batch(certs);
        black_box(state.view().received_count());
        certs.len() as u64
    });
    let mut full = fresh();
    full.absorb_batch(certs);
    assert_eq!(full.view().received_count(), certs.len());
    l.rate("discovery.absorb_certs_s.dup", "1/s", 1.0, || {
        full.absorb_batch(certs);
        certs.len() as u64
    });

    // A requester that holds everything but ten certificates.
    let have: ProcessSet = setup.processes().iter().copied().skip(10).collect();
    let request = DiscoveryMsg::GetPds {
        have: Arc::new(have),
        state: fresh().sync_state(),
    };
    let requester = ProcessId::new(2);
    l.rate("discovery.getpds_reply_ops_s", "1/s", 1.0, || {
        let reply = full.handle(requester, request.clone());
        assert_eq!(reply.len(), 1);
        black_box(reply);
        1
    });
    l.rate("discovery.tick_ops_s", "1/s", 1.0, || {
        black_box(full.tick());
        1
    });
    let snapshot_mib = full.to_bytes().len() as f64 / MIB;
    l.rate("discovery.snapshot_mb_s", "MiB/s", snapshot_mib, || {
        let bytes = full.to_bytes();
        let restored =
            DiscoveryState::from_bytes(&bytes, setup.registry().clone()).expect("round-trips");
        black_box(restored);
        1
    });
    l.time("discovery.fixpoint_s.er300", "s", 1.0, || {
        black_box(discovery_fixpoint(graph, seed));
        1
    });
}

fn graph(l: &mut Ledger, seed: u64, er: &Er300, wide: &DiGraph) {
    let search = CandidateSearch::default();
    for (name, graph) in [("er300", &er.graph), ("kdiamond10k", wide)] {
        let view = KnowledgeView::omniscient(graph);
        l.time(&format!("graph.sink_search_ms.{name}"), "ms", 1e3, || {
            let sink = search.sink_with_threshold(black_box(&view), 1);
            assert!(sink.is_some(), "the planted sink is found");
            1
        });
    }
    for (name, non_sink_size) in [("ext26", 20), ("ext40", 34)] {
        let view = KnowledgeView::omniscient(&extended(seed, non_sink_size));
        l.time(&format!("graph.best_core_ms.{name}"), "ms", 1e3, || {
            let core = search.best_core(black_box(&view));
            assert!(core.is_some(), "the planted core is found");
            1
        });
        if name == "ext26" {
            let core = search.best_core(&view).expect("the planted core is found");
            l.time("graph.internally_maximal_ms.ext26", "ms", 1e3, || {
                black_box(search.is_internally_maximal(black_box(&view), &core));
                1
            });
        }
    }
    // Each call generates from a fresh seed, so the figure is the family's
    // cost, not one sample's.
    let mut next = seed;
    let mut fresh_seed = || {
        next += 1;
        next
    };
    l.time("graph.generate_ms.er300", "ms", 1e3, || {
        black_box(er300(fresh_seed()));
        1
    });
    l.time("graph.generate_ms.kdiamond10k", "ms", 1e3, || {
        black_box(kdiamond10k(fresh_seed()));
        1
    });
    l.time("graph.generate_ms.ext26", "ms", 1e3, || {
        black_box(extended(fresh_seed(), 20));
        1
    });
}

fn replicas(n: u64, f: usize) -> Vec<Replica> {
    let mut registry = KeyRegistry::new();
    let keys: Vec<_> = (1..=n).map(|i| registry.register(i)).collect();
    let committee = Committee::new(process_set(1..=n), f);
    keys.into_iter()
        .map(|key| {
            let value = Value::from(format!("value-{}", key.id()));
            Replica::new(
                key,
                registry.clone(),
                committee.clone(),
                value,
                ReplicaConfig::default(),
            )
        })
        .collect()
}

/// Drives the replicas in memory until every live one has decided: one
/// committee round, no network. With `silent_leader`, the view-0 leader
/// neither sends nor receives, so the round goes through a view change.
fn committee_round(replicas: &mut [Replica], silent_leader: bool) {
    let leader = replicas[0].committee().leader_of(0);
    let live = |id: ProcessId| !(silent_leader && id == leader);
    let mut queue = Vec::new();
    for r in replicas.iter_mut().filter(|r| live(r.id())) {
        let from = r.id();
        queue.extend(r.start().msgs.into_iter().map(|(to, m)| (from, to, m)));
    }
    if silent_leader {
        for r in replicas.iter_mut().filter(|r| live(r.id())) {
            let from = r.id();
            let fx = r.on_timeout(r.view());
            queue.extend(fx.msgs.into_iter().map(|(to, m)| (from, to, m)));
        }
    }
    while let Some((from, to, msg)) = queue.pop() {
        if !live(to) {
            continue;
        }
        let r = replicas
            .iter_mut()
            .find(|r| r.id() == to)
            .expect("committee member");
        let fx = r.handle(from, msg);
        queue.extend(fx.msgs.into_iter().map(|(next, m)| (to, next, m)));
    }
    assert!(
        replicas
            .iter()
            .filter(|r| live(r.id()))
            .all(|r| r.decision().is_some()),
        "every live replica decides"
    );
}

fn committee(l: &mut Ledger) {
    for (name, n, f, silent) in [
        ("committee.happy_round_us.n4", 4, 1, false),
        ("committee.happy_round_us.n31", 31, 10, false),
        ("committee.view_change_round_us.n4", 4, 1, true),
    ] {
        l.time(name, "us", 1e6, || {
            let mut members = replicas(n, f);
            committee_round(&mut members, silent);
            1
        });
    }
    let mut registry = KeyRegistry::new();
    let key = registry.register(1);
    let committee = Committee::new(process_set(1..=4), 1);
    let vote = CommitteeMsg::prepare(&key, 0, sha256::digest(b"value"));
    l.rate("committee.vote_verify_ops_s", "1/s", 1.0, || {
        assert!(black_box(&vote).verify(&registry, &committee));
        1
    });
}

/// Runs every kernel and returns the per-layer ledger.
pub fn run(seed: u64, budget: Budget) -> Vec<Metric> {
    let mut ledger = Ledger {
        budget,
        metrics: Vec::new(),
    };
    let er = Er300::new(seed);
    let wide = kdiamond10k(seed);
    let messages = wire_messages(&er);
    crypto(&mut ledger, seed);
    wire(&mut ledger, &messages);
    net(&mut ledger, seed, &messages);
    detector(&mut ledger, &er, &wide);
    discovery(&mut ledger, seed, &er);
    graph(&mut ledger, seed, &er, &wide);
    committee(&mut ledger);
    ledger.metrics
}
