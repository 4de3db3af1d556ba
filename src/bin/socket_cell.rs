//! Multi-process socket-cell driver: a real distributed deployment of the
//! protocol stack, parity-checked against the deterministic simulator.
//!
//! One invocation without `--node` is the **coordinator**: it generates
//! the requested graph-family sample, runs the deterministic simulator on
//! it for ground truth, then spawns one OS process per vertex (re-invoking
//! this same binary with `--node <id>`). Each **node process** hosts a
//! single protocol `Node` inside a [`SocketRuntime`], so every protocol
//! message crosses a process boundary over loopback TCP in the versioned
//! `cupft_wire` frame format.
//!
//! The control protocol is line-oriented over the children's stdio:
//!
//! ```text
//! child  -> coord   ADDR <id> <host:port>     listener bound, before GO
//! coord  -> child   PEER <id> <host:port>     one line per remote peer
//! coord  -> child   GO                        peer book complete, run
//! child  -> coord   DECIDED <id> <hex>        the node's decision
//! coord  -> child   STOP                      everyone decided, shut down
//! ```
//!
//! Children keep serving traffic after deciding (an early exit would
//! starve slower peers), so global completion is coordinated out of band:
//! the coordinator sends `STOP` only once every node has reported. On
//! success the coordinator prints `SOCKET PARITY OK …` — the line CI
//! greps for — and exits 0; any divergence from the simulator's
//! decisions, child failure, or timeout exits nonzero.
//!
//! Keys are deterministic per process ID, so the per-process
//! `SystemSetup::new(&graph)` rebuilds yield mutually verifiable HMACs
//! without any key-distribution step.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use bft_cupft::core::{ProtocolMode, RuntimeKind, Scenario};
use bft_cupft::detector::SystemSetup;
use bft_cupft::graph::{GraphFamily, ProcessId};
use bft_cupft::net::threaded::Board;
use bft_cupft::net::{PeerAddr, Runtime, SocketConfig, SocketRuntime};

struct Args {
    family: String,
    n: usize,
    f: usize,
    graph_seed: u64,
    seed: u64,
    wall: u64,
    node: Option<u64>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            family: "k-diamond".into(),
            n: 16,
            f: 1,
            graph_seed: 11,
            seed: 0,
            wall: 120,
            node: None,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--family" => args.family = value("--family")?,
            "--n" => args.n = value("--n")?.parse().map_err(|e| format!("--n: {e}"))?,
            "--f" => args.f = value("--f")?.parse().map_err(|e| format!("--f: {e}"))?,
            "--graph-seed" => {
                args.graph_seed = value("--graph-seed")?
                    .parse()
                    .map_err(|e| format!("--graph-seed: {e}"))?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--wall" => {
                args.wall = value("--wall")?
                    .parse()
                    .map_err(|e| format!("--wall: {e}"))?
            }
            "--node" => {
                args.node = Some(
                    value("--node")?
                        .parse()
                        .map_err(|e| format!("--node: {e}"))?,
                )
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn family_of(name: &str, n: usize, f: usize) -> Result<GraphFamily, String> {
    Ok(match name {
        "k-diamond" => GraphFamily::k_diamond(n, f),
        "erdos-renyi" => GraphFamily::erdos_renyi(n, f),
        "ring-of-cliques" => GraphFamily::ring_of_cliques(n, f),
        "scale-free" => GraphFamily::scale_free(n, f),
        "bridged-partition" => GraphFamily::bridged_partition(n, f),
        other => return Err(format!("unknown graph family {other}")),
    })
}

/// Every process derives the same scenario from the same arguments — the
/// topology and the protocol knobs are part of the cell's configuration,
/// not shipped over a wire. The socket runtime reads the tick-denominated
/// knobs as milliseconds: a 100 ms discovery period, and a 4 s view
/// timeout so that real scheduling and TCP jitter cannot trigger spurious
/// view changes.
fn cell_scenario(args: &Args) -> Result<Scenario, String> {
    let family = family_of(&args.family, args.n, args.f)?;
    let sample = family
        .generate(args.graph_seed)
        .map_err(|e| format!("{}: {e:?}", family.label()))?;
    Ok(Scenario {
        discovery_period: 100,
        view_timeout_base: 4_000,
        ..Scenario::new(sample.system.graph, ProtocolMode::KnownThreshold(args.f))
            .with_seed(args.seed)
    })
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err(format!("odd hex length {}", s.len()));
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).map_err(|e| format!("bad hex: {e}")))
        .collect()
}

// ---- node process ----

fn run_node(args: &Args, id: u64) -> Result<(), String> {
    let scenario = cell_scenario(args)?;
    let id = ProcessId::new(id);
    if !scenario.graph.contains_vertex(id) {
        return Err(format!("process {id} is not a vertex of the cell graph"));
    }
    let setup = SystemSetup::new(&scenario.graph);
    let board: Board<Vec<u8>> = Board::new();

    let stop = Arc::new(AtomicBool::new(false));
    let mut rt: SocketRuntime<bft_cupft::core::NodeMsg> = SocketRuntime::new(SocketConfig {
        wall_timeout: Duration::from_secs(args.wall),
        ..SocketConfig::default()
    })
    .map_err(|e| format!("bind listener: {e}"))?;
    rt.add_actor(scenario.actor_for(&setup, id, &board, None));

    println!("ADDR {} {}", id.raw(), rt.local_addr());
    io::stdout().flush().map_err(|e| e.to_string())?;

    // Peer book arrives on stdin, terminated by GO.
    loop {
        let mut line = String::new();
        if io::stdin()
            .read_line(&mut line)
            .map_err(|e| format!("stdin: {e}"))?
            == 0
        {
            return Err("stdin closed before GO".into());
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("PEER") => {
                let peer: u64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("malformed PEER line: {line}"))?;
                let addr: SocketAddr = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("malformed PEER line: {line}"))?;
                rt.register_peer(ProcessId::new(peer), PeerAddr::Tcp(addr));
            }
            Some("GO") => break,
            _ => return Err(format!("unexpected control line: {line}")),
        }
    }

    // After GO, stdin carries only STOP (or EOF if the coordinator died);
    // either way the run must end. The watcher takes its own stdin handle
    // — the GO loop above is done with it before this thread starts.
    {
        let stop = stop.clone();
        thread::spawn(move || {
            loop {
                let mut line = String::new();
                match io::stdin().read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) if line.trim() == "STOP" => break,
                    Ok(_) => continue,
                }
            }
            stop.store(true, Ordering::SeqCst);
        });
    }

    // The polled closure reports the decision (once) and ends the run only
    // on the stop flag — the node keeps serving gossip for slower peers.
    let mut announced = false;
    rt.run_until_stopped(&mut || {
        if !announced {
            if let Some(bytes) = board.snapshot().remove(&id) {
                println!("DECIDED {} {}", id.raw(), hex(&bytes));
                let _ = io::stdout().flush();
                announced = true;
            }
        }
        stop.load(Ordering::SeqCst)
    });
    Ok(())
}

// ---- coordinator ----

enum Event {
    Line(usize, String),
    Eof(usize),
}

struct Cell {
    children: Vec<Child>,
    ids: Vec<ProcessId>,
    events: mpsc::Receiver<Event>,
}

impl Cell {
    fn spawn(args: &Args, ids: &[ProcessId]) -> Result<Cell, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let (tx, events) = mpsc::channel::<Event>();
        let mut children = Vec::new();
        for (slot, id) in ids.iter().enumerate() {
            let mut child = Command::new(&exe)
                .args([
                    "--family",
                    &args.family,
                    "--n",
                    &args.n.to_string(),
                    "--f",
                    &args.f.to_string(),
                    "--graph-seed",
                    &args.graph_seed.to_string(),
                    "--wall",
                    &args.wall.to_string(),
                    "--node",
                    &id.raw().to_string(),
                ])
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("spawn node {id}: {e}"))?;
            let stdout = child.stdout.take().expect("piped stdout");
            let tx = tx.clone();
            thread::spawn(move || {
                for line in BufReader::new(stdout).lines() {
                    match line {
                        Ok(l) => {
                            if tx.send(Event::Line(slot, l)).is_err() {
                                return;
                            }
                        }
                        Err(_) => break,
                    }
                }
                let _ = tx.send(Event::Eof(slot));
            });
            children.push(child);
        }
        Ok(Cell {
            children,
            ids: ids.to_vec(),
            events,
        })
    }

    /// Sends one control line to every child's stdin.
    fn broadcast(&mut self, line: &str) {
        for child in &mut self.children {
            if let Some(stdin) = child.stdin.as_mut() {
                let _ = writeln!(stdin, "{line}");
                let _ = stdin.flush();
            }
        }
    }

    fn kill_all(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Collects one `<verb> <id> <rest>` report from every child, keyed by
    /// process ID. Fails on timeout, a child exiting early, or garbage.
    fn collect(
        &mut self,
        verb: &str,
        deadline: Instant,
    ) -> Result<BTreeMap<ProcessId, String>, String> {
        let mut got: BTreeMap<ProcessId, String> = BTreeMap::new();
        while got.len() < self.ids.len() {
            let wait = deadline.saturating_duration_since(Instant::now());
            if wait.is_zero() {
                return Err(format!(
                    "timed out waiting for {verb}: have {}/{}",
                    got.len(),
                    self.ids.len()
                ));
            }
            match self.events.recv_timeout(wait) {
                Ok(Event::Line(slot, line)) => {
                    let mut parts = line.split_whitespace();
                    if parts.next() != Some(verb) {
                        return Err(format!(
                            "node {} sent {line:?}, wanted {verb}",
                            self.ids[slot]
                        ));
                    }
                    let id: u64 = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| format!("malformed report: {line}"))?;
                    let rest = parts.next().unwrap_or_default().to_string();
                    got.insert(ProcessId::new(id), rest);
                }
                Ok(Event::Eof(slot)) => {
                    return Err(format!("node {} exited before {verb}", self.ids[slot]));
                }
                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err("all node readers gone".into());
                }
            }
        }
        Ok(got)
    }
}

fn run_coordinator(args: &Args) -> Result<(), String> {
    let scenario = cell_scenario(args)?;
    let ids: Vec<ProcessId> = scenario.graph.vertices().collect();
    let family = family_of(&args.family, args.n, args.f)?;

    // Ground truth: the deterministic simulator on the identical scenario.
    let sim = scenario.run_on(RuntimeKind::Sim);
    if !sim.check().consensus_solved() {
        return Err(format!(
            "simulator did not solve {} — not a valid parity cell: {:?}",
            family.label(),
            sim.decisions
        ));
    }

    let mut cell = Cell::spawn(args, &ids)?;
    let result = drive(args, &mut cell, &sim.decisions);
    if result.is_err() {
        cell.kill_all();
    }
    let (family_label, n) = (family.label(), ids.len());
    result?;

    // Orderly shutdown: every child saw STOP; require clean exits.
    for (child, id) in cell.children.iter_mut().zip(&cell.ids) {
        let status = child.wait().map_err(|e| format!("wait node {id}: {e}"))?;
        if !status.success() {
            return Err(format!("node {id} exited with {status}"));
        }
    }
    println!("SOCKET PARITY OK family={family_label} n={n}");
    Ok(())
}

/// The coordinator's run phase: address collection, peer-book broadcast,
/// decision collection, parity check, STOP.
fn drive(
    args: &Args,
    cell: &mut Cell,
    expected: &BTreeMap<ProcessId, Option<Vec<u8>>>,
) -> Result<(), String> {
    let addrs = cell.collect("ADDR", Instant::now() + Duration::from_secs(30))?;
    if addrs.len() != cell.ids.len() {
        return Err("address book incomplete".into());
    }
    for (slot, id) in cell.ids.clone().iter().enumerate() {
        let stdin = cell.children[slot].stdin.as_mut().expect("piped stdin");
        for (peer, addr) in &addrs {
            if peer != id {
                writeln!(stdin, "PEER {} {}", peer.raw(), addr)
                    .map_err(|e| format!("peer book to node {id}: {e}"))?;
            }
        }
        writeln!(stdin, "GO").map_err(|e| format!("GO to node {id}: {e}"))?;
        stdin.flush().map_err(|e| e.to_string())?;
    }

    let decided = cell.collect("DECIDED", Instant::now() + Duration::from_secs(args.wall))?;
    cell.broadcast("STOP");

    let mut socket_decisions: BTreeMap<ProcessId, Option<Vec<u8>>> = BTreeMap::new();
    for (id, hexval) in decided {
        socket_decisions.insert(id, Some(unhex(&hexval)?));
    }
    if &socket_decisions != expected {
        return Err(format!(
            "decision parity violated:\n  socket: {socket_decisions:?}\n  sim:    {expected:?}"
        ));
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("socket_cell: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.node {
        Some(id) => run_node(&args, id),
        None => run_coordinator(&args),
    };
    if let Err(e) = result {
        eprintln!("socket_cell: {e}");
        std::process::exit(1);
    }
}
