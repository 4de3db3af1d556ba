//! Real-socket runtime: the same actors over loopback (or LAN) TCP.
//!
//! The third [`Runtime`] substrate. Where the simulator models channels as
//! an event queue and the threaded runtime as crossbeam channels, this one
//! opens genuine TCP connections and speaks the versioned wire format of
//! [`cupft_wire`]: every send — including sends between two actors hosted
//! by the *same* runtime — is encoded, framed
//! ([`cupft_wire::frame`]), written to a socket, read back, and decoded
//! before delivery. A single-process socket run therefore exercises the
//! full codec path end to end, and a multi-process run (one runtime per OS
//! process, peers registered via [`Runtime::register_peer`] with
//! [`PeerAddr::Tcp`] addresses) is a real distributed deployment of the
//! protocol stack.
//!
//! # Topology
//!
//! Each runtime owns one [`TcpListener`], bound at construction so the
//! address can be published *before* the run starts (the multi-process
//! driver collects every node's address, then distributes the complete
//! peer book). Outbound traffic runs through a per-destination-address
//! connection pool: one writer thread per remote address, owning the
//! `TcpStream` and reconnecting with bounded retries on failure. Inbound
//! traffic runs through an accept loop spawning one reader thread per
//! connection; readers decode `from ‖ to ‖ msg` frames and deliver into
//! the destination actor's inbox.
//!
//! # Tamper discipline
//!
//! A [`Tamper`], when installed, is consulted **at send time, on the
//! sending actor's thread, under one shared lock** — so it sees each
//! message exactly once, with one `&mut` state, and per-sender emission
//! order is exactly the order the actor emitted (an actor's sends are
//! sequential on its own thread). This is the same observable contract the
//! threaded runtime's serialized tamper shard provides. `Fate::Drop`
//! discards the frame before it touches a socket; `Fate::Delay` routes the
//! already-encoded frame through a delay wheel thread that forwards it to
//! the connection pool when due.
//!
//! Like the threaded runtime, socket interleaving is wall-clock real and
//! inherently nondeterministic — use [`crate::sim::Simulation`] for
//! reproducible experiments and this runtime to validate that the
//! protocols survive a real network stack and codec.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use cupft_graph::ProcessId;
use cupft_wire::frame::{frame, read_frame, FrameIoError};
use cupft_wire::{Decode, Encode, Reader};
use parking_lot::Mutex;

use crate::actor::{Actor, Labeled};
use crate::host::{actor_loop, admit, supervise, Egress, Wheel};
use crate::runtime::{PeerAddr, Runtime, RuntimeReport};
use crate::stats::NetStats;
use crate::tamper::Tamper;
use crate::Time;

/// Configuration for the socket runtime.
#[derive(Debug, Clone)]
pub struct SocketConfig {
    /// Address the runtime's listener binds to. Port 0 (the default,
    /// `127.0.0.1:0`) asks the OS for an ephemeral port; read the actual
    /// address back with [`SocketRuntime::local_addr`].
    pub bind: SocketAddr,
    /// Wall-clock budget for the run.
    pub wall_timeout: Duration,
    /// External stop signal, same contract as
    /// [`crate::ThreadedConfig::stop`].
    pub stop: Option<Arc<AtomicBool>>,
    /// Reconnect attempts a writer makes per frame before giving the
    /// frame up (connections are retried afresh for the next frame).
    pub connect_retries: u32,
    /// Base backoff between reconnect attempts (scaled linearly by the
    /// attempt number).
    pub retry_backoff: Duration,
}

impl Default for SocketConfig {
    fn default() -> Self {
        SocketConfig {
            bind: SocketAddr::from(([127, 0, 0, 1], 0)),
            wall_timeout: Duration::from_secs(10),
            stop: None,
            connect_retries: 20,
            retry_backoff: Duration::from_millis(10),
        }
    }
}

/// Send-side shared state: the tamper and the stats, under one lock so a
/// send's accounting and its disposition are atomic and the tamper keeps
/// single-`&mut` semantics across all sending threads.
struct Gate<M> {
    tamper: Option<Box<dyn Tamper<M>>>,
    stats: NetStats,
}

/// A tamper-delayed, already-encoded frame on its way to the delay wheel:
/// due instant, destination address, frame bytes.
type Delayed = (Instant, SocketAddr, Vec<u8>);

/// Per-destination-address writer pool. One writer thread per remote
/// address owns the `TcpStream`, writes pre-framed bytes, and reconnects
/// with bounded linear backoff when a write fails.
struct ConnPool {
    conns: Mutex<HashMap<SocketAddr, Sender<Vec<u8>>>>,
    handles: Mutex<Vec<thread::JoinHandle<()>>>,
    shutdown: Arc<AtomicBool>,
    retries: u32,
    backoff: Duration,
}

impl ConnPool {
    fn new(shutdown: Arc<AtomicBool>, config: &SocketConfig) -> Self {
        ConnPool {
            conns: Mutex::new(HashMap::new()),
            handles: Mutex::new(Vec::new()),
            shutdown,
            retries: config.connect_retries,
            backoff: config.retry_backoff,
        }
    }

    /// Enqueues a pre-framed message for `addr`, spawning the writer on
    /// first use.
    fn send_to(&self, addr: SocketAddr, bytes: Vec<u8>) {
        let tx = {
            let mut conns = self.conns.lock();
            match conns.get(&addr) {
                Some(tx) => tx.clone(),
                None => {
                    let (tx, rx) = unbounded::<Vec<u8>>();
                    let shutdown = self.shutdown.clone();
                    let retries = self.retries;
                    let backoff = self.backoff;
                    self.handles.lock().push(thread::spawn(move || {
                        writer_loop(addr, rx, shutdown, retries, backoff)
                    }));
                    conns.insert(addr, tx.clone());
                    tx
                }
            }
        };
        let _ = tx.send(bytes);
    }

    /// Closes every connection: drops the writer senders (each writer
    /// drains its queue, then exits and closes its stream) and joins the
    /// writer threads.
    fn close(&self) {
        self.conns.lock().clear();
        let handles = std::mem::take(&mut *self.handles.lock());
        for handle in handles {
            handle.join().expect("socket writer panicked");
        }
    }
}

/// One writer thread's loop: write each queued frame, reconnecting with
/// bounded linear backoff on failure. A frame whose retries are exhausted
/// is discarded — the wall timeout bounds how long a run can spend
/// retrying, and the threaded runtime likewise discards in-flight
/// messages at shutdown. Exits (flushing the queue) when the pool drops
/// its sender.
fn writer_loop(
    addr: SocketAddr,
    rx: Receiver<Vec<u8>>,
    shutdown: Arc<AtomicBool>,
    retries: u32,
    backoff: Duration,
) {
    let mut stream: Option<TcpStream> = None;
    while let Ok(bytes) = rx.recv() {
        let mut attempt = 0u32;
        loop {
            if stream.is_none() {
                if let Ok(s) = TcpStream::connect(addr) {
                    let _ = s.set_nodelay(true);
                    stream = Some(s);
                }
            }
            if let Some(s) = stream.as_mut() {
                if s.write_all(&bytes).is_ok() {
                    break;
                }
                stream = None;
            }
            if attempt >= retries || shutdown.load(Ordering::SeqCst) {
                break;
            }
            attempt += 1;
            thread::sleep(backoff * attempt);
        }
    }
    if let Some(s) = stream {
        let _ = s.shutdown(Shutdown::Both);
    }
}

/// The delay wheel thread: holds tamper-delayed frames until due, then
/// forwards them to the connection pool. Pending frames are discarded
/// when the runtime shuts down (same as the threaded router discarding
/// its delay wheel).
fn delay_loop(rx: Receiver<Delayed>, pool: Arc<ConnPool>) {
    let mut wheel: Wheel<Instant, (SocketAddr, Vec<u8>)> = Wheel::new();
    loop {
        let now = Instant::now();
        while let Some((_, (addr, bytes))) = wheel.pop_due(now) {
            pool.send_to(addr, bytes);
        }
        let wait = wheel
            .next_key()
            .map(|due| due.saturating_duration_since(now))
            .unwrap_or(Duration::from_millis(50))
            .min(Duration::from_millis(50));
        match rx.recv_timeout(wait) {
            Ok((due, addr, bytes)) => wheel.push(due, (addr, bytes)),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// The actor-side send handle: encode, account, tamper, route.
struct SocketTx<M> {
    gate: Arc<Mutex<Gate<M>>>,
    routes: Arc<HashMap<ProcessId, SocketAddr>>,
    pool: Arc<ConnPool>,
    delay: Sender<Delayed>,
    halt: Sender<ProcessId>,
    start: Instant,
}

impl<M> Clone for SocketTx<M> {
    fn clone(&self) -> Self {
        SocketTx {
            gate: self.gate.clone(),
            routes: self.routes.clone(),
            pool: self.pool.clone(),
            delay: self.delay.clone(),
            halt: self.halt.clone(),
            start: self.start,
        }
    }
}

impl<M: Labeled + Encode> Egress<M> for SocketTx<M> {
    fn send(&self, from: ProcessId, to: ProcessId, msg: M) {
        let label = msg.label();
        let payload = msg.payload_units();
        let now = || self.start.elapsed().as_millis() as Time;
        // Accounting and disposition are atomic under the gate lock; the
        // sending thread is the actor's own, so per-sender emission order
        // at the tamper is the actor's program order.
        let admitted = {
            let mut gate = self.gate.lock();
            let Gate { tamper, stats } = &mut *gate;
            admit(stats, tamper, from, to, label, payload, now)
        };
        let Some(extra) = admitted else {
            return;
        };
        // Sends to processes the route table does not know go nowhere —
        // the socket analogue of the simulator discarding events for
        // unknown actors.
        let Some(&addr) = self.routes.get(&to) else {
            return;
        };
        let mut inner = Vec::new();
        from.encode(&mut inner);
        to.encode(&mut inner);
        msg.encode(&mut inner);
        let bytes = frame(&inner);
        if extra == 0 {
            self.pool.send_to(addr, bytes);
        } else {
            let due = Instant::now() + Duration::from_millis(extra);
            let _ = self.delay.send((due, addr, bytes));
        }
    }

    fn halted(&self, id: ProcessId) {
        let _ = self.halt.send(id);
    }
}

/// Receive-side dispatch: decode a frame's `from ‖ to ‖ msg` payload and
/// deliver into the destination inbox.
struct Dispatch<M> {
    inboxes: HashMap<ProcessId, Sender<(ProcessId, M)>>,
    gate: Arc<Mutex<Gate<M>>>,
}

impl<M: Labeled + Decode> Dispatch<M> {
    /// Returns `Err` on a malformed payload, which drops the connection —
    /// a peer that desyncs the stream cannot be resynchronized.
    fn dispatch(&self, payload: &[u8]) -> Result<(), cupft_wire::WireError> {
        let mut r = Reader::new(payload);
        let from = ProcessId::decode(&mut r)?;
        let to = ProcessId::decode(&mut r)?;
        let msg = M::decode(&mut r)?;
        r.finish()?;
        if let Some(tx) = self.inboxes.get(&to) {
            let payload_units = msg.payload_units();
            if tx.send((from, msg)).is_ok() {
                self.gate.lock().stats.record_delivery(payload_units);
            }
        }
        Ok(())
    }
}

/// One reader thread's loop: framed reads until clean EOF, a stream
/// error, or a malformed frame.
fn reader_loop<M: Labeled + Decode>(stream: TcpStream, dispatch: Arc<Dispatch<M>>) {
    let mut reader = BufReader::new(stream);
    loop {
        match read_frame(&mut reader) {
            Ok(Some(payload)) => {
                if dispatch.dispatch(&payload).is_err() {
                    break;
                }
            }
            Ok(None) => break,
            Err(FrameIoError::Io(_)) | Err(FrameIoError::Wire(_)) => break,
        }
    }
}

/// The accept loop: polls the (nonblocking) listener, spawning a reader
/// thread per inbound connection; keeps a clone of every accepted stream
/// so shutdown can force-close them and join the readers even if a peer
/// never closes its end.
struct AcceptTask<M> {
    listener: TcpListener,
    dispatch: Arc<Dispatch<M>>,
    shutdown: Arc<AtomicBool>,
    accepted: Arc<Mutex<Vec<TcpStream>>>,
}

fn accept_loop<M: Labeled + Decode + Send + 'static>(
    task: AcceptTask<M>,
) -> Vec<thread::JoinHandle<()>> {
    let mut readers = Vec::new();
    task.listener
        .set_nonblocking(true)
        .expect("listener nonblocking");
    loop {
        if task.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match task.listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false).expect("stream blocking");
                let _ = stream.set_nodelay(true);
                if let Ok(clone) = stream.try_clone() {
                    task.accepted.lock().push(clone);
                }
                let dispatch = task.dispatch.clone();
                readers.push(thread::spawn(move || reader_loop(stream, dispatch)));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
    readers
}

/// The real-socket [`Runtime`]: each actor on its own thread, every send
/// encoded and carried over TCP — loopback within one OS process, real
/// peers across processes via [`Runtime::register_peer`].
///
/// Lifecycle mirrors the trait contract: [`Runtime::add_actor`] (and
/// `register_peer`) before the run, one [`Runtime::run_until_stopped`],
/// then post-run inspection via [`Runtime::actor_as`]. A second run
/// request returns the recorded report unchanged.
pub struct SocketRuntime<M> {
    config: SocketConfig,
    listener: TcpListener,
    local_addr: SocketAddr,
    pending: Vec<Box<dyn Actor<M>>>,
    finished: BTreeMap<ProcessId, Box<dyn Actor<M>>>,
    book: HashMap<ProcessId, SocketAddr>,
    stats: NetStats,
    last_report: Option<RuntimeReport>,
    elapsed: Duration,
    tamper: Option<Box<dyn Tamper<M>>>,
}

impl<M> SocketRuntime<M> {
    /// Creates a runtime and binds its listener, so
    /// [`Self::local_addr`] is publishable before the run starts.
    pub fn new(config: SocketConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(config.bind)?;
        let local_addr = listener.local_addr()?;
        Ok(SocketRuntime {
            config,
            listener,
            local_addr,
            pending: Vec::new(),
            finished: BTreeMap::new(),
            book: HashMap::new(),
            stats: NetStats::default(),
            last_report: None,
            elapsed: Duration::ZERO,
            tamper: None,
        })
    }

    /// The actual bound address of this runtime's listener (resolves the
    /// ephemeral port when [`SocketConfig::bind`] used port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Wall-clock duration of the completed run.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Consumes the runtime, returning the actors in their final states.
    pub fn into_actors(self) -> BTreeMap<ProcessId, Box<dyn Actor<M>>> {
        self.finished
    }
}

impl<M> Runtime<M> for SocketRuntime<M>
where
    M: Clone + Send + Labeled + Encode + Decode + 'static,
{
    fn name(&self) -> &'static str {
        "socket"
    }

    fn add_actor(&mut self, actor: Box<dyn Actor<M>>) {
        assert!(
            self.last_report.is_none(),
            "SocketRuntime actors must be registered before the run"
        );
        let id = actor.id();
        assert!(
            self.pending.iter().all(|a| a.id() != id),
            "duplicate actor {id}"
        );
        assert!(
            !self.book.contains_key(&id),
            "actor {id} already registered as a remote peer"
        );
        self.pending.push(actor);
    }

    fn set_tamper(&mut self, tamper: Box<dyn Tamper<M>>) {
        assert!(
            self.last_report.is_none(),
            "SocketRuntime tamper must be installed before the run"
        );
        self.tamper = Some(tamper);
    }

    fn register_peer(&mut self, id: ProcessId, addr: PeerAddr) {
        assert!(
            self.last_report.is_none(),
            "SocketRuntime peers must be registered before the run"
        );
        let PeerAddr::Tcp(addr) = addr else {
            panic!("socket runtime peers need TCP addresses, got {addr}");
        };
        assert!(
            self.pending.iter().all(|a| a.id() != id),
            "process {id} is a local actor, not a remote peer"
        );
        self.book.insert(id, addr);
    }

    fn addr_of(&self, id: ProcessId) -> Option<PeerAddr> {
        if self.pending.iter().any(|a| a.id() == id) || self.finished.contains_key(&id) {
            return Some(PeerAddr::Tcp(self.local_addr));
        }
        self.book.get(&id).map(|&addr| PeerAddr::Tcp(addr))
    }

    fn run_until_stopped(&mut self, stop: &mut dyn FnMut() -> bool) -> RuntimeReport {
        // Already ran: report the recorded outcome unchanged.
        if let Some(report) = &self.last_report {
            return report.clone();
        }
        let start = Instant::now();
        let shutdown = Arc::new(AtomicBool::new(false));
        let actors = std::mem::take(&mut self.pending);

        // Route table: local actors through our own listener (every send
        // rides TCP, so the codec is always exercised), remote peers from
        // the registered book.
        let mut routes: HashMap<ProcessId, SocketAddr> = self.book.clone();
        for actor in &actors {
            routes.insert(actor.id(), self.local_addr);
        }
        let routes = Arc::new(routes);

        let gate = Arc::new(Mutex::new(Gate {
            tamper: self.tamper.take(),
            stats: NetStats::default(),
        }));
        let pool = Arc::new(ConnPool::new(shutdown.clone(), &self.config));
        let (delay_tx, delay_rx) = unbounded::<Delayed>();
        let (halt_tx, halt_rx) = unbounded::<ProcessId>();

        let mut inboxes: HashMap<ProcessId, Sender<(ProcessId, M)>> = HashMap::new();
        let mut actor_rxs = Vec::new();
        for actor in &actors {
            let (tx, rx) = bounded::<(ProcessId, M)>(4096);
            inboxes.insert(actor.id(), tx);
            actor_rxs.push(rx);
        }
        let dispatch = Arc::new(Dispatch {
            inboxes,
            gate: gate.clone(),
        });

        let accepted = Arc::new(Mutex::new(Vec::new()));
        let accept_handle = {
            let task = AcceptTask {
                listener: self.listener.try_clone().expect("listener clone"),
                dispatch: dispatch.clone(),
                shutdown: shutdown.clone(),
                accepted: accepted.clone(),
            };
            thread::spawn(move || accept_loop(task))
        };
        let delay_handle = {
            let pool = pool.clone();
            thread::spawn(move || delay_loop(delay_rx, pool))
        };

        let tx = SocketTx {
            gate: gate.clone(),
            routes,
            pool: pool.clone(),
            delay: delay_tx,
            halt: halt_tx,
            start,
        };
        let mut actor_handles = Vec::new();
        for (actor, rx) in actors.into_iter().zip(actor_rxs) {
            let tx = tx.clone();
            let shutdown = shutdown.clone();
            actor_handles.push(thread::spawn(move || {
                actor_loop(actor, rx, tx, &shutdown, start)
            }));
        }
        drop(tx);

        // Coordinator: only local halts are tracked. Remote peers are not
        // ours to track — a multi-process driver coordinates global
        // completion out of band.
        let (all_halted, stopped) = supervise(
            dispatch.inboxes.keys().copied().collect(),
            &halt_rx,
            stop,
            self.config.stop.as_deref(),
            start + self.config.wall_timeout,
        );

        // Shutdown: stop actors first (no new sends), retire the delay
        // wheel, close outbound connections, then force-close accepted
        // streams so readers unblock even if a remote never closes its
        // end, and join everything.
        shutdown.store(true, Ordering::SeqCst);
        let mut timers_fired = 0;
        for handle in actor_handles {
            let (actor, fired) = handle.join().expect("socket actor panicked");
            timers_fired += fired;
            self.finished.insert(actor.id(), actor);
        }
        drop(dispatch);
        pool.close();
        for stream in accepted.lock().drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let readers = accept_handle.join().expect("accept loop panicked");
        for reader in readers {
            reader.join().expect("socket reader panicked");
        }
        delay_handle.join().expect("delay wheel panicked");

        self.stats = gate.lock().stats.clone();
        self.stats.timers_fired += timers_fired;
        self.elapsed = start.elapsed();
        let report = RuntimeReport {
            all_halted,
            stopped,
            end_time: self.elapsed.as_millis() as Time,
            events: self.stats.messages_delivered,
            stats: self.stats.clone(),
            obs: None,
        };
        self.last_report = Some(report.clone());
        report
    }

    fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn actor_ids(&self) -> Vec<ProcessId> {
        let mut ids: Vec<ProcessId> = self.finished.keys().copied().collect();
        ids.extend(self.pending.iter().map(|a| a.id()));
        ids.sort_unstable();
        ids
    }

    fn actor_dyn(&self, id: ProcessId) -> Option<&dyn Actor<M>> {
        self.finished.get(&id).map(|b| b.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::Context;
    use crate::tamper::Fate;
    use crate::threaded::Board;
    use cupft_wire::WireError;

    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Msg {
        Ping,
        Pong,
    }
    impl Labeled for Msg {
        fn label(&self) -> &'static str {
            match self {
                Msg::Ping => "PING",
                Msg::Pong => "PONG",
            }
        }
    }
    impl Encode for Msg {
        fn encode(&self, out: &mut Vec<u8>) {
            out.push(match self {
                Msg::Ping => 0,
                Msg::Pong => 1,
            });
        }
    }
    impl Decode for Msg {
        fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
            match r.u8()? {
                0 => Ok(Msg::Ping),
                1 => Ok(Msg::Pong),
                tag => Err(WireError::BadTag { ty: "Msg", tag }),
            }
        }
    }

    struct Node {
        id: ProcessId,
        peer: ProcessId,
        initiator: bool,
        board: Board<bool>,
        got_reply: bool,
    }

    impl Actor<Msg> for Node {
        fn id(&self) -> ProcessId {
            self.id
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn on_start(&mut self, ctx: &mut Context<Msg>) {
            if self.initiator {
                ctx.send(self.peer, Msg::Ping);
            } else {
                // Replier never halts on its own; poll a long timer so the
                // loop stays responsive to shutdown.
                ctx.set_timer(1, 10_000);
            }
        }
        fn on_message(&mut self, from: ProcessId, msg: Msg, ctx: &mut Context<Msg>) {
            match msg {
                Msg::Ping => ctx.send(from, Msg::Pong),
                Msg::Pong => {
                    self.got_reply = true;
                    self.board.publish(self.id, true);
                    ctx.halt();
                }
            }
        }
    }

    fn pingpong_runtime() -> (SocketRuntime<Msg>, Board<bool>) {
        let board = Board::new();
        let mut rt: SocketRuntime<Msg> = SocketRuntime::new(SocketConfig::default()).expect("bind");
        rt.add_actor(Box::new(Node {
            id: ProcessId::new(1),
            peer: ProcessId::new(2),
            initiator: true,
            board: board.clone(),
            got_reply: false,
        }));
        rt.add_actor(Box::new(Node {
            id: ProcessId::new(2),
            peer: ProcessId::new(1),
            initiator: false,
            board: board.clone(),
            got_reply: false,
        }));
        (rt, board)
    }

    #[test]
    fn pingpong_over_loopback_tcp() {
        let (mut rt, board) = pingpong_runtime();
        assert_eq!(Runtime::<Msg>::name(&rt), "socket");
        let report = rt.run_until_stopped(&mut || !board.is_empty());
        assert!(report.stopped || report.all_halted);
        assert_eq!(report.stats.label_count("PING"), 1);
        assert_eq!(report.stats.label_count("PONG"), 1);
        let initiator: &Node = rt.actor_as(ProcessId::new(1)).expect("inspectable");
        assert!(initiator.got_reply);
        // Second run request returns the recorded report unchanged.
        let again = rt.run_to_completion();
        assert_eq!(again, report);
    }

    #[test]
    fn tamper_drop_starves_the_exchange() {
        struct DropPings;
        impl Tamper<Msg> for DropPings {
            fn disposition(
                &mut self,
                _from: ProcessId,
                _to: ProcessId,
                label: &'static str,
                _now: Time,
            ) -> Fate {
                if label == "PING" {
                    Fate::Drop
                } else {
                    Fate::Deliver
                }
            }
        }
        let (mut rt, board) = pingpong_runtime();
        rt.config.wall_timeout = Duration::from_millis(400);
        rt.set_tamper(Box::new(DropPings));
        let report = rt.run_until_stopped(&mut || !board.is_empty());
        assert!(!report.stopped);
        assert_eq!(report.stats.label_count("PING"), 1);
        assert_eq!(report.stats.messages_dropped, 1);
        assert_eq!(report.stats.label_count("PONG"), 0);
        let initiator: &Node = rt.actor_as(ProcessId::new(1)).expect("inspectable");
        assert!(!initiator.got_reply);
    }

    #[test]
    fn tamper_delay_defers_but_delivers() {
        struct DelayPings;
        impl Tamper<Msg> for DelayPings {
            fn disposition(
                &mut self,
                _from: ProcessId,
                _to: ProcessId,
                label: &'static str,
                _now: Time,
            ) -> Fate {
                if label == "PING" {
                    Fate::Delay(120)
                } else {
                    Fate::Deliver
                }
            }
        }
        let (mut rt, board) = pingpong_runtime();
        rt.set_tamper(Box::new(DelayPings));
        let started = Instant::now();
        let report = rt.run_until_stopped(&mut || !board.is_empty());
        assert!(report.stopped || report.all_halted);
        assert!(started.elapsed() >= Duration::from_millis(120));
        assert_eq!(report.stats.label_count("PONG"), 1);
    }

    #[test]
    fn empty_roster_is_all_halted_at_once() {
        // Same rule as the threaded coordinator: with no local actors,
        // "every local actor halted" holds vacuously.
        let mut rt: SocketRuntime<Msg> = SocketRuntime::new(SocketConfig::default()).expect("bind");
        let report = rt.run_to_completion();
        assert!(report.all_halted, "no actors: vacuously all halted");
        assert!(!report.stopped);
        assert!(rt.elapsed() < SocketConfig::default().wall_timeout);
    }

    #[test]
    fn addressing_reports_tcp_for_local_and_registered_peers() {
        let (mut rt, _board) = pingpong_runtime();
        let own = rt.local_addr();
        assert_eq!(
            rt.addr_of(ProcessId::new(1)),
            Some(PeerAddr::Tcp(own)),
            "local actors are reachable at our listener"
        );
        let remote: SocketAddr = "127.0.0.1:45678".parse().unwrap();
        rt.register_peer(ProcessId::new(9), PeerAddr::Tcp(remote));
        assert_eq!(rt.addr_of(ProcessId::new(9)), Some(PeerAddr::Tcp(remote)));
        assert_eq!(rt.addr_of(ProcessId::new(77)), None);
    }

    #[test]
    #[should_panic(expected = "socket runtime peers need TCP addresses")]
    fn registering_a_local_addr_panics() {
        let (mut rt, _board) = pingpong_runtime();
        rt.register_peer(ProcessId::new(9), PeerAddr::Local(ProcessId::new(9)));
    }

    #[test]
    fn two_runtimes_in_one_process_talk_over_registered_peers() {
        // The multi-process shape, in-process: two SocketRuntimes, each
        // hosting one actor, cross-registered by TCP address.
        let board = Board::new();
        let mut a: SocketRuntime<Msg> = SocketRuntime::new(SocketConfig::default()).expect("bind");
        let mut b: SocketRuntime<Msg> = SocketRuntime::new(SocketConfig::default()).expect("bind");
        a.add_actor(Box::new(Node {
            id: ProcessId::new(1),
            peer: ProcessId::new(2),
            initiator: true,
            board: board.clone(),
            got_reply: false,
        }));
        b.add_actor(Box::new(Node {
            id: ProcessId::new(2),
            peer: ProcessId::new(1),
            initiator: false,
            board: board.clone(),
            got_reply: false,
        }));
        a.register_peer(ProcessId::new(2), PeerAddr::Tcp(b.local_addr()));
        b.register_peer(ProcessId::new(1), PeerAddr::Tcp(a.local_addr()));
        let board_b = board.clone();
        let handle = thread::spawn(move || {
            b.run_until_stopped(&mut || !board_b.is_empty());
        });
        let report = a.run_until_stopped(&mut || !board.is_empty());
        handle.join().expect("runtime b panicked");
        assert!(report.stopped || report.all_halted);
        let initiator: &Node = a.actor_as(ProcessId::new(1)).expect("inspectable");
        assert!(initiator.got_reply);
    }
}
