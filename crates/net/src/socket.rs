//! The socket link: the wall-clock runtime's actors over loopback (or
//! LAN) TCP — one runtime, two links; the tamper is consulted on the
//! worker running the sender, and the actors share the runtime's worker
//! pool (no thread per actor).
//!
//! [`SocketRuntime`] is the shared wall-clock runtime over this link.
//! Where the threaded link carries messages through in-memory channels,
//! this one opens genuine TCP connections and speaks the versioned wire
//! format of [`cupft_wire`]: every admitted send — including sends between
//! two actors hosted by the *same* runtime — is encoded, framed
//! ([`cupft_wire::frame`]), written to a socket, read back, and decoded
//! before delivery. A single-process socket run therefore exercises the
//! full codec path end to end, and a multi-process run (one runtime per OS
//! process, peers registered via [`crate::Runtime::register_peer`] with
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
//! connection; readers decode `from ‖ to ‖ msg` frames, deliver into the
//! destination actor's mailbox and count the deliveries. A reader that
//! finds a mailbox full waits for a free slot and stops reading meanwhile,
//! so a slow actor pushes back on its senders through TCP.
//!
//! The worker running the sender has already counted each message and
//! shown it to the tamper: `Fate::Drop` never reaches this link, and a
//! `Fate::Delay` message waits on the worker pool's wheel and is encoded
//! and handed to the connection pool by the worker that finds it due.
//! Every other send is encoded and handed over at once.

use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use cupft_graph::ProcessId;
use cupft_wire::frame::{frame, read_frame};
use cupft_wire::{Decode, Encode, Reader, WireError};

use crate::actor::Labeled;
use crate::host::{Egress, Pool};
use crate::runtime::PeerAddr;
use crate::wall::{Link, WallRuntime};
use crate::Time;

/// Reconnect attempts a writer makes per frame before giving the frame up
/// (connections are retried afresh for the next frame).
const CONNECT_RETRIES: u32 = 20;
/// Base backoff between reconnect attempts (scaled linearly by the
/// attempt number).
const RETRY_BACKOFF: Duration = Duration::from_millis(10);

/// Configuration for the socket runtime.
#[derive(Debug, Clone)]
pub struct SocketConfig {
    /// Address the runtime's listener binds to. Port 0 (the default,
    /// `127.0.0.1:0`) asks the OS for an ephemeral port; read the actual
    /// address back with [`SocketRuntime::local_addr`].
    pub bind: SocketAddr,
    /// Wall-clock budget for the run.
    pub wall_timeout: Duration,
}

impl Default for SocketConfig {
    fn default() -> Self {
        SocketConfig {
            bind: SocketAddr::from(([127, 0, 0, 1], 0)),
            wall_timeout: Duration::from_secs(10),
        }
    }
}

/// The socket link: its configuration, its bound listener, the book of
/// remote peers, and — while a run is on — its writers and accept loop.
pub struct SocketLink {
    config: SocketConfig,
    listener: TcpListener,
    local_addr: SocketAddr,
    book: HashMap<ProcessId, SocketAddr>,
    plane: Option<(Arc<ConnPool>, JoinHandle<Readers>)>,
}

/// Every accepted stream with its reader thread.
type Readers = Vec<(TcpStream, JoinHandle<()>)>;

/// The wall-clock runtime over the socket link: actors on the worker
/// pool, every send encoded and carried over TCP — loopback within one
/// OS process, real peers across processes via [`crate::Runtime::register_peer`].
pub type SocketRuntime<M> = WallRuntime<M, SocketLink>;

impl<M> SocketRuntime<M> {
    /// Creates a runtime and binds its listener, so
    /// [`Self::local_addr`] is publishable before the run starts.
    pub fn new(config: SocketConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(config.bind)?;
        let local_addr = listener.local_addr()?;
        Ok(WallRuntime::over(SocketLink {
            config,
            listener,
            local_addr,
            book: HashMap::new(),
            plane: None,
        }))
    }

    /// The actual bound address of this runtime's listener (resolves the
    /// ephemeral port when [`SocketConfig::bind`] used port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.link.local_addr
    }
}

/// Per-destination-address writer pool. One writer thread per remote
/// address owns the `TcpStream`, writes pre-framed bytes, and reconnects
/// with bounded linear backoff when a write fails.
struct ConnPool {
    conns: Mutex<HashMap<SocketAddr, Sender<Vec<u8>>>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    shutdown: Arc<AtomicBool>,
}

impl ConnPool {
    /// Enqueues a pre-framed message for `addr`, spawning the writer on
    /// first use.
    fn send_to(&self, addr: SocketAddr, bytes: Vec<u8>) {
        let tx = self
            .conns
            .lock()
            .expect("connection pool poisoned")
            .entry(addr)
            .or_insert_with(|| {
                let (tx, rx) = channel::<Vec<u8>>();
                let shutdown = self.shutdown.clone();
                let writer = thread::spawn(move || writer_loop(addr, rx, &shutdown));
                self.handles
                    .lock()
                    .expect("writer handles poisoned")
                    .push(writer);
                tx
            })
            .clone();
        let _ = tx.send(bytes);
    }

    /// Closes every connection: drops the writer senders (each writer
    /// drains its queue, then exits and closes its stream) and joins the
    /// writer threads.
    fn close(&self) {
        self.conns.lock().expect("connection pool poisoned").clear();
        let handles = std::mem::take(&mut *self.handles.lock().expect("writer handles poisoned"));
        for handle in handles {
            handle.join().expect("socket writer panicked");
        }
    }
}

/// One writer thread's loop: write each queued frame, reconnecting with
/// bounded linear backoff on failure. A frame whose retries are exhausted
/// is discarded — the wall timeout bounds how long a run can spend
/// retrying, and the threaded link likewise discards in-flight messages
/// at shutdown. Exits (flushing the queue) when the pool drops its sender.
fn writer_loop(addr: SocketAddr, rx: Receiver<Vec<u8>>, shutdown: &AtomicBool) {
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
            if attempt >= CONNECT_RETRIES || shutdown.load(Ordering::SeqCst) {
                break;
            }
            attempt += 1;
            thread::sleep(RETRY_BACKOFF * attempt);
        }
    }
    if let Some(s) = stream {
        let _ = s.shutdown(Shutdown::Both);
    }
}

/// The actor-side send handle: encode, frame, route.
#[derive(Clone)]
pub(crate) struct SocketTx {
    routes: Arc<HashMap<ProcessId, SocketAddr>>,
    pool: Arc<ConnPool>,
}

impl<M: Labeled + Encode> Egress<M> for SocketTx {
    /// TCP is the link's own delay: only a tamper's holds a message back.
    fn delay(&self, _: ProcessId, extra: Time) -> Duration {
        Duration::from_millis(extra)
    }

    fn carry(&self, _: &Pool<M>, from: ProcessId, to: ProcessId, msg: M) -> Option<M> {
        // Sends to processes the route table does not know go nowhere —
        // the socket analogue of the simulator discarding events for
        // unknown actors.
        let &addr = self.routes.get(&to)?;
        let mut inner = Vec::new();
        from.encode(&mut inner);
        to.encode(&mut inner);
        msg.encode(&mut inner);
        self.pool.send_to(addr, frame(&inner));
        None
    }
}

/// Decodes a frame's `from ‖ to ‖ msg` payload and delivers it into the
/// destination mailbox, waiting while that is full.
fn dispatch<M: Labeled + Decode>(pool: &Pool<M>, payload: &[u8]) -> Result<(), WireError> {
    let mut r = Reader::new(payload);
    let from = ProcessId::decode(&mut r)?;
    let to = ProcessId::decode(&mut r)?;
    let msg = M::decode(&mut r)?;
    r.finish()?;
    pool.deliver(to, from, msg, true);
    Ok(())
}

/// One reader thread's loop: framed reads until clean EOF, a stream
/// error, or a malformed frame — a peer that desyncs the stream cannot be
/// resynchronized.
fn reader_loop<M: Labeled + Decode>(stream: TcpStream, pool: &Pool<M>) {
    let mut reader = BufReader::new(stream);
    while let Ok(Some(payload)) = read_frame(&mut reader) {
        if dispatch(pool, &payload).is_err() {
            break;
        }
    }
}

/// The accept loop: polls `accept` (a nonblocking listener's), spawning
/// a reader thread per inbound connection, until shutdown. Returns the
/// readers and a clone of every accepted stream, so shutdown can
/// force-close them and join the readers even if a peer never closes its
/// end.
///
/// Every accept error is retried after the same 2 ms pause: besides
/// `WouldBlock`, what accept(2) reports is transient — descriptor
/// pressure (`EMFILE`/`ENFILE`), a connection aborted before it was
/// accepted, the pending network errors it says to retry — and giving up
/// would leave every later inbound connection unread.
fn accept_loop<M: Labeled + Decode + Send + 'static>(
    mut accept: impl FnMut() -> io::Result<TcpStream>,
    pool: &Arc<Pool<M>>,
) -> Readers {
    let mut readers = Vec::new();
    while !pool.shutdown.load(Ordering::SeqCst) {
        let Ok(stream) = accept() else {
            thread::sleep(Duration::from_millis(2));
            continue;
        };
        if stream.set_nonblocking(false).is_err() {
            continue;
        }
        let _ = stream.set_nodelay(true);
        let Ok(clone) = stream.try_clone() else {
            continue;
        };
        let pool = pool.clone();
        let reader = thread::spawn(move || reader_loop(stream, &pool));
        readers.push((clone, reader));
    }
    readers
}

impl<M: Labeled + Encode + Decode + Send + 'static> Link<M> for SocketLink {
    const NAME: &'static str = "socket";
    type Tx = SocketTx;

    fn wall_timeout(&self) -> Duration {
        self.config.wall_timeout
    }

    /// Local actors are routed through our own listener (every send rides
    /// TCP, so the codec is always exercised), remote peers from the
    /// registered book.
    fn open(&mut self, actors: &Arc<Pool<M>>) -> SocketTx {
        let mut routes = self.book.clone();
        routes.extend(actors.ids().map(|id| (id, self.local_addr)));
        let pool = Arc::new(ConnPool {
            conns: Mutex::default(),
            handles: Mutex::default(),
            shutdown: actors.shutdown.clone(),
        });
        let accept = {
            let listener = self.listener.try_clone().expect("listener clone");
            listener
                .set_nonblocking(true)
                .expect("listener nonblocking");
            let actors = actors.clone();
            thread::spawn(move || accept_loop(|| listener.accept().map(|(s, _)| s), &actors))
        };
        self.plane = Some((pool.clone(), accept));
        SocketTx {
            routes: Arc::new(routes),
            pool,
        }
    }

    /// Retires the writers, the accept loop and — after force-closing the
    /// accepted streams, so readers unblock even if a remote never closes
    /// its end — the readers.
    fn close(&mut self) {
        let (pool, accept) = self.plane.take().expect("the link is open");
        // Nothing calls `send_to` after `close`: the workers, its only
        // callers, are joined.
        pool.close();
        let readers = accept.join().expect("accept loop panicked");
        for (stream, reader) in readers {
            let _ = stream.shutdown(Shutdown::Both);
            reader.join().expect("socket reader panicked");
        }
    }

    fn register_peer(&mut self, id: ProcessId, addr: PeerAddr, local: bool) {
        let PeerAddr::Tcp(addr) = addr else {
            panic!("socket runtime peers need TCP addresses, got {addr}");
        };
        assert!(!local, "process {id} is a local actor, not a remote peer");
        self.book.insert(id, addr);
    }

    /// Our own actors are reachable at our listener, registered peers at
    /// their TCP addresses.
    fn addr_of(&self, id: ProcessId, local: bool) -> Option<PeerAddr> {
        let addr = if local {
            Some(self.local_addr)
        } else {
            self.book.get(&id).copied()
        };
        addr.map(PeerAddr::Tcp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Actor, Context};
    use crate::runtime::Runtime;
    use crate::tamper::{Fate, Tamper};
    use crate::threaded::Board;
    use std::time::Instant;

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
    fn empty_roster_is_all_halted_at_once() {
        // Same rule as the threaded link: with no local actors,
        // "every local actor halted" holds vacuously.
        let mut rt: SocketRuntime<Msg> = SocketRuntime::new(SocketConfig::default()).expect("bind");
        let report = rt.run_to_completion();
        assert!(report.all_halted, "no actors: vacuously all halted");
        assert!(!report.stopped);
        assert!(rt.elapsed() < SocketConfig::default().wall_timeout);
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
        rt.link.config.wall_timeout = Duration::from_millis(400);
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

    #[test]
    fn accept_loop_survives_a_transient_accept_error() {
        // One aborted connection, then a real one carrying a PING for
        // actor 2: the loop must keep accepting and deliver it.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        let addr = listener.local_addr().expect("bound");
        let (halts, _) = channel();
        let pool = Arc::new(Pool::new(
            vec![Box::new(Node {
                id: ProcessId::new(2),
                peer: ProcessId::new(1),
                initiator: false,
                board: Board::new(),
                got_reply: false,
            }) as Box<dyn Actor<Msg>>],
            None,
            None,
            halts,
            Instant::now(),
        ));
        let (accepted, on_accept) = channel();
        let mut aborted = false;
        let accept = move || {
            if !std::mem::replace(&mut aborted, true) {
                return Err(io::ErrorKind::ConnectionAborted.into());
            }
            let stream = listener.accept()?.0;
            let _ = accepted.send(());
            Ok(stream)
        };
        let accept_thread = {
            let pool = pool.clone();
            thread::spawn(move || accept_loop(accept, &pool))
        };
        let mut client = TcpStream::connect(addr).expect("connect");
        let mut inner = Vec::new();
        ProcessId::new(1).encode(&mut inner);
        ProcessId::new(2).encode(&mut inner);
        Msg::Ping.encode(&mut inner);
        client.write_all(&frame(&inner)).expect("write");
        drop(client);
        let accepted = on_accept.recv_timeout(Duration::from_secs(5)).is_ok();
        pool.shutdown.store(true, Ordering::SeqCst);
        let readers = accept_thread.join().expect("accept loop panicked");
        assert!(accepted, "the accept loop gave up after ConnectionAborted");
        for (_, reader) in readers {
            reader.join().expect("socket reader panicked");
        }
        let pool = Arc::into_inner(pool).expect("readers joined");
        let (_, stats) = pool.into_actors().next().expect("one actor");
        assert_eq!(stats.messages_delivered, 1);
    }
}
