//! The nonblocking connection reactor and the shard threads it feeds.
//!
//! ## One readiness loop, N engine shards
//!
//! A single reactor thread owns every socket: the listener, a loopback
//! waker, and all client connections, multiplexed through a
//! level-triggered [`Poller`] (raw-syscall epoll on
//! Linux). Each wakeup it drains readable sockets, decodes every
//! complete line, routes requests through [`crate::router`], and hands
//! each shard its whole batch in **one** channel send — so a thousand
//! connections cost one thread plus per-shard engine threads, and a
//! stalled or hostile connection can delay a healthy one's reply by at
//! most the current wakeup's decode work (the regression tests pin
//! this).
//!
//! ## Reply ordering
//!
//! Replies arrive from shards out of order relative to a connection's
//! request stream (different shards, different speeds). Every decoded
//! line gets a per-connection sequence number and replies sit in a
//! reorder buffer until their turn; even reactor-direct errors (parse
//! failures, routing errors) take a sequence number, so a client always
//! reads exactly one reply per line, in the order it sent the lines —
//! the wire contract of the thread-per-connection server, preserved.
//!
//! ## Failover
//!
//! With `ServeConfig::replica` set, the reactor keeps a second handle on
//! each shard engine's [`InputLog`] — the same allocation the engine
//! appends to, not a copy. A shard that dies (the `crash` chaos op)
//! drains its channel back to the reactor, which takes the log out of
//! the handle and promotes it — an exact typed replay, no JSON in
//! between — spawns a fresh shard thread, re-dispatches the drained
//! requests, and carries on; clients observe identical schedules to a
//! run that never crashed. Without a replica the shard's residue class
//! of jobs answers `unavailable`.

use crate::engine::Engine;
use crate::log::InputLog;
use crate::protocol::{self, Request, MAX_LINE};
use crate::replica;
use crate::router::{self, AggKind, Dest};
use crate::sys::{new_poller, Poller};
use crate::ServeConfig;
use jobsched_json::Json;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poller token of the accept socket.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Poller token of the waker's read end.
const TOKEN_WAKER: u64 = u64::MAX - 1;
/// How long a stopping reactor keeps flushing final replies.
const STOP_FLUSH_GRACE: Duration = Duration::from_secs(2);
/// Wall-clock shards re-check their event queue at least this often.
const SHARD_TICK: Duration = Duration::from_millis(50);

/// One routed request, tagged with its reply slot.
pub(crate) struct Tagged {
    conn: u64,
    seq: u64,
    request: Request,
}

/// What a shard thread sends back to the reactor.
enum ShardMsg {
    /// Replies for dispatched requests, in processing order.
    Replies {
        shard: usize,
        batch: Vec<(u64, u64, Json)>,
    },
    /// Requests the shard accepted but will never process (it is
    /// stopping); the reactor re-dispatches or fails them.
    Requeue { shard: usize, batch: Vec<Tagged> },
    /// The shard thread is gone. `crashed` distinguishes the chaos op
    /// (promote the replica) from a requested shutdown.
    Exited { shard: usize, crashed: bool },
}

/// Shard→reactor mailbox: a locked queue plus the waker's write end.
/// Shard threads push and nudge the reactor out of `Poller::wait` with
/// a one-byte write.
pub(crate) struct SharedOut {
    queue: Mutex<Vec<ShardMsg>>,
    waker: TcpStream,
}

impl SharedOut {
    /// Wake the reactor without queueing anything (used by
    /// [`Server::stop`](crate::server::Server::stop)).
    pub(crate) fn wake(&self) {
        // A full pipe already guarantees a pending wakeup.
        let _ = (&self.waker).write(&[1]);
    }

    fn push_all(&self, msgs: impl IntoIterator<Item = ShardMsg>) {
        self.queue.lock().expect("reactor queue").extend(msgs);
        self.wake();
    }
}

/// One shard thread: pump the engine, apply request batches in arrival
/// order, return replies. Exits on `shutdown`, on the `crash` chaos op
/// (draining its channel back to the reactor first), or when the
/// reactor drops the sender.
fn run_shard(mut engine: Engine, shard: usize, rx: Receiver<Vec<Tagged>>, out: Arc<SharedOut>) {
    loop {
        engine.pump();
        let batch = if engine.is_virtual() {
            match rx.recv() {
                Ok(b) => b,
                Err(_) => return,
            }
        } else {
            match engine.delay_to_next() {
                None => match rx.recv() {
                    Ok(b) => b,
                    Err(_) => return,
                },
                Some(d) if d.is_zero() => match rx.try_recv() {
                    Ok(b) => b,
                    Err(TryRecvError::Empty) => continue, // due: pump again
                    Err(TryRecvError::Disconnected) => return,
                },
                Some(d) => match rx.recv_timeout(d.min(SHARD_TICK)) {
                    Ok(b) => b,
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => return,
                },
            }
        };
        let mut replies = Vec::with_capacity(batch.len());
        let mut exit = None; // Some(crashed)
        let mut rest = batch.into_iter();
        for t in rest.by_ref() {
            if let Request::Crash { .. } = t.request {
                replies.push((
                    t.conn,
                    t.seq,
                    protocol::ok([
                        ("crashed", Json::Bool(true)),
                        ("shard", Json::UInt(shard as u64)),
                    ]),
                ));
                exit = Some(true);
                break;
            }
            let (reply, stop) = engine.handle(t.request);
            replies.push((t.conn, t.seq, reply));
            if stop {
                exit = Some(false);
                break;
            }
        }
        match exit {
            None => {
                if !replies.is_empty() {
                    out.push_all([ShardMsg::Replies {
                        shard,
                        batch: replies,
                    }]);
                }
            }
            Some(crashed) => {
                // Hand everything unprocessed back — the rest of this
                // batch plus whatever is still queued on the channel —
                // so no client request silently vanishes.
                let mut requeue: Vec<Tagged> = rest.collect();
                while let Ok(mut b) = rx.try_recv() {
                    requeue.append(&mut b);
                }
                out.push_all([
                    ShardMsg::Replies {
                        shard,
                        batch: replies,
                    },
                    ShardMsg::Requeue {
                        shard,
                        batch: requeue,
                    },
                    ShardMsg::Exited { shard, crashed },
                ]);
                return;
            }
        }
    }
}

/// Per-connection state.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet framed into a line.
    rbuf: Vec<u8>,
    /// Framed replies awaiting the socket's send buffer.
    wbuf: Vec<u8>,
    /// Next sequence number to assign to a decoded line.
    next_seq: u64,
    /// Next sequence number to flush; `next_seq == flush_seq` means no
    /// request is outstanding.
    flush_seq: u64,
    /// Replies that arrived ahead of their turn.
    reorder: BTreeMap<u64, Json>,
    /// Last read or reply flush — the read deadline's anchor.
    last_activity: Instant,
    /// Close once `wbuf` drains (timeout/oversized farewells).
    close_after_flush: bool,
    /// EOF seen or reading abandoned (oversized frame).
    read_closed: bool,
    /// Current write-interest registration, to avoid redundant syscalls.
    want_write: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            next_seq: 0,
            flush_seq: 0,
            reorder: BTreeMap::new(),
            last_activity: Instant::now(),
            close_after_flush: false,
            read_closed: false,
            want_write: false,
        }
    }

    fn outstanding(&self) -> bool {
        self.next_seq != self.flush_seq
    }
}

/// A broadcast collecting one part per shard.
struct Agg {
    kind: AggKind,
    parts: Vec<Option<Json>>,
    remaining: usize,
}

/// Handle returned to [`crate::server::Server`].
pub(crate) struct ReactorHandle {
    pub(crate) thread: JoinHandle<()>,
    pub(crate) out: Arc<SharedOut>,
}

/// Build the shard engines and the reactor, and start both. Returns
/// once all threads are running. With `restored` (one log per shard)
/// every engine replays its log before any thread exists, so the first
/// connection the reactor accepts already sees the restored state.
pub(crate) fn start(
    listener: TcpListener,
    config: ServeConfig,
    stop: Arc<AtomicBool>,
    restored: Option<Vec<InputLog>>,
) -> io::Result<ReactorHandle> {
    let shards = config.shards.max(1);
    let origin = Instant::now();
    let (waker_tx, waker_rx) = waker_pair()?;
    let out = Arc::new(SharedOut {
        queue: Mutex::new(Vec::new()),
        waker: waker_tx,
    });

    let mut restored = restored.into_iter().flatten();
    let engines = (0..shards)
        .map(|shard| {
            let mut engine = Engine::for_shard(config.clone(), shard, shards, Some(origin));
            if let Some(log) = restored.next() {
                engine
                    .restore(log)
                    .map_err(|e| io::Error::new(ErrorKind::InvalidData, e))?;
            }
            Ok(engine)
        })
        .collect::<io::Result<Vec<Engine>>>()?;

    let mut txs = Vec::with_capacity(shards);
    let mut threads = Vec::with_capacity(shards);
    let mut replicas = Vec::with_capacity(shards);
    for (shard, engine) in engines.into_iter().enumerate() {
        let log = config.replica.then(|| engine.log_handle());
        let (tx, rx) = mpsc::channel::<Vec<Tagged>>();
        let shard_out = Arc::clone(&out);
        let handle = std::thread::Builder::new()
            .name(format!("jobsched-shard-{shard}"))
            .spawn(move || run_shard(engine, shard, rx, shard_out))?;
        txs.push(Some(tx));
        threads.push(handle);
        replicas.push(log);
    }

    let mut poller = new_poller()?;
    poller.register(listener.as_raw_fd(), TOKEN_LISTENER, true, false)?;
    poller.register(waker_rx.as_raw_fd(), TOKEN_WAKER, true, false)?;

    let reactor = Reactor {
        config,
        shards,
        listener,
        poller,
        waker_rx,
        out: Arc::clone(&out),
        stop,
        conns: HashMap::new(),
        next_conn: 0,
        txs,
        threads,
        replicas,
        aggs: HashMap::new(),
        pending_requeue: (0..shards).map(|_| Vec::new()).collect(),
        origin,
        stopping: false,
        stop_deadline: None,
        scratch: String::new(),
    };
    let thread = std::thread::Builder::new()
        .name("jobsched-reactor".into())
        .spawn(move || reactor.run())?;
    Ok(ReactorHandle { thread, out })
}

/// A connected loopback pair standing in for a self-pipe: write end for
/// shard threads, nonblocking read end registered in the poller.
fn waker_pair() -> io::Result<(TcpStream, TcpStream)> {
    let l = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(l.local_addr()?)?;
    let (rx, _) = l.accept()?;
    tx.set_nonblocking(true)?;
    tx.set_nodelay(true)?;
    rx.set_nonblocking(true)?;
    Ok((tx, rx))
}

struct Reactor {
    config: ServeConfig,
    shards: usize,
    listener: TcpListener,
    poller: Box<dyn Poller>,
    waker_rx: TcpStream,
    out: Arc<SharedOut>,
    stop: Arc<AtomicBool>,
    conns: HashMap<u64, Conn>,
    next_conn: u64,
    /// Per-shard dispatch channels; `None` = the shard is gone.
    txs: Vec<Option<Sender<Vec<Tagged>>>>,
    threads: Vec<JoinHandle<()>>,
    /// With `config.replica`: a second handle on each live shard
    /// engine's own log.
    replicas: Vec<Option<Arc<Mutex<InputLog>>>>,
    /// In-flight broadcasts, keyed by the requesting (conn, seq).
    aggs: HashMap<(u64, u64), Agg>,
    /// Requests drained from a dying shard, awaiting promote-or-fail.
    pending_requeue: Vec<Vec<Tagged>>,
    /// Shared wall-clock origin, so promoted shards stay aligned.
    origin: Instant,
    /// A shutdown broadcast completed: flush farewells and exit.
    stopping: bool,
    stop_deadline: Option<Instant>,
    /// Reusable serialisation buffer for reply framing.
    scratch: String,
}

impl Reactor {
    fn run(mut self) {
        let mut events = Vec::with_capacity(64);
        loop {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            events.clear();
            let timeout = self.poll_timeout();
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                break;
            }
            // Batches accumulate across every event of this wakeup and
            // go out in one send per shard.
            let mut batches: Vec<Vec<Tagged>> = (0..self.shards).map(|_| Vec::new()).collect();
            for &ev in events.iter() {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => self.drain_waker(),
                    token => {
                        if ev.readable {
                            self.conn_readable(token, &mut batches);
                        }
                        if ev.writable && self.conns.contains_key(&token) {
                            self.try_flush(token);
                        }
                        if ev.hangup && !ev.readable {
                            self.drop_conn(token);
                        }
                    }
                }
            }
            self.drain_shard_msgs(&mut batches);
            self.sweep_deadlines();
            self.dispatch(batches);
            if self.stopping {
                let drained = self.conns.values().all(|c| c.wbuf.is_empty());
                let expired = self.stop_deadline.is_some_and(|d| Instant::now() >= d);
                if drained || expired {
                    break;
                }
            }
        }
        // Teardown: dropping the senders stops any still-running shard
        // thread at its next recv.
        self.txs.clear();
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }

    /// Sleep no longer than the nearest idle-connection deadline.
    fn poll_timeout(&self) -> Duration {
        if self.stopping {
            return Duration::from_millis(10);
        }
        let mut t = Duration::from_millis(500);
        for c in self.conns.values() {
            // Outstanding requests suspend the deadline: a client
            // waiting on a slow engine reply is not idle.
            if c.read_closed || c.close_after_flush || c.outstanding() {
                continue;
            }
            let remain = self
                .config
                .read_timeout
                .saturating_sub(c.last_activity.elapsed());
            t = t.min(remain);
        }
        t.max(Duration::from_millis(1))
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.stopping || self.conns.len() >= self.config.max_connections {
                        // The accepted socket is blocking (accept does
                        // not inherit O_NONBLOCK): the farewell write
                        // lands in the empty send buffer and we move on.
                        let msg = if self.stopping {
                            protocol::error("busy", "daemon is shutting down")
                        } else {
                            protocol::error("busy", "connection pool exhausted")
                        };
                        let mut s = stream;
                        let mut line = msg.to_string_compact();
                        line.push('\n');
                        let _ = s.write_all(line.as_bytes());
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let id = self.next_conn;
                    self.next_conn += 1;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), id, true, false)
                        .is_ok()
                    {
                        self.conns.insert(id, Conn::new(stream));
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn drain_waker(&mut self) {
        let mut buf = [0u8; 256];
        loop {
            match (&self.waker_rx).read(&mut buf) {
                Ok(0) => break, // shards never close their end first
                Ok(_) => continue,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break, // WouldBlock: drained
            }
        }
    }

    /// Read everything available, frame complete lines, decode and
    /// route each one.
    fn conn_readable(&mut self, id: u64, batches: &mut [Vec<Tagged>]) {
        let Some(c) = self.conns.get_mut(&id) else {
            return;
        };
        if c.read_closed {
            return;
        }
        let mut saw_eof = false;
        let mut buf = [0u8; 16 * 1024];
        loop {
            match c.stream.read(&mut buf) {
                Ok(0) => {
                    saw_eof = true;
                    break;
                }
                Ok(n) => {
                    c.rbuf.extend_from_slice(&buf[..n]);
                    // A hostile writer could stream forever: stop
                    // slurping once the oversize verdict is in.
                    if c.rbuf.len() > MAX_LINE * 2 {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.drop_conn(id);
                    return;
                }
            }
        }
        c.last_activity = Instant::now();

        // Frame complete lines out of rbuf.
        let mut lines = Vec::new();
        while let Some(p) = c.rbuf.iter().position(|&b| b == b'\n') {
            lines.push(c.rbuf.drain(..=p).collect::<Vec<u8>>());
        }
        let oversized = c.rbuf.len() >= MAX_LINE;
        if saw_eof {
            c.read_closed = true;
            c.rbuf.clear(); // mid-frame disconnect: nothing to reply to
                            // Drop read interest or level-triggered EOF would fire on
                            // every subsequent wait.
            let fd = c.stream.as_raw_fd();
            let want_write = c.want_write;
            let _ = self.poller.modify(fd, id, false, want_write);
        }
        for line in lines {
            // A complete line over the cap is as hostile as an
            // unterminated one: reject and close, discarding the rest.
            if line.len() > MAX_LINE {
                self.oversized_farewell(id);
                return;
            }
            self.handle_line(id, &line, batches);
        }
        if oversized && !saw_eof {
            self.oversized_farewell(id);
        }
        if saw_eof {
            self.maybe_close(id);
        }
    }

    /// Reject an over-limit frame with a structured error, stop reading
    /// (the kernel discards what keeps arriving), and close once the
    /// error has been flushed — without racing ahead of in-flight
    /// replies for this connection.
    fn oversized_farewell(&mut self, id: u64) {
        let Some(c) = self.conns.get_mut(&id) else {
            return;
        };
        c.read_closed = true;
        c.close_after_flush = true;
        c.rbuf.clear();
        // SHUT_RD makes the kernel swallow the rest of the stream, so
        // the farewell is not torn down by a reset from unread data.
        let _ = c.stream.shutdown(Shutdown::Read);
        let fd = c.stream.as_raw_fd();
        let want_write = c.want_write;
        let _ = self.poller.modify(fd, id, false, want_write);
        let seq = c.next_seq;
        c.next_seq += 1;
        self.resolve(
            id,
            seq,
            protocol::error("protocol", format!("request line exceeds {MAX_LINE} bytes")),
        );
    }

    /// Decode one framed line and route the request.
    fn handle_line(&mut self, id: u64, line: &[u8], batches: &mut [Vec<Tagged>]) {
        let Some(c) = self.conns.get_mut(&id) else {
            return;
        };
        let text = match std::str::from_utf8(line) {
            Ok(t) => t.trim(),
            Err(_) => {
                let seq = c.next_seq;
                c.next_seq += 1;
                self.resolve(
                    id,
                    seq,
                    protocol::error("protocol", "request is not valid UTF-8"),
                );
                return;
            }
        };
        if text.is_empty() {
            return; // blank lines carry no request and get no reply
        }
        let seq = c.next_seq;
        c.next_seq += 1;
        let request = match jobsched_json::parse(text) {
            Ok(j) => match protocol::parse_request(&j) {
                Ok(r) => r,
                Err(e) => {
                    self.resolve(id, seq, protocol::error("protocol", e));
                    return;
                }
            },
            Err(e) => {
                self.resolve(
                    id,
                    seq,
                    protocol::error("protocol", format!("bad JSON: {e}")),
                );
                return;
            }
        };
        match router::route(&request, self.shards) {
            Dest::Direct(reply) => self.resolve(id, seq, reply),
            Dest::Shard(k) => {
                if self.txs[k].is_some() {
                    batches[k].push(Tagged {
                        conn: id,
                        seq,
                        request,
                    });
                } else {
                    self.resolve(id, seq, self.dead_shard_error(k));
                }
            }
            Dest::Broadcast(kind) => self.broadcast(id, seq, kind, request, batches),
        }
    }

    fn dead_shard_error(&self, shard: usize) -> Json {
        if self.stopping {
            protocol::error("busy", "daemon is shutting down")
        } else {
            protocol::error(
                "unavailable",
                format!("shard {shard} is down and no replica is configured"),
            )
        }
    }

    /// Fan a request out to every live shard and open an aggregate for
    /// the replies. Dead shards contribute `unavailable` parts.
    fn broadcast(
        &mut self,
        id: u64,
        seq: u64,
        kind: AggKind,
        request: Request,
        batches: &mut [Vec<Tagged>],
    ) {
        // A sharded restore splits the v2 wrapper into one v1 state per
        // shard; every other broadcast clones the request verbatim.
        let per_shard: Vec<Option<Request>> = if let Request::Restore { state } = &request {
            debug_assert!(self.shards > 1, "single-shard restore routes directly");
            match router::split_restore(state, self.shards) {
                Ok(states) => states
                    .iter()
                    .map(|s| Some(Request::Restore { state: s.clone() }))
                    .collect(),
                Err(e) => {
                    self.resolve(id, seq, protocol::error("restore-failed", e));
                    return;
                }
            }
        } else {
            (0..self.shards).map(|_| Some(request.clone())).collect()
        };
        let mut agg = Agg {
            kind,
            parts: vec![None; self.shards],
            remaining: 0,
        };
        for (k, req) in per_shard.into_iter().enumerate() {
            if self.txs[k].is_some() {
                agg.remaining += 1;
                batches[k].push(Tagged {
                    conn: id,
                    seq,
                    request: req.expect("one request per shard"),
                });
            } else {
                agg.parts[k] = Some(self.dead_shard_error(k));
            }
        }
        if agg.remaining == 0 {
            // Every shard is dead; answer from the parts we fabricated.
            let parts: Vec<Json> = agg.parts.into_iter().map(|p| p.unwrap()).collect();
            let merged = router::merge(kind, &parts);
            self.resolve(id, seq, merged);
            return;
        }
        self.aggs.insert((id, seq), agg);
    }

    /// Absorb everything the shard threads pushed since the last wakeup.
    fn drain_shard_msgs(&mut self, batches: &mut [Vec<Tagged>]) {
        let msgs: Vec<ShardMsg> = {
            let mut q = self.out.queue.lock().expect("reactor queue");
            std::mem::take(&mut *q)
        };
        for msg in msgs {
            match msg {
                ShardMsg::Replies { shard, batch } => {
                    for (conn, seq, reply) in batch {
                        self.complete(shard, conn, seq, reply);
                    }
                }
                ShardMsg::Requeue { shard, batch } => {
                    self.pending_requeue[shard].extend(batch);
                }
                ShardMsg::Exited { shard, crashed } => {
                    self.txs[shard] = None;
                    if crashed {
                        self.failover(shard, batches);
                    } else {
                        // Requested shutdown: stragglers get `busy`, as
                        // they did from the single-engine server.
                        let stragglers = std::mem::take(&mut self.pending_requeue[shard]);
                        for t in stragglers {
                            self.complete(
                                shard,
                                t.conn,
                                t.seq,
                                protocol::error("busy", "daemon is shutting down"),
                            );
                        }
                    }
                }
            }
        }
    }

    /// Promote shard `shard`'s replica and re-dispatch the requests its
    /// predecessor drained back. Without a replica (or on a failed
    /// replay) those requests answer `unavailable`.
    fn failover(&mut self, shard: usize, batches: &mut [Vec<Tagged>]) {
        let stranded = std::mem::take(&mut self.pending_requeue[shard]);
        let promoted = self.replicas[shard].take().and_then(|log| {
            // The dead engine dropped its handle: the log is ours whole.
            let dead = std::mem::take(&mut *log.lock().expect("input log lock"));
            replica::promote(dead, &self.config, shard, self.shards, self.origin).ok()
        });
        match promoted {
            Some(engine) => {
                let fresh = engine.log_handle();
                let (tx, rx) = mpsc::channel::<Vec<Tagged>>();
                let out = Arc::clone(&self.out);
                let spawned = std::thread::Builder::new()
                    .name(format!("jobsched-shard-{shard}"))
                    .spawn(move || run_shard(engine, shard, rx, out));
                match spawned {
                    Ok(handle) => {
                        self.txs[shard] = Some(tx);
                        self.replicas[shard] = Some(fresh);
                        self.threads.push(handle);
                        batches[shard].extend(stranded);
                    }
                    Err(_) => self.fail_stranded(shard, stranded),
                }
            }
            None => self.fail_stranded(shard, stranded),
        }
    }

    fn fail_stranded(&mut self, shard: usize, stranded: Vec<Tagged>) {
        for t in stranded {
            let err = self.dead_shard_error(shard);
            self.complete(shard, t.conn, t.seq, err);
        }
    }

    /// File one shard reply: either a part of an open aggregate or a
    /// directly-routed reply.
    fn complete(&mut self, shard: usize, conn: u64, seq: u64, reply: Json) {
        if !self.aggs.contains_key(&(conn, seq)) {
            self.resolve(conn, seq, reply);
            return;
        }
        let agg = self.aggs.get_mut(&(conn, seq)).expect("checked present");
        if agg.parts[shard].is_none() {
            agg.remaining -= 1;
        }
        agg.parts[shard] = Some(reply);
        if agg.remaining > 0 {
            return;
        }
        let agg = self.aggs.remove(&(conn, seq)).expect("checked present");
        if agg.kind == AggKind::Shutdown {
            self.stopping = true;
            self.stop_deadline = Some(Instant::now() + STOP_FLUSH_GRACE);
        }
        let parts: Vec<Json> = agg
            .parts
            .into_iter()
            .enumerate()
            .map(|(k, p)| p.unwrap_or_else(|| self.dead_shard_error(k)))
            .collect();
        let merged = router::merge(agg.kind, &parts);
        self.resolve(conn, seq, merged);
    }

    /// Park a reply in the reorder buffer and flush every reply whose
    /// turn has come — one line per request, in request order.
    fn resolve(&mut self, conn: u64, seq: u64, reply: Json) {
        let Some(c) = self.conns.get_mut(&conn) else {
            return; // client vanished; the reply has no one to go to
        };
        c.reorder.insert(seq, reply);
        loop {
            let turn = c.flush_seq;
            let Some(r) = c.reorder.remove(&turn) else {
                break;
            };
            c.flush_seq += 1;
            self.scratch.clear();
            r.write_compact(&mut self.scratch);
            c.wbuf.extend_from_slice(self.scratch.as_bytes());
            c.wbuf.push(b'\n');
        }
        c.last_activity = Instant::now();
        self.try_flush(conn);
    }

    /// Push buffered output; arm write interest for what the socket
    /// refuses, close if this connection was saying goodbye.
    fn try_flush(&mut self, id: u64) {
        let Some(c) = self.conns.get_mut(&id) else {
            return;
        };
        let mut written = 0;
        while written < c.wbuf.len() {
            match c.stream.write(&c.wbuf[written..]) {
                Ok(0) => {
                    self.drop_conn(id);
                    return;
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.drop_conn(id);
                    return;
                }
            }
        }
        c.wbuf.drain(..written);
        let want_write = !c.wbuf.is_empty();
        if want_write != c.want_write {
            c.want_write = want_write;
            let fd = c.stream.as_raw_fd();
            let readable = !c.read_closed;
            let _ = self.poller.modify(fd, id, readable, want_write);
        }
        self.maybe_close(id);
    }

    /// Close once there is nothing left to deliver: every accepted
    /// request's reply has been resolved *and* flushed. A farewell
    /// (`close_after_flush`) must still wait for earlier requests'
    /// in-flight shard replies — they hold lower sequence numbers, so
    /// closing early would drop them.
    fn maybe_close(&mut self, id: u64) {
        let Some(c) = self.conns.get(&id) else {
            return;
        };
        let drained = c.wbuf.is_empty() && !c.outstanding();
        if drained && (c.close_after_flush || c.read_closed) {
            self.drop_conn(id);
        }
    }

    fn drop_conn(&mut self, id: u64) {
        if let Some(c) = self.conns.remove(&id) {
            let _ = self.poller.deregister(c.stream.as_raw_fd());
        }
    }

    /// Enforce the read deadline on idle connections. A connection with
    /// outstanding requests is never idle — slow engine replies must
    /// not kill the client waiting for them.
    fn sweep_deadlines(&mut self) {
        let timeout = self.config.read_timeout;
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                !c.read_closed
                    && !c.close_after_flush
                    && !c.outstanding()
                    && c.last_activity.elapsed() >= timeout
            })
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            let Some(c) = self.conns.get_mut(&id) else {
                continue;
            };
            c.read_closed = true;
            c.close_after_flush = true;
            let _ = c.stream.shutdown(Shutdown::Read);
            let fd = c.stream.as_raw_fd();
            let want_write = c.want_write;
            let _ = self.poller.modify(fd, id, false, want_write);
            let seq = c.next_seq;
            c.next_seq += 1;
            self.resolve(
                id,
                seq,
                protocol::error("protocol", "read timeout; closing connection"),
            );
        }
    }

    /// One channel send per shard per wakeup — the batching that makes
    /// hundreds of connections cost hundreds of sends, not thousands.
    fn dispatch(&mut self, batches: Vec<Vec<Tagged>>) {
        for (k, batch) in batches.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            match &self.txs[k] {
                Some(tx) => {
                    if let Err(mpsc::SendError(batch)) = tx.send(batch) {
                        // The shard died under us; its Exited message is
                        // in flight and will settle these.
                        self.pending_requeue[k].extend(batch);
                    }
                }
                None => self.pending_requeue[k].extend(batch),
            }
        }
    }
}
