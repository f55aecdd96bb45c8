//! The nonblocking connection reactor: one thread serving every
//! connection and every engine shard.
//!
//! ## One readiness loop, N engine shards
//!
//! A single reactor thread owns every socket — the listener and all
//! client connections, multiplexed through a level-triggered [`Poller`]
//! (raw-syscall epoll on Linux) — and every shard's [`Engine`]. Each
//! wakeup it pumps every live engine once, then drains readable
//! sockets, decodes every complete line, routes it through
//! [`crate::router`] and handles it on the spot: a shard request calls
//! that shard's engine, a broadcast calls every live engine in turn and
//! merges the parts at once. A thousand connections and N shards cost
//! one thread, and a stalled or hostile connection can delay a healthy
//! one's reply by at most the current wakeup's decode and engine work
//! (the regression tests pin this).
//!
//! ## Reply ordering
//!
//! Every line is answered before the next one is decoded, so a client
//! reads exactly one reply per line, in the order it sent the lines —
//! parse failures and routing errors included. A connection's replies
//! collect in its write buffer and go out in one write per wakeup.
//!
//! ## Failover
//!
//! Every engine call runs behind the panic boundary of
//! `replica::guarded`. A shard dies on the `crash` chaos op or when an
//! engine call panics; the request in hand is answered (`crashed`, or
//! `unavailable` after a panic) and, with `ServeConfig::replica` set,
//! the dead engine's [`InputLog`] is promoted into a fresh engine — an
//! exact typed replay, no JSON in between — before the next line is
//! decoded. Later requests reach the promoted shard, and clients
//! observe schedules identical to a run that never crashed. Without a
//! replica, or when the replay fails too, the shard's residue class of
//! jobs answers `unavailable`.
//!
//! ## Time
//!
//! Virtual-clock engines move only on `advance`. Wall-clock engines
//! bound the poll timeout by the real delay until their next event
//! (re-checked at least every 50 ms), so a matured event is pumped on
//! time even when no client speaks.

use crate::engine::Engine;
use crate::log::InputLog;
use crate::protocol::{self, Request, MAX_LINE};
use crate::replica::{self, guarded};
use crate::router::{self, AggKind, Dest};
use crate::sys::{new_poller, Poller};
use crate::ServeConfig;
use jobsched_json::Json;
use std::collections::HashMap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poller token of the accept socket.
const TOKEN_LISTENER: u64 = u64::MAX;
/// How long a stopping reactor keeps flushing final replies.
const STOP_FLUSH_GRACE: Duration = Duration::from_secs(2);
/// Wall-clock engines re-check their event queue at least this often.
const SHARD_TICK: Duration = Duration::from_millis(50);

/// Per-connection state.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet framed into a line.
    rbuf: Vec<u8>,
    /// Framed replies awaiting the socket's send buffer.
    wbuf: Vec<u8>,
    /// Last read or reply — the read deadline's anchor.
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
            last_activity: Instant::now(),
            close_after_flush: false,
            read_closed: false,
            want_write: false,
        }
    }
}

/// Build the shard engines and start the reactor thread that serves
/// them. With `restored` (one log per shard) every engine replays its
/// log before the thread exists, so the first connection the reactor
/// accepts already sees the restored state.
pub(crate) fn start(
    listener: TcpListener,
    config: ServeConfig,
    stop: Arc<AtomicBool>,
    restored: Option<Vec<InputLog>>,
) -> io::Result<JoinHandle<()>> {
    let shards = config.shards.max(1);
    let origin = Instant::now();
    let mut restored = restored.into_iter().flatten();
    let engines = (0..shards)
        .map(|shard| {
            let mut engine = Engine::for_shard(config.clone(), shard, shards, Some(origin));
            if let Some(log) = restored.next() {
                engine
                    .restore(log)
                    .map_err(|e| io::Error::new(ErrorKind::InvalidData, e))?;
            }
            Ok(Some(engine))
        })
        .collect::<io::Result<Vec<_>>>()?;

    let mut poller = new_poller()?;
    poller.register(listener.as_raw_fd(), TOKEN_LISTENER, true, false)?;
    let reactor = Reactor {
        config,
        listener,
        poller,
        stop,
        conns: HashMap::new(),
        next_conn: 0,
        engines,
        origin,
        stopping: false,
        stop_deadline: None,
        scratch: String::new(),
    };
    std::thread::Builder::new()
        .name("jobsched-reactor".into())
        .spawn(move || reactor.run())
}

struct Reactor {
    config: ServeConfig,
    listener: TcpListener,
    poller: Box<dyn Poller>,
    stop: Arc<AtomicBool>,
    conns: HashMap<u64, Conn>,
    next_conn: u64,
    /// Shard k's engine; `None` once the shard is down (dead without a
    /// live replica) or stopped by `shutdown`.
    engines: Vec<Option<Engine>>,
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
        while !self.stop.load(Ordering::SeqCst) {
            events.clear();
            let timeout = self.poll_timeout();
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                break;
            }
            // One pump per engine per wakeup, before its requests.
            for k in 0..self.engines.len() {
                if self.engines[k].is_some() {
                    if let Err(dead) = guarded(&mut self.engines[k], Engine::pump) {
                        self.failover(k, dead);
                    }
                }
            }
            for &ev in events.iter() {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    token => {
                        if ev.readable {
                            self.conn_readable(token);
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
            self.sweep_deadlines();
            if self.stopping {
                let drained = self.conns.values().all(|c| c.wbuf.is_empty());
                let expired = self.stop_deadline.is_some_and(|d| Instant::now() >= d);
                if drained || expired {
                    break;
                }
            }
        }
    }

    /// Sleep no longer than the nearest idle-connection deadline or the
    /// next event of a wall-clock engine.
    fn poll_timeout(&self) -> Duration {
        if self.stopping {
            return Duration::from_millis(10);
        }
        let mut t = Duration::from_millis(500);
        for c in self.conns.values() {
            if c.read_closed || c.close_after_flush {
                continue;
            }
            let remain = self
                .config
                .read_timeout
                .saturating_sub(c.last_activity.elapsed());
            t = t.min(remain);
        }
        for engine in self.engines.iter().flatten().filter(|e| !e.is_virtual()) {
            if let Some(d) = engine.delay_to_next() {
                t = t.min(d.min(SHARD_TICK));
            }
        }
        t
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

    /// Read everything available, frame complete lines and answer each
    /// one, then flush the replies.
    fn conn_readable(&mut self, id: u64) {
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
                self.farewell(id, oversized_error());
                return;
            }
            if let Some(reply) = self.serve_line(&line) {
                self.reply(id, &reply);
            }
        }
        if oversized && !saw_eof {
            self.farewell(id, oversized_error());
            return;
        }
        self.try_flush(id);
    }

    /// Answer a connection's last reply, stop reading (the kernel
    /// discards what keeps arriving) and close once everything owed has
    /// been flushed.
    fn farewell(&mut self, id: u64, last: Json) {
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
        self.reply(id, &last);
        self.try_flush(id);
    }

    /// Decode one framed line and answer it. Blank lines carry no
    /// request and get no reply.
    fn serve_line(&mut self, line: &[u8]) -> Option<Json> {
        let Ok(text) = std::str::from_utf8(line) else {
            return Some(protocol::error("protocol", "request is not valid UTF-8"));
        };
        let text = text.trim();
        if text.is_empty() {
            return None;
        }
        let request = match jobsched_json::parse(text) {
            Ok(j) => match protocol::parse_request(&j) {
                Ok(r) => r,
                Err(e) => return Some(protocol::error("protocol", e)),
            },
            Err(e) => return Some(protocol::error("protocol", format!("bad JSON: {e}"))),
        };
        Some(match router::route(&request, self.engines.len()) {
            Dest::Direct(reply) => reply,
            Dest::Shard(k) => self.on_shard(k, request),
            Dest::Broadcast(kind) => self.broadcast(kind, request),
        })
    }

    /// Shard `k` answers `request`. `crash` kills the shard and fails
    /// it over; a panic does the same after answering `unavailable`; a
    /// stopping engine (`shutdown`) leaves its slot empty.
    fn on_shard(&mut self, k: usize, request: Request) -> Json {
        if let Request::Crash { .. } = request {
            let Some(engine) = self.engines[k].take() else {
                return self.dead_shard_error(k);
            };
            self.failover(k, engine.into_log());
            return protocol::ok([
                ("crashed", Json::Bool(true)),
                ("shard", Json::UInt(k as u64)),
            ]);
        }
        if self.engines[k].is_none() {
            return self.dead_shard_error(k);
        }
        match guarded(&mut self.engines[k], |e| e.handle(request)) {
            Ok((reply, stop)) => {
                if stop {
                    self.engines[k] = None;
                }
                reply
            }
            Err(dead) => {
                self.failover(k, dead);
                protocol::error(
                    "unavailable",
                    format!("shard {k} failed while handling this request"),
                )
            }
        }
    }

    /// Promote shard `k`'s replica from its dead engine's log, or leave
    /// the shard down.
    fn failover(&mut self, k: usize, dead: InputLog) {
        let shards = self.engines.len();
        self.engines[k] = if self.config.replica {
            replica::promote(dead, &self.config, k, shards, self.origin)
        } else {
            None
        };
    }

    fn dead_shard_error(&self, shard: usize) -> Json {
        if self.stopping {
            protocol::error("busy", "daemon is shutting down")
        } else if self.config.replica {
            protocol::error(
                "unavailable",
                format!("shard {shard} is down: its replica failed to replay"),
            )
        } else {
            protocol::error(
                "unavailable",
                format!("shard {shard} is down and no replica is configured"),
            )
        }
    }

    /// Hand a request to every shard in turn and merge the parts. Dead
    /// shards contribute `unavailable` parts.
    fn broadcast(&mut self, kind: AggKind, request: Request) -> Json {
        let shards = self.engines.len();
        // A sharded restore splits the v2 wrapper into one v1 state per
        // shard; every other broadcast clones the request verbatim.
        let per_shard = if let Request::Restore { state } = &request {
            debug_assert!(shards > 1, "single-shard restore routes directly");
            match router::split_restore(state, shards) {
                Ok(states) => states
                    .iter()
                    .map(|s| Request::Restore { state: s.clone() })
                    .collect(),
                Err(e) => return protocol::error("restore-failed", e),
            }
        } else {
            vec![request; shards]
        };
        let parts: Vec<Json> = per_shard
            .into_iter()
            .enumerate()
            .map(|(k, req)| self.on_shard(k, req))
            .collect();
        if kind == AggKind::Shutdown {
            self.stopping = true;
            self.stop_deadline = Some(Instant::now() + STOP_FLUSH_GRACE);
        }
        router::merge(kind, &parts)
    }

    /// Frame one reply into the connection's write buffer.
    fn reply(&mut self, id: u64, reply: &Json) {
        let Some(c) = self.conns.get_mut(&id) else {
            return; // client vanished; the reply has no one to go to
        };
        self.scratch.clear();
        reply.write_compact(&mut self.scratch);
        c.wbuf.extend_from_slice(self.scratch.as_bytes());
        c.wbuf.push(b'\n');
        c.last_activity = Instant::now();
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
        // Close once there is nothing left to deliver.
        if !want_write && (c.close_after_flush || c.read_closed) {
            self.drop_conn(id);
        }
    }

    fn drop_conn(&mut self, id: u64) {
        if let Some(c) = self.conns.remove(&id) {
            let _ = self.poller.deregister(c.stream.as_raw_fd());
        }
    }

    /// Enforce the read deadline on idle connections.
    fn sweep_deadlines(&mut self) {
        let timeout = self.config.read_timeout;
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                !c.read_closed && !c.close_after_flush && c.last_activity.elapsed() >= timeout
            })
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            self.farewell(
                id,
                protocol::error("protocol", "read timeout; closing connection"),
            );
        }
    }
}

fn oversized_error() -> Json {
    protocol::error("protocol", format!("request line exceeds {MAX_LINE} bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::log::{InputOp, InputRecord};
    use crate::SchedulerSpec;
    use jobsched_workload::{JobBuilder, JobId};

    fn op(name: &str) -> Json {
        Json::obj([("op", Json::Str(name.into()))])
    }

    fn error_of(reply: &Json) -> Option<&str> {
        reply.get("error").and_then(|v| v.as_str())
    }

    #[test]
    fn an_engine_panic_is_answered_and_the_daemon_serves_on() {
        let config = ServeConfig {
            machine_nodes: 16,
            scheduler: SchedulerSpec::parse("fcfs+easy").unwrap(),
            virtual_clock: true,
            shards: 2,
            replica: true,
            ..ServeConfig::default()
        };
        // Shard 1 restores a job wider than the machine, due at t = 100
        // (neither the wire nor the checkpoint decoder admits one): the
        // pump that injects it panics, and so does every replay of it.
        let mut poisoned = InputLog::default();
        poisoned.push(InputRecord {
            at: 0,
            op: InputOp::Submit(
                JobBuilder::new(JobId(1))
                    .submit(100)
                    .nodes(64)
                    .requested(10)
                    .runtime(10)
                    .build(),
            ),
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let thread = start(
            listener,
            config,
            stop,
            Some(vec![InputLog::default(), poisoned]),
        )
        .unwrap();
        let mut c = Client::connect(addr).unwrap();
        let submit = Json::obj([
            ("op", Json::Str("submit".into())),
            ("id", Json::UInt(0)),
            ("nodes", Json::UInt(4)),
            ("requested", Json::UInt(50)),
            ("runtime", Json::UInt(50)),
        ]);
        c.expect_ok(submit).unwrap();

        // The broadcast that trips the panic is answered, and names the
        // shard that failed while handling it.
        let advance = Json::obj([("op", Json::Str("advance".into())), ("to", Json::UInt(200))]);
        let r = c.request(advance).unwrap();
        assert_eq!(error_of(&r), Some("unavailable"), "{r:?}");
        let message = r.get("message").and_then(|v| v.as_str()).unwrap();
        assert!(message.contains("shard 1 failed"), "{message}");

        // The replica's replay panics too: shard 1 stays down, shard 0
        // serves on, and the daemon still shuts down over the wire.
        let status =
            |id: u64| Json::obj([("op", Json::Str("status".into())), ("id", Json::UInt(id))]);
        let r = c.request(status(1)).unwrap();
        assert_eq!(error_of(&r), Some("unavailable"), "{r:?}");
        let r = c.expect_ok(status(0)).unwrap();
        assert_eq!(r.get("state").and_then(|v| v.as_str()), Some("done"));
        c.expect_ok(op("ping")).unwrap();
        c.expect_ok(op("shutdown")).unwrap();
        thread.join().unwrap();
    }
}
