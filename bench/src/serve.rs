//! The two serve workloads: a daemon child process driven over its wire
//! protocol by one client thread on two connections.
//!
//! **Closed loop.** Submitters (`qsub`-style clients, `tune::Controller`)
//! wait for their reply, so load is a sliding window of [`WINDOW`]
//! requests per connection: a reply frees a slot, a slow daemon receives
//! less load. Latency is send → reply.
//!
//! **Script.** The [`script`] is a pure function of the seed: segments of
//! pipelined operations, each closed by a barrier (the window drains)
//! and the barrier's own operations, sent one at a time — `advance to
//! next.submit − 1`, and in `serve-mixed` the policy switch, checkpoint
//! and shard crash. Within a segment the virtual clock stands still and
//! every submit is future-dated, so in-flight operations commute; the
//! one exception, two cancels on one shard, is removed by pinning
//! cancels to connection 0, which the reactor reads in order.
//!
//! **Check.** The same script is replayed into in-process
//! `Engine::for_shard`s first; every reply that does not depend on
//! arrival order (`status`, `queue`, `metrics` do) must equal the
//! engine's byte for byte, and the daemon's final per-shard
//! `jobs_finished/art/awrt/makespan` must equal the engines' — across
//! the crash, which the reference never suffers.

use crate::harness::{
    proc_cpu_s, proc_ctx_switches, proc_status_mb, repeat, secs, Ctx, Rep, RunReport, Tally,
    TraceReport,
};
use crate::inputs::serve_jobs;
use crate::spec::{self, Sizes};
use crate::stats::{highest_tail, median, p99_or_highest, percentile};
use crate::trace::{Agg, SpanId, Tracer, HARNESS};
use jobsched_algos::view::WeightScheme;
use jobsched_core::objective_select::ObjectiveKind;
use jobsched_json::Json;
use jobsched_serve::engine::Engine;
use jobsched_serve::protocol::{parse_request, Request};
use jobsched_serve::server::Server;
use jobsched_serve::{SchedulerSpec, ServeConfig};
use jobsched_sim::simulate;
use jobsched_sweep::hash::StableHasher;
use jobsched_workload::rng::{derive_seed, Rng, SmallRng};
use jobsched_workload::{Job, JobBuilder, JobId, Workload};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Requests in flight per connection.
pub const WINDOW: usize = 16;
/// Client connections (never more than the box has cores).
pub const CONNECTIONS: usize = 2;
/// A request slower than this (or failed) misses the service level.
pub const SLO_US: u64 = 5_000;

pub const LAYER_JSON: &str = "json";
pub const LAYER_PROTOCOL: &str = "serve.protocol";
pub const LAYER_ENGINE: &str = "serve.engine";
/// Everything between the client's write and read that the in-process
/// replay does not see: sockets, reactor, router, shard channels,
/// replica streaming.
pub const LAYER_TRANSPORT: &str = "serve.transport";
/// Script generation, process spawn, connect, first `ping`.
pub const LAYER_SPAWN: &str = "serve.spawn";

const STREAM_SCRIPT: u64 = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    Submit,
    Status,
    Cancel,
    Queue,
    Metrics,
    Ping,
    Advance,
    Policy,
    Checkpoint,
    Crash,
}

impl OpKind {
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Submit => "submit",
            OpKind::Status => "status",
            OpKind::Cancel => "cancel",
            OpKind::Queue => "queue",
            OpKind::Metrics => "metrics",
            OpKind::Ping => "ping",
            OpKind::Advance => "advance",
            OpKind::Policy => "policy",
            OpKind::Checkpoint => "checkpoint",
            OpKind::Crash => "crash",
        }
    }

    /// Does the reply depend only on the script, not on the order in
    /// which in-flight requests reached the engines? (`status` sees a
    /// concurrent cancel or not; `queue`/`metrics` count the submits
    /// admitted so far; a checkpoint lists inputs in arrival order.)
    pub fn reply_is_scripted(self) -> bool {
        !matches!(
            self,
            OpKind::Status | OpKind::Queue | OpKind::Metrics | OpKind::Checkpoint
        )
    }
}

/// One scripted request.
#[derive(Clone, Debug, PartialEq)]
pub struct Op {
    pub kind: OpKind,
    pub request: Request,
    /// The request as sent: one JSON object, no newline.
    pub line: String,
    /// Must travel on this connection (ordering); else on whichever has
    /// a free slot.
    pub pinned: Option<usize>,
}

impl Op {
    fn new(kind: OpKind, request: Request) -> Self {
        let line = request_line(&request);
        let pinned = (kind == OpKind::Cancel).then_some(0);
        Op {
            kind,
            request,
            line,
            pinned,
        }
    }
}

/// Pipelined operations, then a barrier and its one-at-a-time operations.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Segment {
    pub window: Vec<Op>,
    pub barrier: Vec<Op>,
}

/// What distinguishes the two serve workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Plan {
    pub name: &'static str,
    pub scheduler: &'static str,
    pub shards: usize,
    pub replica: bool,
    /// The 60/25/5/4/4/2 mix with policy switch, checkpoint and crash;
    /// else submits only.
    pub mixed: bool,
    pub jobs: usize,
    pub base_jobs: usize,
    pub block: usize,
}

impl Plan {
    pub fn submit(sizes: &Sizes) -> Plan {
        Plan {
            name: "serve-submit",
            scheduler: "fcfs+easy",
            shards: 1,
            replica: false,
            mixed: false,
            jobs: sizes.serve_submit_jobs,
            base_jobs: sizes.serve_base_jobs,
            block: sizes.serve_block,
        }
    }

    pub fn mixed(sizes: &Sizes) -> Plan {
        Plan {
            name: "serve-mixed",
            scheduler: "ljf+none",
            shards: 2,
            replica: true,
            mixed: true,
            jobs: sizes.serve_mixed_jobs,
            base_jobs: sizes.serve_base_jobs,
            block: sizes.serve_block,
        }
    }

    fn config(&self) -> ServeConfig {
        ServeConfig {
            scheduler: SchedulerSpec::parse(self.scheduler).expect("plan names a servable row"),
            // The run measures serving, not admission control.
            queue_bound: self.jobs + 1,
            virtual_clock: true,
            shards: self.shards,
            replica: self.replica,
            ..ServeConfig::default()
        }
    }
}

/// The request object of `request`, serialised compactly.
pub fn request_line(request: &Request) -> String {
    let op = |name: &str| ("op", Json::Str(name.into()));
    let id = |id: u32| ("id", Json::UInt(u64::from(id)));
    let json = match request {
        Request::Submit {
            id: job,
            at,
            nodes,
            requested,
            runtime,
            user,
        } => Json::obj([
            op("submit"),
            id(job.expect("scripts name their ids")),
            ("at", Json::UInt(at.expect("scripts date their submits"))),
            ("nodes", Json::UInt(u64::from(*nodes))),
            ("requested", Json::UInt(*requested)),
            ("runtime", Json::UInt(*runtime)),
            ("user", Json::UInt(u64::from(*user))),
        ]),
        Request::Status { id: job } => Json::obj([op("status"), id(*job)]),
        Request::Cancel { id: job } => Json::obj([op("cancel"), id(*job)]),
        Request::Queue => Json::obj([op("queue")]),
        Request::Metrics => Json::obj([op("metrics")]),
        Request::Ping => Json::obj([op("ping")]),
        Request::Advance { to: Some(t) } => Json::obj([op("advance"), ("to", Json::UInt(*t))]),
        Request::Advance { to: None } => Json::obj([op("advance")]),
        Request::Policy {
            set: Some(label), ..
        } => Json::obj([op("policy"), ("set", Json::Str(label.clone()))]),
        Request::Checkpoint => Json::obj([op("checkpoint")]),
        Request::Crash { shard } => {
            Json::obj([op("crash"), ("shard", Json::UInt(u64::from(*shard)))])
        }
        Request::Shutdown { graceful, .. } => {
            Json::obj([op("shutdown"), ("graceful", Json::Bool(*graceful))])
        }
        other => unreachable!("scripts never send {other:?}"),
    };
    json.to_string_compact()
}

fn submit_op(job: &Job) -> Op {
    Op::new(
        OpKind::Submit,
        Request::Submit {
            id: Some(job.id.0),
            at: Some(job.submit),
            nodes: job.nodes,
            // The wire rejects zero times; the model's lowest bin can
            // draw them.
            requested: job.requested_time.max(1),
            runtime: job.runtime.max(1),
            user: job.user,
        },
    )
}

/// Build the script of `plan` for `seed` — no clock, no I/O: the same
/// arguments give the same script.
pub fn script(plan: &Plan, seed: u64) -> Vec<Segment> {
    let jobs = serve_jobs(plan.base_jobs, plan.jobs, seed);
    let mut rng = SmallRng::seed_from_u64(derive_seed(seed, STREAM_SCRIPT));
    let mut segments = Vec::new();
    let mut cancelled = std::collections::BTreeSet::new();
    let mut next = 0usize; // next job to submit
    let at_share = |share: f64| (plan.jobs as f64 * share) as usize;
    let marks = [
        (at_share(0.50), OpKind::Policy),
        (at_share(0.75), OpKind::Checkpoint),
        (at_share(0.90), OpKind::Crash),
    ];

    while next < jobs.len() {
        let first = next; // ids below `first` are behind a barrier
        let end = (next + plan.block).min(jobs.len());
        let mut segment = Segment::default();
        while next < end {
            if !plan.mixed {
                segment.window.push(submit_op(&jobs[next]));
                next += 1;
                continue;
            }
            // One group of 100 requests, 60 of them submits, shuffled.
            let submits = 60.min(end - next);
            let mut group: Vec<OpKind> = [
                (OpKind::Submit, submits),
                (OpKind::Status, 25),
                (OpKind::Cancel, 5),
                (OpKind::Queue, 4),
                (OpKind::Metrics, 4),
                (OpKind::Ping, 2),
            ]
            .into_iter()
            .flat_map(|(kind, n)| std::iter::repeat_n(kind, n))
            .collect();
            for i in (1..group.len()).rev() {
                group.swap(i, rng.random_range(0..=i));
            }
            for kind in group {
                let op = match kind {
                    OpKind::Submit => {
                        next += 1;
                        submit_op(&jobs[next - 1])
                    }
                    // Targets come from earlier segments, in any phase:
                    // half from the last two blocks (waiting, running),
                    // half from the whole history (finished, retired).
                    OpKind::Status | OpKind::Cancel if first > 0 => {
                        let recent = rng.random_range(0..2u32) == 0;
                        let lo = if recent {
                            first.saturating_sub(2 * plan.block)
                        } else {
                            0
                        };
                        let id = rng.random_range(lo..first) as u32;
                        if kind == OpKind::Status {
                            Op::new(kind, Request::Status { id })
                        } else if cancelled.insert(id) {
                            Op::new(kind, Request::Cancel { id })
                        } else {
                            Op::new(OpKind::Status, Request::Status { id })
                        }
                    }
                    OpKind::Queue => Op::new(kind, Request::Queue),
                    OpKind::Metrics => Op::new(kind, Request::Metrics),
                    _ => Op::new(OpKind::Ping, Request::Ping),
                };
                segment.window.push(op);
            }
        }

        if plan.mixed {
            for (mark, kind) in marks {
                if !(first < mark && mark <= next) {
                    continue;
                }
                match kind {
                    OpKind::Policy => segment.barrier.push(Op::new(
                        kind,
                        Request::Policy {
                            force: None,
                            list: false,
                            set: Some("sjf+easy".into()),
                        },
                    )),
                    OpKind::Checkpoint => segment.barrier.push(Op::new(kind, Request::Checkpoint)),
                    _ => {
                        segment
                            .barrier
                            .push(Op::new(OpKind::Crash, Request::Crash { shard: 0 }));
                        // The failover probe: the first request the
                        // promoted shard 0 answers (even ids are its).
                        let id = (rng.random_range(0..first.max(1)) as u32) & !1;
                        segment
                            .barrier
                            .push(Op::new(OpKind::Status, Request::Status { id }));
                    }
                }
            }
        }
        // Move the clock to just before the next block's first submit,
        // so every submit stays future-dated; drain at the very end.
        let to = jobs.get(next).map(|j| j.submit.saturating_sub(1));
        segment
            .barrier
            .push(Op::new(OpKind::Advance, Request::Advance { to }));
        segments.push(segment);
    }
    segments
}

/// Which engines of `shards` a request reaches (the daemon's documented
/// routing invariant: shard k owns the ids ≡ k mod N).
fn targets(request: &Request, shards: usize) -> std::ops::Range<usize> {
    let one = |k: usize| k..k + 1;
    match request {
        Request::Submit { id: Some(id), .. } | Request::Status { id } | Request::Cancel { id } => {
            one(*id as usize % shards)
        }
        Request::Ping => one(0),
        Request::Crash { .. } => 0..0,
        _ => 0..shards,
    }
}

/// The in-process reference: the script applied, in script order, to one
/// engine per shard — parse, `parse_request`, `Engine::handle`, encode,
/// each stage timed.
pub struct Replay {
    /// Per segment, per op (window then barrier): the reply the daemon
    /// must send, where [`OpKind::reply_is_scripted`].
    pub expected: Vec<Vec<Option<String>>>,
    /// Final `metrics` reply of every engine.
    pub final_metrics: Vec<Json>,
    /// Final `checkpoint` state of every engine.
    pub checkpoints: Vec<Json>,
    pub parse: Agg,
    pub protocol: Agg,
    pub encode: Agg,
    pub handle: BTreeMap<OpKind, Agg>,
    /// Final metrics + checkpoint of every engine, and dropping them.
    pub last_words: Agg,
    pub requests: u64,
}

fn merged_reply(kind: OpKind, parts: &[Json]) -> Json {
    match kind {
        // The router answers a broadcast advance with the latest clock.
        OpKind::Advance if parts.len() > 1 => {
            let now = parts
                .iter()
                .filter_map(|p| p.get("now").and_then(Json::as_u64))
                .max()
                .unwrap_or(0);
            Json::obj([("ok", Json::Bool(true)), ("now", Json::UInt(now))])
        }
        OpKind::Crash => Json::obj([
            ("ok", Json::Bool(true)),
            ("crashed", Json::Bool(true)),
            ("shard", Json::UInt(0)),
        ]),
        _ => parts[0].clone(),
    }
}

pub fn replay(plan: &Plan, script: &[Segment]) -> Replay {
    let mut engines: Vec<Engine> = (0..plan.shards)
        .map(|k| {
            let config = ServeConfig {
                replica: false,
                ..plan.config()
            };
            Engine::for_shard(config, k, plan.shards, None)
        })
        .collect();
    let mut out = Replay {
        expected: Vec::with_capacity(script.len()),
        final_metrics: Vec::new(),
        checkpoints: Vec::new(),
        parse: Agg::new("parse", LAYER_JSON),
        protocol: Agg::new("parse_request", LAYER_PROTOCOL),
        encode: Agg::new("encode", LAYER_JSON),
        handle: BTreeMap::new(),
        last_words: Agg::new("final-checkpoint", LAYER_ENGINE),
        requests: 0,
    };
    let ns = |t0: Instant| t0.elapsed().as_nanos() as u64;
    for segment in script {
        let mut expected = Vec::with_capacity(segment.window.len() + segment.barrier.len());
        for op in segment.window.iter().chain(&segment.barrier) {
            let t0 = Instant::now();
            let json = jobsched_json::parse(&op.line).expect("scripted lines are valid JSON");
            out.parse.add(ns(t0));
            // Each stage also frees what it is the last to use, as the
            // daemon's reactor and shard threads do.
            let t0 = Instant::now();
            let request = parse_request(&json).expect("scripted requests are well-formed");
            drop(json);
            out.protocol.add(ns(t0));
            debug_assert_eq!(request, op.request);

            let t0 = Instant::now();
            let parts: Vec<Json> = targets(&request, plan.shards)
                .map(|k| engines[k].handle(request.clone()).0)
                .collect();
            drop(request);
            let spent = ns(t0);
            out.handle
                .entry(op.kind)
                .or_insert_with(|| Agg::new(op.kind.label(), LAYER_ENGINE))
                .add(spent);
            let t0 = Instant::now();
            let reply = merged_reply(op.kind, &parts);
            let text = reply.to_string_compact();
            drop((reply, parts));
            out.encode.add(ns(t0));
            out.requests += 1;
            expected.push(op.kind.reply_is_scripted().then_some(text));
        }
        out.expected.push(expected);
    }
    // Last words — and the engines' teardown, which frees the whole
    // history — are engine time too.
    let t0 = Instant::now();
    for engine in &mut engines {
        out.final_metrics.push(engine.handle(Request::Metrics).0);
        let state = match engine.handle(Request::Checkpoint).0 {
            Json::Obj(pairs) => pairs.into_iter().find(|(k, _)| k == "state"),
            _ => None,
        };
        out.checkpoints.push(state.map_or(Json::Null, |(_, v)| v));
    }
    drop(engines);
    let mut last = Agg::new("final-checkpoint", LAYER_ENGINE);
    last.add(ns(t0));
    out.last_words = last;
    out
}

/// One connection of the client.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// `(segment-local op index, send instant)` of unanswered requests,
    /// oldest first — the daemon answers a connection in order.
    inflight: VecDeque<(usize, Instant)>,
    outbox: Vec<u8>,
}

impl Conn {
    fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A daemon that never answers fails the run instead of hanging it.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::with_capacity(64 * 1024, stream.try_clone()?),
            writer: stream,
            inflight: VecDeque::new(),
            outbox: Vec::new(),
        })
    }
}

/// What the client saw during one repetition.
#[derive(Default)]
struct Observed {
    /// Send → reply of every request except `advance`, in ns.
    latencies_ns: Vec<u64>,
    advance_ns: Vec<u64>,
    per_kind: BTreeMap<OpKind, Agg>,
    requests: u64,
    failed: u64,
    failures: Vec<String>,
    failover_s: Option<f64>,
    /// Daemon `VmRSS` in KiB at the barrier nearest half the jobs.
    rss_mid_kb: Option<f64>,
}

impl Observed {
    fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(why());
        }
    }

    fn record(&mut self, op: &Op, expected: &Option<String>, reply: &str, sent: Instant) {
        let ns = sent.elapsed().as_nanos() as u64;
        self.requests += 1;
        if op.kind == OpKind::Advance {
            self.advance_ns.push(ns);
        } else {
            self.latencies_ns.push(ns);
        }
        self.per_kind
            .entry(op.kind)
            .or_insert_with(|| Agg::concurrent(op.kind.label(), LAYER_TRANSPORT))
            .add(ns);
        let reply = reply.trim_end();
        match expected {
            Some(want) if want != reply => {
                self.fail(|| format!("{}: got {reply}, engine says {want}", op.line))
            }
            None if !reply.starts_with("{\"ok\":true") => {
                self.fail(|| format!("{}: refused: {reply}", op.line))
            }
            _ => {}
        }
    }
}

/// The closed-loop client: one thread, [`CONNECTIONS`] connections.
struct Client {
    conns: Vec<Conn>,
    line: String,
}

impl Client {
    fn connect(addr: &str) -> std::io::Result<Client> {
        Ok(Client {
            conns: (0..CONNECTIONS)
                .map(|_| Conn::connect(addr))
                .collect::<std::io::Result<_>>()?,
            line: String::new(),
        })
    }

    /// Send one request alone and wait for its reply.
    fn call(&mut self, line: &str) -> std::io::Result<(String, Instant)> {
        let conn = &mut self.conns[0];
        let sent = Instant::now();
        conn.writer.write_all(format!("{line}\n").as_bytes())?;
        let mut reply = String::new();
        if conn.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok((reply, sent))
    }

    /// Read the oldest outstanding reply (by send time, across
    /// connections) and account for it.
    fn read_one(
        &mut self,
        ops: &[Op],
        expected: &[Option<String>],
        seen: &mut Observed,
    ) -> std::io::Result<()> {
        let oldest = self
            .conns
            .iter()
            .enumerate()
            .filter_map(|(c, conn)| conn.inflight.front().map(|&(_, at)| (at, c)))
            .min()
            .expect("read_one needs a request in flight")
            .1;
        let conn = &mut self.conns[oldest];
        self.line.clear();
        if conn.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let (i, sent) = conn.inflight.pop_front().expect("chosen for its front");
        seen.record(&ops[i], &expected[i], &self.line, sent);
        Ok(())
    }

    /// Run one segment's pipelined operations through the sliding
    /// windows, then drain them (the barrier).
    fn run_window(
        &mut self,
        ops: &[Op],
        expected: &[Option<String>],
        seen: &mut Observed,
    ) -> std::io::Result<()> {
        let mut next = 0;
        loop {
            // Refill: each op goes to its pinned connection, else to the
            // emptier one; stop at the first op that finds no free slot.
            while next < ops.len() {
                let c = ops[next].pinned.unwrap_or_else(|| {
                    (0..self.conns.len())
                        .min_by_key(|&c| self.conns[c].inflight.len())
                        .expect("at least one connection")
                });
                let conn = &mut self.conns[c];
                if conn.inflight.len() >= WINDOW {
                    break;
                }
                conn.outbox.extend_from_slice(ops[next].line.as_bytes());
                conn.outbox.push(b'\n');
                // Stamped at queueing; the write follows within the loop.
                conn.inflight.push_back((next, Instant::now()));
                next += 1;
            }
            for conn in &mut self.conns {
                if !conn.outbox.is_empty() {
                    conn.writer.write_all(&conn.outbox)?;
                    conn.outbox.clear();
                }
            }
            if self.conns.iter().all(|c| c.inflight.is_empty()) {
                return Ok(());
            }
            self.read_one(ops, expected, seen)?;
        }
    }
}

/// The daemon child: this executable again, as `bench daemon …`.
struct Daemon {
    child: Child,
    addr: String,
    pid: String,
}

impl Daemon {
    fn spawn(plan: &Plan) -> std::io::Result<Daemon> {
        let exe = std::env::current_exe()?;
        let mut cmd = Command::new(exe);
        cmd.args(["daemon", "--scheduler", plan.scheduler])
            .args(["--shards", &plan.shards.to_string()])
            .args(["--queue-bound", &(plan.jobs + 1).to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        if plan.replica {
            cmd.arg("--replica");
        }
        let mut child = cmd.spawn()?;
        let mut first = String::new();
        BufReader::new(child.stdout.take().expect("stdout was piped")).read_line(&mut first)?;
        let Some(addr) = first.trim().strip_prefix("listening ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::Error::other(format!(
                "daemon child did not come up: {first:?}"
            )));
        };
        Ok(Daemon {
            pid: child.id().to_string(),
            addr: addr.to_string(),
            child,
        })
    }

    /// Wait (up to 5 s) for the child to exit by itself after `shutdown`;
    /// `true` if it did, with status 0.
    fn reap(mut self) -> bool {
        for _ in 0..500 {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                Err(_) => break,
            }
        }
        false
    }
}

/// No repetition — aborted or not — leaves a daemon behind.
impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Entry point of the daemon child (`bench daemon …`): the public
/// `Server` with a virtual clock on a loopback port of the kernel's
/// choosing, announced on stdout.
pub fn daemon_main(args: &[String]) -> ! {
    let mut config = ServeConfig {
        virtual_clock: true,
        ..ServeConfig::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_default();
        match flag.as_str() {
            "--scheduler" => {
                config.scheduler = SchedulerSpec::parse(&value()).unwrap_or_else(|e| {
                    eprintln!("bench daemon: {e}");
                    std::process::exit(2)
                })
            }
            "--shards" => config.shards = value().parse().unwrap_or(1).max(1),
            "--queue-bound" => config.queue_bound = value().parse().unwrap_or(config.queue_bound),
            "--replica" => config.replica = true,
            other => {
                eprintln!("bench daemon: unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    let server = Server::start("127.0.0.1:0", config).unwrap_or_else(|e| {
        eprintln!("bench daemon: cannot listen: {e}");
        std::process::exit(1)
    });
    println!("listening {}", server.addr());
    let _ = std::io::stdout().flush();
    server.join();
    std::process::exit(0)
}

/// Everything one repetition against a fresh daemon produced.
struct RepOutcome {
    rep: Rep,
    seen: Observed,
    /// The daemon's final `metrics` reply.
    metrics: Json,
    /// `shutdown` reply said graceful and nothing unfinished; the child
    /// exited with status 0.
    clean_exit: bool,
    daemon_cpu_s: f64,
    ctx_switches: u64,
    rss_end_kb: f64,
    client_cpu_s: f64,
    ping_rtt_us: f64,
}

/// Where a traced repetition files its spans.
struct Spans<'a> {
    tracer: &'a mut Tracer,
    root: SpanId,
}

/// One repetition: set-up (script, spawn until the first `ping` reply),
/// the timed phase (first request to final-drain reply), then the
/// daemon's last words.
fn run_rep(
    plan: &Plan,
    seed: u64,
    expected: &[Vec<Option<String>>],
    mut spans: Option<Spans>,
) -> std::io::Result<RepOutcome> {
    let t0 = Instant::now();
    let script = script(plan, seed);
    let daemon = Daemon::spawn(plan)?;
    let mut client = Client::connect(&daemon.addr)?;
    client.call("{\"op\":\"ping\"}")?;
    let setup_s = secs(t0);
    if let Some(s) = spans.as_mut() {
        s.tracer
            .record("setup", LAYER_SPAWN, Some(s.root), 0, t0, Instant::now());
    }

    // Window-1 round trips, before any load: the transport's floor.
    let mut ping_rtt_us = 0.0;
    if spans.is_some() {
        let mut rtts: Vec<f64> = Vec::new();
        for _ in 0..2_000 {
            let (_, sent) = client.call("{\"op\":\"ping\"}")?;
            rtts.push(sent.elapsed().as_nanos() as f64 / 1e3);
        }
        ping_rtt_us = median(&rtts).unwrap_or(0.0);
    }

    let mut seen = Observed::default();
    let half = script.len() / 2;
    let cpu0 = proc_cpu_s(&daemon.pid).unwrap_or(0.0);
    let ctx0 = proc_ctx_switches(&daemon.pid).unwrap_or(0);
    let own_cpu0 = proc_cpu_s("self").unwrap_or(0.0);
    let start = Instant::now();
    let timed = spans.as_mut().map(|s| {
        let root = s.root;
        s.tracer.open("timed-phase", LAYER_TRANSPORT, Some(root), 0)
    });
    for (k, (segment, expected)) in script.iter().zip(expected).enumerate() {
        let span = spans.as_mut().map(|s| {
            s.tracer
                .open(format!("segment:{k}"), LAYER_TRANSPORT, timed, k as u64)
        });
        let (for_window, for_barrier) = expected.split_at(segment.window.len());
        client.run_window(&segment.window, for_window, &mut seen)?;
        let mut crashed_at = None;
        for (op, want) in segment.barrier.iter().zip(for_barrier) {
            let (reply, sent) = client.call(&op.line)?;
            seen.record(op, want, &reply, sent);
            match (op.kind, crashed_at) {
                (OpKind::Crash, _) => crashed_at = Some(sent),
                (_, Some(crash)) => {
                    seen.failover_s = Some(secs(crash));
                    crashed_at = None;
                }
                _ => {}
            }
        }
        if let (Some(s), Some(span)) = (spans.as_mut(), span) {
            s.tracer.close(span);
            if k + 1 == half {
                seen.rss_mid_kb = proc_status_mb(&daemon.pid, "VmRSS:").map(|mb| mb * 1024.0);
            }
        }
    }
    let wall_s = secs(start);
    if let (Some(s), Some(timed)) = (spans.as_mut(), timed) {
        s.tracer.close(timed);
        for agg in seen.per_kind.values() {
            s.tracer.fold(timed, agg.clone());
        }
    }
    let daemon_cpu_s = proc_cpu_s(&daemon.pid).unwrap_or(0.0) - cpu0;
    // A thread that exits (the crashed shard) takes its count with it.
    let ctx_switches = proc_ctx_switches(&daemon.pid)
        .unwrap_or(0)
        .saturating_sub(ctx0);
    let client_cpu_s = proc_cpu_s("self").unwrap_or(0.0) - own_cpu0;

    let (metrics, _) = client.call("{\"op\":\"metrics\"}")?;
    let metrics = jobsched_json::parse(metrics.trim()).unwrap_or(Json::Null);
    let peak_rss_mb = proc_status_mb(&daemon.pid, "VmHWM:").unwrap_or(0.0);
    let rss_end_kb = proc_status_mb(&daemon.pid, "VmRSS:").unwrap_or(0.0) * 1024.0;
    let (bye, _) = client.call("{\"op\":\"shutdown\",\"graceful\":true}")?;
    let bye = jobsched_json::parse(bye.trim()).unwrap_or(Json::Null);
    let graceful = bye.get("ok").and_then(Json::as_bool) == Some(true)
        && bye.get("unfinished").and_then(Json::as_u64) == Some(0);
    drop(client);
    let clean_exit = daemon.reap() && graceful;

    seen.latencies_ns.sort_unstable();
    let us = |ns: Option<u64>| ns.map_or(0.0, |v| v as f64 / 1e3);
    let finished = metrics
        .get("jobs_finished")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let rep = Rep {
        setup_s,
        wall_s,
        jobs: finished,
        requests: seen.requests,
        p50_us: us(percentile(&seen.latencies_ns, 50.0)),
        p99_us: us(p99_or_highest(&seen.latencies_ns).map(|t| t.value)),
        peak_rss_mb,
        failover_s: seen.failover_s,
    };
    Ok(RepOutcome {
        rep,
        seen,
        metrics,
        clean_exit,
        daemon_cpu_s,
        ctx_switches,
        rss_end_kb,
        client_cpu_s,
        ping_rtt_us,
    })
}

/// The per-shard snapshots of a `metrics` reply (the reply itself for a
/// single shard).
fn shard_metrics(reply: &Json) -> Vec<Json> {
    match reply.get("shards").and_then(Json::as_arr) {
        Some(parts) => parts.to_vec(),
        None => vec![reply.clone()],
    }
}

/// The fields of a shard's final state that must survive serving,
/// sharding and failover bit for bit.
fn served_state(m: &Json) -> (u64, u64, u64, u64, u64) {
    let int = |k: &str| m.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX);
    let bits = |k: &str| {
        m.get(k)
            .and_then(Json::as_f64)
            .map_or(u64::MAX, f64::to_bits)
    };
    (
        int("jobs_finished"),
        int("jobs_cancelled"),
        bits("art"),
        bits("awrt"),
        int("makespan"),
    )
}

/// Compare one repetition's outcome with the reference. Every request
/// and every job that should finish is one attempted operation.
fn check_rep(reference: &Replay, out: &RepOutcome, tally: &mut Tally) {
    // A request that was refused, or answered differently from the
    // engine, failed.
    tally.bulk(out.seen.requests, out.seen.failed, || {
        out.seen.failures.join("; ")
    });
    tally.check(out.seen.requests == reference.requests, || {
        format!(
            "client completed {} of {} requests",
            out.seen.requests, reference.requests
        )
    });
    tally.check(out.clean_exit, || {
        "daemon did not shut down gracefully with nothing unfinished".into()
    });
    let served = shard_metrics(&out.metrics);
    tally.check(served.len() == reference.final_metrics.len(), || {
        format!("daemon reports {} shards", served.len())
    });
    for (k, (got, want)) in served.iter().zip(&reference.final_metrics).enumerate() {
        tally.check(served_state(got) == served_state(want), || {
            format!(
                "shard {k}: served {:?} != in-process engine {:?}",
                served_state(got),
                served_state(want)
            )
        });
    }
    // Jobs: the daemon must finish as many as the reference, which
    // itself must have drained (checked once, in `check_reference`).
    let due: u64 = reference
        .final_metrics
        .iter()
        .map(|m| count(m, "jobs_finished"))
        .sum();
    tally.bulk(due, due.saturating_sub(out.rep.jobs), || {
        format!("daemon finished {} of {due} jobs", out.rep.jobs)
    });
}

fn count(m: &Json, key: &str) -> u64 {
    m.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// The reference must be sound before anything is compared with it:
/// every job submitted, none left waiting or running after the drain.
fn check_reference(plan: &Plan, reference: &Replay, tally: &mut Tally) {
    let sum = |key: &str| -> u64 { reference.final_metrics.iter().map(|m| count(m, key)).sum() };
    tally.check(sum("backlog") == 0 && sum("running") == 0, || {
        "in-process engines did not drain".into()
    });
    tally.check(
        sum("jobs_finished") + sum("jobs_cancelled") >= plan.jobs as u64
            && sum("jobs_finished") <= plan.jobs as u64,
        || {
            format!(
                "in-process engines finished {} and cancelled {} of {} jobs",
                sum("jobs_finished"),
                sum("jobs_cancelled"),
                plan.jobs
            )
        },
    );
}

/// `serve-submit` only: the served schedule must equal a batch
/// `simulate` of the same jobs.
fn check_against_batch(plan: &Plan, seed: u64, reference: &Replay) -> Result<(), String> {
    let jobs: Vec<Job> = serve_jobs(plan.base_jobs, plan.jobs, seed)
        .iter()
        .map(|j| {
            // As the daemon builds them from the wire fields.
            JobBuilder::new(JobId(j.id.0))
                .submit(j.submit)
                .nodes(j.nodes)
                .requested(j.requested_time.max(1))
                .runtime(j.runtime.max(1))
                .user(j.user)
                .build()
        })
        .collect();
    let config = plan.config();
    let w = Workload::new("served", config.machine_nodes, jobs);
    let SchedulerSpec::List(spec) = config.scheduler else {
        return Err("plan's scheduler is not a matrix row".into());
    };
    let mut scheduler = spec.build(WeightScheme::Unweighted);
    let out = simulate(&w, &mut scheduler);
    let violations = out.schedule.validate(&w);
    if !violations.is_empty() {
        return Err(format!("batch schedule invalid: {:?}", violations[0]));
    }
    let art = ObjectiveKind::AvgResponseTime
        .build()
        .cost(&w, &out.schedule);
    let awrt = ObjectiveKind::AvgWeightedResponseTime
        .build()
        .cost(&w, &out.schedule);
    let batch = (
        w.len() as u64,
        0,
        art.to_bits(),
        awrt.to_bits(),
        out.schedule.makespan(),
    );
    let served = served_state(&reference.final_metrics[0]);
    if batch != served {
        return Err(format!("batch simulate {batch:?} != engine {served:?}"));
    }
    Ok(())
}

fn digest_of(reference: &Replay) -> String {
    let mut d = StableHasher::new();
    for text in reference.expected.iter().flatten().flatten() {
        d.write_str(text);
    }
    for m in &reference.final_metrics {
        let (finished, cancelled, art, awrt, makespan) = served_state(m);
        for v in [finished, cancelled, art, awrt, makespan] {
            d.write_u64(v);
        }
    }
    d.finish_hex()
}

/// The untraced run of a serve workload.
pub fn run(plan: &Plan, ctx: &Ctx) -> RunReport {
    let def = spec::workload(plan.name).expect("named in spec::WORKLOADS");
    let mut report = RunReport::new(def, ctx.seed);
    let reference = replay(plan, &script(plan, ctx.seed));
    report.sim_digest = digest_of(&reference);
    check_reference(plan, &reference, &mut report.tally);
    let mut latencies: Vec<u64> = Vec::new();

    repeat(def.min_reps, ctx.seconds, |_| {
        let t0 = Instant::now();
        match run_rep(plan, ctx.seed, &reference.expected, None) {
            Ok(out) => {
                check_rep(&reference, &out, &mut report.tally);
                latencies.extend_from_slice(&out.seen.latencies_ns);
                let wall = out.rep.wall_s;
                report.reps.push(out.rep);
                wall
            }
            Err(e) => {
                report.check(false, || format!("repetition aborted: {e}"));
                secs(t0)
            }
        }
    });
    let peaks: Vec<f64> = report.reps.iter().map(|r| r.peak_rss_mb).collect();
    report.peak_rss_mb = median(&peaks).unwrap_or(0.0);
    latencies.sort_unstable();
    report.tail = highest_tail(&latencies);
    if !plan.mixed {
        let verdict = check_against_batch(plan, ctx.seed, &reference);
        report.check(verdict.is_ok(), || verdict.unwrap_err());
    }
    report
}

/// The traced run: an untraced repetition for reference, the traced one
/// (spans per segment, `/proc` sampling, window-1 pings), and the
/// in-process replay that prices JSON, protocol and engine per request.
pub fn trace(plan: &Plan, ctx: &Ctx) -> TraceReport {
    let def = spec::workload(plan.name).expect("named in spec::WORKLOADS");
    let mut report = TraceReport::new(def, ctx.seed);
    let root = report.tracer.open(plan.name, HARNESS, None, 0);
    let span = report
        .tracer
        .open("generate:script", "workload", Some(root), 0);
    let script = script(plan, ctx.seed);
    report.tracer.close(span);

    // The in-process replay, stage by stage.
    let span = report.tracer.open("inproc:replay", HARNESS, Some(root), 0);
    let reference = replay(plan, &script);
    report.tracer.close(span);
    let stages = [
        &reference.parse,
        &reference.protocol,
        &reference.encode,
        &reference.last_words,
    ];
    for agg in stages.into_iter().chain(reference.handle.values()) {
        report.tracer.fold(span, agg.clone());
    }
    let requests = reference.requests as f64;
    let handle_ns: u64 = reference.handle.values().map(|a| a.sum_ns).sum();
    let inproc_ns =
        reference.parse.sum_ns + reference.protocol.sum_ns + reference.encode.sum_ns + handle_ns;
    report.set("json.parse_ns_per_req", reference.parse.mean_ns());
    report.set("json.encode_ns_per_reply", reference.encode.mean_ns());
    report.set(
        "serve.protocol.parse_ns_per_req",
        reference.protocol.mean_ns(),
    );
    report.set("serve.inproc_us_per_req", inproc_ns as f64 / 1e3 / requests);
    let mean_of = |kind| reference.handle.get(&kind).map_or(0.0, Agg::mean_ns);
    report.set("serve.engine.submit_ns", mean_of(OpKind::Submit));
    report.set("serve.engine.status_ns", mean_of(OpKind::Status));
    report.set("serve.engine.cancel_ns", mean_of(OpKind::Cancel));
    report.set("serve.engine.queue_ns", mean_of(OpKind::Queue));
    report.set("serve.engine.metrics_ns", mean_of(OpKind::Metrics));
    let advance_ns = reference
        .handle
        .get(&OpKind::Advance)
        .map_or(0, |a| a.sum_ns);
    report.set(
        "serve.engine.advance_ns_per_job",
        advance_ns as f64 / plan.jobs as f64,
    );
    report.set("serve.engine.policy_set_ms", mean_of(OpKind::Policy) / 1e6);

    // Checkpoint, its JSON, and restore — through `Engine::handle`: the
    // wire refuses any line over MAX_LINE (64 KiB ≈ 700 inputs).
    let span = report
        .tracer
        .open("inproc:checkpoint-restore", LAYER_ENGINE, Some(root), 0);
    let probe = crate::layers::checkpoint_probe(plan.config(), &reference.checkpoints);
    report.tracer.close(span);
    report.set("serve.engine.checkpoint_ms", probe.checkpoint_ms);
    report.set(
        "serve.engine.restore_us_per_input",
        probe.restore_us_per_input,
    );
    report.set(
        "serve.checkpoint_bytes_per_job",
        probe.bytes as f64 / plan.jobs as f64,
    );
    report.set("json.parse_mb_per_s", probe.parse_mb_per_s);
    report.check(probe.restored_matches, || {
        "an engine restored from its checkpoint reports different metrics".into()
    });

    check_reference(plan, &reference, &mut report.tally);

    // The wire, untraced then traced. From outside a repetition is one
    // block of transport time; the stages above say what it contains.
    let span = report
        .tracer
        .open("wire:untraced", LAYER_TRANSPORT, Some(root), 0);
    let plain = run_rep(plan, ctx.seed, &reference.expected, None);
    report.tracer.close(span);
    let span = report
        .tracer
        .open("wire:traced", LAYER_TRANSPORT, Some(root), 1);
    let traced = run_rep(
        plan,
        ctx.seed,
        &reference.expected,
        Some(Spans {
            tracer: &mut report.tracer,
            root: span,
        }),
    );
    report.tracer.close(span);
    report.tracer.close(root);
    match (plain, traced) {
        (Ok(plain), Ok(out)) => {
            report.untraced_wall_s = plain.rep.wall_s;
            report.traced_wall_s = out.rep.wall_s;
            check_rep(&reference, &out, &mut report.tally);
            let n = out.seen.requests as f64;
            report.set(
                "serve.transport_us_per_req",
                plain.rep.wall_s * 1e6 / plain.seen.requests as f64
                    - inproc_ns as f64 / 1e3 / requests,
            );
            report.set("serve.ping_rtt_us", out.ping_rtt_us);
            let mut advances = out.seen.advance_ns.clone();
            advances.sort_unstable();
            report.set(
                "serve.advance_p50_us",
                percentile(&advances, 50.0).unwrap_or(0) as f64 / 1e3,
            );
            report.set("serve.daemon_cpu_us_per_req", out.daemon_cpu_s * 1e6 / n);
            report.set("serve.ctx_switches_per_req", out.ctx_switches as f64 / n);
            report.set("serve.client_cpu_s", out.client_cpu_s);
            if let Some(mid) = out.seen.rss_mid_kb {
                let jobs_k = plan.jobs as f64 / 2.0 / 1e3;
                report.set("serve.rss_kb_per_1k_jobs", (out.rss_end_kb - mid) / jobs_k);
            }
            let slow = out
                .seen
                .latencies_ns
                .iter()
                .filter(|&&ns| ns > SLO_US * 1_000)
                .count() as u64;
            report.set(
                "serve.slo_miss_ratio",
                (slow + out.seen.failed) as f64 / n.max(1.0),
            );
            if let Some(f) = out.seen.failover_s {
                report.set("serve.failover_s", f);
            }
        }
        (plain, traced) => {
            for e in [plain.err(), traced.err()].into_iter().flatten() {
                report.check(false, || format!("repetition aborted: {e}"));
            }
        }
    }
    report.reconcile(root, ctx);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(mixed: bool) -> Plan {
        let sizes = Sizes {
            serve_submit_jobs: 700,
            serve_mixed_jobs: 700,
            serve_block: 128,
            ..Sizes::smoke()
        };
        if mixed {
            Plan::mixed(&sizes)
        } else {
            Plan::submit(&sizes)
        }
    }

    #[test]
    fn mixed_script_has_the_stated_shape() {
        let plan = tiny(true);
        let s = script(&plan, 3);
        let count = |kind| {
            s.iter()
                .flat_map(|seg| seg.window.iter().chain(&seg.barrier))
                .filter(|op| op.kind == kind)
                .count()
        };
        assert_eq!(count(OpKind::Submit), plan.jobs);
        assert_eq!(count(OpKind::Policy), 1);
        assert_eq!(count(OpKind::Checkpoint), 1);
        assert_eq!(count(OpKind::Crash), 1);
        assert_eq!(count(OpKind::Advance), s.len());
        assert!(count(OpKind::Cancel) > 0 && count(OpKind::Status) > count(OpKind::Cancel));
        // Every id-keyed target was submitted behind an earlier barrier,
        // every cancel travels on connection 0, nothing is cancelled
        // twice, and every lined request parses back to itself.
        let mut submitted = 0u32;
        let mut cancelled = std::collections::BTreeSet::new();
        for seg in &s {
            let behind = submitted;
            for op in seg.window.iter().chain(&seg.barrier) {
                let parsed = parse_request(&jobsched_json::parse(&op.line).unwrap()).unwrap();
                assert_eq!(parsed, op.request);
                match op.request {
                    Request::Submit { id, .. } => {
                        assert_eq!(id, Some(submitted));
                        submitted += 1;
                    }
                    Request::Status { id } => assert!(id < behind.max(1)),
                    Request::Cancel { id } => {
                        assert!(id < behind);
                        assert!(cancelled.insert(id));
                        assert_eq!(op.pinned, Some(0));
                    }
                    _ => {}
                }
            }
        }
        // The drain comes last; every earlier advance names an instant.
        let advances: Vec<_> = s
            .iter()
            .map(|seg| seg.barrier.last().unwrap().request.clone())
            .collect();
        assert_eq!(advances.last(), Some(&Request::Advance { to: None }));
        assert!(advances[..advances.len() - 1]
            .iter()
            .all(|r| matches!(r, Request::Advance { to: Some(_) })));
    }

    #[test]
    fn replay_finishes_every_uncancelled_job_and_prices_every_stage() {
        for mixed in [false, true] {
            let plan = tiny(mixed);
            let r = replay(&plan, &script(&plan, 5));
            assert_eq!(r.final_metrics.len(), plan.shards);
            let sum = |k: &str| -> u64 {
                r.final_metrics
                    .iter()
                    .map(|m| m.get(k).unwrap().as_u64().unwrap())
                    .sum()
            };
            let mut tally = Tally::default();
            check_reference(&plan, &r, &mut tally);
            assert!(tally.correct(), "{:?}", tally.failures);
            assert!(sum("jobs_finished") <= plan.jobs as u64);
            assert!(sum("jobs_finished") + sum("jobs_cancelled") >= plan.jobs as u64);
            assert_eq!(r.parse.count, r.requests);
            assert_eq!(r.encode.count, r.requests);
            if !mixed {
                assert_eq!(sum("jobs_finished"), plan.jobs as u64);
                check_against_batch(&plan, 5, &r).unwrap();
            }
        }
    }
}
