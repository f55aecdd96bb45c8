//! One scheduler shard: an engine owning the clock, the [`LiveSim`]
//! core, the scheduler, and all serving bookkeeping.
//!
//! ## Threading model
//!
//! One engine runs per *shard*, and every shard's engine lives on the
//! reactor thread (see [`crate::reactor`]), which calls
//! [`Engine::handle`] for each request in the order it decoded them.
//! An engine is plain single-owner state — no locks, no channels — and
//! in-process callers drive it the same way.
//!
//! ## Sharding
//!
//! A sharded daemon runs N engines, each an independent full machine.
//! Shard k owns exactly the job ids `≡ k (mod N)` — explicit ids route
//! by `id % N`, and auto-assigned ids are *striped*: shard k only ever
//! assigns ids in its own residue class (`id_offset`/`id_stride`), so a
//! shard's schedule is bit-identical to a single-shard daemon (or a
//! batch run) fed only its residue class of the trace.
//!
//! ## Time
//!
//! The engine never processes an event before its [`Clock`] says the
//! instant is due. Under [`Clock::Wall`] the reactor pumps it when its
//! next event matures or a command arrives; under [`Clock::Virtual`]
//! time moves only through the `advance` command — which is what makes
//! served schedules deterministic and bit-comparable to batch
//! simulation.
//!
//! ## Determinism
//!
//! Future-dated submissions are buffered in a `(submit, id)`-ordered map
//! and injected into [`LiveSim`] in key order as their instants mature.
//! Two clients racing to submit jobs for the same virtual instant
//! therefore enter the engine in *job-id* order regardless of socket
//! arrival order — the same order a batch `Workload` presents them.
//!
//! ## Checkpoint / restore
//!
//! The engine's history is one [`InputLog`] (see [`crate::log`]): every
//! admitted submission, cancellation, and policy override with the
//! simulated instant it was applied at, appended by `Engine::record`
//! and nowhere else. A checkpoint is that log serialised. Restore takes
//! a typed log and replays it on a virtual clock — the engine re-derives
//! machine, queue, and scheduler state by running the same deterministic
//! code path it ran live, re-recording each input into its own fresh
//! log — then re-anchors the configured clock at the checkpoint instant.
//! State that is pure *output* (placements, metrics) is reproduced, not
//! stored. The log is also the shard's warm standby: when the shard
//! dies the reactor takes it by value and promotes it
//! ([`crate::replica`]).

use crate::clock::Clock;
use crate::log::{check_horizon, check_width, InputLog, InputOp, InputRecord};
use crate::protocol::{self, PolicyForce, Request};
use crate::{SchedulerSpec, ServeConfig};
use jobsched_algos::{AlgorithmSpec, ListScheduler};
use jobsched_json::Json;
use jobsched_metrics::OnlineMetrics;
use jobsched_sim::{CancelPhase, JobEvent, LiveSim, Scheduler, SimObserver};
use jobsched_workload::{Job, JobBuilder, JobId, Time};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::{Duration, Instant};

/// Where `status` finds a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct DoneRec {
    start: Option<Time>,
    completion: Time,
    cancelled: bool,
}

/// Lifecycle index fed by [`LiveSim`] events: answers `status` and
/// `queue` in O(log n) without touching scheduler internals. Completed
/// records are capped; the oldest are retired to keep a long-running
/// daemon's memory bounded.
struct StatusStore {
    waiting: BTreeSet<JobId>,
    running: BTreeMap<JobId, Time>,
    done: BTreeMap<JobId, DoneRec>,
    done_order: VecDeque<JobId>,
    retain: usize,
}

impl StatusStore {
    fn new(retain: usize) -> Self {
        StatusStore {
            waiting: BTreeSet::new(),
            running: BTreeMap::new(),
            done: BTreeMap::new(),
            done_order: VecDeque::new(),
            retain: retain.max(1),
        }
    }

    fn push_done(&mut self, id: JobId, rec: DoneRec) {
        if self.done.insert(id, rec).is_none() {
            self.done_order.push_back(id);
        }
        while self.done.len() > self.retain {
            let oldest = self.done_order.pop_front().expect("order tracks done");
            self.done.remove(&oldest);
        }
    }
}

impl SimObserver for StatusStore {
    fn on_event(&mut self, event: &JobEvent) {
        match event {
            JobEvent::Submitted(req) => {
                self.waiting.insert(req.id);
            }
            JobEvent::Started { id, at, .. } => {
                self.waiting.remove(id);
                self.running.insert(*id, *at);
            }
            // A preempted job leaves the nodes but is neither waiting
            // (the engine, not the queue, will restart it) nor done:
            // report it as waiting until its resume re-starts it.
            JobEvent::Preempted { id, .. } => {
                self.running.remove(id);
                self.waiting.insert(*id);
            }
            JobEvent::Resumed { id, at, .. } => {
                self.waiting.remove(id);
                self.running.insert(*id, *at);
            }
            JobEvent::Finished(o) => {
                self.running.remove(&o.id);
                self.push_done(
                    o.id,
                    DoneRec {
                        start: Some(o.start),
                        completion: o.completion,
                        cancelled: false,
                    },
                );
            }
            JobEvent::Cancelled { id, at, phase, run } => match phase {
                CancelPhase::Running => {
                    self.running.remove(id);
                    self.push_done(
                        *id,
                        DoneRec {
                            start: run.map(|o| o.start),
                            completion: *at,
                            cancelled: true,
                        },
                    );
                }
                CancelPhase::Queued => {
                    self.waiting.remove(id);
                    self.push_done(
                        *id,
                        DoneRec {
                            start: None,
                            completion: *at,
                            cancelled: true,
                        },
                    );
                }
                CancelPhase::Preempted => {
                    self.waiting.remove(id);
                    self.push_done(
                        *id,
                        DoneRec {
                            start: run.map(|o| o.start),
                            completion: *at,
                            cancelled: true,
                        },
                    );
                }
                CancelPhase::PreSubmit | CancelPhase::AlreadyFinished => {}
            },
        }
    }
}

/// The serving engine. See the module docs for the big picture.
pub struct Engine {
    config: ServeConfig,
    clock: Clock,
    live: LiveSim,
    scheduler: ListScheduler,
    /// Future-dated submissions, keyed `(submit, id)` so same-instant
    /// jobs inject in id order — the batch engine's order.
    pending: BTreeMap<(Time, JobId), Job>,
    used_ids: BTreeSet<JobId>,
    cancelled_presubmit: BTreeSet<JobId>,
    store: StatusStore,
    metrics: OnlineMetrics,
    /// The shard's history, its scalars kept current on every pump.
    log: InputLog,
    draining: bool,
    dirty: bool,
    /// Next auto-id candidate; past `u32::MAX` once the residue class
    /// has no id left.
    next_auto_id: u64,
    /// Auto-assigned ids satisfy `id ≡ id_offset (mod id_stride)` —
    /// the shard's residue class. `(0, 1)` for an unsharded engine.
    id_offset: u32,
    id_stride: u32,
    requests: u64,
    rejected: u64,
}

impl Engine {
    /// A fresh unsharded engine for `config`.
    pub fn new(config: ServeConfig) -> Self {
        Engine::for_shard(config, 0, 1, None)
    }

    /// A fresh engine owning shard `shard` of `shards`. All shards of
    /// one daemon share a wall-clock `origin` so their notions of "now"
    /// agree exactly (`None` anchors at construction time).
    pub fn for_shard(
        config: ServeConfig,
        shard: usize,
        shards: usize,
        origin: Option<Instant>,
    ) -> Self {
        assert!(shards >= 1 && shard < shards, "shard {shard} of {shards}");
        let clock = if config.virtual_clock {
            Clock::virtual_at(0)
        } else {
            let origin = origin.unwrap_or_else(Instant::now);
            Clock::wall_with_origin(origin, 0, config.time_scale)
        };
        Engine {
            clock,
            live: LiveSim::new(config.machine_nodes),
            scheduler: config.scheduler.build(),
            pending: BTreeMap::new(),
            used_ids: BTreeSet::new(),
            cancelled_presubmit: BTreeSet::new(),
            store: StatusStore::new(config.retain_completed),
            metrics: OnlineMetrics::new(config.machine_nodes),
            log: InputLog::default(),
            draining: false,
            dirty: false,
            next_auto_id: shard as u64,
            id_offset: shard as u32,
            id_stride: shards as u32,
            requests: 0,
            rejected: 0,
            config,
        }
    }

    /// The dead engine's input log, as of its last pump — what the
    /// reactor promotes the shard's replica from.
    pub(crate) fn into_log(self) -> InputLog {
        self.log
    }

    /// Bring the scalars the log's records cannot reproduce up to date.
    fn sync_log(&mut self, now: Time) {
        self.log.now = self.log.now.max(now);
        self.log.draining = self.draining;
        self.log.next_auto_id = self.next_auto_id;
    }

    /// Current simulated instant.
    pub fn now(&self) -> Time {
        self.clock.now()
    }

    /// `true` when time only moves via the `advance` op.
    pub(crate) fn is_virtual(&self) -> bool {
        self.clock.is_virtual()
    }

    /// Real time until the next scheduled event matures (`None`: no
    /// event is scheduled). The reactor sleeps at most this long.
    pub(crate) fn delay_to_next(&self) -> Option<Duration> {
        self.next_instant().map(|t| self.clock.real_delay_until(t))
    }

    /// Earliest instant at which anything is scheduled to happen.
    fn next_instant(&self) -> Option<Time> {
        [
            self.live.next_event_time(),
            self.pending.keys().next().map(|k| k.0),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Inject matured future-dated submissions, in `(submit, id)` order.
    fn refill(&mut self, now: Time) {
        while let Some((&(t, _), _)) = self.pending.first_key_value() {
            if t > now {
                break;
            }
            let (_, job) = self.pending.pop_first().expect("checked non-empty");
            self.live.add_job(job);
        }
    }

    /// Process every event due at or before the clock's "now".
    pub(crate) fn pump(&mut self) {
        let now = self.clock.now();
        // A standby must be promotable at any instant.
        self.sync_log(now);
        self.refill(now);
        while self.live.next_event_time().is_some_and(|t| t <= now) {
            let next_external = self.pending.keys().next().map(|k| k.0);
            let Engine {
                live,
                scheduler,
                store,
                metrics,
                ..
            } = self;
            let mut obs: [&mut dyn SimObserver; 2] = [store, metrics];
            live.step(scheduler, next_external, true, &mut obs);
            self.refill(now);
        }
    }

    /// Advance virtual time instant by instant up to `to` (or to
    /// quiescence when `None`), processing each batch as its instant is
    /// reached — the exact cadence of the batch engine's loop.
    fn advance(&mut self, to: Option<Time>) -> Result<(), String> {
        if !self.clock.is_virtual() {
            return Err("advance requires a virtual clock (start with --virtual)".into());
        }
        while let Some(t) = self.next_instant() {
            if to.is_some_and(|lim| t > lim) {
                break;
            }
            self.clock.advance_to(t.max(self.clock.now()));
            self.pump();
        }
        if let Some(lim) = to {
            if lim > self.clock.now() {
                self.clock.advance_to(lim);
                self.pump();
            }
        }
        Ok(())
    }

    /// Append one input to the log: the single point through which
    /// every replayable mutation passes.
    fn record(&mut self, rec: InputRecord) {
        self.log.push(rec);
        self.dirty = true;
    }

    /// Raise `next_auto_id` to at least `floor`, rounded up into this
    /// shard's residue class so auto-ids never leave it.
    fn bump_auto_id(&mut self, floor: u64) {
        let stride = u64::from(self.id_stride);
        let offset = u64::from(self.id_offset);
        let aligned = if floor % stride <= offset {
            floor - floor % stride + offset
        } else {
            floor - floor % stride + stride + offset
        };
        self.next_auto_id = self.next_auto_id.max(aligned);
    }

    /// Admit a validated job: record it and buffer it for injection.
    fn admit(&mut self, job: Job) {
        self.used_ids.insert(job.id);
        self.bump_auto_id(u64::from(job.id.0) + 1);
        self.record(InputRecord {
            at: self.clock.now(),
            op: InputOp::Submit(job.clone()),
        });
        self.pending.insert((job.submit, job.id), job);
    }

    /// Apply a cancellation (shared by live handling and replay).
    /// Returns the lifecycle phase label for the reply.
    fn apply_cancel(&mut self, id: JobId) -> &'static str {
        let now = self.clock.now();
        self.record(InputRecord {
            at: now,
            op: InputOp::Cancel(id),
        });
        if let Some(key) = self.pending.keys().find(|k| k.1 == id).copied() {
            self.pending.remove(&key);
            self.cancelled_presubmit.insert(id);
            return "pre-submit";
        }
        let before = self.live.fault_log().len();
        self.live.push_cancel(now, id);
        self.pump();
        match self.live.fault_log().get(before) {
            Some(jobsched_sim::FaultOutcome::Cancelled { phase, .. }) => match phase {
                CancelPhase::PreSubmit => "pre-submit",
                CancelPhase::Running => "running",
                CancelPhase::Queued => "queued",
                CancelPhase::Preempted => "preempted",
                CancelPhase::AlreadyFinished => "already-finished",
            },
            _ => "already-cancelled", // duplicate: LiveSim ignored it
        }
    }

    /// Apply a regime override (shared by live handling and replay).
    fn apply_policy(&mut self, force: PolicyForce) -> Result<(), String> {
        let now = self.clock.now();
        if !self.scheduler.force_regime(force.regime()) {
            return Err(format!(
                "scheduler '{}' has no day/night regimes to force",
                self.scheduler.name()
            ));
        }
        self.record(InputRecord {
            at: now,
            op: InputOp::Policy(force),
        });
        // The flip re-orders the backlog: run a decision round now.
        self.live.request_decision(now);
        self.pump();
        Ok(())
    }

    /// Switch the running scheduler to another atlas row (shared by
    /// live handling and replay). The old scheduler's waiting backlog
    /// transfers: [`LiveSim`] re-presents it as submittable requests
    /// and the fresh scheduler absorbs them before its first decision
    /// round, so running jobs are untouched and no job is lost.
    fn apply_set_scheduler(&mut self, label: &str) -> Result<(), String> {
        let spec = SchedulerSpec::parse(label)?;
        let now = self.clock.now();
        let mut next = spec.build();
        for req in self.live.waiting_requests() {
            next.submit(req, now);
        }
        self.scheduler = next;
        self.record(InputRecord {
            at: now,
            op: InputOp::SetScheduler(spec.label()),
        });
        // The new policy may order the backlog differently: decide now.
        self.live.request_decision(now);
        self.pump();
        Ok(())
    }

    /// The servable policy atlas: every `AlgorithmSpec::atlas_matrix`
    /// row as `{label, policy, backfill}`, in matrix order. `label`
    /// round-trips through `policy set`.
    fn policy_rows() -> Json {
        let rows: Vec<Json> = AlgorithmSpec::atlas_matrix()
            .into_iter()
            .map(|spec| {
                let label = SchedulerSpec::List(spec).label();
                let (policy, backfill) = label.split_once('+').expect("labels are policy+backfill");
                Json::obj([
                    ("label", Json::Str(label.clone())),
                    ("policy", Json::Str(policy.into())),
                    ("backfill", Json::Str(backfill.into())),
                ])
            })
            .collect();
        Json::Arr(rows)
    }

    fn handle_submit(
        &mut self,
        id: Option<u32>,
        at: Option<Time>,
        nodes: u32,
        requested: Time,
        runtime: Time,
        user: u32,
    ) -> Json {
        if self.draining {
            self.rejected += 1;
            return rejected("draining", "daemon is draining; not admitting new jobs");
        }
        if let Err(e) = check_width(nodes, self.config.machine_nodes) {
            return protocol::error("invalid", e);
        }
        let backlog = self.store.waiting.len() + self.pending.len();
        if backlog >= self.config.queue_bound {
            self.rejected += 1;
            return rejected(
                "backpressure",
                format!(
                    "backlog {backlog} at the admission bound {}",
                    self.config.queue_bound
                ),
            );
        }
        let id = match id {
            Some(i) => {
                if self.used_ids.contains(&JobId(i)) {
                    return protocol::error("duplicate-id", format!("job id {i} already used"));
                }
                i
            }
            // Step by the shard stride: auto-ids stay in this shard's
            // residue class, and run out with it.
            None => loop {
                let Ok(id) = u32::try_from(self.next_auto_id) else {
                    return protocol::error(
                        "invalid",
                        format!(
                            "no job id ≡ {} (mod {}) is left to auto-assign",
                            self.id_offset, self.id_stride
                        ),
                    );
                };
                if !self.used_ids.contains(&JobId(id)) {
                    break id;
                }
                self.next_auto_id += u64::from(self.id_stride);
            },
        };
        let now = self.clock.now();
        let at = at.unwrap_or(now).max(now);
        let job = JobBuilder::new(JobId(id))
            .submit(at)
            .nodes(nodes)
            .requested(requested)
            .runtime(runtime)
            .user(user)
            .build();
        if let Err(e) = check_horizon(&job) {
            return protocol::error("invalid", e);
        }
        self.admit(job);
        self.pump();
        protocol::ok([("id", Json::UInt(id as u64)), ("at", Json::UInt(at))])
    }

    fn handle_cancel(&mut self, id: u32) -> Json {
        let jid = JobId(id);
        if !self.used_ids.contains(&jid) {
            return protocol::error("unknown-job", format!("job {id} was never submitted"));
        }
        if self.cancelled_presubmit.contains(&jid) {
            return protocol::ok([
                ("id", Json::UInt(id as u64)),
                ("phase", Json::Str("already-cancelled".into())),
            ]);
        }
        let phase = self.apply_cancel(jid);
        protocol::ok([
            ("id", Json::UInt(id as u64)),
            ("phase", Json::Str(phase.into())),
        ])
    }

    fn handle_status(&self, id: u32) -> Json {
        let jid = JobId(id);
        let with_state = |state: &str, extra: Vec<(&'static str, Json)>| {
            let mut fields = vec![
                ("id", Json::UInt(id as u64)),
                ("state", Json::Str(state.into())),
            ];
            fields.extend(extra);
            protocol::ok(fields)
        };
        if let Some((&(at, _), _)) = self.pending.iter().find(|((_, j), _)| *j == jid) {
            return with_state("pending", vec![("at", Json::UInt(at))]);
        }
        if self.store.waiting.contains(&jid) {
            return with_state("waiting", vec![]);
        }
        if let Some(&start) = self.store.running.get(&jid) {
            return with_state("running", vec![("start", Json::UInt(start))]);
        }
        if let Some(rec) = self.store.done.get(&jid) {
            let state = if rec.cancelled { "cancelled" } else { "done" };
            let mut extra = vec![("completion", Json::UInt(rec.completion))];
            if let Some(s) = rec.start {
                extra.insert(0, ("start", Json::UInt(s)));
            }
            return with_state(state, extra);
        }
        if self.cancelled_presubmit.contains(&jid) {
            return with_state("cancelled", vec![]);
        }
        if self.used_ids.contains(&jid) {
            // Completed long ago and evicted from the bounded store.
            return with_state("retired", vec![]);
        }
        protocol::error("unknown-job", format!("job {id} was never submitted"))
    }

    fn handle_queue(&self) -> Json {
        let waiting: Vec<Json> = self
            .store
            .waiting
            .iter()
            .take(1_000)
            .map(|id| Json::UInt(id.0 as u64))
            .collect();
        protocol::ok([
            ("now", Json::UInt(self.clock.now())),
            ("waiting", Json::UInt(self.store.waiting.len() as u64)),
            ("pending", Json::UInt(self.pending.len() as u64)),
            ("running", Json::UInt(self.store.running.len() as u64)),
            (
                "free_nodes",
                Json::UInt(self.live.machine().free_nodes() as u64),
            ),
            ("waiting_ids", Json::Arr(waiting)),
            ("draining", Json::Bool(self.draining)),
        ])
    }

    fn metrics_json(&self) -> Json {
        protocol::ok(self.metrics_fields())
    }

    fn metrics_fields(&self) -> Vec<(&'static str, Json)> {
        let s = self.metrics.snapshot();
        vec![
            ("now", Json::UInt(self.clock.now())),
            ("scheduler", Json::Str(self.scheduler.name())),
            ("jobs_submitted", Json::UInt(s.jobs_submitted)),
            ("jobs_started", Json::UInt(s.jobs_started)),
            ("jobs_finished", Json::UInt(s.jobs_finished)),
            ("jobs_cancelled", Json::UInt(s.jobs_cancelled)),
            ("art", Json::Num(s.art)),
            ("awrt", Json::Num(s.awrt)),
            ("bounded_slowdown", Json::Num(s.bounded_slowdown)),
            ("utilization", Json::Num(s.utilization)),
            ("makespan", Json::UInt(s.makespan)),
            (
                "backlog",
                Json::UInt((self.store.waiting.len() + self.pending.len()) as u64),
            ),
            ("running", Json::UInt(self.store.running.len() as u64)),
            (
                "free_nodes",
                Json::UInt(self.live.machine().free_nodes() as u64),
            ),
            ("requests", Json::UInt(self.requests)),
            ("rejected", Json::UInt(self.rejected)),
            ("draining", Json::Bool(self.draining)),
        ]
    }

    fn handle_policy(
        &mut self,
        force: Option<PolicyForce>,
        list: bool,
        set: Option<String>,
    ) -> Json {
        if let Some(label) = set {
            if let Err(e) = self.apply_set_scheduler(&label) {
                return protocol::error("unsupported", e);
            }
        }
        if let Some(f) = force {
            if let Err(e) = self.apply_policy(f) {
                return protocol::error("unsupported", e);
            }
        }
        let now = self.clock.now();
        let regime = match self.scheduler.active_regime_name(now) {
            Some(name) => Json::Str(name.into()),
            None => Json::Null,
        };
        let forced = match self.scheduler.forced_regime() {
            Some(true) => Json::Str("day".into()),
            Some(false) => Json::Str("night".into()),
            None => Json::Null,
        };
        let mut fields = vec![
            ("scheduler", Json::Str(self.scheduler.name())),
            ("regime", regime),
            ("forced", forced),
        ];
        if list {
            fields.push(("policies", Engine::policy_rows()));
        }
        protocol::ok(fields)
    }

    fn checkpoint_json(&mut self) -> Json {
        self.sync_log(self.clock.now());
        self.log.to_json(&self.config)
    }

    fn require_fresh(&self) -> Result<(), String> {
        if self.dirty {
            return Err("restore requires a fresh daemon (no inputs applied yet)".into());
        }
        Ok(())
    }

    /// The wire `restore` op: decode the document, then replay it. One
    /// request line carries the whole checkpoint, so this path is
    /// bounded by [`protocol::MAX_LINE`]; a larger checkpoint goes in
    /// through [`Server::start_restored`](crate::server::Server::start_restored).
    fn handle_restore(&mut self, state: &Json) -> Json {
        let outcome = self
            .require_fresh()
            .and_then(|()| InputLog::from_json(&self.config, state))
            .and_then(|log| self.restore(log));
        match outcome {
            Ok(replayed) => protocol::ok([
                ("now", Json::UInt(self.clock.now())),
                ("inputs_replayed", Json::UInt(replayed)),
            ]),
            Err(e) => protocol::error("restore-failed", e),
        }
    }

    /// Rebuild engine state by replaying `log`. Only a fresh engine may
    /// restore. Replay re-records every input into this engine's own
    /// log, so a restored (or promoted) shard is itself promotable.
    pub(crate) fn restore(&mut self, log: InputLog) -> Result<u64, String> {
        self.require_fresh()?;
        // Replay on a virtual clock; re-anchor the real clock after.
        let wall_scale = self.clock.scale();
        self.clock = Clock::virtual_at(0);
        let replayed = log.records.len() as u64;
        for rec in log.records {
            self.advance(Some(rec.at)).expect("replay clock is virtual");
            match rec.op {
                InputOp::Submit(job) => self.admit(job),
                InputOp::Cancel(id) => {
                    self.apply_cancel(id);
                }
                InputOp::Policy(force) => {
                    self.apply_policy(force)?;
                }
                InputOp::SetScheduler(label) => {
                    self.apply_set_scheduler(&label)?;
                }
            }
        }
        self.advance(Some(log.now))
            .expect("replay clock is virtual");
        self.draining = log.draining;
        self.bump_auto_id(log.next_auto_id);
        if let Some(scale) = wall_scale {
            self.clock = Clock::wall_starting_at(log.now, scale);
        }
        Ok(replayed)
    }

    fn handle_shutdown(&mut self, graceful: bool, checkpoint: bool) -> Json {
        self.draining = true;
        if graceful && !checkpoint {
            // Finish in-flight work before stopping.
            if self.clock.is_virtual() {
                self.advance(None).expect("clock checked virtual");
            } else {
                loop {
                    self.pump();
                    if self.pending.is_empty() && self.live.in_flight() == 0 {
                        break;
                    }
                    match self.next_instant() {
                        Some(t) => {
                            let d = self.clock.real_delay_until(t);
                            std::thread::sleep(d.min(Duration::from_millis(50)));
                        }
                        None => break, // nothing can happen any more
                    }
                }
            }
        }
        let mut fields = vec![
            ("now", Json::UInt(self.clock.now())),
            ("graceful", Json::Bool(graceful)),
            (
                "unfinished",
                Json::UInt((self.pending.len() + self.live.in_flight()) as u64),
            ),
            // Final counters: clients cannot query after the engine stops.
            ("metrics", Json::obj(self.metrics_fields())),
        ];
        if checkpoint {
            fields.push(("state", self.checkpoint_json()));
        }
        protocol::ok(fields)
    }

    /// Handle one request. The boolean asks the caller to stop the
    /// engine loop (shutdown).
    pub fn handle(&mut self, request: Request) -> (Json, bool) {
        self.requests += 1;
        self.pump();
        let reply = match request {
            Request::Ping => protocol::ok([("now", Json::UInt(self.clock.now()))]),
            Request::Submit {
                id,
                at,
                nodes,
                requested,
                runtime,
                user,
            } => self.handle_submit(id, at, nodes, requested, runtime, user),
            Request::Cancel { id } => self.handle_cancel(id),
            Request::Status { id } => self.handle_status(id),
            Request::Queue => self.handle_queue(),
            Request::Metrics => self.metrics_json(),
            Request::Drain => {
                self.draining = true;
                protocol::ok([("draining", Json::Bool(true))])
            }
            Request::Undrain => {
                self.draining = false;
                protocol::ok([("draining", Json::Bool(false))])
            }
            Request::Policy { force, list, set } => self.handle_policy(force, list, set),
            Request::Advance { to } => {
                self.dirty = true;
                match self.advance(to) {
                    Ok(()) => protocol::ok([("now", Json::UInt(self.clock.now()))]),
                    Err(e) => protocol::error("unsupported", e),
                }
            }
            Request::Checkpoint => protocol::ok([("state", self.checkpoint_json())]),
            Request::Restore { state } => self.handle_restore(&state),
            Request::Shutdown {
                graceful,
                checkpoint,
            } => return (self.handle_shutdown(graceful, checkpoint), true),
            // The reactor intercepts `crash` before the engine to fail
            // the shard over; an in-process caller is told to stop.
            Request::Crash { .. } => return (protocol::ok([("crashed", Json::Bool(true))]), true),
        };
        (reply, false)
    }
}

fn rejected(reason: &str, message: impl Into<String>) -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        ("error", Json::Str("rejected".into())),
        ("reason", Json::Str(reason.into())),
        ("message", Json::Str(message.into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SchedulerSpec;

    fn virtual_engine(spec: &str) -> Engine {
        Engine::new(ServeConfig {
            machine_nodes: 16,
            scheduler: SchedulerSpec::parse(spec).unwrap(),
            virtual_clock: true,
            queue_bound: 4,
            ..ServeConfig::default()
        })
    }

    fn submit(e: &mut Engine, id: u32, at: Time, nodes: u32, runtime: Time) -> Json {
        let (r, stop) = e.handle(Request::Submit {
            id: Some(id),
            at: Some(at),
            nodes,
            requested: runtime.max(1),
            runtime,
            user: 0,
        });
        assert!(!stop);
        r
    }

    fn status(e: &mut Engine, id: u32) -> Json {
        e.handle(Request::Status { id }).0
    }

    fn state_of(r: &Json) -> String {
        r.get("state").unwrap().as_str().unwrap().to_string()
    }

    #[test]
    fn job_lifecycle_over_virtual_time() {
        let mut e = virtual_engine("fcfs+easy");
        assert!(submit(&mut e, 0, 10, 8, 100)
            .get("ok")
            .unwrap()
            .as_bool()
            .unwrap());
        assert_eq!(state_of(&status(&mut e, 0)), "pending");
        e.handle(Request::Advance { to: Some(10) });
        assert_eq!(state_of(&status(&mut e, 0)), "running");
        e.handle(Request::Advance { to: Some(200) });
        let s = status(&mut e, 0);
        assert_eq!(state_of(&s), "done");
        assert_eq!(s.get("start").unwrap().as_u64(), Some(10));
        assert_eq!(s.get("completion").unwrap().as_u64(), Some(110));
        assert_eq!(
            status(&mut e, 9).get("error").unwrap().as_str(),
            Some("unknown-job")
        );
    }

    #[test]
    fn backpressure_rejects_at_the_bound() {
        let mut e = virtual_engine("fcfs");
        for i in 0..4 {
            assert!(submit(&mut e, i, 100, 1, 10)
                .get("ok")
                .unwrap()
                .as_bool()
                .unwrap());
        }
        let r = submit(&mut e, 4, 100, 1, 10);
        assert_eq!(r.get("error").unwrap().as_str(), Some("rejected"));
        assert_eq!(r.get("reason").unwrap().as_str(), Some("backpressure"));
        // Draining the backlog frees admission again.
        e.handle(Request::Advance { to: None });
        assert!(submit(&mut e, 4, 100, 1, 10)
            .get("ok")
            .unwrap()
            .as_bool()
            .unwrap());
    }

    #[test]
    fn duplicate_ids_are_rejected() {
        let mut e = virtual_engine("fcfs");
        submit(&mut e, 3, 0, 1, 10);
        let r = submit(&mut e, 3, 50, 1, 10);
        assert_eq!(r.get("error").unwrap().as_str(), Some("duplicate-id"));
        // Auto-assignment skips used ids.
        let (r, _) = e.handle(Request::Submit {
            id: None,
            at: None,
            nodes: 1,
            requested: 10,
            runtime: 10,
            user: 0,
        });
        assert_eq!(r.get("id").unwrap().as_u64(), Some(4));
    }

    #[test]
    fn drain_rejects_then_undrain_admits() {
        let mut e = virtual_engine("fcfs");
        e.handle(Request::Drain);
        let r = submit(&mut e, 0, 0, 1, 10);
        assert_eq!(r.get("reason").unwrap().as_str(), Some("draining"));
        e.handle(Request::Undrain);
        assert!(submit(&mut e, 0, 0, 1, 10)
            .get("ok")
            .unwrap()
            .as_bool()
            .unwrap());
    }

    #[test]
    fn cancel_covers_all_phases() {
        let mut e = virtual_engine("fcfs");
        // Pre-submit: future-dated, cancelled before its instant.
        submit(&mut e, 0, 100, 1, 10);
        let r = e.handle(Request::Cancel { id: 0 }).0;
        assert_eq!(r.get("phase").unwrap().as_str(), Some("pre-submit"));
        assert_eq!(state_of(&status(&mut e, 0)), "cancelled");
        // Running.
        submit(&mut e, 1, 200, 16, 100);
        e.handle(Request::Advance { to: Some(210) });
        let r = e.handle(Request::Cancel { id: 1 }).0;
        assert_eq!(r.get("phase").unwrap().as_str(), Some("running"));
        // Queued behind job 2.
        submit(&mut e, 2, 300, 16, 100);
        submit(&mut e, 3, 300, 16, 100);
        e.handle(Request::Advance { to: Some(310) });
        let r = e.handle(Request::Cancel { id: 3 }).0;
        assert_eq!(r.get("phase").unwrap().as_str(), Some("queued"));
        assert_eq!(state_of(&status(&mut e, 3)), "cancelled");
        // Already finished.
        e.handle(Request::Advance { to: None });
        let r = e.handle(Request::Cancel { id: 2 }).0;
        assert_eq!(r.get("phase").unwrap().as_str(), Some("already-finished"));
        // Unknown.
        let r = e.handle(Request::Cancel { id: 77 }).0;
        assert_eq!(r.get("error").unwrap().as_str(), Some("unknown-job"));
    }

    #[test]
    fn metrics_reflect_completed_work() {
        let mut e = virtual_engine("fcfs+easy");
        submit(&mut e, 0, 0, 8, 50);
        submit(&mut e, 1, 0, 8, 50);
        e.handle(Request::Advance { to: None });
        let m = e.handle(Request::Metrics).0;
        assert_eq!(m.get("jobs_finished").unwrap().as_u64(), Some(2));
        assert_eq!(m.get("art").unwrap().as_f64(), Some(50.0));
        assert_eq!(m.get("backlog").unwrap().as_u64(), Some(0));
        assert!(m.get("requests").unwrap().as_u64().unwrap() >= 3);
    }

    fn policy(force: Option<PolicyForce>) -> Request {
        Request::Policy {
            force,
            list: false,
            set: None,
        }
    }

    fn policy_set(label: &str) -> Request {
        Request::Policy {
            force: None,
            list: false,
            set: Some(label.into()),
        }
    }

    #[test]
    fn policy_force_is_rejected_without_regimes() {
        let mut e = virtual_engine("fcfs+easy");
        let r = e.handle(policy(Some(PolicyForce::Night))).0;
        assert_eq!(r.get("error").unwrap().as_str(), Some("unsupported"));
        // Inspection is fine and reports no regimes.
        let r = e.handle(policy(None)).0;
        assert_eq!(r.get("regime"), Some(&Json::Null));
    }

    #[test]
    fn policy_force_flips_the_switching_regime() {
        let mut e = virtual_engine("paper-switch");
        let r = e.handle(policy(None)).0;
        assert_eq!(r.get("regime").unwrap().as_str(), Some("night")); // t=0 is Monday 00:00
        let r = e.handle(policy(Some(PolicyForce::Day))).0;
        assert_eq!(r.get("regime").unwrap().as_str(), Some("day"));
        assert_eq!(r.get("forced").unwrap().as_str(), Some("day"));
        let r = e.handle(policy(Some(PolicyForce::Auto))).0;
        assert_eq!(r.get("regime").unwrap().as_str(), Some("night"));
        assert_eq!(r.get("forced"), Some(&Json::Null));
    }

    #[test]
    fn policy_list_enumerates_servable_atlas_rows() {
        let mut e = virtual_engine("fcfs+easy");
        let r = e
            .handle(Request::Policy {
                force: None,
                list: true,
                set: None,
            })
            .0;
        let rows = r.get("policies").unwrap().as_arr().unwrap();
        assert_eq!(
            rows.len(),
            jobsched_algos::AlgorithmSpec::atlas_matrix().len()
        );
        // Every row's label parses back to a servable scheduler, and the
        // policy/backfill identifiers recompose into the label.
        for row in rows {
            let label = row.get("label").unwrap().as_str().unwrap();
            assert!(SchedulerSpec::parse(label).is_ok(), "label '{label}'");
            let policy = row.get("policy").unwrap().as_str().unwrap();
            let backfill = row.get("backfill").unwrap().as_str().unwrap();
            assert_eq!(format!("{policy}+{backfill}"), label);
        }
        // The plain inspection reply does not carry the table.
        let r = e.handle(policy(None)).0;
        assert!(r.get("policies").is_none());
    }

    #[test]
    fn policy_set_switches_scheduler_and_transfers_backlog() {
        let mut e = virtual_engine("fcfs");
        // Fill the machine, then queue a long job ahead of a short one:
        // FCFS would run the long job first.
        submit(&mut e, 0, 0, 16, 100);
        submit(&mut e, 1, 0, 16, 80); // long, first in FCFS order
        submit(&mut e, 2, 0, 16, 10); // short
        e.handle(Request::Advance { to: Some(0) });
        let r = e.handle(policy_set("sjf+none")).0;
        assert!(r.get("ok").unwrap().as_bool().unwrap(), "{r:?}");
        assert_eq!(
            r.get("scheduler").unwrap().as_str(),
            Some("SJF+Listscheduler")
        );
        // Unknown labels are structured errors, state untouched.
        let r = e.handle(policy_set("lifo")).0;
        assert_eq!(r.get("error").unwrap().as_str(), Some("unsupported"));
        // Under SJF the short job now starts before the long one.
        e.handle(Request::Advance { to: None });
        let s2 = status(&mut e, 2);
        let s1 = status(&mut e, 1);
        assert_eq!(s2.get("start").unwrap().as_u64(), Some(100));
        assert_eq!(s1.get("start").unwrap().as_u64(), Some(110));
    }

    #[test]
    fn policy_set_replays_through_checkpoint_restore() {
        let mut e = virtual_engine("fcfs");
        submit(&mut e, 0, 0, 16, 100);
        submit(&mut e, 1, 0, 16, 80);
        submit(&mut e, 2, 0, 16, 10);
        e.handle(Request::Advance { to: Some(0) });
        e.handle(policy_set("sjf+none"));
        let state = e
            .handle(Request::Checkpoint)
            .0
            .get("state")
            .unwrap()
            .clone();
        let mut f = virtual_engine("fcfs");
        let r = f.handle(Request::Restore { state }).0;
        assert!(r.get("ok").unwrap().as_bool().unwrap(), "{r:?}");
        // The restored engine is running the switched scheduler and
        // evolves identically to the original.
        assert_eq!(
            f.handle(policy(None)).0.get("scheduler").unwrap().as_str(),
            Some("SJF+Listscheduler")
        );
        e.handle(Request::Advance { to: None });
        f.handle(Request::Advance { to: None });
        for id in 0..3 {
            assert_eq!(status(&mut e, id), status(&mut f, id), "job {id}");
        }
    }

    #[test]
    fn checkpoint_restore_roundtrips_state() {
        let mut e = virtual_engine("fcfs+easy");
        submit(&mut e, 0, 0, 16, 100); // runs [0, 100)
        submit(&mut e, 1, 10, 16, 50); // queued behind 0
        submit(&mut e, 2, 500, 4, 20); // future-dated
        e.handle(Request::Advance { to: Some(60) });
        let cp = e.handle(Request::Checkpoint).0;
        let state = cp.get("state").unwrap().clone();
        // A fresh engine restores and reproduces the exact same state.
        let mut f = virtual_engine("fcfs+easy");
        let r = f.handle(Request::Restore { state }).0;
        assert!(r.get("ok").unwrap().as_bool().unwrap(), "{r:?}");
        assert_eq!(f.now(), 60);
        assert_eq!(state_of(&status(&mut f, 0)), "running");
        assert_eq!(state_of(&status(&mut f, 1)), "waiting");
        assert_eq!(state_of(&status(&mut f, 2)), "pending");
        // And subsequent evolution matches the original engine.
        e.handle(Request::Advance { to: None });
        f.handle(Request::Advance { to: None });
        for id in 0..3 {
            let a = status(&mut e, id);
            let b = status(&mut f, id);
            assert_eq!(a, b, "job {id}");
        }
    }

    #[test]
    fn restore_refuses_dirty_or_mismatched_state() {
        let mut e = virtual_engine("fcfs+easy");
        submit(&mut e, 0, 0, 1, 10);
        let state = e
            .handle(Request::Checkpoint)
            .0
            .get("state")
            .unwrap()
            .clone();
        // Dirty engine refuses.
        let r = e.handle(Request::Restore {
            state: state.clone(),
        });
        assert_eq!(r.0.get("error").unwrap().as_str(), Some("restore-failed"));
        // Mismatched scheduler refuses.
        let mut f = virtual_engine("psrs+easy");
        let r = f.handle(Request::Restore {
            state: state.clone(),
        });
        assert_eq!(r.0.get("error").unwrap().as_str(), Some("restore-failed"));
        // Garbage state refuses without panicking.
        let mut g = virtual_engine("fcfs+easy");
        let r = g.handle(Request::Restore {
            state: Json::obj([("schema", Json::Str("bogus/9".into()))]),
        });
        assert_eq!(r.0.get("error").unwrap().as_str(), Some("restore-failed"));
    }

    #[test]
    fn far_future_submit_is_invalid_and_leaves_the_engine_sane() {
        let mut e = virtual_engine("fcfs+easy");
        let wire = jobsched_json::parse(
            r#"{"op":"submit","at":18446744073709551000,"nodes":4,"requested":10000,"runtime":5000}"#,
        )
        .unwrap();
        let (r, _) = e.handle(protocol::parse_request(&wire).unwrap());
        assert_eq!(r.get("error").unwrap().as_str(), Some("invalid"), "{r:?}");
        submit(&mut e, 0, 0, 4, 100);
        e.handle(Request::Advance { to: None });
        let m = e.handle(Request::Metrics).0;
        assert_eq!(m.get("jobs_finished").unwrap().as_u64(), Some(1));
        assert_eq!(m.get("makespan").unwrap().as_u64(), Some(100));
        assert_eq!(m.get("utilization").unwrap().as_f64(), Some(0.25));
    }

    #[test]
    fn checkpoint_with_a_far_future_submit_is_refused() {
        let mut e = virtual_engine("fcfs+easy");
        submit(&mut e, 0, 0, 4, 100);
        let mut state = e
            .handle(Request::Checkpoint)
            .0
            .get("state")
            .unwrap()
            .to_string_compact();
        state = state.replace(r#""submit":0"#, r#""submit":18446744073709551000"#);
        let state = jobsched_json::parse(&state).unwrap();
        let mut f = virtual_engine("fcfs+easy");
        let r = f.handle(Request::Restore { state }).0;
        assert_eq!(r.get("error").unwrap().as_str(), Some("restore-failed"));
        // Still fresh: the same id is admissible and time never moved.
        assert_eq!(f.now(), 0);
        assert!(submit(&mut f, 0, 0, 4, 100)
            .get("ok")
            .unwrap()
            .as_bool()
            .unwrap());
    }

    fn auto_submit(e: &mut Engine) -> Json {
        e.handle(Request::Submit {
            id: None,
            at: None,
            nodes: 1,
            requested: 10,
            runtime: 10,
            user: 0,
        })
        .0
    }

    fn checkpoint(e: &mut Engine) -> Json {
        e.handle(Request::Checkpoint).0
    }

    #[test]
    fn max_job_id_cancels_while_running_and_frees_its_node() {
        let max = u32::MAX;
        let mut e = virtual_engine("fcfs+easy");
        submit(&mut e, max, 0, 1, 10);
        e.handle(Request::Advance { to: Some(5) });
        let r = e.handle(Request::Cancel { id: max }).0;
        assert_eq!(r.get("phase").unwrap().as_str(), Some("running"), "{r:?}");
        e.handle(Request::Advance { to: Some(100) });
        let s = status(&mut e, max);
        assert_eq!(state_of(&s), "cancelled", "{s:?}");
        assert_eq!(s.get("completion").unwrap().as_u64(), Some(5));
        // The node came back: a machine-wide job runs.
        submit(&mut e, 0, 100, 16, 10);
        e.handle(Request::Advance { to: None });
        assert_eq!(state_of(&status(&mut e, 0)), "done");
    }

    #[test]
    fn auto_ids_end_with_the_id_space() {
        let mut e = virtual_engine("fcfs+easy");
        submit(&mut e, u32::MAX, 0, 1, 10);
        let before = checkpoint(&mut e);
        let r = auto_submit(&mut e);
        assert_eq!(r.get("error").unwrap().as_str(), Some("invalid"), "{r:?}");
        // Nothing was recorded, and no id wrapped around to 0.
        assert_eq!(checkpoint(&mut e), before);
        assert_eq!(
            status(&mut e, 0).get("error").unwrap().as_str(),
            Some("unknown-job")
        );
    }

    #[test]
    fn auto_ids_never_leave_the_shard_residue_class() {
        let config = ServeConfig {
            machine_nodes: 16,
            scheduler: SchedulerSpec::parse("fcfs+easy").unwrap(),
            virtual_clock: true,
            ..ServeConfig::default()
        };
        // Shard 0 of 2 owns the even ids: after 4294967294 none is left.
        let mut even = Engine::for_shard(config.clone(), 0, 2, None);
        submit(&mut even, u32::MAX - 1, 0, 1, 10);
        let r = auto_submit(&mut even);
        assert_eq!(r.get("error").unwrap().as_str(), Some("invalid"), "{r:?}");
        // Shard 1 of 2 still has 4294967295, then none; a restored copy
        // agrees.
        let mut odd = Engine::for_shard(config.clone(), 1, 2, None);
        submit(&mut odd, u32::MAX - 2, 0, 1, 10);
        let r = auto_submit(&mut odd);
        assert_eq!(r.get("id").unwrap().as_u64(), Some(u64::from(u32::MAX)));
        let state = checkpoint(&mut odd).get("state").unwrap().clone();
        let mut restored = Engine::for_shard(config, 1, 2, None);
        let r = restored.handle(Request::Restore { state }).0;
        assert!(r.get("ok").unwrap().as_bool().unwrap(), "{r:?}");
        for e in [&mut odd, &mut restored] {
            let r = auto_submit(e);
            assert_eq!(r.get("error").unwrap().as_str(), Some("invalid"), "{r:?}");
        }
    }

    #[test]
    fn graceful_shutdown_finishes_backlog() {
        let mut e = virtual_engine("fcfs");
        submit(&mut e, 0, 0, 16, 100);
        submit(&mut e, 1, 0, 16, 100);
        let (r, stop) = e.handle(Request::Shutdown {
            graceful: true,
            checkpoint: false,
        });
        assert!(stop);
        assert_eq!(r.get("unfinished").unwrap().as_u64(), Some(0));
        assert_eq!(r.get("now").unwrap().as_u64(), Some(200));
    }

    #[test]
    fn shutdown_with_checkpoint_preserves_in_flight_work() {
        let mut e = virtual_engine("fcfs");
        submit(&mut e, 0, 0, 16, 100);
        e.handle(Request::Advance { to: Some(10) });
        let (r, stop) = e.handle(Request::Shutdown {
            graceful: true,
            checkpoint: true,
        });
        assert!(stop);
        assert_eq!(r.get("unfinished").unwrap().as_u64(), Some(1));
        let state = r.get("state").unwrap().clone();
        let mut f = virtual_engine("fcfs");
        f.handle(Request::Restore { state });
        assert_eq!(state_of(&status(&mut f, 0)), "running");
        f.handle(Request::Advance { to: None });
        assert_eq!(state_of(&status(&mut f, 0)), "done");
    }

    #[test]
    fn status_retires_old_completions_beyond_the_cap() {
        let mut e = Engine::new(ServeConfig {
            machine_nodes: 16,
            scheduler: SchedulerSpec::parse("fcfs").unwrap(),
            virtual_clock: true,
            retain_completed: 2,
            ..ServeConfig::default()
        });
        for i in 0..4 {
            submit(&mut e, i, i as Time * 10, 16, 5);
        }
        e.handle(Request::Advance { to: None });
        assert_eq!(state_of(&status(&mut e, 0)), "retired");
        assert_eq!(state_of(&status(&mut e, 1)), "retired");
        assert_eq!(state_of(&status(&mut e, 2)), "done");
        assert_eq!(state_of(&status(&mut e, 3)), "done");
    }
}
