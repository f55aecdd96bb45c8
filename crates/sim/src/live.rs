//! The event loop: one incremental simulation engine behind the
//! streaming pipeline, the serving daemon, the metascheduler and the
//! time-shared runs.
//!
//! [`LiveSim`] is a *stepped* event loop: the owner injects work
//! ([`LiveSim::add_job`], [`LiveSim::push_cancel`]) whenever it likes and
//! calls [`LiveSim::step`] to process the earliest event batch. The
//! pipeline drives it to exhaustion against a
//! [`JobSource`](jobsched_workload::JobSource); the daemon drives it
//! against its own clock, stepping only while the head of the
//! event queue is due. Both therefore execute the *same* submit / finish
//! / cancel / decision-round / wakeup logic — schedule identity between
//! "served" and "batch-simulated" runs is by construction, and the
//! existing batch-vs-stream differential suites pin it.
//!
//! A decision round yields [`Action`]s: a rigid [`Scheduler`]'s picks
//! read as `Start { choice: 0 }`, and a time-shared scheduler may also
//! preempt and resume, which closes and reopens spans as a
//! forced-preemption fault does. Per contract, one `SchedulerKind`.
//!
//! Within one step, events at the same instant are processed in the
//! [`Event`] variant order (finishes before submissions before
//! cancellations), exactly as the oracle's batch reference loop orders
//! them; the scheduler's decision rounds run after the whole batch.

use crate::engine::{CancelPhase, DrainFault, FaultOutcome, JobRequest, PreemptFault, Scheduler};
use crate::event::{Event, EventQueue};
use crate::machine::{DrainToken, Machine};
use crate::pipeline::{JobEvent, JobOutcome, PipelineOutcome, SimObserver};
use crate::tshare::Action;
use jobsched_workload::{Job, JobId, MachineLayout, Time};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::time::{Duration, Instant};

/// What differs between the scheduler contracts [`LiveSim`] drives.
pub(crate) trait SchedulerKind {
    /// One decision round's actions.
    type Actions: IntoIterator<Item = Action>;
    /// Whether running jobs alone (not only waiting ones) let the
    /// scheduler arm a wakeup: a rotation acts with an empty queue.
    const WAKES_WHILE_RUNNING: bool;

    fn name(&self) -> String;
    fn submit(&mut self, req: JobRequest, now: Time);
    fn job_finished(&mut self, id: JobId, now: Time);
    fn cancel(&mut self, _id: JobId, _now: Time) {}
    fn capacity_changed(&mut self, _now: Time) {}
    fn decide(&mut self, now: Time, machine: &Machine) -> Self::Actions;
    fn queue_len(&self) -> usize;
    fn next_wakeup(&self, now: Time) -> Option<Time>;
    /// `job` reshaped to its execution alternative `choice`; `None` when
    /// the choice is the job's own shape.
    fn reshape(&self, _job: &Job, _choice: usize) -> Option<Job> {
        None
    }
}

/// A rigid [`Scheduler`]: picks are starts at the job's own shape.
pub(crate) struct Rigid<'a>(pub(crate) &'a mut dyn Scheduler);

impl SchedulerKind for Rigid<'_> {
    type Actions = std::iter::Map<std::vec::IntoIter<JobId>, fn(JobId) -> Action>;
    const WAKES_WHILE_RUNNING: bool = false;

    fn name(&self) -> String {
        self.0.name()
    }
    fn submit(&mut self, req: JobRequest, now: Time) {
        self.0.submit(req, now);
    }
    fn job_finished(&mut self, id: JobId, now: Time) {
        self.0.job_finished(id, now);
    }
    fn cancel(&mut self, id: JobId, now: Time) {
        self.0.cancel(id, now);
    }
    fn capacity_changed(&mut self, now: Time) {
        self.0.capacity_changed(now);
    }
    fn decide(&mut self, now: Time, machine: &Machine) -> Self::Actions {
        let start: fn(JobId) -> Action = |id| Action::Start { id, choice: 0 };
        self.0.select_starts(now, machine).into_iter().map(start)
    }
    fn queue_len(&self) -> usize {
        self.0.queue_len()
    }
    fn next_wakeup(&self, now: Time) -> Option<Time> {
        self.0.next_wakeup(now)
    }
}

/// A job that has entered the system and not yet retired.
struct InFlight {
    /// The job, reshaped to the alternative a time-shared start picked.
    job: Job,
    /// The width the job was submitted with ([`JobOutcome::nodes`]).
    nodes: u32,
    /// First start — the instant waiting ended (outcome `start`).
    first_start: Option<Time>,
    /// Start of the currently open allocation span, if running.
    span_start: Option<Time>,
    /// Seconds of effective runtime executed in closed spans.
    consumed: Time,
    /// Between a forced preemption and its resume instant.
    awaiting: bool,
    /// Re-submitted after a resume, waiting for the scheduler to restart.
    requeued: bool,
    /// Lazy invalidation of heap-resident Finish events: only a Finish
    /// matching this instant is live.
    expected: Option<Time>,
}

impl InFlight {
    fn new(job: Job) -> Self {
        InFlight {
            nodes: job.nodes,
            job,
            first_start: None,
            span_start: None,
            consumed: 0,
            awaiting: false,
            requeued: false,
            expected: None,
        }
    }
}

/// Stepped event-driven simulation core: machine, event queue, and
/// bounded per-job lifecycle state.
///
/// Lifecycle bookkeeping is bounded: `staged` holds jobs whose submit
/// event is queued but not yet processed, `alive` holds submitted jobs
/// until they retire, `cancelled` is O(#faults), and `submitted_below`
/// is a watermark standing in for the batch loop's dense `submitted`
/// bitmap (valid because pipeline sources submit in dense id order; the
/// daemon additionally consults `staged` for sparse ids).
pub struct LiveSim {
    machine: Machine,
    events: EventQueue,
    staged: BTreeMap<JobId, Job>,
    alive: HashMap<JobId, InFlight>,
    cancelled: BTreeSet<JobId>,
    drains: Vec<DrainFault>,
    drain_tokens: Vec<Option<DrainToken>>,
    /// Per-job planned resumes, kept sorted by preemption instant so the
    /// front lines up with the next Preempt event to pop.
    preempt_plans: BTreeMap<JobId, VecDeque<(Time, Time)>>,
    /// Jobs ever preempted (by a fault or by the scheduler) — licenses
    /// the silent skip of their stale Finish events after retirement.
    preempted_ever: BTreeSet<JobId>,
    /// One past the highest submitted id, widened so id `u32::MAX` has a
    /// watermark above it.
    submitted_below: u64,
    meter: CallMeter,
    /// The batch being processed, kept between steps for its capacity.
    batch: Vec<Event>,
    n_events: u64,
    rounds: u64,
    peak_queue: usize,
    fault_log: Vec<FaultOutcome>,
    jobs_submitted: u64,
    jobs_finished: u64,
    peak_resident: usize,
    horizon: Time,
}

impl LiveSim {
    /// An idle engine over a homogeneous machine of `nodes`.
    pub fn new(nodes: u32) -> Self {
        LiveSim::with_layout(MachineLayout::single(nodes))
    }

    /// An idle engine over a machine partitioned into `layout`'s node
    /// classes. [`MachineLayout::single`] reproduces [`LiveSim::new`].
    pub fn with_layout(layout: MachineLayout) -> Self {
        LiveSim {
            machine: Machine::with_layout(layout),
            events: EventQueue::new(),
            staged: BTreeMap::new(),
            alive: HashMap::new(),
            cancelled: BTreeSet::new(),
            drains: Vec::new(),
            drain_tokens: Vec::new(),
            preempt_plans: BTreeMap::new(),
            preempted_ever: BTreeSet::new(),
            submitted_below: 0,
            meter: CallMeter::new(),
            batch: Vec::new(),
            n_events: 0,
            rounds: 0,
            peak_queue: 0,
            fault_log: Vec::new(),
            jobs_submitted: 0,
            jobs_finished: 0,
            peak_resident: 0,
            horizon: 0,
        }
    }

    /// Stage `job` and queue its submit event at `job.submit`. The
    /// instant must not precede the engine's processed horizon.
    pub fn add_job(&mut self, job: Job) {
        self.events.push(job.submit, Event::Submit(job.id));
        self.staged.insert(job.id, job);
        self.peak_resident = self.peak_resident.max(self.staged.len() + self.alive.len());
    }

    /// Queue a cancellation of `id` at instant `at`.
    pub fn push_cancel(&mut self, at: Time, id: JobId) {
        self.events.push(at, Event::Cancel(id));
    }

    /// Register a node-drain fault: capacity shrinks at `d.at`, returns
    /// at `d.until`. Degenerate windows (`until <= at`) are recorded but
    /// never fire, matching the batch reference loop.
    pub fn plan_drain(&mut self, d: DrainFault) {
        assert!(
            d.class.index() < self.machine.class_count(),
            "drain targets unknown node class {}",
            d.class
        );
        let idx = self.drains.len() as u32;
        self.drains.push(d);
        self.drain_tokens.push(None);
        if d.until > d.at {
            self.events.push(d.at, Event::Drain(idx));
            self.events.push(d.until, Event::Undrain(idx));
        }
    }

    /// Register a forced-preemption fault (see
    /// [`crate::engine::PreemptFault`]): queue the preempt event and file
    /// its planned resume instant.
    pub fn plan_preempt(&mut self, p: PreemptFault) {
        self.events.push(p.at, Event::Preempt(p.id));
        let q = self.preempt_plans.entry(p.id).or_default();
        let pos = q.partition_point(|&(at, _)| at <= p.at);
        q.insert(pos, (p.at, p.resume_at));
    }

    /// Queue an explicit decision round at `at` (a wakeup event).
    pub fn request_decision(&mut self, at: Time) {
        self.events.push(at, Event::Wakeup);
    }

    /// Earliest queued event instant, if any.
    pub fn next_event_time(&self) -> Option<Time> {
        self.events.peek_time()
    }

    /// Jobs resident in the engine: staged, queued, or running.
    pub fn in_flight(&self) -> usize {
        self.staged.len() + self.alive.len()
    }

    /// The machine state (read-only; mutation is the engine's job).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Ground truth of every fault processed so far, in order.
    pub fn fault_log(&self) -> &[FaultOutcome] {
        &self.fault_log
    }

    /// Snapshot of the waiting backlog as re-submittable requests, in
    /// job-id order: every submitted job that is neither running nor
    /// between a preemption and its resume. A requeued job carries its
    /// unconsumed remainder, exactly as the Resume path re-submits it —
    /// feeding these to a fresh scheduler reproduces the queue a
    /// mid-run policy switch must hand over.
    pub fn waiting_requests(&self) -> Vec<JobRequest> {
        let mut waiting: Vec<JobRequest> = self
            .alive
            .values()
            .filter(|inf| inf.span_start.is_none() && !inf.awaiting)
            .map(|inf| {
                let mut req = JobRequest::from(&inf.job);
                req.requested_time = inf.job.requested_time - inf.consumed;
                req.class = self
                    .machine
                    .resolve_class(inf.job.node_type, inf.job.memory_mb, inf.job.nodes)
                    .expect("resolved at submit");
                req
            })
            .collect();
        waiting.sort_unstable_by_key(|req| req.id);
        waiting
    }

    /// Last instant processed (0 before the first step).
    pub fn horizon(&self) -> Time {
        self.horizon
    }

    /// Process the earliest event batch: deliver events to `scheduler`
    /// and `observers`, run decision rounds until the scheduler stops
    /// acting, and re-arm its wakeup. Returns the batch instant,
    /// or `None` when the event queue is empty.
    ///
    /// `next_external` is the instant of the earliest event the *caller*
    /// still intends to inject (the pipeline's lookahead submission, the
    /// daemon's buffered future submissions): wakeups at or after it are
    /// elided, because that event will trigger a decision round anyway.
    /// `more_input` declares that the caller may inject further work even
    /// without a known instant — it suppresses the deadlock check, which
    /// otherwise panics when jobs wait on an idle machine with nothing
    /// left to happen.
    ///
    /// Panics on scheduler contract violations (invalid starts, double
    /// placements, deadlock), exactly like the batch reference loop.
    pub fn step(
        &mut self,
        scheduler: &mut dyn Scheduler,
        next_external: Option<Time>,
        more_input: bool,
        observers: &mut [&mut dyn SimObserver],
    ) -> Option<Time> {
        self.step_kind(&mut Rigid(scheduler), next_external, more_input, observers)
    }

    /// [`LiveSim::step`] for either scheduler contract.
    pub(crate) fn step_kind<K: SchedulerKind>(
        &mut self,
        scheduler: &mut K,
        next_external: Option<Time>,
        more_input: bool,
        observers: &mut [&mut dyn SimObserver],
    ) -> Option<Time> {
        let mut batch = std::mem::take(&mut self.batch);
        let Some(now) = self.events.pop_batch(&mut batch) else {
            self.batch = batch;
            return None;
        };
        self.horizon = now;
        for &ev in &batch {
            self.n_events += 1;
            match ev {
                Event::Submit(id) => {
                    let job = self
                        .staged
                        .remove(&id)
                        .expect("staged job for submit event");
                    self.submitted_below = self.submitted_below.max(u64::from(id.0) + 1);
                    if self.cancelled.contains(&id) {
                        continue; // cancelled before submission: never enters
                    }
                    self.jobs_submitted += 1;
                    let mut req = JobRequest::from(&job);
                    req.class = self
                        .machine
                        .resolve_class(job.node_type, job.memory_mb, job.nodes)
                        .unwrap_or_else(|| {
                            panic!("job {id} has no eligible node class on this machine")
                        });
                    emit(observers, &JobEvent::Submitted(req));
                    self.alive.insert(id, InFlight::new(job));
                    self.meter.time(|| scheduler.submit(req, now));
                }
                Event::Finish(id) => {
                    if self.cancelled.contains(&id) {
                        continue; // killed mid-run: resources already released
                    }
                    let Some(inf) = self.alive.get(&id) else {
                        // Only a preempted placement leaves a Finish event
                        // behind after its job retired.
                        assert!(
                            self.preempted_ever.contains(&id),
                            "finish event for unknown job {id}"
                        );
                        continue;
                    };
                    if inf.expected != Some(now) {
                        continue; // stale: the placement was preempted
                    }
                    self.machine
                        .finish(id)
                        .expect("finish event for running job");
                    let inf = self.alive.remove(&id).expect("finished job was alive");
                    self.jobs_finished += 1;
                    emit(observers, &JobEvent::Finished(outcome(&inf, now)));
                    self.meter.time(|| scheduler.job_finished(id, now));
                }
                Event::Preempt(id) => {
                    let resume_at = self
                        .preempt_plans
                        .get_mut(&id)
                        .and_then(|q| q.pop_front())
                        .map(|(_, r)| r)
                        .expect("queued preempt has a planned resume");
                    if self.cancelled.contains(&id)
                        || !self.machine.running().iter().any(|s| s.id == id)
                    {
                        self.fault_log.push(FaultOutcome::Preempted {
                            id,
                            at: now,
                            applied: false,
                            resume_at,
                        });
                        continue;
                    }
                    self.close_span(id, now, observers).awaiting = true;
                    self.meter.time(|| scheduler.job_finished(id, now));
                    let resume_at = resume_at.max(now + 1);
                    self.events.push(resume_at, Event::Resume(id));
                    self.fault_log.push(FaultOutcome::Preempted {
                        id,
                        at: now,
                        applied: true,
                        resume_at,
                    });
                }
                Event::Resume(id) => {
                    if self.cancelled.contains(&id) {
                        continue; // cancelled while preempted: stays out
                    }
                    let inf = self.alive.get_mut(&id).expect("preempted job is alive");
                    assert!(inf.awaiting, "resume without a pending preempt");
                    inf.awaiting = false;
                    inf.requeued = true;
                    let mut req = JobRequest::from(&inf.job);
                    req.submit = now;
                    req.requested_time = inf.job.requested_time - inf.consumed;
                    req.class = self
                        .machine
                        .resolve_class(inf.job.node_type, inf.job.memory_mb, inf.job.nodes)
                        .expect("resolved at submit");
                    self.meter.time(|| scheduler.submit(req, now));
                }
                Event::Cancel(id) => {
                    if self.cancelled.contains(&id) {
                        continue; // duplicate cancellation
                    }
                    let mut run = None;
                    let phase = if self.unsubmitted(id) {
                        self.cancelled.insert(id);
                        CancelPhase::PreSubmit
                    } else if self.machine.running().iter().any(|s| s.id == id) {
                        self.cancelled.insert(id);
                        self.machine.finish(id).expect("cancelling a running job");
                        let inf = self.alive.remove(&id).expect("running job was alive");
                        run = Some(outcome(&inf, now));
                        self.meter.time(|| scheduler.job_finished(id, now));
                        CancelPhase::Running
                    } else if self
                        .alive
                        .get(&id)
                        .is_some_and(|inf| inf.awaiting || inf.requeued)
                    {
                        self.cancelled.insert(id);
                        let inf = self.alive.remove(&id).expect("checked above");
                        if inf.requeued {
                            // The scheduler holds the remainder; retract it.
                            self.meter.time(|| scheduler.cancel(id, now));
                        }
                        run = Some(outcome(&inf, now));
                        CancelPhase::Preempted
                    } else if self.alive.remove(&id).is_some() {
                        self.cancelled.insert(id);
                        self.meter.time(|| scheduler.cancel(id, now));
                        CancelPhase::Queued
                    } else {
                        CancelPhase::AlreadyFinished // too late: no-op
                    };
                    emit(
                        observers,
                        &JobEvent::Cancelled {
                            id,
                            at: now,
                            phase,
                            run,
                        },
                    );
                    self.fault_log
                        .push(FaultOutcome::Cancelled { id, at: now, phase });
                }
                Event::Drain(idx) => {
                    let d = self.drains[idx as usize];
                    let granted = d.nodes.min(self.machine.free_in(d.class));
                    if granted > 0 {
                        let token = self
                            .machine
                            .drain_in(d.class, granted, d.until)
                            .expect("granted <= free");
                        self.drain_tokens[idx as usize] = Some(token);
                        self.meter.time(|| scheduler.capacity_changed(now));
                    }
                    self.fault_log.push(FaultOutcome::Drained {
                        at: now,
                        class: d.class,
                        requested: d.nodes,
                        granted,
                        until: d.until,
                    });
                }
                Event::Undrain(idx) => {
                    if let Some(token) = self.drain_tokens[idx as usize].take() {
                        self.machine
                            .undrain(token)
                            .expect("token taken exactly once");
                        self.meter.time(|| scheduler.capacity_changed(now));
                    }
                }
                Event::Wakeup => {} // decision round below is the effect
            }
        }
        self.batch = batch;
        self.peak_queue = self.peak_queue.max(scheduler.queue_len());

        // Let the scheduler act until a round yields nothing.
        loop {
            let actions = self.meter.time(|| scheduler.decide(now, &self.machine));
            self.rounds += 1;
            let mut acted = false;
            for action in actions {
                acted = true;
                self.apply(&*scheduler, action, now, observers);
            }
            if !acted {
                break;
            }
        }

        // Re-arm the scheduler's wakeup (dedup: skip if any event —
        // queued or announced by the caller — lands at or before it).
        let running = K::WAKES_WHILE_RUNNING && !self.machine.running().is_empty();
        if scheduler.queue_len() > 0 || running {
            if let Some(t) = scheduler.next_wakeup(now) {
                assert!(t > now, "wakeup must be in the future");
                let next = [self.events.peek_time(), next_external]
                    .into_iter()
                    .flatten()
                    .min();
                if next.is_none_or(|n| t < n) {
                    self.events.push(t, Event::Wakeup);
                }
            }
        }

        // Deadlock check: idle machine, exhausted event horizon (queue
        // *and* caller), jobs waiting.
        if self.events.is_empty() && !more_input && scheduler.queue_len() > 0 {
            assert!(
                self.machine.running().is_empty(),
                "event queue empty with jobs still running"
            );
            panic!(
                "scheduler {} deadlocked: {} jobs waiting on an idle machine",
                scheduler.name(),
                scheduler.queue_len()
            );
        }

        Some(now)
    }

    /// Apply one decision. A start opens a span: a first start, the
    /// restart of a fault-requeued remainder, or a time-shared resume —
    /// a restart runs, and is projected, for the unconsumed remainder
    /// only. A time-shared preemption closes one exactly like the fault
    /// path, without its `job_finished` callback or planned resume.
    fn apply<K: SchedulerKind>(
        &mut self,
        scheduler: &K,
        action: Action,
        now: Time,
        observers: &mut [&mut dyn SimObserver],
    ) {
        let (id, choice, resume) = match action {
            Action::Start { id, choice } => (id, choice, false),
            Action::Resume { id } => {
                let phase = self.phase(id);
                assert!(
                    phase == "Preempted",
                    "scheduler {} resumed job {id} in phase {phase}",
                    scheduler.name()
                );
                (id, 0, true)
            }
            Action::Preempt { id } => {
                let phase = self.phase(id);
                assert!(
                    phase == "Running",
                    "scheduler {} preempted job {id} in phase {phase}",
                    scheduler.name()
                );
                let start = self.alive[&id].span_start.expect("running job has a span");
                assert!(
                    now > start,
                    "scheduler {} preempted job {id} at its start instant",
                    scheduler.name()
                );
                let inf = self.close_span(id, now, observers);
                assert!(
                    inf.consumed < inf.job.effective_runtime(),
                    "job {id} preempted at or past its completion"
                );
                return;
            }
        };
        assert!(
            !self.cancelled.contains(&id),
            "scheduler {} started cancelled job {id}",
            scheduler.name()
        );
        let inf = self.alive.get_mut(&id).unwrap_or_else(|| {
            // A retired (finished) id replays the batch loop's
            // double-placement panic; a never-seen id is a contract
            // violation of its own.
            if u64::from(id.0) < self.submitted_below {
                panic!("job {id} placed twice");
            }
            panic!("scheduler {} started unknown job {id}", scheduler.name());
        });
        if let Some(shape) = scheduler.reshape(&inf.job, choice) {
            inf.job = shape;
        }
        let class = self
            .machine
            .resolve_class(inf.job.node_type, inf.job.memory_mb, inf.job.nodes)
            .unwrap_or_else(|| panic!("choice {choice} of job {id} has no eligible class"));
        let done = inf.consumed;
        self.machine
            .start_in(
                class,
                id,
                inf.job.nodes,
                now,
                now + (inf.job.requested_time - done),
            )
            .unwrap_or_else(|e| panic!("scheduler {} broke validity: {e}", scheduler.name()));
        let nodes = inf.job.nodes;
        let completion = now + (inf.job.effective_runtime() - done);
        let event = if done > 0 {
            assert!(inf.requeued || resume, "job {id} placed twice");
            inf.requeued = false;
            JobEvent::Resumed { id, at: now, nodes }
        } else {
            assert!(inf.first_start.is_none(), "job {id} placed twice");
            inf.first_start = Some(now);
            JobEvent::Started { id, at: now, nodes }
        };
        inf.span_start = Some(now);
        inf.expected = Some(completion);
        self.events.push(completion, Event::Finish(id));
        emit(observers, &event);
    }

    /// Close the running span of `id` at `now`: its nodes return, the
    /// elapsed seconds are charged, and its queued Finish event goes
    /// stale.
    fn close_span(
        &mut self,
        id: JobId,
        now: Time,
        observers: &mut [&mut dyn SimObserver],
    ) -> &mut InFlight {
        let slot = self.machine.finish(id).expect("checked running");
        self.preempted_ever.insert(id);
        emit(
            observers,
            &JobEvent::Preempted {
                id,
                at: now,
                nodes: slot.nodes,
            },
        );
        let inf = self.alive.get_mut(&id).expect("running job was alive");
        let span = inf.span_start.take().expect("running job has a span");
        debug_assert_eq!(span, slot.start);
        inf.consumed += now - span;
        inf.expected = None;
        inf
    }

    /// Lifecycle phase of `id`, for contract-violation messages.
    fn phase(&self, id: JobId) -> &'static str {
        match self.alive.get(&id) {
            Some(inf) if inf.span_start.is_some() => "Running",
            Some(inf) if inf.first_start.is_some() => "Preempted",
            Some(_) => "Queued",
            None if self.unsubmitted(id) => "Staged",
            None => "Done",
        }
    }

    /// Whether `id` has not entered the system yet: above the submit
    /// watermark, or a sparse id still staged below it.
    fn unsubmitted(&self, id: JobId) -> bool {
        u64::from(id.0) >= self.submitted_below || self.staged.contains_key(&id)
    }

    /// Consume the engine into the pipeline's outcome counters.
    pub fn into_outcome(self) -> PipelineOutcome {
        PipelineOutcome {
            scheduler_cpu: self.meter.total(),
            events: self.n_events,
            decision_rounds: self.rounds,
            peak_queue: self.peak_queue,
            faults: self.fault_log,
            jobs_submitted: self.jobs_submitted,
            jobs_finished: self.jobs_finished,
            peak_resident: self.peak_resident,
            horizon: self.horizon,
        }
    }
}

/// Wall-clock time inside scheduler callbacks. Each call is bracketed by
/// two time-stamp-counter reads, about half the cost of an [`Instant`]
/// pair; [`CallMeter::total`] scales the tick sum by the wall time per
/// tick over the meter's own lifetime.
struct CallMeter {
    origin: Instant,
    origin_ticks: u64,
    ticks: u64,
}

impl CallMeter {
    fn new() -> Self {
        let mut meter = CallMeter {
            origin: Instant::now(),
            origin_ticks: 0,
            ticks: 0,
        };
        meter.origin_ticks = meter.read();
        meter
    }

    /// Run `f`, charging its duration. A backwards reading charges 0.
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = self.read();
        let r = f();
        self.ticks += self.read().saturating_sub(t0);
        r
    }

    /// The charged ticks as wall-clock time: `ticks × wall_ns /
    /// wall_ticks` since the meter was built.
    fn total(&self) -> Duration {
        let wall_ticks = u128::from(self.read().saturating_sub(self.origin_ticks));
        let wall_ns = self.origin.elapsed().as_nanos();
        let ns = (u128::from(self.ticks) * wall_ns)
            .checked_div(wall_ticks)
            .unwrap_or(0);
        Duration::from_nanos(u64::try_from(ns).unwrap_or(u64::MAX))
    }

    /// The CPU's time-stamp counter. Off x86_64 the meter's only clock is
    /// nanoseconds since `origin`.
    fn read(&self) -> u64 {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: `rdtsc` only reads the time-stamp counter into
            // registers; it has no memory-safety preconditions and exists
            // on every x86_64 CPU.
            unsafe { core::arch::x86_64::_rdtsc() }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
        }
    }
}

fn outcome(inf: &InFlight, completion: Time) -> JobOutcome {
    JobOutcome {
        id: inf.job.id,
        submit: inf.job.submit,
        start: inf.first_start.expect("outcome of a started job"),
        completion,
        nodes: inf.nodes,
        requested_time: inf.job.requested_time,
        user: inf.job.user,
    }
}

fn emit(observers: &mut [&mut dyn SimObserver], event: &JobEvent) {
    for obs in observers.iter_mut() {
        obs.on_event(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::SimPipeline;
    use jobsched_workload::{JobBuilder, Workload, WorkloadSource};

    /// Minimal FCFS over the whole machine.
    #[derive(Default)]
    struct Fcfs {
        queue: VecDeque<JobRequest>,
    }

    impl Scheduler for Fcfs {
        fn name(&self) -> String {
            "test-fcfs".into()
        }
        fn submit(&mut self, job: JobRequest, _now: Time) {
            self.queue.push_back(job);
        }
        fn select_starts(&mut self, _now: Time, machine: &Machine) -> Vec<JobId> {
            let mut free = machine.free_nodes();
            let mut out = Vec::new();
            while self.queue.front().is_some_and(|head| head.nodes <= free) {
                let head = self.queue.pop_front().expect("checked");
                free -= head.nodes;
                out.push(head.id);
            }
            out
        }
        fn queue_len(&self) -> usize {
            self.queue.len()
        }
    }

    fn job(id: u32, submit: Time, nodes: u32, runtime: Time) -> Job {
        JobBuilder::new(JobId(id))
            .submit(submit)
            .nodes(nodes)
            .requested(runtime)
            .runtime(runtime)
            .build()
    }

    #[test]
    fn waiting_requests_come_back_in_id_order() {
        // Sparse ids staged out of order, as the daemon stages them.
        // Same-instant submits pop in id order, so id 7 takes the only
        // node and the rest wait.
        let mut live = LiveSim::new(1);
        for id in [40, 7, 300, 12, 9_000_000] {
            live.add_job(job(id, 0, 1, 10));
        }
        assert_eq!(
            live.step(&mut Fcfs::default(), None, false, &mut []),
            Some(0)
        );
        let ids: Vec<u32> = live.waiting_requests().iter().map(|r| r.id.0).collect();
        assert_eq!(ids, vec![12, 40, 300, 9_000_000]);
    }

    #[test]
    fn scheduler_cpu_is_within_the_wall_time_around_the_run() {
        let jobs = (0..5_000)
            .map(|i| job(0, Time::from(i) * 3, 1 + i % 16, 5 + Time::from(i % 97)))
            .collect();
        let w = Workload::new("t", 32, jobs);
        let t0 = Instant::now();
        let out = SimPipeline::new(&mut WorkloadSource::new(&w), &mut Fcfs::default())
            .run()
            .expect("well-formed source");
        let wall = t0.elapsed();
        assert_eq!(out.jobs_finished, 5_000);
        assert!(
            Duration::ZERO < out.scheduler_cpu && out.scheduler_cpu <= wall,
            "scheduler_cpu {:?} outside (0, {wall:?}]",
            out.scheduler_cpu
        );
    }
}
