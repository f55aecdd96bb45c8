//! The streaming simulation pipeline.
//!
//! [`SimPipeline`] is the bounded-memory generalisation of the batch
//! engine loop: instead of loading a whole [`Workload`] and keeping a
//! dense per-job record, it *pulls* jobs from a
//! [`JobSource`] as simulated time reaches
//! their submission instants, *pushes* lifecycle events
//! (submitted/started/finished/cancelled) to pluggable [`SimObserver`]
//! sinks, and retires each job's state the moment it completes. Resident
//! memory is O(in-flight + queued jobs), not O(trace length), which is
//! what lets a multi-million-job stream run in a fixed footprint.
//!
//! The batch entry points [`simulate`]/[`simulate_with_faults`] — and
//! [`crate::simulate_time_shared`] for the time-shared schedulers — are
//! thin wrappers: an in-memory workload becomes a
//! [`WorkloadSource`], a
//! [`RecordingObserver`] rebuilds the dense [`ScheduleRecord`], and the
//! result is the same [`SimOutcome`] as always. The old monolithic loop
//! survives in `jobsched-oracle` (`oracle::batch`) as a differential
//! baseline: the oracle proves batch and stream produce identical
//! outcomes on every fuzz scenario.
//!
//! ## Equivalence with the batch loop
//!
//! The batch loop enqueues every submission up front; the pipeline
//! holds exactly one *lookahead* job and refills the event queue with it
//! (and any same-instant successors) before each batch pop. Because
//! sources are submission-ordered, the queue's earliest timestamp after a
//! refill equals the global minimum over all pending *and future* events,
//! so batch boundaries — and therefore every scheduler decision — are
//! identical to the batch loop's. Wakeup deduplication and deadlock
//! detection consult the lookahead as well, closing the last two places
//! where "no event in the queue" used to mean "no event, ever".

use crate::engine::{CancelPhase, FaultOutcome, FaultPlan, JobRequest, Scheduler, SimOutcome};
use crate::live::{LiveSim, Rigid, SchedulerKind};
use crate::schedule::{JobPlacement, ScheduleRecord};
use crate::segment::Segment;
use jobsched_workload::{Job, JobId, JobSource, SourceError, Time, Workload, WorkloadSource};
use std::time::Duration;

/// Everything known about one completed (or killed) execution — the
/// streaming replacement for looking a job up in the workload *and* the
/// schedule record after the fact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobOutcome {
    /// Job identity.
    pub id: JobId,
    /// Submission time.
    pub submit: Time,
    /// Start time.
    pub start: Time,
    /// Completion time (truncation and mid-run cancellation included).
    pub completion: Time,
    /// Nodes the job was submitted with (the width of a moldable start
    /// is on its [`JobEvent::Started`]).
    pub nodes: u32,
    /// User-provided runtime limit.
    pub requested_time: Time,
    /// Submitting user.
    pub user: u32,
}

impl JobOutcome {
    /// Response time (completion − submit).
    #[inline]
    pub fn response_time(&self) -> Time {
        self.completion - self.submit
    }

    /// Wait time (start − submit).
    #[inline]
    pub fn wait_time(&self) -> Time {
        self.start - self.submit
    }

    /// Time the job actually held its nodes.
    #[inline]
    pub fn run_time(&self) -> Time {
        self.completion - self.start
    }
}

/// One lifecycle event, emitted to observers as it happens.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobEvent {
    /// A job entered the system (same view the scheduler gets).
    Submitted(JobRequest),
    /// A job began executing.
    Started {
        /// The job.
        id: JobId,
        /// Start instant.
        at: Time,
        /// Nodes allocated.
        nodes: u32,
    },
    /// A job completed and its state is about to be retired.
    Finished(JobOutcome),
    /// A running job was preempted (by a fault or by a time-shared
    /// scheduler): its allocation span closed and its nodes were
    /// released; a [`JobEvent::Resumed`] (or a cancellation) follows
    /// eventually.
    Preempted {
        /// The job.
        id: JobId,
        /// Preemption instant.
        at: Time,
        /// Nodes the closed span held.
        nodes: u32,
    },
    /// A previously preempted job restarted, opening a new allocation
    /// span for its remainder.
    Resumed {
        /// The job.
        id: JobId,
        /// Restart instant.
        at: Time,
        /// Nodes allocated to the new span.
        nodes: u32,
    },
    /// A cancellation fault was applied to a job.
    Cancelled {
        /// The job.
        id: JobId,
        /// Cancellation instant.
        at: Time,
        /// Where the cancellation found the job.
        phase: CancelPhase,
        /// The truncated execution, when the job was running.
        run: Option<JobOutcome>,
    },
}

/// A sink for simulation lifecycle events.
///
/// Observers are the streaming pipeline's output side: metrics
/// accumulators, schedule recorders, progress probes. They must not
/// assume random access to the past — an event is delivered once, then
/// the pipeline forgets it.
pub trait SimObserver {
    /// One lifecycle event, in simulation order.
    fn on_event(&mut self, event: &JobEvent);

    /// The run ended; `horizon` is the last simulated instant (0 for an
    /// empty run).
    fn on_end(&mut self, _horizon: Time) {}
}

/// Observer that rebuilds the dense [`ScheduleRecord`] of the batch API.
/// This reintroduces O(trace) memory by design — it is the interop shim
/// for callers that want the finished schedule, not a streaming sink.
///
/// Preempted jobs are rebuilt as allocation segment unions: a
/// [`JobEvent::Preempted`] closes the open span, a [`JobEvent::Resumed`]
/// opens the next one, and the final [`JobEvent::Finished`] /
/// [`JobEvent::Cancelled`] commits the union with its completion instant
/// — bit-identical to the batch reference loop's record. A single span at a
/// width other than the submitted one (a moldable start) is committed
/// as a one-segment union, since a rigid placement implies the job's
/// own width.
#[derive(Debug, Default)]
pub struct RecordingObserver {
    placements: Vec<Option<JobPlacement>>,
    /// `(start, nodes)` of the currently open span of every running job
    /// — bounded by in-flight jobs, and the seed a preemption needs to
    /// close the span retroactively.
    open: std::collections::BTreeMap<usize, (Time, u32)>,
    /// Closed spans of jobs preempted at least once. Bounded by the
    /// number of preemptions.
    segs: std::collections::BTreeMap<usize, Vec<Segment>>,
    /// Committed `(segments, completion)` unions awaiting `into_record`.
    committed: std::collections::BTreeMap<usize, (Vec<Segment>, Time)>,
}

impl RecordingObserver {
    /// Empty recorder.
    pub fn new() -> Self {
        RecordingObserver::default()
    }

    fn set(&mut self, o: &JobOutcome) {
        let idx = o.id.index();
        let open = self.open.remove(&idx);
        let segs = self.segs.remove(&idx);
        if segs.is_some() || open.is_some_and(|(_, nodes)| nodes != o.nodes) {
            let mut segs = segs.unwrap_or_default();
            if let Some((start, nodes)) = open {
                segs.push(Segment::new(start, o.completion, nodes));
            }
            self.committed.insert(idx, (segs, o.completion));
            return;
        }
        if self.placements.len() <= idx {
            self.placements.resize(idx + 1, None);
        }
        self.placements[idx] = Some(JobPlacement {
            start: o.start,
            completion: o.completion,
        });
    }

    /// The recorded schedule for a machine of `machine_nodes`, padded
    /// with unplaced slots up to `jobs` (cancelled jobs leave gaps).
    pub fn into_record(mut self, machine_nodes: u32, jobs: usize) -> ScheduleRecord {
        if self.placements.len() < jobs {
            self.placements.resize(jobs, None);
        }
        let mut record = ScheduleRecord::from_placements(machine_nodes, self.placements);
        for (idx, (segments, completion)) in self.committed {
            record.place_segments_at(JobId(idx as u32), segments, completion);
        }
        record
    }
}

impl SimObserver for RecordingObserver {
    fn on_event(&mut self, event: &JobEvent) {
        match event {
            JobEvent::Finished(o) => self.set(o),
            JobEvent::Cancelled { run: Some(o), .. } => self.set(o),
            JobEvent::Started { id, at, nodes } | JobEvent::Resumed { id, at, nodes } => {
                self.open.insert(id.index(), (*at, *nodes));
            }
            JobEvent::Preempted { id, at, .. } => {
                let (start, nodes) = self
                    .open
                    .remove(&id.index())
                    .expect("preempt closes an open span");
                self.segs
                    .entry(id.index())
                    .or_default()
                    .push(Segment::new(start, *at, nodes));
            }
            _ => {}
        }
    }
}

/// Result of one pipeline run. The counters shared with [`SimOutcome`]
/// (`events`, `decision_rounds`, `peak_queue`, `faults`, `scheduler_cpu`)
/// are defined identically; the rest only make sense for streams.
#[derive(Debug)]
pub struct PipelineOutcome {
    /// Wall-clock time spent inside scheduler callbacks: time-stamp-counter
    /// ticks around each call, scaled by the wall time per tick over the
    /// run (see [`SimOutcome::scheduler_cpu`]).
    pub scheduler_cpu: Duration,
    /// Number of processed events.
    pub events: u64,
    /// Number of `select_starts` invocations.
    pub decision_rounds: u64,
    /// Peak wait-queue length observed.
    pub peak_queue: usize,
    /// What each injected fault actually did.
    pub faults: Vec<FaultOutcome>,
    /// Jobs that entered the system (pre-submit cancellations excluded).
    pub jobs_submitted: u64,
    /// Jobs that ran to (possibly truncated) completion.
    pub jobs_finished: u64,
    /// Peak number of jobs resident in pipeline memory at once — staged,
    /// queued, or running. The memory-boundedness figure: for a healthy
    /// scheduler this tracks backlog, not trace length.
    pub peak_resident: usize,
    /// Last simulated instant (0 for an empty run).
    pub horizon: Time,
}

/// Builder/driver for one streaming simulation run.
///
/// ```text
/// JobSource --> SimPipeline(Scheduler) --> SimObserver*
/// ```
pub struct SimPipeline<'a> {
    source: &'a mut dyn JobSource,
    scheduler: &'a mut dyn Scheduler,
    observers: Vec<&'a mut dyn SimObserver>,
}

impl<'a> SimPipeline<'a> {
    /// Couple a source to a scheduler. Observers are optional.
    pub fn new(source: &'a mut dyn JobSource, scheduler: &'a mut dyn Scheduler) -> Self {
        SimPipeline {
            source,
            scheduler,
            observers: Vec::new(),
        }
    }

    /// Attach an event sink. May be called repeatedly; observers receive
    /// events in attachment order.
    pub fn observe(mut self, observer: &'a mut dyn SimObserver) -> Self {
        self.observers.push(observer);
        self
    }

    /// Drive the source to exhaustion.
    ///
    /// Panics on scheduler contract violations (invalid starts,
    /// deadlock), exactly like the batch reference loop; returns an
    /// error only when the *source* fails (I/O, parse, ordering).
    pub fn run(self) -> Result<PipelineOutcome, SourceError> {
        let SimPipeline {
            source,
            scheduler,
            mut observers,
        } = self;
        drive(
            source,
            &mut Rigid(scheduler),
            &FaultPlan::default(),
            &mut observers,
        )
    }
}

/// The pipeline loop for either scheduler contract: stage submissions
/// from `source` one lookahead at a time and step a [`LiveSim`] until
/// nothing is left to happen.
pub(crate) fn drive<K: SchedulerKind>(
    source: &mut dyn JobSource,
    scheduler: &mut K,
    faults: &FaultPlan,
    observers: &mut [&mut dyn SimObserver],
) -> Result<PipelineOutcome, SourceError> {
    let mut live = match source.layout() {
        Some(layout) => LiveSim::with_layout(layout.clone()),
        None => LiveSim::new(source.machine_nodes()),
    };
    for c in &faults.cancels {
        live.push_cancel(c.at, c.id);
    }
    for d in &faults.drains {
        live.plan_drain(*d);
    }
    for p in &faults.preempts {
        live.plan_preempt(*p);
    }

    let mut next_expected: u32 = 0;
    let mut last_submit: Time = 0;
    let mut lookahead = pull(source, &mut next_expected, &mut last_submit)?;

    loop {
        // Refill: stage the lookahead submission (and any same-instant
        // successors) while it is due at or before the engine's earliest
        // event. Afterwards the queue's head time is the global minimum
        // including all future submissions.
        while let Some(j) = &lookahead {
            let due = match live.next_event_time() {
                None => true,
                Some(t) => j.submit <= t,
            };
            if !due {
                break;
            }
            let j = lookahead.take().expect("checked above");
            live.add_job(j);
            lookahead = pull(source, &mut next_expected, &mut last_submit)?;
        }

        let next_external = lookahead.as_ref().map(|j| j.submit);
        if live
            .step_kind(scheduler, next_external, lookahead.is_some(), observers)
            .is_none()
        {
            break;
        }
    }

    let horizon = live.horizon();
    for obs in observers.iter_mut() {
        obs.on_end(horizon);
    }
    Ok(live.into_outcome())
}

/// Pull one job, enforcing the source contract (dense sequential ids,
/// non-decreasing submission times).
fn pull(
    source: &mut dyn JobSource,
    next_expected: &mut u32,
    last_submit: &mut Time,
) -> Result<Option<Job>, SourceError> {
    let Some(job) = source.next_job()? else {
        return Ok(None);
    };
    if job.id != JobId(*next_expected) {
        return Err(SourceError::NonDenseId {
            got: job.id,
            expected: JobId(*next_expected),
        });
    }
    if job.submit < *last_submit {
        return Err(SourceError::OutOfOrder {
            id: job.id,
            submit: job.submit,
            prev: *last_submit,
        });
    }
    *next_expected += 1;
    *last_submit = job.submit;
    Ok(Some(job))
}

/// Run `scheduler` against `workload` until every job has completed.
///
/// Thin wrapper over [`SimPipeline`] with a [`WorkloadSource`] and a
/// [`RecordingObserver`]; produces the same [`SimOutcome`] — bit for bit
/// — as the oracle's batch reference loop, which its stream
/// differential verifies on every fuzz scenario.
///
/// Panics if the scheduler violates its contract (starting an unknown or
/// oversubscribed job, or deadlocking with a non-empty queue on an idle
/// machine) — these are algorithm bugs, not recoverable conditions.
pub fn simulate(workload: &Workload, scheduler: &mut dyn Scheduler) -> SimOutcome {
    simulate_with_faults(workload, scheduler, &FaultPlan::default())
}

/// Run `scheduler` against `workload` while injecting the
/// cancellations, node drains and preemptions of `faults`. With an empty
/// plan this is exactly [`simulate`].
///
/// Fault semantics (all resolved by [`crate::event::Event`] batch order
/// at shared timestamps):
///
/// * A cancellation retracts a queued job ([`Scheduler::cancel`]), kills
///   a running one (resources released, completion truncated,
///   [`Scheduler::job_finished`]), suppresses a not-yet-submitted one
///   entirely, and is a no-op on a finished one. [`SimOutcome::faults`]
///   records which case applied.
/// * A drain removes `min(nodes, free)` nodes at `at` and returns them at
///   `until` (skipped when nothing is free or `until <= at`). Schedulers
///   hear about both edges via [`Scheduler::capacity_changed`].
/// * A preemption stops a *running* job mid-flight: nodes are released,
///   the scheduler hears [`Scheduler::job_finished`] (its books close
///   exactly as on a real completion), and at `resume_at` the remainder
///   re-enters the queue as a fresh [`Scheduler::submit`] whose limit is
///   the unconsumed part of the original. The schedule records the
///   resulting allocation segment union; response time and charge follow
///   the envelope/segment rules of [`ScheduleRecord`]. Preempting a job
///   that is not running is a recorded no-op.
pub fn simulate_with_faults(
    workload: &Workload,
    scheduler: &mut dyn Scheduler,
    faults: &FaultPlan,
) -> SimOutcome {
    for c in &faults.cancels {
        assert!(c.id.index() < workload.len(), "cancel of unknown job");
    }
    for p in &faults.preempts {
        assert!(p.id.index() < workload.len(), "preempt of unknown job");
    }
    record_run(workload, &mut Rigid(scheduler), faults)
}

/// Run `scheduler` over `workload` through [`drive`] and rebuild the
/// dense record with a [`RecordingObserver`].
pub(crate) fn record_run<K: SchedulerKind>(
    workload: &Workload,
    scheduler: &mut K,
    faults: &FaultPlan,
) -> SimOutcome {
    let mut recorder = RecordingObserver::new();
    let out = drive(
        &mut WorkloadSource::new(workload),
        scheduler,
        faults,
        &mut [&mut recorder],
    )
    .expect("in-memory workload sources are infallible");
    SimOutcome {
        schedule: recorder.into_record(workload.machine_nodes(), workload.len()),
        scheduler_cpu: out.scheduler_cpu,
        events: out.events,
        decision_rounds: out.decision_rounds,
        peak_queue: out.peak_queue,
        faults: out.faults,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use jobsched_workload::JobBuilder;
    use std::collections::VecDeque;

    /// Minimal FCFS, mirroring the engine's test scheduler.
    struct TestFcfs {
        queue: VecDeque<JobRequest>,
    }

    impl TestFcfs {
        fn new() -> Self {
            TestFcfs {
                queue: VecDeque::new(),
            }
        }
    }

    impl Scheduler for TestFcfs {
        fn name(&self) -> String {
            "test-fcfs".into()
        }
        fn submit(&mut self, job: JobRequest, _now: Time) {
            self.queue.push_back(job);
        }
        fn cancel(&mut self, id: JobId, _now: Time) {
            self.queue.retain(|j| j.id != id);
        }
        fn select_starts(&mut self, _now: Time, machine: &Machine) -> Vec<JobId> {
            let mut free = machine.free_nodes();
            let mut out = Vec::new();
            while let Some(head) = self.queue.front() {
                if head.nodes <= free {
                    free -= head.nodes;
                    out.push(self.queue.pop_front().unwrap().id);
                } else {
                    break;
                }
            }
            out
        }
        fn queue_len(&self) -> usize {
            self.queue.len()
        }
    }

    fn seq_workload(n: u32, machine: u32) -> Workload {
        // Tight sequential pressure: 6-node jobs on a 10-node machine,
        // submitted faster than they drain, with submit-time ties.
        let jobs = (0..n)
            .map(|i| {
                JobBuilder::new(JobId(0))
                    .submit((i / 2) as Time * 30)
                    .nodes(6)
                    .requested(100)
                    .runtime(if i % 3 == 0 { 50 } else { 100 })
                    .build()
            })
            .collect();
        Workload::new("seq", machine, jobs)
    }

    /// Observer that counts events by kind.
    #[derive(Default)]
    struct Counter {
        submitted: usize,
        started: usize,
        finished: usize,
        cancelled: usize,
        ended_at: Option<Time>,
    }

    impl SimObserver for Counter {
        fn on_event(&mut self, event: &JobEvent) {
            match event {
                JobEvent::Submitted(_) => self.submitted += 1,
                JobEvent::Started { .. } => self.started += 1,
                JobEvent::Finished(_) => self.finished += 1,
                JobEvent::Cancelled { .. } => self.cancelled += 1,
                JobEvent::Preempted { .. } | JobEvent::Resumed { .. } => {}
            }
        }
        fn on_end(&mut self, horizon: Time) {
            self.ended_at = Some(horizon);
        }
    }

    #[test]
    fn observers_see_the_full_lifecycle() {
        let w = seq_workload(10, 10);
        let mut source = WorkloadSource::new(&w);
        let mut fcfs = TestFcfs::new();
        let mut counter = Counter::default();
        let out = SimPipeline::new(&mut source, &mut fcfs)
            .observe(&mut counter)
            .run()
            .unwrap();
        assert_eq!(counter.submitted, 10);
        assert_eq!(counter.started, 10);
        assert_eq!(counter.finished, 10);
        assert_eq!(counter.cancelled, 0);
        assert_eq!(counter.ended_at, Some(out.horizon));
        assert_eq!(out.jobs_submitted, 10);
        assert_eq!(out.jobs_finished, 10);
        assert_eq!(out.events, 20);
    }

    #[test]
    fn resident_memory_tracks_backlog_not_trace_length() {
        // 20_000 sequential jobs: FCFS on a machine that fits one at a
        // time, arrivals slower than service. The pipeline must never
        // hold more than a handful of jobs, no matter the trace length.
        let n = 20_000u32;
        let jobs = (0..n)
            .map(|i| {
                JobBuilder::new(JobId(0))
                    .submit(i as Time * 10)
                    .nodes(8)
                    .requested(10)
                    .runtime(5)
                    .build()
            })
            .collect();
        let w = Workload::new("long", 10, jobs);
        let mut source = WorkloadSource::new(&w);
        let mut fcfs = TestFcfs::new();
        let out = SimPipeline::new(&mut source, &mut fcfs).run().unwrap();
        assert_eq!(out.jobs_finished, n as u64);
        assert!(
            out.peak_resident <= 4,
            "peak_resident {} should be O(backlog), not O({n})",
            out.peak_resident
        );
    }

    #[test]
    fn multiple_observers_receive_identical_streams() {
        let w = seq_workload(8, 10);
        let mut source = WorkloadSource::new(&w);
        let mut fcfs = TestFcfs::new();
        let mut a = Counter::default();
        let mut b = Counter::default();
        SimPipeline::new(&mut source, &mut fcfs)
            .observe(&mut a)
            .observe(&mut b)
            .run()
            .unwrap();
        assert_eq!(a.submitted, b.submitted);
        assert_eq!(a.finished, b.finished);
        assert_eq!(a.ended_at, b.ended_at);
    }

    #[test]
    fn empty_source_is_fine() {
        let w = Workload::new("e", 10, vec![]);
        let mut source = WorkloadSource::new(&w);
        let mut fcfs = TestFcfs::new();
        let mut counter = Counter::default();
        let out = SimPipeline::new(&mut source, &mut fcfs)
            .observe(&mut counter)
            .run()
            .unwrap();
        assert_eq!(out.events, 0);
        assert_eq!(out.horizon, 0);
        assert_eq!(counter.ended_at, Some(0));
    }

    #[test]
    fn misbehaving_source_is_rejected() {
        struct Bad(u32);
        impl JobSource for Bad {
            fn name(&self) -> &str {
                "bad"
            }
            fn machine_nodes(&self) -> u32 {
                10
            }
            fn next_job(&mut self) -> Result<Option<Job>, SourceError> {
                // Emits decreasing submit times with correct ids.
                let i = self.0;
                self.0 += 1;
                Ok(Some(
                    JobBuilder::new(JobId(i))
                        .submit(1000 - i as Time * 100)
                        .nodes(1)
                        .requested(10)
                        .runtime(10)
                        .build(),
                ))
            }
        }
        let mut fcfs = TestFcfs::new();
        let err = SimPipeline::new(&mut Bad(0), &mut fcfs).run().unwrap_err();
        assert!(matches!(err, SourceError::OutOfOrder { .. }), "{err:?}");
    }

    #[test]
    fn max_job_id_runs_cancels_and_frees_its_nodes() {
        let max = JobId(u32::MAX);
        let job = |id, submit, nodes| {
            JobBuilder::new(id)
                .submit(submit)
                .nodes(nodes)
                .requested(10)
                .runtime(10)
                .build()
        };
        let run = |live: &mut LiveSim, counter: &mut Counter| {
            let mut fcfs = TestFcfs::new();
            while live.step(&mut fcfs, None, false, &mut [counter]).is_some() {}
        };
        // Left alone, it finishes and a machine-wide job follows.
        let mut live = LiveSim::new(16);
        let mut counter = Counter::default();
        live.add_job(job(max, 0, 1));
        live.add_job(job(JobId(0), 5, 16));
        run(&mut live, &mut counter);
        assert_eq!((counter.submitted, counter.finished), (2, 2));
        assert_eq!(live.horizon(), 20);
        // Cancelled mid-run, it is a running cancellation and its node
        // returns at once.
        let mut live = LiveSim::new(16);
        let mut counter = Counter::default();
        live.add_job(job(max, 0, 1));
        live.push_cancel(5, max);
        run(&mut live, &mut counter);
        assert_eq!(
            live.fault_log(),
            &[FaultOutcome::Cancelled {
                id: max,
                at: 5,
                phase: CancelPhase::Running
            }]
        );
        assert_eq!(live.machine().free_nodes(), 16);
        assert_eq!((counter.cancelled, counter.finished), (1, 0));
    }

    #[test]
    fn cancel_of_running_job_emits_truncated_outcome() {
        let w = Workload::new(
            "t",
            10,
            vec![JobBuilder::new(JobId(0))
                .submit(0)
                .nodes(6)
                .requested(100)
                .runtime(100)
                .build()],
        );
        let plan = FaultPlan {
            cancels: vec![crate::engine::CancelFault {
                id: JobId(0),
                at: 40,
            }],
            drains: vec![],
            ..Default::default()
        };
        let mut source = WorkloadSource::new(&w);
        let mut fcfs = TestFcfs::new();
        let mut rec = Vec::new();
        struct Tape<'a>(&'a mut Vec<JobEvent>);
        impl SimObserver for Tape<'_> {
            fn on_event(&mut self, event: &JobEvent) {
                self.0.push(*event);
            }
        }
        let mut tape = Tape(&mut rec);
        drive(&mut source, &mut Rigid(&mut fcfs), &plan, &mut [&mut tape]).unwrap();
        match rec.last().unwrap() {
            JobEvent::Cancelled {
                phase: CancelPhase::Running,
                run: Some(o),
                ..
            } => {
                assert_eq!((o.start, o.completion), (0, 40));
            }
            other => panic!("expected running-cancel, got {other:?}"),
        }
    }
}
