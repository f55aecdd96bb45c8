//! The contract between the event loop and an online scheduler.
//!
//! [`crate::LiveSim`] drives a [`Scheduler`] with the event stream of a
//! workload: submissions arrive unannounced (the "on-line behaviour" of
//! §2) as [`JobRequest`]s, completions free resources — possibly earlier
//! than projected — and after every event batch the scheduler may start
//! queued jobs. The loop validates every start against machine capacity
//! (schedulers cannot produce invalid schedules, per §2's validity
//! requirement), completes each job at `start + min(runtime, limit)`
//! (Rule 2 cancellation) and meters wall-clock time inside scheduler
//! callbacks for Tables 7–8.
//!
//! This module also holds the adversarial inputs of a run — the
//! [`FaultPlan`] of cancellations, drains and preemptions, with the
//! [`FaultOutcome`] ground truth of what each did — and the finished
//! run's [`SimOutcome`].

use crate::machine::Machine;
use crate::schedule::ScheduleRecord;
use jobsched_workload::{ClassId, Job, JobId, Time};
use std::time::Duration;

/// The submission data an online scheduler is allowed to see (§2: user
/// data, resource requests; *not* the actual runtime).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobRequest {
    /// Job identity.
    pub id: JobId,
    /// Submission time.
    pub submit: Time,
    /// Rigid node requirement.
    pub nodes: u32,
    /// Node class the machine resolved the job's hardware request to.
    /// Always `ClassId(0)` on a homogeneous machine.
    pub class: ClassId,
    /// User-provided upper limit for the execution time.
    pub requested_time: Time,
    /// Submitting user.
    pub user: u32,
}

impl From<&Job> for JobRequest {
    fn from(j: &Job) -> Self {
        JobRequest {
            id: j.id,
            submit: j.submit,
            nodes: j.nodes,
            class: ClassId(0),
            requested_time: j.requested_time,
            user: j.user,
        }
    }
}

impl JobRequest {
    /// Projected resource consumption `requested_time × nodes` — the only
    /// weight available online (§5.4).
    #[inline]
    pub fn projected_area(&self) -> f64 {
        self.requested_time as f64 * self.nodes as f64
    }

    /// Projected end if started at `now`.
    #[inline]
    pub fn projected_end(&self, now: Time) -> Time {
        now + self.requested_time
    }
}

/// An online scheduling algorithm.
///
/// Contract: jobs handed in via [`Scheduler::submit`] are owned by the
/// scheduler's wait queue until it returns them from
/// [`Scheduler::select_starts`]; a returned job counts as started and must
/// leave the queue. Returned jobs must fit the free capacity *sequentially
/// in the returned order*. The engine calls `select_starts` repeatedly
/// until it returns an empty vector, so multi-round decisions are allowed.
pub trait Scheduler {
    /// Human-readable name used in reports.
    fn name(&self) -> String;

    /// A job entered the system.
    fn submit(&mut self, job: JobRequest, now: Time);

    /// A running job completed (possibly earlier than projected).
    fn job_finished(&mut self, _id: JobId, _now: Time) {}

    /// A *queued* job was retracted by its user (fault injection): the
    /// scheduler must forget it — it will never start. Cancellations of
    /// running jobs surface as [`Scheduler::job_finished`] instead. The
    /// default ignores the retraction, which is only sound for schedulers
    /// that are never driven with cancellation faults; the engine panics
    /// if a cancelled job is later returned from
    /// [`Scheduler::select_starts`].
    fn cancel(&mut self, _id: JobId, _now: Time) {}

    /// Machine capacity changed outside the job lifecycle (nodes drained
    /// or returned to service). Schedulers caching conclusions derived
    /// from the free-node count must drop them: a drain *shrinks* free
    /// capacity mid-interval (cached "this still fits" claims go stale),
    /// an undrain grows it (cached "nothing can start" claims go stale).
    fn capacity_changed(&mut self, _now: Time) {}

    /// Decide which queued jobs to start at `now`, given machine state.
    fn select_starts(&mut self, now: Time, machine: &Machine) -> Vec<JobId>;

    /// Number of jobs currently waiting (diagnostics).
    fn queue_len(&self) -> usize;

    /// The next instant (strictly after `now`) at which this scheduler
    /// wants a decision round even without a job event — e.g. a policy
    /// window boundary (Example 4's class reservation, the day/night
    /// regime switch). `None` (the default) means events suffice.
    fn next_wakeup(&self, _now: Time) -> Option<Time> {
        None
    }
}

/// A user cancelling a job at a given instant (fault injection).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CancelFault {
    /// The job to retract.
    pub id: JobId,
    /// When the cancellation arrives.
    pub at: Time,
}

/// Nodes leaving service for an interval (fault injection). The grant is
/// best-effort: only free nodes can drain (running jobs are never
/// preempted — no time sharing), so the engine grants
/// `min(nodes, free)` and skips the drain entirely when nothing is free
/// or the interval is empty.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DrainFault {
    /// When the drain begins.
    pub at: Time,
    /// Nodes requested to leave service.
    pub nodes: u32,
    /// Node class the outage hits. `ClassId(0)` on a homogeneous
    /// machine; on a typed machine a drain can target e.g. only the
    /// wide pool.
    pub class: ClassId,
    /// When the nodes return (exclusive; must exceed `at` to take effect).
    pub until: Time,
}

impl DrainFault {
    /// A class-0 drain — the homogeneous-machine shape.
    pub fn new(at: Time, nodes: u32, until: Time) -> Self {
        DrainFault {
            at,
            nodes,
            class: ClassId(0),
            until,
        }
    }
}

/// A forced preemption of a running job (fault injection): at `at` the
/// job is stopped mid-flight, its nodes are released, and at
/// `resume_at` (clamped to strictly after the preemption) the remainder
/// is handed back to the scheduler as a fresh submission whose limit is
/// the unconsumed part of the original. The scheduler restarts it
/// whenever its policy allows — resumption is *eligibility*, not a
/// guaranteed restart instant. A preemption whose job is not running at
/// `at` (still queued, already finished, cancelled, or already
/// preempted) is a recorded no-op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PreemptFault {
    /// The job to stop.
    pub id: JobId,
    /// When the preemption strikes.
    pub at: Time,
    /// Earliest instant the remainder re-enters the scheduler's queue.
    pub resume_at: Time,
}

/// The adversarial events injected into one simulation run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Job cancellations, applied whether the job is queued or running.
    pub cancels: Vec<CancelFault>,
    /// Node drain intervals.
    pub drains: Vec<DrainFault>,
    /// Forced mid-flight preemptions.
    pub preempts: Vec<PreemptFault>,
}

impl FaultPlan {
    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.cancels.is_empty() && self.drains.is_empty() && self.preempts.is_empty()
    }
}

/// Where a cancellation found its job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelPhase {
    /// Before submission: the job never enters the system at all.
    PreSubmit,
    /// Waiting in the scheduler's queue: retracted, never starts.
    Queued,
    /// Running: killed mid-execution, resources released immediately.
    Running,
    /// Preempted (or re-queued awaiting restart): the spans already run
    /// stay charged; the job completes at the cancel instant without
    /// ever running again.
    Preempted,
    /// Already completed: the cancellation is a no-op.
    AlreadyFinished,
}

/// What actually happened to one injected fault — the ground truth an
/// external checker audits the schedule against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultOutcome {
    /// A cancellation was applied.
    Cancelled {
        /// The cancelled job.
        id: JobId,
        /// When the cancellation was processed.
        at: Time,
        /// The job's state at that instant.
        phase: CancelPhase,
    },
    /// A drain was applied (or attempted).
    Drained {
        /// When the drain was processed.
        at: Time,
        /// Node class the drain targeted.
        class: ClassId,
        /// Nodes the plan asked for.
        requested: u32,
        /// Nodes actually taken out of service (`min(requested, free)`,
        /// free counted in the targeted class pool).
        granted: u32,
        /// When the granted nodes return to service.
        until: Time,
    },
    /// A forced preemption was applied (or attempted).
    Preempted {
        /// The targeted job.
        id: JobId,
        /// When the preemption was processed.
        at: Time,
        /// Whether the job was actually running — a queued, finished,
        /// cancelled or already-preempted target makes the fault a no-op.
        applied: bool,
        /// The instant the remainder re-entered the queue (clamped to
        /// `at + 1` at the earliest); the plan's raw value when not
        /// applied.
        resume_at: Time,
    },
}

/// Result of one simulation run.
#[derive(Debug)]
pub struct SimOutcome {
    /// The completed schedule.
    pub schedule: ScheduleRecord,
    /// Wall-clock time spent inside scheduler callbacks — the paper's
    /// "computation time to execute the various algorithms" (Tables 7–8).
    /// [`crate::LiveSim`] counts time-stamp-counter ticks around every
    /// `submit`, `job_finished`, `cancel`, `capacity_changed` and
    /// decision call and scales them by the wall time per tick over its
    /// own lifetime.
    pub scheduler_cpu: Duration,
    /// Number of processed events.
    pub events: u64,
    /// Number of `select_starts` invocations.
    pub decision_rounds: u64,
    /// Peak wait-queue length observed (backlog indicator, §6.1).
    pub peak_queue: usize,
    /// What each injected fault actually did (empty for fault-free runs).
    pub faults: Vec<FaultOutcome>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{simulate, simulate_with_faults};
    use jobsched_workload::{JobBuilder, Workload};

    /// Minimal FCFS used to exercise the engine (the real algorithms live
    /// in `jobsched-algos`).
    struct TestFcfs {
        queue: std::collections::VecDeque<JobRequest>,
    }

    impl TestFcfs {
        fn new() -> Self {
            TestFcfs {
                queue: std::collections::VecDeque::new(),
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

    fn workload() -> Workload {
        Workload::new(
            "t",
            10,
            vec![
                JobBuilder::new(JobId(0))
                    .submit(0)
                    .nodes(6)
                    .requested(100)
                    .runtime(100)
                    .build(),
                JobBuilder::new(JobId(0))
                    .submit(0)
                    .nodes(6)
                    .requested(100)
                    .runtime(50)
                    .build(),
                JobBuilder::new(JobId(0))
                    .submit(10)
                    .nodes(4)
                    .requested(100)
                    .runtime(100)
                    .build(),
            ],
        )
    }

    #[test]
    fn fcfs_blocks_head_until_space() {
        let w = workload();
        let out = simulate(&w, &mut TestFcfs::new());
        let s = &out.schedule;
        // Job 0 starts immediately; job 1 (6 nodes) must wait for job 0.
        assert_eq!(s.placement(JobId(0)).unwrap().start, 0);
        assert_eq!(s.placement(JobId(1)).unwrap().start, 100);
        // Job 2 (4 nodes) would fit at t=10 but FCFS does not skip.
        assert_eq!(s.placement(JobId(2)).unwrap().start, 100);
        assert!(s.validate(&w).is_empty());
    }

    #[test]
    fn early_finish_triggers_rescheduling() {
        // Job 1 has runtime 50 < requested 100: its early completion must
        // let the next job start at 150, not at its 100-projection... here
        // job order: 0 (0-100), 1 starts at 100 runs 50 → finishes 150.
        let w = workload();
        let out = simulate(&w, &mut TestFcfs::new());
        assert_eq!(out.schedule.placement(JobId(1)).unwrap().completion, 150);
    }

    #[test]
    fn limit_truncation_schedules_kill() {
        let w = Workload::new(
            "t",
            10,
            vec![JobBuilder::new(JobId(0))
                .submit(0)
                .nodes(1)
                .requested(60)
                .runtime(500)
                .build()],
        );
        let out = simulate(&w, &mut TestFcfs::new());
        assert_eq!(out.schedule.placement(JobId(0)).unwrap().completion, 60);
        assert!(out.schedule.validate(&w).is_empty());
    }

    #[test]
    fn outcome_counters_populated() {
        let out = simulate(&workload(), &mut TestFcfs::new());
        assert_eq!(out.events, 6); // 3 submits + 3 finishes
        assert!(out.decision_rounds >= 3);
        assert!(out.peak_queue >= 1);
        assert_eq!(out.schedule.completion_ratio(), 1.0);
    }

    #[test]
    fn empty_workload_is_fine() {
        let w = Workload::new("e", 10, vec![]);
        let out = simulate(&w, &mut TestFcfs::new());
        assert_eq!(out.events, 0);
        assert!(out.schedule.is_empty());
    }

    struct NeverStarts(Vec<JobRequest>);
    impl Scheduler for NeverStarts {
        fn name(&self) -> String {
            "never".into()
        }
        fn submit(&mut self, job: JobRequest, _now: Time) {
            self.0.push(job);
        }
        fn select_starts(&mut self, _now: Time, _machine: &Machine) -> Vec<JobId> {
            Vec::new()
        }
        fn queue_len(&self) -> usize {
            self.0.len()
        }
    }

    #[test]
    #[should_panic(expected = "deadlocked")]
    fn deadlocking_scheduler_detected() {
        let w = Workload::new(
            "t",
            10,
            vec![JobBuilder::new(JobId(0)).submit(0).nodes(1).build()],
        );
        simulate(&w, &mut NeverStarts(Vec::new()));
    }

    struct Overcommitter(Vec<JobRequest>);
    impl Scheduler for Overcommitter {
        fn name(&self) -> String {
            "overcommit".into()
        }
        fn submit(&mut self, job: JobRequest, _now: Time) {
            self.0.push(job);
        }
        fn select_starts(&mut self, _now: Time, _machine: &Machine) -> Vec<JobId> {
            self.0.drain(..).map(|j| j.id).collect()
        }
        fn queue_len(&self) -> usize {
            self.0.len()
        }
    }

    #[test]
    #[should_panic(expected = "broke validity")]
    fn overcommitting_scheduler_detected() {
        let w = Workload::new(
            "t",
            10,
            vec![
                JobBuilder::new(JobId(0)).submit(0).nodes(8).build(),
                JobBuilder::new(JobId(0)).submit(0).nodes(8).build(),
            ],
        );
        simulate(&w, &mut Overcommitter(Vec::new()));
    }

    #[test]
    fn cancel_phases_cover_the_job_lifecycle() {
        // Four 6-node jobs on 10 nodes, strictly sequential. Cancels hit
        // one job per lifecycle phase.
        let mk = |submit: Time| {
            JobBuilder::new(JobId(0))
                .submit(submit)
                .nodes(6)
                .requested(100)
                .runtime(100)
                .build()
        };
        let w = Workload::new("t", 10, vec![mk(0), mk(0), mk(0), mk(0)]);
        let plan = FaultPlan {
            cancels: vec![
                CancelFault {
                    id: JobId(1),
                    at: 10,
                }, // queued behind job 0
                CancelFault {
                    id: JobId(0),
                    at: 50,
                }, // running
                CancelFault {
                    id: JobId(2),
                    at: 400,
                }, // finished at 150: no-op
            ],
            drains: vec![],
            ..Default::default()
        };
        let out = simulate_with_faults(&w, &mut TestFcfs::new(), &plan);
        // Job 1 never ran; job 0 was truncated at 50; job 2 started there.
        assert_eq!(out.schedule.placement(JobId(1)), None);
        let p0 = out.schedule.placement(JobId(0)).unwrap();
        assert_eq!((p0.start, p0.completion), (0, 50));
        assert_eq!(out.schedule.placement(JobId(2)).unwrap().start, 50);
        assert_eq!(
            out.faults,
            vec![
                FaultOutcome::Cancelled {
                    id: JobId(1),
                    at: 10,
                    phase: CancelPhase::Queued
                },
                FaultOutcome::Cancelled {
                    id: JobId(0),
                    at: 50,
                    phase: CancelPhase::Running
                },
                FaultOutcome::Cancelled {
                    id: JobId(2),
                    at: 400,
                    phase: CancelPhase::AlreadyFinished
                },
            ]
        );
    }

    #[test]
    fn presubmit_cancel_suppresses_the_job() {
        let w = Workload::new(
            "t",
            10,
            vec![
                JobBuilder::new(JobId(0))
                    .submit(100)
                    .nodes(1)
                    .requested(10)
                    .runtime(10)
                    .build(),
                JobBuilder::new(JobId(0))
                    .submit(100)
                    .nodes(1)
                    .requested(10)
                    .runtime(10)
                    .build(),
            ],
        );
        let plan = FaultPlan {
            cancels: vec![CancelFault {
                id: JobId(0),
                at: 5,
            }],
            drains: vec![],
            ..Default::default()
        };
        let out = simulate_with_faults(&w, &mut TestFcfs::new(), &plan);
        assert_eq!(out.schedule.placement(JobId(0)), None);
        assert_eq!(out.schedule.placement(JobId(1)).unwrap().start, 100);
        assert_eq!(
            out.faults[0],
            FaultOutcome::Cancelled {
                id: JobId(0),
                at: 5,
                phase: CancelPhase::PreSubmit
            }
        );
    }

    #[test]
    fn drain_removes_nodes_and_returns_them() {
        // 10-node machine, 8 drained over [10, 200). The 10-node job
        // arriving at 20 cannot start until the nodes return.
        let w = Workload::new(
            "t",
            10,
            vec![JobBuilder::new(JobId(0))
                .submit(20)
                .nodes(10)
                .requested(50)
                .runtime(50)
                .build()],
        );
        let plan = FaultPlan {
            cancels: vec![],
            drains: vec![DrainFault::new(10, 8, 200)],
            ..Default::default()
        };
        let out = simulate_with_faults(&w, &mut TestFcfs::new(), &plan);
        assert_eq!(out.schedule.placement(JobId(0)).unwrap().start, 200);
        assert_eq!(
            out.faults,
            vec![FaultOutcome::Drained {
                at: 10,
                class: ClassId(0),
                requested: 8,
                granted: 8,
                until: 200,
            }]
        );
    }

    #[test]
    fn drain_grant_is_clamped_to_free_nodes() {
        // Machine busy with 7 of 10 nodes: a 9-node drain gets only 3.
        let w = Workload::new(
            "t",
            10,
            vec![JobBuilder::new(JobId(0))
                .submit(0)
                .nodes(7)
                .requested(100)
                .runtime(100)
                .build()],
        );
        let plan = FaultPlan {
            cancels: vec![],
            drains: vec![DrainFault::new(10, 9, 60)],
            ..Default::default()
        };
        let out = simulate_with_faults(&w, &mut TestFcfs::new(), &plan);
        assert_eq!(
            out.faults,
            vec![FaultOutcome::Drained {
                at: 10,
                class: ClassId(0),
                requested: 9,
                granted: 3,
                until: 60,
            }]
        );
        assert!(out.schedule.validate(&w).is_empty());
    }

    #[test]
    fn empty_fault_plan_matches_plain_simulate() {
        let w = workload();
        let plain = simulate(&w, &mut TestFcfs::new());
        let faulted = simulate_with_faults(&w, &mut TestFcfs::new(), &FaultPlan::default());
        assert!(faulted.faults.is_empty());
        for j in w.jobs() {
            assert_eq!(
                plain.schedule.placement(j.id),
                faulted.schedule.placement(j.id)
            );
        }
    }

    #[test]
    fn job_request_hides_actual_runtime() {
        // Compile-time guarantee by construction; assert the projection
        // uses the estimate.
        let j = JobBuilder::new(JobId(1))
            .nodes(4)
            .requested(100)
            .runtime(7)
            .build();
        let r = JobRequest::from(&j);
        assert_eq!(r.projected_end(10), 110);
        assert_eq!(r.projected_area(), 400.0);
    }
}
