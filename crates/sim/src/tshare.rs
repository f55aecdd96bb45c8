//! Time-shared schedulers: mid-flight preempt / resume and moldable
//! starts, run on [`LiveSim`](crate::LiveSim) like every rigid
//! scheduler.
//!
//! A rigid [`Scheduler`](crate::Scheduler) treats a start as
//! irrevocable: once placed, a job holds its partition until it
//! finishes. A [`TimeSharedScheduler`] drops that assumption. Each
//! decision round returns [`Action`]s — starts (with a moldable width
//! choice), preemptions of running jobs, and resumes of preempted ones —
//! and the event loop keeps the machine, each job's consumed seconds,
//! and (through the
//! [`RecordingObserver`](crate::RecordingObserver)) the allocation
//! segment union of every job ([`crate::segment::Segment`]).
//!
//! ## Work accounting
//!
//! A job's width is fixed per start: choosing alternative `(w, t)` fixes
//! it at `w` nodes for an effective runtime of `min(t_actual, t_limit)`
//! seconds, and a resume continues at the same width. A span opened at
//! `now` therefore ends at `now + (effective − consumed)` and is booked
//! on the calendar until `now + (limit − consumed)` — integer seconds,
//! so a rigid job that is never preempted finishes at exactly
//! `start + effective_runtime`, bit-identical to the rigid runs. The
//! oracle's `RigidAdapter` replays any rigid scheduler through this
//! contract, and the `segment_identity` suite pins all 43 atlas rows to
//! identical schedules either way. A preemption leaves the job's queued
//! finish event stale, exactly as a forced-preemption fault does.

use crate::engine::{FaultPlan, JobRequest, SimOutcome};
use crate::live::SchedulerKind;
use crate::machine::Machine;
use crate::pipeline::record_run;
use jobsched_workload::{ClassId, Job, JobId, Time, Workload};

/// The submission-time view of a job the time-shared scheduler sees:
/// identity, arrival, and the execution alternatives it may pick from at
/// start time. Actual runtimes stay hidden, exactly like
/// [`JobRequest`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TsJobView {
    /// Job identity.
    pub id: JobId,
    /// Submission time.
    pub submit: Time,
    /// Submitting user.
    pub user: u32,
    /// Node class resolved for the rigid (first) choice.
    pub class: ClassId,
    /// `(width, limit)` alternatives; index 0 is the job's rigid shape.
    pub choices: Vec<(u32, Time)>,
}

/// One scheduling decision of a [`TimeSharedScheduler`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Start a queued job under execution alternative `choice` (an index
    /// into [`TsJobView::choices`]).
    Start {
        /// The job to start.
        id: JobId,
        /// Chosen alternative.
        choice: usize,
    },
    /// Preempt a running job: close its allocation span, free its nodes.
    Preempt {
        /// The job to pause.
        id: JobId,
    },
    /// Resume a preempted job at the width it started with.
    Resume {
        /// The job to continue.
        id: JobId,
    },
}

/// A scheduling algorithm with mid-flight control over running jobs.
///
/// Contract: actions are validated by the event loop against machine and
/// lifecycle state (starting a running job, resuming a queued one,
/// overcommitting a pool — all panics: algorithm bugs). The loop calls
/// [`TimeSharedScheduler::decide`] repeatedly until it returns no
/// actions, so multi-round decisions are allowed; a preemption's freed
/// nodes are startable within the *same* instant's later rounds.
pub trait TimeSharedScheduler {
    /// Human-readable name used in reports.
    fn name(&self) -> String;

    /// A job entered the system.
    fn submit(&mut self, job: &TsJobView, now: Time);

    /// A running job completed (possibly earlier than projected).
    fn job_finished(&mut self, _id: JobId, _now: Time) {}

    /// Decide what to do at `now`, given machine state. Return an empty
    /// vector to end the instant's decision phase.
    fn decide(&mut self, now: Time, machine: &Machine) -> Vec<Action>;

    /// Jobs waiting to run: queued *or* preempted (diagnostics, wakeup
    /// gating, deadlock detection).
    fn queue_len(&self) -> usize;

    /// The next instant (strictly after `now`) at which this scheduler
    /// wants a decision round even without a job event — e.g. the time
    /// slice boundary of a rotation policy.
    fn next_wakeup(&self, _now: Time) -> Option<Time> {
        None
    }
}

/// A [`TimeSharedScheduler`] as [`LiveSim`](crate::LiveSim) drives it:
/// its actions pass through, each submission becomes a [`TsJobView`] of
/// `workload`'s alternatives, and a start's `choice` resolves against
/// them.
struct TimeShared<'a> {
    inner: &'a mut dyn TimeSharedScheduler,
    workload: &'a Workload,
}

impl SchedulerKind for TimeShared<'_> {
    type Actions = Vec<Action>;
    const WAKES_WHILE_RUNNING: bool = true;

    fn name(&self) -> String {
        self.inner.name()
    }
    fn submit(&mut self, req: JobRequest, now: Time) {
        let view = TsJobView {
            id: req.id,
            submit: req.submit,
            user: req.user,
            class: req.class,
            choices: self
                .workload
                .choices(req.id)
                .iter()
                .map(|c| (c.nodes, c.requested_time))
                .collect(),
        };
        self.inner.submit(&view, now);
    }
    fn job_finished(&mut self, id: JobId, now: Time) {
        self.inner.job_finished(id, now);
    }
    fn decide(&mut self, now: Time, machine: &Machine) -> Vec<Action> {
        self.inner.decide(now, machine)
    }
    fn queue_len(&self) -> usize {
        self.inner.queue_len()
    }
    fn next_wakeup(&self, now: Time) -> Option<Time> {
        self.inner.next_wakeup(now)
    }
    fn reshape(&self, job: &Job, choice: usize) -> Option<Job> {
        if choice == 0 {
            return None;
        }
        let Some(&c) = self.workload.choices(job.id).get(choice) else {
            panic!(
                "scheduler {} picked unknown choice {choice}",
                self.inner.name()
            );
        };
        Some(Job {
            nodes: c.nodes,
            requested_time: c.requested_time,
            runtime: c.runtime,
            ..job.clone()
        })
    }
}

/// Run `scheduler` against `workload` on the event loop every scheduler
/// shares, recording each job's segment union.
///
/// Panics on scheduler contract violations (acting on a job in the wrong
/// lifecycle phase, overcommitting a pool, zero-length spans,
/// deadlocking with waiting jobs on an idle machine) — algorithm bugs,
/// not recoverable conditions.
pub fn simulate_time_shared(
    workload: &Workload,
    scheduler: &mut dyn TimeSharedScheduler,
) -> SimOutcome {
    let mut kind = TimeShared {
        inner: scheduler,
        workload,
    };
    record_run(workload, &mut kind, &FaultPlan::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::Segment;
    use jobsched_workload::JobBuilder;
    use std::collections::VecDeque;

    /// Round-robin slicer: every `slice` seconds, preempt whatever runs
    /// and start/resume jobs from a rotating head. Exercises every
    /// action except resize.
    struct Slicer {
        slice: Time,
        waiting: VecDeque<JobId>,
        started: std::collections::BTreeSet<JobId>,
        running: Vec<JobId>,
        rotated_at: Time,
        widths: std::collections::BTreeMap<JobId, u32>,
    }

    impl Slicer {
        fn new(slice: Time) -> Self {
            Slicer {
                slice,
                waiting: VecDeque::new(),
                started: Default::default(),
                running: Vec::new(),
                rotated_at: 0,
                widths: Default::default(),
            }
        }
    }

    impl TimeSharedScheduler for Slicer {
        fn name(&self) -> String {
            "slicer".into()
        }
        fn submit(&mut self, job: &TsJobView, _now: Time) {
            self.widths.insert(job.id, job.choices[0].0);
            self.waiting.push_back(job.id);
        }
        fn job_finished(&mut self, id: JobId, _now: Time) {
            self.running.retain(|&r| r != id);
        }
        fn decide(&mut self, now: Time, machine: &Machine) -> Vec<Action> {
            let mut out = Vec::new();
            if now > self.rotated_at && !self.waiting.is_empty() && !self.running.is_empty() {
                // Preempt everything, requeue behind the waiters.
                for &id in &self.running {
                    out.push(Action::Preempt { id });
                    self.waiting.push_back(id);
                }
                self.running.clear();
                self.rotated_at = now;
                return out;
            }
            let mut free = machine.free_nodes();
            while let Some(&head) = self.waiting.front() {
                let w = self.widths[&head];
                if w > free {
                    break;
                }
                free -= w;
                self.waiting.pop_front();
                if self.started.insert(head) {
                    out.push(Action::Start {
                        id: head,
                        choice: 0,
                    });
                } else {
                    out.push(Action::Resume { id: head });
                }
                self.running.push(head);
            }
            out
        }
        fn queue_len(&self) -> usize {
            self.waiting.len()
        }
        fn next_wakeup(&self, now: Time) -> Option<Time> {
            (!self.running.is_empty()).then_some(now + self.slice)
        }
    }

    #[test]
    fn slicer_time_shares_and_charges_exact_work() {
        // Two 6-node 100 s jobs on 10 nodes: rigid FCFS serialises them
        // (makespan 200); the slicer alternates 20 s slices.
        let w = Workload::new(
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
                    .runtime(100)
                    .build(),
            ],
        );
        let out = simulate_time_shared(&w, &mut Slicer::new(20));
        assert!(out.schedule.validate(&w).is_empty());
        // Both jobs charged exactly their runtime.
        assert_eq!(out.schedule.charged_time(JobId(0)), Some(100));
        assert_eq!(out.schedule.charged_time(JobId(1)), Some(100));
        // Job 1 made progress before job 0 completed (time sharing).
        let s1 = out.schedule.placement(JobId(1)).unwrap();
        let s0 = out.schedule.placement(JobId(0)).unwrap();
        assert!(s1.start < s0.completion);
        // The gaps stretch both envelopes past the rigid 100 s.
        assert!(s0.completion - s0.start > 100 || s1.completion - s1.start > 100);
        // Segment unions recorded for preempted jobs.
        assert!(
            out.schedule.segments(JobId(0)).is_some() || out.schedule.segments(JobId(1)).is_some()
        );
    }

    #[test]
    fn moldable_choice_changes_width_and_runtime() {
        // One 8-node 80 s job; the scheduler picks the 4-node reshape
        // (160 s) because only 4 nodes are free... emulate by forcing
        // choice 1.
        struct PickNarrow(Option<JobId>);
        impl TimeSharedScheduler for PickNarrow {
            fn name(&self) -> String {
                "narrow".into()
            }
            fn submit(&mut self, job: &TsJobView, _now: Time) {
                assert_eq!(job.choices.len(), 2);
                self.0 = Some(job.id);
            }
            fn decide(&mut self, _now: Time, _machine: &Machine) -> Vec<Action> {
                self.0
                    .take()
                    .map(|id| Action::Start { id, choice: 1 })
                    .into_iter()
                    .collect()
            }
            fn queue_len(&self) -> usize {
                self.0.is_some() as usize
            }
        }
        let mut w = Workload::new(
            "t",
            8,
            vec![JobBuilder::new(JobId(0))
                .submit(0)
                .nodes(8)
                .requested(100)
                .runtime(80)
                .build()],
        );
        let table = jobsched_workload::synthesize_moldable(&w);
        w.set_moldable(table);
        let out = simulate_time_shared(&w, &mut PickNarrow(None));
        let p = out.schedule.placement(JobId(0)).unwrap();
        // 4-wide reshape: runtime 160 (work conserved).
        assert_eq!((p.start, p.completion), (0, 160));
        // Recorded as a 4-node segment, not the rigid 8-node shape.
        assert_eq!(
            out.schedule.charged_spans(JobId(0), 8).unwrap(),
            vec![Segment::new(0, 160, 4)]
        );
    }

    #[test]
    fn running_jobs_alone_arm_a_wakeup() {
        // Nothing waits while the job runs, yet the scheduler pauses it
        // at 50: that instant exists only as a wakeup, which a rigid
        // scheduler could not arm with an empty queue.
        struct Pauser {
            plan: VecDeque<(Time, Action)>,
            waiting: bool,
        }
        impl TimeSharedScheduler for Pauser {
            fn name(&self) -> String {
                "pauser".into()
            }
            fn submit(&mut self, _job: &TsJobView, _now: Time) {
                self.waiting = true;
            }
            fn decide(&mut self, now: Time, _machine: &Machine) -> Vec<Action> {
                match self.plan.front() {
                    Some(&(t, action)) if t == now => {
                        self.plan.pop_front();
                        self.waiting = matches!(action, Action::Preempt { .. });
                        vec![action]
                    }
                    _ => Vec::new(),
                }
            }
            fn queue_len(&self) -> usize {
                self.waiting as usize
            }
            fn next_wakeup(&self, now: Time) -> Option<Time> {
                self.plan.front().map(|&(t, _)| t).filter(|&t| t > now)
            }
        }
        let w = Workload::new(
            "t",
            8,
            vec![JobBuilder::new(JobId(0))
                .submit(0)
                .nodes(4)
                .requested(100)
                .runtime(100)
                .build()],
        );
        let id = JobId(0);
        let mut pauser = Pauser {
            plan: VecDeque::from([
                (0, Action::Start { id, choice: 0 }),
                (50, Action::Preempt { id }),
                (60, Action::Resume { id }),
            ]),
            waiting: false,
        };
        let out = simulate_time_shared(&w, &mut pauser);
        assert_eq!(
            out.schedule.segments(id).unwrap(),
            &[Segment::new(0, 50, 4), Segment::new(60, 110, 4)]
        );
    }

    #[test]
    #[should_panic(expected = "in phase")]
    fn resuming_a_queued_job_panics() {
        struct Bad(bool);
        impl TimeSharedScheduler for Bad {
            fn name(&self) -> String {
                "bad".into()
            }
            fn submit(&mut self, _job: &TsJobView, _now: Time) {}
            fn decide(&mut self, _now: Time, _machine: &Machine) -> Vec<Action> {
                if self.0 {
                    return Vec::new();
                }
                self.0 = true;
                vec![Action::Resume { id: JobId(0) }]
            }
            fn queue_len(&self) -> usize {
                0
            }
        }
        let w = Workload::new(
            "t",
            8,
            vec![JobBuilder::new(JobId(0)).submit(0).nodes(1).build()],
        );
        simulate_time_shared(&w, &mut Bad(false));
    }
}
