//! Engine-level forced-preemption tests: span bookkeeping, remainder
//! requeue, no-op classification, cancellation while suspended, and
//! batch/stream equality under every plan exercised here.

use jobsched_oracle::simulate_batch_with_faults;
use jobsched_sim::{
    simulate_with_faults, CancelFault, CancelPhase, FaultOutcome, FaultPlan, JobRequest, Machine,
    PreemptFault, Scheduler, SimOutcome,
};
use jobsched_workload::{JobBuilder, JobId, Time, Workload};

/// Minimal head-blocking FCFS (the real algorithms live in
/// `jobsched-algos`; the engine contract is what is under test).
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

fn preempt(id: u32, at: Time, resume_at: Time) -> PreemptFault {
    PreemptFault {
        id: JobId(id),
        at,
        resume_at,
    }
}

/// Run the plan through both engines and demand identical outcomes.
fn both(w: &Workload, plan: &FaultPlan) -> SimOutcome {
    let batch = simulate_batch_with_faults(w, &mut TestFcfs::new(), plan);
    let stream = simulate_with_faults(w, &mut TestFcfs::new(), plan);
    assert_eq!(batch.schedule, stream.schedule, "schedules diverge");
    assert_eq!(batch.faults, stream.faults, "fault logs diverge");
    assert_eq!(batch.events, stream.events, "event counts diverge");
    assert_eq!(
        batch.decision_rounds, stream.decision_rounds,
        "decision rounds diverge"
    );
    batch
}

#[test]
fn preempt_closes_the_span_and_the_remainder_resumes() {
    let w = workload();
    let plan = FaultPlan {
        preempts: vec![preempt(0, 30, 200)],
        ..Default::default()
    };
    let out = both(&w, &plan);
    let s = &out.schedule;

    // Job 0 ran [0, 30), its nodes freed mid-flight (jobs 1 and 2 both
    // start at 30 on the vacated capacity), and the remainder restarted
    // at the requeue instant for the 70 seconds it was still owed.
    assert_eq!(
        s.segments(JobId(0)).expect("preempted job has a union"),
        &[
            jobsched_sim::Segment::new(0, 30, 6),
            jobsched_sim::Segment::new(200, 270, 6)
        ]
    );
    assert_eq!(s.charged_time(JobId(0)), Some(100));
    let p = s.placement(JobId(0)).unwrap();
    assert_eq!((p.start, p.completion), (0, 270));
    assert_eq!(s.placement(JobId(1)).unwrap().start, 30);
    assert_eq!(s.placement(JobId(2)).unwrap().start, 30);
    assert!(s.validate(&w).is_empty());
    assert!(matches!(
        out.faults[..],
        [FaultOutcome::Preempted {
            id: JobId(0),
            at: 30,
            applied: true,
            resume_at: 200,
        }]
    ));
}

#[test]
fn preempting_a_queued_job_is_a_recorded_no_op() {
    let w = workload();
    let plan = FaultPlan {
        preempts: vec![preempt(1, 10, 60)],
        ..Default::default()
    };
    let out = both(&w, &plan);
    assert!(matches!(
        out.faults[..],
        [FaultOutcome::Preempted { applied: false, .. }]
    ));
    // The schedule is exactly the fault-free one.
    let clean = simulate_with_faults(&w, &mut TestFcfs::new(), &FaultPlan::default());
    assert_eq!(out.schedule, clean.schedule);
}

#[test]
fn cancel_while_preempted_completes_at_the_cancel_instant() {
    let w = workload();
    let plan = FaultPlan {
        preempts: vec![preempt(0, 30, 500)],
        cancels: vec![CancelFault {
            id: JobId(0),
            at: 60,
        }],
        ..Default::default()
    };
    let out = both(&w, &plan);
    let s = &out.schedule;
    assert_eq!(
        s.segments(JobId(0)).unwrap(),
        &[jobsched_sim::Segment::new(0, 30, 6)]
    );
    assert_eq!(s.charged_time(JobId(0)), Some(30));
    assert_eq!(s.placement(JobId(0)).unwrap().completion, 60);
    assert!(out.faults.iter().any(|f| matches!(
        f,
        FaultOutcome::Cancelled {
            phase: CancelPhase::Preempted,
            ..
        }
    )));
}

#[test]
fn repeated_preemptions_accumulate_consumed_time() {
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
        preempts: vec![preempt(0, 20, 30), preempt(0, 50, 70)],
        ..Default::default()
    };
    let out = both(&w, &plan);
    let s = &out.schedule;
    // 20 consumed, restart 30; 20 more consumed, restart 70; 60 left.
    assert_eq!(
        s.segments(JobId(0)).unwrap(),
        &[
            jobsched_sim::Segment::new(0, 20, 6),
            jobsched_sim::Segment::new(30, 50, 6),
            jobsched_sim::Segment::new(70, 130, 6)
        ]
    );
    assert_eq!(s.charged_time(JobId(0)), Some(100));
    // The original projected finish at t=100 fell inside the second
    // suspension: the stale event must not retire the job early.
    assert_eq!(s.placement(JobId(0)).unwrap().completion, 130);
    assert!(s.validate(&w).is_empty());
}

#[test]
fn resume_instant_is_clamped_past_the_preemption() {
    let w = workload();
    // resume_at inside the scenario must exceed at; the engine itself
    // only promises the requeue lands strictly after the preemption, so
    // an equal instant clamps to at + 1.
    let plan = FaultPlan {
        preempts: vec![preempt(0, 30, 31)],
        ..Default::default()
    };
    let out = both(&w, &plan);
    // At t=31 jobs 1 and 2 hold 10 nodes, so the remainder waits for job
    // 1's finish at t=80 — the requeue itself must not displace anyone.
    let segs = out.schedule.segments(JobId(0)).unwrap();
    assert_eq!(segs[0], jobsched_sim::Segment::new(0, 30, 6));
    assert_eq!(segs[1].start, 80);
    assert_eq!(out.schedule.charged_time(JobId(0)), Some(100));
}

#[test]
fn truncated_overrun_charges_the_estimate_across_spans() {
    // runtime 500 under a 60-second estimate: Rule 2 truncation interacts
    // with the consumed-time arithmetic — the spans must sum to 60.
    let w = Workload::new(
        "t",
        10,
        vec![JobBuilder::new(JobId(0))
            .submit(0)
            .nodes(4)
            .requested(60)
            .runtime(500)
            .build()],
    );
    let plan = FaultPlan {
        preempts: vec![preempt(0, 25, 40)],
        ..Default::default()
    };
    let out = both(&w, &plan);
    assert_eq!(out.schedule.charged_time(JobId(0)), Some(60));
    assert_eq!(out.schedule.placement(JobId(0)).unwrap().completion, 75);
}
