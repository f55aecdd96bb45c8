//! The event loop against the oracle's batch reference loop, on small
//! fixed workloads: the streaming pipeline and the time-shared contract
//! (through `RigidAdapter`) must each reproduce the batch loop's
//! schedule and engine counters exactly.

use jobsched_oracle::{simulate_batch, RigidAdapter};
use jobsched_sim::{simulate, simulate_time_shared, JobRequest, Machine, Scheduler};
use jobsched_workload::{JobBuilder, JobId, Time, Workload};
use std::collections::VecDeque;

/// Minimal head-blocking FCFS.
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

#[test]
fn pipeline_matches_batch_engine_exactly() {
    // Tight sequential pressure: 6-node jobs on a 10-node machine,
    // submitted faster than they drain, with submit-time ties.
    let jobs = (0..40u32)
        .map(|i| {
            JobBuilder::new(JobId(0))
                .submit((i / 2) as Time * 30)
                .nodes(6)
                .requested(100)
                .runtime(if i % 3 == 0 { 50 } else { 100 })
                .build()
        })
        .collect();
    let w = Workload::new("seq", 10, jobs);
    let batch = simulate_batch(&w, &mut TestFcfs::new());
    let stream = simulate(&w, &mut TestFcfs::new());
    assert_eq!(stream.schedule, batch.schedule);
    assert_eq!(stream.events, batch.events);
    assert_eq!(stream.decision_rounds, batch.decision_rounds);
    assert_eq!(stream.peak_queue, batch.peak_queue);
    assert_eq!(stream.faults, batch.faults);
}

#[test]
fn rigid_adapter_matches_batch_engine_bit_for_bit() {
    let job = |submit, nodes, runtime| {
        JobBuilder::new(JobId(0))
            .submit(submit)
            .nodes(nodes)
            .requested(100)
            .runtime(runtime)
            .build()
    };
    let w = Workload::new(
        "t",
        10,
        vec![job(0, 6, 100), job(0, 6, 50), job(10, 4, 100)],
    );
    let batch = simulate_batch(&w, &mut TestFcfs::new());
    let mut inner = TestFcfs::new();
    let ts = simulate_time_shared(&w, &mut RigidAdapter::new(&mut inner));
    assert_eq!(ts.schedule, batch.schedule);
    assert_eq!(ts.events, batch.events);
    assert_eq!(ts.decision_rounds, batch.decision_rounds);
    assert_eq!(ts.peak_queue, batch.peak_queue);
}
