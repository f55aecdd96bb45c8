//! The PSRS preemptive schedule under the segment audit: capacity never
//! exceeded, spans disjoint per job, charged time exactly the execution
//! time — checks the completion projection §5.5 bins on cannot express.

use jobsched_algos::psrs::{preemptive_schedule, PsrsParams};
use jobsched_algos::JobView;
use jobsched_oracle::check_segments;
use jobsched_sim::Segment;
use jobsched_workload::{JobId, Time};

fn view(id: u32, nodes: u32, time: Time, weight: f64) -> JobView {
    JobView {
        id: JobId(id),
        nodes,
        time,
        weight,
    }
}

#[test]
fn preemptive_schedule_passes_the_segment_audit() {
    // The randomized fleet, audited: capacity never exceeded, spans
    // disjoint per job, charged time exactly the execution time.
    let jobs: Vec<JobView> = (0..100)
        .map(|i| {
            view(
                i,
                1 + (i * 13) % 200,
                1 + (i as Time * 37) % 500,
                1.0 + (i % 7) as f64,
            )
        })
        .collect();
    let alloc = preemptive_schedule(&jobs, 256, PsrsParams::default());
    assert_eq!(alloc.len(), jobs.len());
    let audit: Vec<(JobId, &[Segment], Option<Time>)> = alloc
        .iter()
        .map(|a| {
            let time = jobs.iter().find(|j| j.id == a.id).unwrap().time;
            (a.id, a.segments.as_slice(), Some(time.max(1)))
        })
        .collect();
    let violations = check_segments(256, &audit);
    assert!(violations.is_empty(), "{violations:?}");
}
