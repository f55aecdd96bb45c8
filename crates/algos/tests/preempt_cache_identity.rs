//! Regression pin for the blocked-state cache under preemption.
//!
//! The cache's core assumption used to be "arrivals append at the
//! queue tail". A preempted job breaks it: its remainder re-enters
//! `submit` with its *old* id — ahead of jobs that arrived while it
//! ran — so every cached blocked conclusion about those later jobs is
//! stale. The fix forces a full scan on mid-queue re-entry; this test
//! pins cached and uncached runs to identical schedules on the shrunk
//! fuzz reproducer that exposed the bug (job 0 is preempted twice and
//! re-enters ahead of jobs 2 and 3 both times).

use jobsched_algos::spec::PolicyKind;
use jobsched_algos::view::WeightScheme;
use jobsched_algos::{AlgorithmSpec, BackfillMode};
use jobsched_oracle::simulate_batch_with_faults;
use jobsched_sim::{simulate_with_faults, FaultPlan, PreemptFault};
use jobsched_workload::{JobBuilder, JobId, Workload};

fn reproducer() -> (Workload, FaultPlan) {
    let spec = [
        // (submit, nodes, requested, runtime)
        (700u64, 2u32, 28_000u64, 21_800u64),
        (1_200, 4, 7_800, 17_200),
        (1_400, 64, 12_300, 12_300),
        (3_400, 16, 26_300, 26_300),
    ];
    let jobs = spec
        .iter()
        .enumerate()
        .map(|(i, &(submit, nodes, requested, runtime))| {
            JobBuilder::new(JobId(i as u32))
                .submit(submit)
                .nodes(nodes)
                .requested(requested)
                .runtime(runtime)
                .build()
        })
        .collect();
    let plan = FaultPlan {
        cancels: vec![],
        drains: vec![],
        preempts: vec![
            PreemptFault {
                id: JobId(0),
                at: 7_100,
                resume_at: 14_400,
            },
            PreemptFault {
                id: JobId(2),
                at: 20_500,
                resume_at: 27_900,
            },
            PreemptFault {
                id: JobId(0),
                at: 25_500,
                resume_at: 28_500,
            },
        ],
    };
    (Workload::new("cache-preempt", 64, jobs), plan)
}

#[test]
fn cached_and_uncached_agree_under_preemptive_reentry() {
    let (workload, plan) = reproducer();
    for backfill in [
        BackfillMode::None,
        BackfillMode::Conservative,
        BackfillMode::Easy,
    ] {
        let spec = AlgorithmSpec::new(PolicyKind::Fcfs, backfill);
        let build = |caching: bool| spec.build(WeightScheme::Unweighted).with_caching(caching);
        let ctx = format!("{backfill:?}");

        let cached = simulate_batch_with_faults(&workload, &mut build(true), &plan);
        let plain = simulate_batch_with_faults(&workload, &mut build(false), &plan);
        assert_eq!(cached.schedule, plain.schedule, "batch schedules: {ctx}");
        assert_eq!(cached.faults, plain.faults, "batch fault outcomes: {ctx}");

        let cached = simulate_with_faults(&workload, &mut build(true), &plan);
        let plain = simulate_with_faults(&workload, &mut build(false), &plan);
        assert_eq!(cached.schedule, plain.schedule, "stream schedules: {ctx}");
        assert_eq!(cached.faults, plain.faults, "stream fault outcomes: {ctx}");
    }
}
