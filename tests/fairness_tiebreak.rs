//! Directed fairness case: two schedules of the same workload with the
//! *identical multiset of waits* — and therefore bit-identical ART,
//! bounded slowdown, and slowdown variance — must still be told apart
//! by the per-user fairness objective when the waits land on different
//! users. This is the scenario the fairness axes were added for: the
//! aggregate objectives cannot see who absorbs the waiting.

use jobsched::core::objective_select::ObjectiveKind;
use jobsched::metrics::Objective;
use jobsched::metrics::{pareto_front, Point};
use jobsched::sim::ScheduleRecord;
use jobsched::workload::{JobBuilder, JobId, Workload};

/// Four unit-width jobs, two users, all submitted at t=0 with runtime
/// 100; `waits[i]` delays job i.
fn scheduled(waits: [u64; 4]) -> (Workload, ScheduleRecord) {
    let jobs: Vec<_> = [0u32, 0, 1, 1]
        .iter()
        .map(|&u| {
            JobBuilder::new(JobId(0))
                .submit(0)
                .nodes(1)
                .requested(100)
                .runtime(100)
                .user(u)
                .build()
        })
        .collect();
    let w = Workload::new("tie", 4, jobs);
    let mut s = ScheduleRecord::new(4, w.len());
    for (j, &wait) in w.jobs().iter().zip(&waits) {
        s.place(j.id, wait, wait + 100);
    }
    (w, s)
}

#[test]
fn equal_art_schedules_differ_on_per_user_fairness() {
    // Same wait multiset {0, 100, 100, 200}, different user incidence:
    // `skewed` stacks the long waits on user 1, `balanced` gives each
    // user one short and one long wait.
    let (w_skewed, skewed) = scheduled([0, 100, 100, 200]);
    let (w_balanced, balanced) = scheduled([0, 200, 100, 100]);

    let art_skewed = ObjectiveKind::AvgResponseTime.cost(&w_skewed, &skewed);
    let art_balanced = ObjectiveKind::AvgResponseTime.cost(&w_balanced, &balanced);
    assert_eq!(
        art_skewed.to_bits(),
        art_balanced.to_bits(),
        "wait multiset is identical, ART must tie bit-for-bit"
    );
    // Slowdown variance is permutation-invariant over jobs: it ties too
    // — per-user fairness is the *only* axis separating these.
    let var_skewed = ObjectiveKind::SlowdownVariance.cost(&w_skewed, &skewed);
    let var_balanced = ObjectiveKind::SlowdownVariance.cost(&w_balanced, &balanced);
    assert_eq!(var_skewed.to_bits(), var_balanced.to_bits());

    // Worst user's mean bounded slowdown: skewed gives user 1 waits
    // {100, 200} (slowdowns {2, 3}, mean 2.5) while balanced hands
    // every user slowdowns with mean 2. Response/runtime = slowdown
    // with these numbers, so skewed = 2.5, balanced = 2.0.
    let fair_skewed = ObjectiveKind::MaxUserSlowdown.cost(&w_skewed, &skewed);
    let fair_balanced = ObjectiveKind::MaxUserSlowdown.cost(&w_balanced, &balanced);
    assert!(
        fair_balanced < fair_skewed,
        "balanced {fair_balanced} must beat skewed {fair_skewed}"
    );
    assert_eq!(fair_skewed, 2.5);
    assert_eq!(fair_balanced, 2.0);
}

#[test]
fn fairness_axis_breaks_the_pareto_tie() {
    // In (ART, fair-max) space the balanced schedule dominates: equal
    // on ART, strictly better on fairness — exactly the refinement the
    // atlas's extended cost space adds over the paper's §4 objectives.
    let (w_skewed, skewed) = scheduled([0, 100, 100, 200]);
    let (w_balanced, balanced) = scheduled([0, 200, 100, 100]);
    let points = vec![
        Point::new(
            "skewed",
            vec![
                ObjectiveKind::AvgResponseTime.cost(&w_skewed, &skewed),
                ObjectiveKind::MaxUserSlowdown.cost(&w_skewed, &skewed),
            ],
        ),
        Point::new(
            "balanced",
            vec![
                ObjectiveKind::AvgResponseTime.cost(&w_balanced, &balanced),
                ObjectiveKind::MaxUserSlowdown.cost(&w_balanced, &balanced),
            ],
        ),
    ];
    assert_eq!(pareto_front(&points), vec![1]);
}
