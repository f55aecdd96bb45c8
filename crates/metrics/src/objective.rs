//! Schedule-cost (objective) functions.
//!
//! §4 of the paper derives two objectives from Institution B's policy:
//!
//! * **Rule 5** (weekday daytime): *average response time* — "the sum of
//!   the differences between the completion time and submission time for
//!   each job divided by the number of jobs". Job weight is always 1.
//! * **Rule 6** (nights/weekends): after discarding total idle time (frame
//!   based, not online) and makespan (off-line criterion), the *average
//!   weighted response time* "where the weight is identical to the
//!   resource consumption of a job, that is, the product of the execution
//!   time and the number of required nodes". For this objective "the order
//!   of jobs does not matter if no resources are left idle" \[16\] — which
//!   is why utilization-maximising algorithms shine under it (§7).
//!
//! All objectives are **costs**: smaller is better.
//!
//! Every impl here is a thin wrapper that [`replay`]s the finished
//! schedule through its [`crate::streaming`] accumulator, so the batch
//! and online paths share one arithmetic and agree bit for bit.

use crate::streaming::{
    replay, OnlineArt, OnlineAwrt, OnlineBoundedSlowdown, OnlineIdleTime, OnlineMakespan,
    OnlineSumWeightedCompletion, OnlineUtilization, StreamingObjective,
};
use jobsched_sim::ScheduleRecord;
use jobsched_workload::{Time, Workload};

/// A scalar schedule cost (§2.2). Lower is better.
pub trait Objective {
    /// Name used in reports ("ART", "AWRT", ...).
    fn name(&self) -> &'static str;

    /// Evaluate the cost of a finished schedule.
    ///
    /// Panics if the schedule is incomplete — the paper's final schedule
    /// "is only available after the execution of all jobs".
    fn cost(&self, workload: &Workload, schedule: &ScheduleRecord) -> f64;
}

/// Average response time (Rule 5 objective; weight ≡ 1).
#[derive(Clone, Copy, Debug, Default)]
pub struct AvgResponseTime;

impl Objective for AvgResponseTime {
    fn name(&self) -> &'static str {
        "ART"
    }

    fn cost(&self, workload: &Workload, schedule: &ScheduleRecord) -> f64 {
        let mut acc = OnlineArt::new();
        replay(workload, schedule, &mut acc);
        acc.cost()
    }
}

/// Average weighted response time (Rule 6 objective; weight = actual
/// resource consumption `effective_runtime × nodes`).
#[derive(Clone, Copy, Debug, Default)]
pub struct AvgWeightedResponseTime;

impl Objective for AvgWeightedResponseTime {
    fn name(&self) -> &'static str {
        "AWRT"
    }

    fn cost(&self, workload: &Workload, schedule: &ScheduleRecord) -> f64 {
        let mut acc = OnlineAwrt::new();
        replay(workload, schedule, &mut acc);
        acc.cost()
    }
}

/// Makespan: completion time of the last job. §4 notes it "is mainly an
/// off-line criterion" — kept for lower-bound comparisons and Fig. 2.
#[derive(Clone, Copy, Debug, Default)]
pub struct Makespan;

impl Objective for Makespan {
    fn name(&self) -> &'static str {
        "makespan"
    }

    fn cost(&self, workload: &Workload, schedule: &ScheduleRecord) -> f64 {
        let mut acc = OnlineMakespan::new();
        replay(workload, schedule, &mut acc);
        acc.cost()
    }
}

/// Sum of idle node-seconds within a fixed time frame — the literal Rule 6
/// criterion §4 starts from ("the sum of the idle times for all resources
/// in a given time frame") before rejecting it as not online-capable.
#[derive(Clone, Copy, Debug)]
pub struct TotalIdleTime {
    /// Frame start.
    pub from: Time,
    /// Frame end (exclusive).
    pub to: Time,
}

impl Objective for TotalIdleTime {
    fn name(&self) -> &'static str {
        "idle-time"
    }

    fn cost(&self, workload: &Workload, schedule: &ScheduleRecord) -> f64 {
        let mut acc = OnlineIdleTime::new(self.from, self.to, schedule.machine_nodes());
        replay(workload, schedule, &mut acc);
        acc.cost()
    }
}

/// Negated utilization over `[0, makespan]`, as a cost (lower = busier).
#[derive(Clone, Copy, Debug, Default)]
pub struct Utilization;

impl Objective for Utilization {
    fn name(&self) -> &'static str {
        "neg-utilization"
    }

    fn cost(&self, workload: &Workload, schedule: &ScheduleRecord) -> f64 {
        let mut acc = OnlineUtilization::new(schedule.machine_nodes());
        replay(workload, schedule, &mut acc);
        acc.cost()
    }
}

/// Σ wⱼ·Cⱼ — the classical weighted completion time (Smith's criterion
/// \[19\]), the off-line objective SMART and PSRS were designed for.
#[derive(Clone, Copy, Debug, Default)]
pub struct SumWeightedCompletion;

impl Objective for SumWeightedCompletion {
    fn name(&self) -> &'static str {
        "sum-wC"
    }

    fn cost(&self, workload: &Workload, schedule: &ScheduleRecord) -> f64 {
        let mut acc = OnlineSumWeightedCompletion::new();
        replay(workload, schedule, &mut acc);
        acc.cost()
    }
}

/// Average bounded slowdown with the conventional 10-second threshold —
/// a widely used auxiliary metric (Feitelson & Rudolph \[3\]); provided for
/// the extension benches.
#[derive(Clone, Copy, Debug, Default)]
pub struct AvgBoundedSlowdown;

impl Objective for AvgBoundedSlowdown {
    fn name(&self) -> &'static str {
        "bounded-slowdown"
    }

    fn cost(&self, workload: &Workload, schedule: &ScheduleRecord) -> f64 {
        let mut acc = OnlineBoundedSlowdown::new();
        replay(workload, schedule, &mut acc);
        acc.cost()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jobsched_workload::{JobBuilder, JobId};

    /// Two jobs on 10 nodes: J0 (6 nodes, 100 s) at t=0, J1 (6 nodes,
    /// 50 s actual / 100 s requested) waits until 100.
    fn fixture() -> (Workload, ScheduleRecord) {
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
                    .runtime(50)
                    .build(),
            ],
        );
        let mut s = ScheduleRecord::new(10, 2);
        s.place(JobId(0), 0, 100);
        s.place(JobId(1), 100, 150);
        (w, s)
    }

    #[test]
    fn art_averages_response_times() {
        let (w, s) = fixture();
        // responses: 100 and 150.
        assert_eq!(AvgResponseTime.cost(&w, &s), 125.0);
    }

    #[test]
    fn awrt_weights_by_area() {
        let (w, s) = fixture();
        // areas: 600 and 300; weighted responses 600×100 + 300×150.
        let expected = (600.0 * 100.0 + 300.0 * 150.0) / 2.0;
        assert_eq!(AvgWeightedResponseTime.cost(&w, &s), expected);
    }

    #[test]
    fn makespan_is_last_completion() {
        let (w, s) = fixture();
        assert_eq!(Makespan.cost(&w, &s), 150.0);
    }

    #[test]
    fn idle_time_within_frame() {
        let (w, s) = fixture();
        // Frame [0, 150): capacity 1500 node-s, busy 600 + 300 = 900.
        let idle = TotalIdleTime { from: 0, to: 150 }.cost(&w, &s);
        assert_eq!(idle, 600.0);
    }

    #[test]
    fn idle_time_partial_overlap() {
        let (w, s) = fixture();
        // Frame [50, 100): only J0 busy → 6×50 busy of 500.
        let idle = TotalIdleTime { from: 50, to: 100 }.cost(&w, &s);
        assert_eq!(idle, 500.0 - 300.0);
    }

    #[test]
    fn utilization_cost_is_negative() {
        let (w, s) = fixture();
        let u = Utilization.cost(&w, &s);
        assert!((u + 900.0 / 1500.0).abs() < 1e-12);
    }

    #[test]
    fn sum_weighted_completion() {
        let (w, s) = fixture();
        assert_eq!(
            SumWeightedCompletion.cost(&w, &s),
            600.0 * 100.0 + 300.0 * 150.0
        );
    }

    #[test]
    fn bounded_slowdown_floors_at_one() {
        let (w, s) = fixture();
        // J0: 100/100 = 1; J1: 150/50 = 3.
        assert_eq!(AvgBoundedSlowdown.cost(&w, &s), 2.0);
    }

    #[test]
    fn empty_workload_costs_zero() {
        let w = Workload::new("e", 10, vec![]);
        let s = ScheduleRecord::new(10, 0);
        assert_eq!(AvgResponseTime.cost(&w, &s), 0.0);
        assert_eq!(AvgWeightedResponseTime.cost(&w, &s), 0.0);
    }

    #[test]
    #[should_panic(expected = "no placement")]
    fn incomplete_schedule_panics() {
        let (w, _) = fixture();
        let s = ScheduleRecord::new(10, 2);
        let _ = AvgResponseTime.cost(&w, &s);
    }

    #[test]
    fn objectives_are_dyn_compatible() {
        let objs: Vec<Box<dyn Objective>> = vec![
            Box::new(AvgResponseTime),
            Box::new(AvgWeightedResponseTime),
            Box::new(Makespan),
        ];
        let (w, s) = fixture();
        let names: Vec<_> = objs.iter().map(|o| o.name()).collect();
        assert_eq!(names, vec!["ART", "AWRT", "makespan"]);
        assert!(objs.iter().all(|o| o.cost(&w, &s) > 0.0));
    }
}
