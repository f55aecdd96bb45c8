//! §4: deriving objective functions from the policy rules.
//!
//! The paper's administrator walks each schedule-shaping goal through a
//! selection argument:
//!
//! * *Minimise response time* (Rule 5): "Rule 4 indicates that all jobs
//!   should be treated equally independent of their resource consumption.
//!   Therefore, the administrator uses the average response time."
//! * *Maximise load* (Rule 6): total idle time "is based on a time frame —
//!   therefore it does not support on-line scheduling"; makespan "is
//!   mainly an off-line criterion"; hence the **average weighted response
//!   time** with weight = resource consumption.
//!
//! [`derive_objectives`] reproduces this reasoning mechanically, keeping
//! the rejected candidates and the reason each was rejected, so the
//! decision trail of §4 is inspectable (and testable).
//!
//! [`ObjectiveKind`] names every schedule cost the experiments measure.
//! Each kind maps to exactly one streaming accumulator
//! ([`ObjectiveKind::build_streaming`]); its cost on a finished schedule
//! ([`Objective::cost`]) is that accumulator [`replay`]ed, so a cost has
//! one definition whether it is folded live or computed afterwards.

use crate::policy::{DailyWindow, Policy, Rule, SchedulingGoal};
use jobsched_algos::view::WeightScheme;
use jobsched_metrics::{
    replay, Objective, OnlineArt, OnlineAwrt, OnlineBoundedSlowdown, OnlineMaxUserSlowdown,
    OnlineP95WidthSlowdown, OnlineSlowdownVariance, StreamingObjective,
};
use jobsched_sim::ScheduleRecord;
use jobsched_workload::Workload;

/// The objective functions this derivation can produce. The §4
/// derivation selects the first two; the scheduler atlas additionally
/// sweeps bounded slowdown (the fairness criterion standard in the
/// backfilling literature) and the per-group fairness criteria the
/// objective learner feeds on (worst user, p95 width group, slowdown
/// spread — see `jobsched_metrics::fairness`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObjectiveKind {
    /// Average response time.
    AvgResponseTime,
    /// Average weighted response time, weight = resource consumption.
    AvgWeightedResponseTime,
    /// Average bounded slowdown (10-second threshold).
    AvgBoundedSlowdown,
    /// Worst user's mean bounded slowdown (Rule 4 fairness).
    MaxUserSlowdown,
    /// 95th-percentile per-width-group mean bounded slowdown.
    P95WidthSlowdown,
    /// Population variance of per-job bounded slowdown.
    SlowdownVariance,
}

impl ObjectiveKind {
    /// This objective as a boxed [`Objective`]; the cost is the same as
    /// calling [`Objective::cost`] on the kind itself.
    pub fn build(&self) -> Box<dyn Objective + Send + Sync> {
        Box::new(*self)
    }

    /// Materialise the online one-pass accumulator for this objective.
    /// Feeding it the simulation pipeline's event stream yields the same
    /// cost — bit for bit — as [`Objective::cost`] on the finished
    /// schedule, which replays the schedule through this accumulator.
    pub fn build_streaming(&self) -> Box<dyn StreamingObjective + Send> {
        match self {
            ObjectiveKind::AvgResponseTime => Box::new(OnlineArt::new()),
            ObjectiveKind::AvgWeightedResponseTime => Box::new(OnlineAwrt::new()),
            ObjectiveKind::AvgBoundedSlowdown => Box::new(OnlineBoundedSlowdown::new()),
            ObjectiveKind::MaxUserSlowdown => Box::new(OnlineMaxUserSlowdown::new()),
            ObjectiveKind::P95WidthSlowdown => Box::new(OnlineP95WidthSlowdown::new()),
            ObjectiveKind::SlowdownVariance => Box::new(OnlineSlowdownVariance::new()),
        }
    }

    /// Whether the ordering algorithms should weight jobs by projected
    /// resource consumption when optimising for this objective.
    pub fn weighted(&self) -> bool {
        matches!(self, ObjectiveKind::AvgWeightedResponseTime)
    }

    /// The weight scheme the ordering algorithms optimise for under this
    /// objective.
    pub fn weight_scheme(&self) -> WeightScheme {
        if self.weighted() {
            WeightScheme::ProjectedArea
        } else {
            WeightScheme::Unweighted
        }
    }

    /// Stable machine-readable tag: what cache keys, JSON records and
    /// the atlas spell this objective as.
    pub fn tag(&self) -> &'static str {
        match self {
            ObjectiveKind::AvgResponseTime => "art",
            ObjectiveKind::AvgWeightedResponseTime => "awrt",
            ObjectiveKind::AvgBoundedSlowdown => "bsld",
            ObjectiveKind::MaxUserSlowdown => "fair-max",
            ObjectiveKind::P95WidthSlowdown => "fair-p95",
            ObjectiveKind::SlowdownVariance => "fair-var",
        }
    }

    /// Parse an [`ObjectiveKind::tag`] back.
    pub fn from_tag(tag: &str) -> Option<ObjectiveKind> {
        match tag {
            "art" => Some(ObjectiveKind::AvgResponseTime),
            "awrt" => Some(ObjectiveKind::AvgWeightedResponseTime),
            "bsld" => Some(ObjectiveKind::AvgBoundedSlowdown),
            "fair-max" => Some(ObjectiveKind::MaxUserSlowdown),
            "fair-p95" => Some(ObjectiveKind::P95WidthSlowdown),
            "fair-var" => Some(ObjectiveKind::SlowdownVariance),
            _ => None,
        }
    }
}

impl Objective for ObjectiveKind {
    fn cost(&self, workload: &Workload, schedule: &ScheduleRecord) -> f64 {
        let mut acc = self.build_streaming();
        replay(workload.jobs(), schedule, &mut *acc);
        acc.cost()
    }
}

/// A candidate considered and rejected during the derivation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RejectedCandidate {
    /// Candidate name.
    pub candidate: String,
    /// The §4 rejection reason.
    pub reason: String,
}

/// An objective derived for one time regime.
#[derive(Clone, Debug, PartialEq)]
pub struct DerivedObjective {
    /// Window the goal is active in (`None` = remaining time).
    pub window: Option<DailyWindow>,
    /// The selected objective.
    pub objective: ObjectiveKind,
    /// Why it was selected.
    pub rationale: String,
    /// Candidates considered first and rejected.
    pub rejected: Vec<RejectedCandidate>,
}

/// Derive one objective per `GoalInWindow` rule, following §4.
pub fn derive_objectives(policy: &Policy) -> Vec<DerivedObjective> {
    let equal_treatment = policy
        .rules
        .iter()
        .any(|r| matches!(r, Rule::MaxJobsPerUser(_)));
    policy
        .rules
        .iter()
        .filter_map(|rule| {
            let Rule::GoalInWindow { window, goal } = rule else {
                return None;
            };
            Some(match goal {
                SchedulingGoal::MinimizeResponseTime => DerivedObjective {
                    window: *window,
                    objective: ObjectiveKind::AvgResponseTime,
                    rationale: if equal_treatment {
                        "per-user job limits indicate all jobs are treated equally \
                         independent of resource consumption ⇒ unweighted average \
                         response time"
                            .into()
                    } else {
                        "response-time goal with no equality hint ⇒ average response time".into()
                    },
                    rejected: Vec::new(),
                },
                SchedulingGoal::MaximizeSystemLoad => DerivedObjective {
                    window: *window,
                    objective: ObjectiveKind::AvgWeightedResponseTime,
                    rationale: "weight each job by its resource consumption \
                                (runtime × nodes): minimising weighted response time \
                                keeps resources busy, and the job order does not \
                                matter if no resources are left idle [16]"
                        .into(),
                    rejected: vec![
                        RejectedCandidate {
                            candidate: "total idle time".into(),
                            reason: "based on a time frame; does not support on-line \
                                     scheduling"
                                .into(),
                        },
                        RejectedCandidate {
                            candidate: "makespan".into(),
                            reason: "mainly an off-line criterion".into(),
                        },
                    ],
                },
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example5_derives_two_objectives() {
        let d = derive_objectives(&Policy::example5());
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].objective, ObjectiveKind::AvgResponseTime);
        assert_eq!(d[0].window, Some(DailyWindow::WEEKDAY_DAYTIME));
        assert_eq!(d[1].objective, ObjectiveKind::AvgWeightedResponseTime);
        assert_eq!(d[1].window, None);
    }

    #[test]
    fn rule4_drives_equal_treatment_rationale() {
        let d = derive_objectives(&Policy::example5());
        assert!(d[0].rationale.contains("treated equally"));
    }

    #[test]
    fn load_goal_records_rejected_candidates() {
        let d = derive_objectives(&Policy::example5());
        let rejected: Vec<&str> = d[1].rejected.iter().map(|r| r.candidate.as_str()).collect();
        assert_eq!(rejected, vec!["total idle time", "makespan"]);
    }

    #[test]
    fn example1_has_no_goal_rules() {
        assert!(derive_objectives(&Policy::example1()).is_empty());
    }

    #[test]
    fn kinds_build_metrics() {
        assert!(!ObjectiveKind::AvgResponseTime.weighted());
        assert!(ObjectiveKind::AvgWeightedResponseTime.weighted());
        assert!(!ObjectiveKind::AvgBoundedSlowdown.weighted());
    }

    const ALL: [ObjectiveKind; 6] = [
        ObjectiveKind::AvgResponseTime,
        ObjectiveKind::AvgWeightedResponseTime,
        ObjectiveKind::AvgBoundedSlowdown,
        ObjectiveKind::MaxUserSlowdown,
        ObjectiveKind::P95WidthSlowdown,
        ObjectiveKind::SlowdownVariance,
    ];

    #[test]
    fn tags_roundtrip() {
        for o in ALL {
            assert_eq!(ObjectiveKind::from_tag(o.tag()), Some(o));
        }
        let tags: std::collections::HashSet<_> = ALL.iter().map(|o| o.tag()).collect();
        assert_eq!(tags.len(), ALL.len());
        assert_eq!(ObjectiveKind::from_tag("nope"), None);
    }

    /// `build().cost`, `cost` and a replay of `build_streaming()` agree
    /// bit for bit for every kind.
    fn assert_one_definition(w: &Workload, s: &ScheduleRecord) {
        for kind in ALL {
            let mut acc = kind.build_streaming();
            replay(w.jobs(), s, &mut *acc);
            let replayed = acc.cost().to_bits();
            assert_eq!(kind.cost(w, s).to_bits(), replayed, "{kind:?}");
            assert_eq!(kind.build().cost(w, s).to_bits(), replayed, "{kind:?}");
        }
    }

    #[test]
    fn every_kind_costs_its_replayed_accumulator() {
        use jobsched_algos::view::WeightScheme;
        use jobsched_algos::AlgorithmSpec;
        use jobsched_workload::ctc::prepared_ctc_workload;
        use jobsched_workload::{JobBuilder, JobId};

        // Two jobs on 10 nodes: J0 (6 nodes, 100 s) at t=0, J1 (6 nodes,
        // 50 s actual / 100 s requested) waits until 100.
        let job = |runtime| {
            JobBuilder::new(JobId(0))
                .submit(0)
                .nodes(6)
                .requested(100)
                .runtime(runtime)
                .build()
        };
        let w = Workload::new("t", 10, vec![job(100), job(50)]);
        let mut s = ScheduleRecord::new(10, 2);
        s.place(JobId(0), 0, 100);
        s.place(JobId(1), 100, 150);
        assert_one_definition(&w, &s);
        assert_eq!(ObjectiveKind::AvgResponseTime.cost(&w, &s), 125.0);
        assert_eq!(ObjectiveKind::AvgBoundedSlowdown.cost(&w, &s), 2.0);

        let ctc = prepared_ctc_workload(400, 1999);
        let mut scheduler = AlgorithmSpec::reference().build(WeightScheme::Unweighted);
        let out = jobsched_sim::simulate(&ctc, &mut scheduler);
        assert_one_definition(&ctc, &out.schedule);
    }
}
