//! The priority-policy family: scoring rules over (wait, estimate,
//! width) that order the wait queue of the one list scheduler.
//!
//! This is the family the paper's evaluation (13 combos) leaves out and
//! the batch-scheduling literature sweeps routinely: SJF/LJF,
//! smallest/largest-first, the wait-fairness heuristics WFP/WFP³ and
//! UNICEF, and machine-tuned linear "F" combinations (Carastan-Santos &
//! de Camargo, SC'17). Each [`ScoreFn`] maps a waiting job to a scalar
//! score; **smaller score = higher priority**. As
//! [`OrderPolicy::Score`](crate::order::OrderPolicy::Score) a rule is an
//! ordering policy of [`ListScheduler`](crate::scheduler::ListScheduler)
//! like any other: the scheduler keeps the queue ranked between
//! decisions (a time-invariant rule inserts each submission at its
//! ranked place, a wait-dependent rule re-ranks once per decision
//! instant, since its scores drift as the clock advances) and the ranked
//! order feeds the same selection machinery — head-blocking greedy,
//! optionally upgraded with conservative or EASY backfilling, in both
//! profile modes, per node-class pool on a partitioned machine.
//! `ScoreFn::Fcfs` is pinned bit-identical to `OrderPolicy::Fcfs` by
//! `crates/algos/tests/priority_fcfs_identity.rs`.
//!
//! # Tie-breaking (normative)
//!
//! Jobs are ordered by `(score, JobId)` ascending, comparing scores with
//! [`f64::total_cmp`]. Ties on the score — common for width- or
//! estimate-keyed functions on bursty queues — always fall back to the
//! submission order (ids ascend with submit time in every driver in this
//! repo), so the ranking is a total order that does not depend on queue
//! iteration order. [`rank`] and the scheduler's maintained order
//! compare with one function, `by_score_then_id`; the oracle's naive
//! re-implementations and the property tests pin the rule.
//!
//! # No blocked-state cache
//!
//! `ListScheduler`'s incremental blocked-state cache is sound only
//! while the order between two queue events is static. Wait-dependent
//! scores (WFP, UNICEF, …) reorder the queue as time passes with *no*
//! intervening event, so a cached "nothing can start" conclusion could
//! hold back a job that meanwhile overtook the blocked head. A score
//! order therefore takes a full scan of its maintained order per
//! decision round.

use jobsched_sim::JobRequest;
use jobsched_workload::{JobId, Time};
use std::cmp::Ordering;

/// A scoring rule over `(wait, runtime estimate, width)`.
///
/// Formulas follow the deep-batch-scheduler exemplar (SNIPPETS.md) and
/// SC'17, adapted to this repo's conventions: the estimate is clamped to
/// ≥ 1 (mirroring [`crate::view::JobView::of`]), so no rule can divide
/// by zero, and UNICEF's `log2(width)` becomes `log2(width + 1)` so a
/// one-node job (log2(1) = 0) cannot blow up the quotient. Every score
/// is finite for all admissible inputs (wait, estimate ≤ 2⁶³, width ≤
/// 2³²) — the property tests sweep the extremes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ScoreFn {
    /// First-come-first-serve: score `-wait` (longest-waiting first —
    /// submission order). Exists to pin the family bit-identical to
    /// `OrderPolicy::Fcfs`.
    Fcfs,
    /// Shortest job first: score `estimate`.
    Sjf,
    /// Longest job first: score `-estimate`.
    Ljf,
    /// Narrowest job first: score `width`.
    SmallestFirst,
    /// Widest job first: score `-width`.
    LargestFirst,
    /// WFP: score `-(wait/estimate) · width` — fairness-weighted wide
    /// jobs overtake as they wait.
    Wfp,
    /// WFP³: score `-(wait/estimate)³ · width` — the cubed variant
    /// escalates long-waiters much faster.
    Wfp3,
    /// UNICEF: score `-wait / (log2(width + 1) · estimate)` — favors
    /// short narrow jobs, wait-compensated.
    Unicef,
    /// SC'17 F1-style linear combination:
    /// `log10(estimate) · width − 870 · log10(wait + 1)`.
    F1,
    /// SC'17 F2-style nonlinear combination:
    /// `sqrt(estimate) · width − 25600 · log10(wait + 1)`.
    F2,
}

impl ScoreFn {
    /// Every scoring rule, in display order. 9 rules beyond the FCFS
    /// pin; each composes with all three backfill modes.
    pub const ALL: [ScoreFn; 10] = [
        ScoreFn::Fcfs,
        ScoreFn::Sjf,
        ScoreFn::Ljf,
        ScoreFn::SmallestFirst,
        ScoreFn::LargestFirst,
        ScoreFn::Wfp,
        ScoreFn::Wfp3,
        ScoreFn::Unicef,
        ScoreFn::F1,
        ScoreFn::F2,
    ];

    /// Display label ("P-FCFS" distinguishes the pinned-identical
    /// priority encoding from the legacy FCFS row).
    pub fn label(&self) -> &'static str {
        match self {
            ScoreFn::Fcfs => "P-FCFS",
            ScoreFn::Sjf => "SJF",
            ScoreFn::Ljf => "LJF",
            ScoreFn::SmallestFirst => "Smallest-First",
            ScoreFn::LargestFirst => "Largest-First",
            ScoreFn::Wfp => "WFP",
            ScoreFn::Wfp3 => "WFP3",
            ScoreFn::Unicef => "UNICEF",
            ScoreFn::F1 => "F1",
            ScoreFn::F2 => "F2",
        }
    }

    /// Stable machine token used by sweep cache keys, scenario files and
    /// the serve protocol. Fixed forever once a record/corpus ships.
    pub fn tag(&self) -> &'static str {
        match self {
            ScoreFn::Fcfs => "p-fcfs",
            ScoreFn::Sjf => "sjf",
            ScoreFn::Ljf => "ljf",
            ScoreFn::SmallestFirst => "smallest",
            ScoreFn::LargestFirst => "largest",
            ScoreFn::Wfp => "wfp",
            ScoreFn::Wfp3 => "wfp3",
            ScoreFn::Unicef => "unicef",
            ScoreFn::F1 => "f1",
            ScoreFn::F2 => "f2",
        }
    }

    /// Inverse of [`ScoreFn::tag`].
    pub fn from_tag(tag: &str) -> Option<ScoreFn> {
        ScoreFn::ALL.into_iter().find(|s| s.tag() == tag)
    }

    /// Whether the score never reads the wait, so a job's rank among
    /// the others cannot change while it waits. `P-FCFS` is not: its
    /// score is `-wait`, and once waits pass 2⁵³ s `f64` rounding can tie
    /// two of them at one instant and part them at the next.
    pub fn time_invariant(&self) -> bool {
        matches!(
            self,
            ScoreFn::Sjf | ScoreFn::Ljf | ScoreFn::SmallestFirst | ScoreFn::LargestFirst
        )
    }

    /// Score a waiting job at one decision instant. Smaller = starts
    /// earlier. `estimate` is clamped to ≥ 1 before use.
    pub fn score(&self, wait: Time, estimate: Time, width: u32) -> f64 {
        let wait = wait as f64;
        let est = estimate.max(1) as f64;
        let width = width as f64;
        match self {
            ScoreFn::Fcfs => -wait,
            ScoreFn::Sjf => est,
            ScoreFn::Ljf => -est,
            ScoreFn::SmallestFirst => width,
            ScoreFn::LargestFirst => -width,
            ScoreFn::Wfp => -(wait / est) * width,
            ScoreFn::Wfp3 => {
                let r = wait / est;
                -(r * r * r) * width
            }
            ScoreFn::Unicef => -wait / ((width + 1.0).log2() * est),
            ScoreFn::F1 => est.log10() * width - 870.0 * (wait + 1.0).log10(),
            ScoreFn::F2 => est.sqrt() * width - 25_600.0 * (wait + 1.0).log10(),
        }
    }
}

/// A waiting job's score at `now`. Wait is `now − submit`, saturating:
/// a driver may deliver the submission batch at an instant its clock
/// still reports as the submit time.
pub(crate) fn score_at(score: ScoreFn, now: Time, job: &JobRequest) -> f64 {
    score.score(
        now.saturating_sub(job.submit),
        job.requested_time,
        job.nodes,
    )
}

/// The normative comparator of the priority family: `(score, id)`
/// ascending, scores under [`f64::total_cmp`]. A total order, since ids
/// are unique.
pub(crate) fn by_score_then_id(a: (f64, JobId), b: (f64, JobId)) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// Rank jobs by `(score at now, id)` ascending — the normative ordering
/// of the priority family, and the reference the scheduler's maintained
/// order equals at every decision; the oracle's naive differential and
/// the property tests rank with it. `inverted` flips the score sign (the
/// oracle's impostor scheduler only).
pub fn rank<'a, I>(score: ScoreFn, now: Time, jobs: I, inverted: bool) -> Vec<JobId>
where
    I: IntoIterator<Item = &'a JobRequest>,
{
    let mut keyed: Vec<(f64, JobId)> = jobs
        .into_iter()
        .map(|r| {
            let s = score_at(score, now, r);
            (if inverted { -s } else { s }, r.id)
        })
        .collect();
    keyed.sort_by(|&a, &b| by_score_then_id(a, b));
    keyed.into_iter().map(|(_, id)| id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BackfillMode, ListScheduler, OrderPolicy};
    use jobsched_sim::{simulate, Scheduler};
    use jobsched_workload::{ClassId, JobBuilder, Workload};

    fn scheduler(score: ScoreFn, backfill: BackfillMode) -> ListScheduler {
        ListScheduler::new(OrderPolicy::Score(score), backfill)
    }

    fn req(id: u32, submit: Time, nodes: u32, requested: Time) -> JobRequest {
        JobRequest {
            id: JobId(id),
            submit,
            nodes,
            class: ClassId(0),
            requested_time: requested,
            user: 0,
        }
    }

    #[test]
    fn tags_and_labels_are_unique() {
        let tags: std::collections::BTreeSet<_> = ScoreFn::ALL.iter().map(|s| s.tag()).collect();
        assert_eq!(tags.len(), ScoreFn::ALL.len());
        let labels: std::collections::BTreeSet<_> =
            ScoreFn::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), ScoreFn::ALL.len());
        for s in ScoreFn::ALL {
            assert_eq!(ScoreFn::from_tag(s.tag()), Some(s));
        }
    }

    #[test]
    fn sjf_ranks_short_before_long() {
        let a = req(0, 0, 4, 1_000);
        let b = req(1, 0, 4, 10);
        assert_eq!(
            rank(ScoreFn::Sjf, 50, [&a, &b], false),
            vec![JobId(1), JobId(0)]
        );
        assert_eq!(
            rank(ScoreFn::Ljf, 50, [&a, &b], false),
            vec![JobId(0), JobId(1)]
        );
    }

    #[test]
    fn wfp_promotes_long_waiters() {
        // Same width/estimate: the older submission has more wait and
        // must come first; inverting flips it.
        let a = req(0, 0, 4, 100);
        let b = req(1, 90, 4, 100);
        assert_eq!(
            rank(ScoreFn::Wfp, 100, [&a, &b], false),
            vec![JobId(0), JobId(1)]
        );
        assert_eq!(
            rank(ScoreFn::Wfp, 100, [&a, &b], true),
            vec![JobId(1), JobId(0)]
        );
    }

    #[test]
    fn score_ties_break_by_id() {
        // Identical jobs submitted at the same instant: ascending id.
        let a = req(7, 5, 4, 100);
        let b = req(3, 5, 4, 100);
        assert_eq!(
            rank(ScoreFn::SmallestFirst, 10, [&a, &b], false),
            vec![JobId(3), JobId(7)]
        );
    }

    #[test]
    fn every_combo_produces_a_valid_schedule() {
        let mut jobs = vec![
            JobBuilder::new(JobId(0))
                .submit(0)
                .nodes(100)
                .requested(10_000)
                .runtime(10_000)
                .build(),
            JobBuilder::new(JobId(0))
                .submit(1)
                .nodes(200)
                .requested(10_000)
                .runtime(10_000)
                .build(),
        ];
        for i in 0..20 {
            jobs.push(
                JobBuilder::new(JobId(0))
                    .submit(2 + i)
                    .nodes(8)
                    .requested(100)
                    .runtime(100)
                    .build(),
            );
        }
        let w = Workload::new("convoy", 256, jobs);
        for score in ScoreFn::ALL {
            for backfill in [
                BackfillMode::None,
                BackfillMode::Conservative,
                BackfillMode::Easy,
            ] {
                let mut s = scheduler(score, backfill);
                let out = simulate(&w, &mut s);
                assert!(
                    out.schedule.validate(&w).is_empty(),
                    "invalid schedule from {}",
                    s.name()
                );
            }
        }
    }

    #[test]
    fn sjf_beats_fcfs_on_convoy_tail() {
        // One same-instant burst: FCFS (id order) starts the 200-node
        // long head first and blocks the shorts behind it; SJF reorders
        // the shorts ahead, so their mean response time drops.
        let mut jobs = vec![JobBuilder::new(JobId(0))
            .submit(0)
            .nodes(200)
            .requested(10_000)
            .runtime(10_000)
            .build()];
        for _ in 0..20 {
            jobs.push(
                JobBuilder::new(JobId(0))
                    .submit(0)
                    .nodes(100)
                    .requested(100)
                    .runtime(100)
                    .build(),
            );
        }
        let w = Workload::new("tail", 256, jobs);
        let art = |s: &jobsched_sim::ScheduleRecord| {
            w.jobs()
                .iter()
                .map(|j| (s.placement(j.id).unwrap().completion - j.submit) as f64)
                .sum::<f64>()
                / w.len() as f64
        };
        let sjf = simulate(&w, &mut scheduler(ScoreFn::Sjf, BackfillMode::None));
        let fcfs = simulate(&w, &mut scheduler(ScoreFn::Fcfs, BackfillMode::None));
        assert!(art(&sjf.schedule) < art(&fcfs.schedule));
    }

    #[test]
    fn names_compose_score_and_backfill() {
        let s = scheduler(ScoreFn::Wfp3, BackfillMode::Easy);
        assert_eq!(s.name(), "WFP3+EASY-Backfilling");
        let s = scheduler(ScoreFn::Unicef, BackfillMode::Conservative);
        assert_eq!(s.name(), "UNICEF+Backfilling");
    }
}
