//! Per-user fairness metrics.
//!
//! Example 5's Rule 4 ("every user is allowed at most two batch jobs on
//! the machine at any time") is read by the paper's administrator as "all
//! jobs should be treated equally independent of their resource
//! consumption" — the justification for the unweighted average response
//! time. These metrics check the *outcome* side of that reading: whether
//! a schedule actually treats users comparably.
//!
//! * [`per_user_response`] — each user's mean response time;
//! * [`jain_index`] — Jain's fairness index over those means (1 = all
//!   users equal, 1/n = one user gets everything);
//! * [`worst_to_mean`] — how much worse the unluckiest user fares than
//!   the average.
//!
//! ## Fairness objectives
//!
//! Beyond the diagnostic helpers, three fairness criteria are first-class
//! schedule costs, computed streaming like the other one-pass objectives
//! (see [`crate::streaming`] for the exactness contract):
//!
//! * [`OnlineMaxUserSlowdown`] — the worst user's mean bounded slowdown:
//!   the direct "no user may be starved" reading of Rule 4;
//! * [`OnlineP95WidthSlowdown`] — the 95th percentile over job-width
//!   groups of the per-width mean bounded slowdown: wide jobs are the
//!   classic backfilling victims, and this criterion surfaces the widths
//!   a policy sacrifices;
//! * [`OnlineSlowdownVariance`] — the population variance of per-job
//!   bounded slowdown: spread of suffering across individual jobs,
//!   regardless of grouping.
//!
//! All three fold Q52 images of the (≥ 1.0) slowdown terms into exact
//! per-group integer sums, so the accumulated state is identical no
//! matter the event order, and a finished schedule's cost — the same
//! accumulator fed by [`replay`](crate::streaming::replay) — agrees with
//! the streaming path bit for bit. The variance accumulator needs Σx² of
//! Q52 terms, which exceeds `u128`; a minimal 256-bit integer (`U256`)
//! keeps that sum exact too.

use crate::streaming::{completed, from_q52, q52, StreamingObjective};
use jobsched_sim::{JobEvent, ScheduleRecord};
use jobsched_workload::Workload;
use std::collections::BTreeMap;

/// Mean response time per user id, for users with at least one job.
/// Returned ordered by user id so downstream float reductions (Jain
/// index sums) are bit-reproducible.
pub fn per_user_response(workload: &Workload, schedule: &ScheduleRecord) -> BTreeMap<u32, f64> {
    let mut totals: BTreeMap<u32, (f64, u32)> = BTreeMap::new();
    for j in workload.jobs() {
        let p = schedule
            .placement(j.id)
            .unwrap_or_else(|| panic!("job {} has no placement", j.id));
        let e = totals.entry(j.user).or_insert((0.0, 0));
        e.0 += p.response_time(j.submit) as f64;
        e.1 += 1;
    }
    totals
        .into_iter()
        .map(|(user, (sum, n))| (user, sum / n as f64))
        .collect()
}

/// Jain's fairness index over a set of non-negative allocations:
/// `(Σx)² / (n·Σx²)`. 1 = perfectly equal; 1/n = maximally unequal.
/// Empty input yields 1 (nothing to be unfair about).
pub fn jain_index(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    let mut n = 0usize;
    for v in values {
        assert!(v >= 0.0 && v.is_finite(), "allocations must be finite, ≥ 0");
        sum += v;
        sum_sq += v * v;
        n += 1;
    }
    if n == 0 || sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (n as f64 * sum_sq)
}

/// Jain index over per-user mean *response times*. Note the inversion:
/// response time is a cost, so this measures whether the *suffering* is
/// evenly spread — which is the natural reading of "treated equally".
pub fn user_fairness(workload: &Workload, schedule: &ScheduleRecord) -> f64 {
    jain_index(per_user_response(workload, schedule).into_values())
}

/// Ratio of the worst user's mean response to the mean over users
/// (≥ 1; 1 = perfectly even). Empty workloads yield 1.
pub fn worst_to_mean(workload: &Workload, schedule: &ScheduleRecord) -> f64 {
    let per_user = per_user_response(workload, schedule);
    if per_user.is_empty() {
        return 1.0;
    }
    let worst = per_user.values().cloned().fold(0.0, f64::max);
    let mean = per_user.values().sum::<f64>() / per_user.len() as f64;
    if mean == 0.0 {
        1.0
    } else {
        worst / mean
    }
}

/// The bounded-slowdown term of one completed execution (≥ 1.0), with
/// the same 10-second clamp as
/// [`OnlineBoundedSlowdown`](crate::streaming::OnlineBoundedSlowdown).
fn slowdown_term(o: &jobsched_sim::JobOutcome) -> f64 {
    let resp = o.response_time() as f64;
    let run = (o.run_time() as f64).max(crate::streaming::OnlineBoundedSlowdown::TAU);
    (resp / run).max(1.0)
}

/// Exact Q52 sum and count per group key — the shared state of the
/// grouped fairness accumulators. Order-independent by construction.
#[derive(Clone, Debug, Default)]
struct GroupedSlowdown<K: Ord + Copy> {
    groups: BTreeMap<K, (u128, u64)>,
}

impl<K: Ord + Copy> GroupedSlowdown<K> {
    fn observe(&mut self, key: K, term: f64) {
        let e = self.groups.entry(key).or_insert((0, 0));
        e.0 += q52(term);
        e.1 += 1;
    }

    /// Per-group mean slowdowns, in ascending key order. Each mean is the
    /// exact sum with one rounding step plus one division.
    fn means(&self) -> impl Iterator<Item = f64> + '_ {
        self.groups
            .values()
            .map(|&(sum, n)| from_q52(sum) / n as f64)
    }
}

/// Online maximum per-user mean bounded slowdown (lower is better; ≥ 1
/// once any job completed, 0 on an empty stream).
#[derive(Clone, Debug, Default)]
pub struct OnlineMaxUserSlowdown {
    grouped: GroupedSlowdown<u32>,
}

impl OnlineMaxUserSlowdown {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StreamingObjective for OnlineMaxUserSlowdown {
    fn observe(&mut self, event: &JobEvent) {
        if let Some(o) = completed(event) {
            self.grouped.observe(o.user, slowdown_term(o));
        }
    }

    fn cost(&self) -> f64 {
        self.grouped.means().fold(0.0, f64::max)
    }
}

/// Online 95th-percentile per-width mean bounded slowdown: group jobs by
/// node count, take each group's mean slowdown, and report the value at
/// the p95 position of the ascending group ranking (nearest-rank,
/// `⌈0.95·(g−1)⌉` for g groups — deterministic, no interpolation).
#[derive(Clone, Debug, Default)]
pub struct OnlineP95WidthSlowdown {
    grouped: GroupedSlowdown<u32>,
}

impl OnlineP95WidthSlowdown {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StreamingObjective for OnlineP95WidthSlowdown {
    fn observe(&mut self, event: &JobEvent) {
        if let Some(o) = completed(event) {
            self.grouped.observe(o.nodes, slowdown_term(o));
        }
    }

    fn cost(&self) -> f64 {
        let mut means: Vec<f64> = self.grouped.means().collect();
        if means.is_empty() {
            return 0.0;
        }
        means.sort_by(f64::total_cmp);
        means[(95 * (means.len() - 1)).div_ceil(100)]
    }
}

/// Minimal 256-bit unsigned integer: just enough to hold an exact sum of
/// squared Q52 slowdown terms (each square needs up to ~2¹⁵⁰).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct U256 {
    hi: u128,
    lo: u128,
}

impl U256 {
    /// Full widening product of two `u128`s via 64-bit limbs.
    fn mul(a: u128, b: u128) -> U256 {
        const MASK: u128 = u64::MAX as u128;
        let (a0, a1) = (a & MASK, a >> 64);
        let (b0, b1) = (b & MASK, b >> 64);
        let ll = a0 * b0;
        let (mid, mid_carry) = (a0 * b1).overflowing_add(a1 * b0);
        let (lo, lo_carry) = ll.overflowing_add(mid << 64);
        let hi = (a1 * b1) + (mid >> 64) + ((mid_carry as u128) << 64) + lo_carry as u128;
        U256 { hi, lo }
    }

    fn add_assign(&mut self, other: U256) {
        let (lo, carry) = self.lo.overflowing_add(other.lo);
        self.lo = lo;
        self.hi = self.hi + other.hi + carry as u128;
    }

    /// One deterministic rounding step at the end of accumulation.
    fn to_f64(self) -> f64 {
        self.hi as f64 * 2f64.powi(128) + self.lo as f64
    }
}

/// Online population variance of per-job bounded slowdown. State is the
/// exact Q52 sum, the exact Q104 sum of squares (in a `U256`) and the
/// count; the `E[x²] − E[x]²` combination happens once, at [`cost`]
/// time, identically for the batch and streaming paths.
///
/// [`cost`]: StreamingObjective::cost
#[derive(Clone, Copy, Debug, Default)]
pub struct OnlineSlowdownVariance {
    sum_q52: u128,
    sum_sq_q104: U256,
    n: u64,
}

impl OnlineSlowdownVariance {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StreamingObjective for OnlineSlowdownVariance {
    fn observe(&mut self, event: &JobEvent) {
        if let Some(o) = completed(event) {
            let term = q52(slowdown_term(o));
            self.sum_q52 += term;
            self.sum_sq_q104.add_assign(U256::mul(term, term));
            self.n += 1;
        }
    }

    fn cost(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let n = self.n as f64;
        let mean = from_q52(self.sum_q52) / n;
        let mean_sq = self.sum_sq_q104.to_f64() / 2f64.powi(104) / n;
        // Guard the subtraction: with all terms equal the float images
        // cancel to a tiny negative residual at worst.
        (mean_sq - mean * mean).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::replay;
    use jobsched_sim::JobOutcome;
    use jobsched_workload::{JobBuilder, JobId, Time};

    fn fixture(users: &[u32], waits: &[u64]) -> (Workload, ScheduleRecord) {
        assert_eq!(users.len(), waits.len());
        let jobs: Vec<_> = users
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
        let w = Workload::new("f", 64, jobs);
        let mut s = ScheduleRecord::new(64, w.len());
        for (j, &wait) in w.jobs().iter().zip(waits) {
            s.place(j.id, wait, wait + 100);
        }
        (w, s)
    }

    #[test]
    fn per_user_means() {
        let (w, s) = fixture(&[0, 0, 1], &[0, 200, 100]);
        let m = per_user_response(&w, &s);
        // user 0: responses 100 and 300 → 200; user 1: 200.
        assert_eq!(m[&0], 200.0);
        assert_eq!(m[&1], 200.0);
    }

    #[test]
    fn jain_equal_is_one() {
        assert!((jain_index([5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jain_single_hog_is_one_over_n() {
        let idx = jain_index([1.0, 0.0, 0.0, 0.0]);
        assert!((idx - 0.25).abs() < 1e-12);
    }

    #[test]
    fn jain_empty_and_zero() {
        assert_eq!(jain_index(std::iter::empty()), 1.0);
        assert_eq!(jain_index([0.0, 0.0]), 1.0);
    }

    #[test]
    fn user_fairness_of_even_schedule() {
        let (w, s) = fixture(&[0, 1, 2], &[50, 50, 50]);
        assert!((user_fairness(&w, &s) - 1.0).abs() < 1e-12);
        assert!((worst_to_mean(&w, &s) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn starved_user_detected() {
        let (w, s) = fixture(&[0, 1], &[0, 10_000]);
        assert!(user_fairness(&w, &s) < 0.6);
        assert!(worst_to_mean(&w, &s) > 1.9);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn jain_rejects_negative() {
        let _ = jain_index([-1.0]);
    }

    /// Completed execution: submitted at 0, waited `wait`, ran `run`
    /// seconds on `nodes` nodes for `user`.
    fn finished(id: u32, wait: Time, run: Time, nodes: u32, user: u32) -> JobEvent {
        JobEvent::Finished(JobOutcome {
            id: JobId(id),
            submit: 0,
            start: wait,
            completion: wait + run,
            nodes,
            requested_time: run,
            user,
        })
    }

    #[test]
    fn max_user_slowdown_picks_the_starved_user() {
        let mut acc = OnlineMaxUserSlowdown::new();
        // User 0: slowdown 1 (no wait); user 1: (900+100)/100 = 10.
        acc.observe(&finished(0, 0, 100, 1, 0));
        acc.observe(&finished(1, 900, 100, 1, 1));
        assert_eq!(acc.cost(), 10.0);
        // A second user-1 job at slowdown 2 drags that user's mean to 6.
        acc.observe(&finished(2, 100, 100, 1, 1));
        assert_eq!(acc.cost(), 6.0);
    }

    #[test]
    fn p95_width_slowdown_ranks_group_means() {
        let mut acc = OnlineP95WidthSlowdown::new();
        // Three width groups with means 1, 3 and 5 → p95 index
        // ceil(0.95·2) = 2 → the worst group.
        acc.observe(&finished(0, 0, 100, 1, 0));
        acc.observe(&finished(1, 200, 100, 2, 0));
        acc.observe(&finished(2, 400, 100, 4, 0));
        assert_eq!(acc.cost(), 5.0);
    }

    #[test]
    fn slowdown_variance_is_zero_for_identical_terms_and_exact_otherwise() {
        let mut acc = OnlineSlowdownVariance::new();
        acc.observe(&finished(0, 100, 100, 1, 0));
        acc.observe(&finished(1, 100, 100, 1, 1));
        assert_eq!(acc.cost(), 0.0);
        // Terms now {2, 2, 8}: mean 4, E[x²] = 24 → variance 8.
        acc.observe(&finished(2, 700, 100, 1, 2));
        assert_eq!(acc.cost(), 8.0);
    }

    #[test]
    fn fairness_accumulators_are_order_independent() {
        let events: Vec<JobEvent> = (0..300)
            .map(|i| {
                finished(
                    i,
                    (i as Time * 37) % 1000,
                    50 + (i as Time % 90),
                    (i % 7) + 1,
                    i % 5,
                )
            })
            .collect();
        let run = |rev: bool| -> Vec<f64> {
            let mut max_user = OnlineMaxUserSlowdown::new();
            let mut p95 = OnlineP95WidthSlowdown::new();
            let mut var = OnlineSlowdownVariance::new();
            let iter: Box<dyn Iterator<Item = &JobEvent>> = if rev {
                Box::new(events.iter().rev())
            } else {
                Box::new(events.iter())
            };
            for e in iter {
                max_user.observe(e);
                p95.observe(e);
                var.observe(e);
            }
            vec![max_user.cost(), p95.cost(), var.cost()]
        };
        let (fwd, bwd) = (run(false), run(true));
        for (a, b) in fwd.iter().zip(&bwd) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn empty_fairness_accumulators_cost_zero() {
        assert_eq!(OnlineMaxUserSlowdown::new().cost(), 0.0);
        assert_eq!(OnlineP95WidthSlowdown::new().cost(), 0.0);
        assert_eq!(OnlineSlowdownVariance::new().cost(), 0.0);
    }

    #[test]
    fn u256_widening_mul_matches_u128_where_it_fits() {
        for &(a, b) in &[(0u128, 0u128), (1, u64::MAX as u128), (1 << 63, 1 << 63)] {
            let p = U256::mul(a, b);
            assert_eq!((p.hi, p.lo), (0, a * b));
        }
        // Above 2¹²⁸ the high limb carries: (2⁶⁴)·(2⁶⁴)·(2⁶⁴·2⁶⁴) …
        let p = U256::mul(1 << 100, 1 << 100);
        assert_eq!((p.hi, p.lo), (1 << 72, 0));
        let max = U256::mul(u128::MAX, u128::MAX);
        assert_eq!((max.hi, max.lo), (u128::MAX - 1, 1));
    }

    #[test]
    fn batch_fairness_wrappers_replay_the_schedule() {
        // Two users on disjoint jobs: user 1 waits 900 s on its single
        // 100 s job → per-user slowdowns {1, 10}.
        let jobs: Vec<_> = [(0u32, 0u64), (1, 900)]
            .iter()
            .map(|&(u, _)| {
                JobBuilder::new(JobId(0))
                    .submit(0)
                    .nodes(1)
                    .requested(100)
                    .runtime(100)
                    .user(u)
                    .build()
            })
            .collect();
        let w = Workload::new("f", 4, jobs);
        let mut s = ScheduleRecord::new(4, w.len());
        s.place(JobId(0), 0, 100);
        s.place(JobId(1), 900, 1000);
        let replayed = |mut acc: Box<dyn StreamingObjective>| {
            replay(w.jobs(), &s, &mut *acc);
            acc.cost()
        };
        assert_eq!(replayed(Box::new(OnlineMaxUserSlowdown::new())), 10.0);
        // One width group (all jobs 1 node) → p95 = the group mean 5.5.
        assert_eq!(replayed(Box::new(OnlineP95WidthSlowdown::new())), 5.5);
        // Terms {1, 10}: mean 5.5, E[x²] = 50.5 → variance 20.25.
        assert_eq!(replayed(Box::new(OnlineSlowdownVariance::new())), 20.25);
    }
}
