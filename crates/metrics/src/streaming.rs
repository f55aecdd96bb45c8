//! Online (one-pass) objective accumulators — the one definition of each
//! schedule cost.
//!
//! A [`StreamingObjective`] folds the pipeline's lifecycle events into
//! O(1) state and produces the schedule cost at any point, without a
//! [`ScheduleRecord`] or the workload in memory. The cost of a *finished*
//! schedule (an [`Objective`]) is the same accumulator fed by [`replay`],
//! so batch and streaming results are **identical by construction** — not
//! merely close.
//!
//! ## Exactness
//!
//! Floating-point addition is not associative, and a stream delivers
//! completions in time order while the batch pass walks jobs in id order.
//! Summing f64s would make the two paths differ in the last ulp on large
//! workloads. Every accumulator therefore sums in *exact* integer
//! arithmetic, which is order-independent:
//!
//! * response times, busy areas and weighted response times are products of
//!   `u64`/`u32` job fields — summed exactly in `u128`;
//! * bounded-slowdown terms are genuine fractions, but every term is
//!   ≥ 1.0, so its ulp is ≥ 2⁻⁵²: the term *is* an exact multiple of
//!   2⁻⁵², and `q52` converts it losslessly to Q52 fixed point for an
//!   exact `u128` sum.
//!
//! The single rounding step happens at the end (`u128 → f64`, then one
//! division), identically for both paths.
//!
//! ## Scope
//!
//! Costs are defined over *completed executions* (the paper's objectives
//! assume the finished schedule). A cancelled-while-queued job never
//! completes and contributes nothing; a cancelled-while-running job
//! contributes its truncated execution. On fault-free runs every
//! accumulator's live cost matches its replay bit for bit — the
//! `streaming_equivalence` suite pins that across all 43 atlas rows.

use jobsched_sim::{JobEvent, JobOutcome, ScheduleRecord, SimObserver};
use jobsched_workload::{Job, JobId, Time, Workload};
use std::collections::{BTreeMap, BTreeSet};

/// A schedule cost computed online, one lifecycle event at a time.
/// Lower is better, matching [`Objective`].
pub trait StreamingObjective {
    /// Fold one lifecycle event into the accumulator.
    fn observe(&mut self, event: &JobEvent);

    /// The cost over everything observed so far.
    fn cost(&self) -> f64;
}

/// Adapter: mount a [`StreamingObjective`] as a pipeline event sink.
///
/// (A blanket `impl SimObserver for T: StreamingObjective` would collide
/// with foreign impls; the newtype keeps both traits open.)
pub struct StreamingObserver<'a>(pub &'a mut dyn StreamingObjective);

impl SimObserver for StreamingObserver<'_> {
    fn on_event(&mut self, event: &JobEvent) {
        self.0.observe(event);
    }
}

/// The completed execution inside an event, if it carries one.
pub(crate) fn completed(event: &JobEvent) -> Option<&JobOutcome> {
    match event {
        JobEvent::Finished(o) => Some(o),
        JobEvent::Cancelled { run: Some(o), .. } => Some(o),
        _ => None,
    }
}

/// A scalar schedule cost of a finished schedule (§2.2). Lower is
/// better. An implementation [`replay`]s the schedule through its
/// [`StreamingObjective`].
pub trait Objective {
    /// Evaluate the cost of a finished schedule.
    ///
    /// Panics if the schedule is incomplete — the paper's final schedule
    /// "is only available after the execution of all jobs".
    fn cost(&self, workload: &Workload, schedule: &ScheduleRecord) -> f64;
}

/// Feed `jobs`' executions in a finished schedule through a streaming
/// accumulator, job by job. This is how every [`Objective`] computes its
/// cost (over all of a workload's jobs), and how a study scores a subset
/// of them. Panics if a job has no placement.
pub fn replay<'a>(
    jobs: impl IntoIterator<Item = &'a Job>,
    schedule: &ScheduleRecord,
    objective: &mut dyn StreamingObjective,
) {
    for j in jobs {
        let p = schedule
            .placement(j.id)
            .unwrap_or_else(|| panic!("job {} has no placement; schedule incomplete", j.id));
        objective.observe(&JobEvent::Finished(JobOutcome {
            id: j.id,
            submit: j.submit,
            start: p.start,
            completion: p.completion,
            nodes: j.nodes,
            requested_time: j.requested_time,
            user: j.user,
        }));
    }
}

/// Lossless Q52 fixed-point image of a float `x ≥ 1.0`: returns
/// `x · 2⁵²` exactly. Any finite f64 ≥ 1.0 has an ulp ≥ 2⁻⁵², so the
/// result is an integer and sums of such images are exact (and therefore
/// order-independent).
pub(crate) fn q52(x: f64) -> u128 {
    debug_assert!(x.is_finite() && x >= 1.0, "q52 needs x >= 1.0, got {x}");
    let bits = x.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i64 - 1023;
    let mant = (bits & ((1u64 << 52) - 1)) | (1u64 << 52);
    debug_assert!((0..=75).contains(&exp), "q52 exponent {exp} out of range");
    (mant as u128) << exp
}

/// Inverse scaling of a [`q52`] sum: `sum / 2⁵²` with one rounding step.
pub(crate) fn from_q52(sum: u128) -> f64 {
    // Division by a power of two only touches the exponent: exact.
    (sum as f64) / (1u64 << 52) as f64
}

/// Online average response time (Rule 5 objective; weight ≡ 1).
#[derive(Clone, Copy, Debug, Default)]
pub struct OnlineArt {
    sum_response: u128,
    n: u64,
}

impl OnlineArt {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StreamingObjective for OnlineArt {
    fn observe(&mut self, event: &JobEvent) {
        if let Some(o) = completed(event) {
            self.sum_response += o.response_time() as u128;
            self.n += 1;
        }
    }

    fn cost(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.sum_response as f64 / self.n as f64
    }
}

/// Online average weighted response time (Rule 6 objective; weight =
/// actual resource consumption `run time × nodes`).
#[derive(Clone, Copy, Debug, Default)]
pub struct OnlineAwrt {
    sum_weighted: u128,
    n: u64,
}

impl OnlineAwrt {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StreamingObjective for OnlineAwrt {
    fn observe(&mut self, event: &JobEvent) {
        if let Some(o) = completed(event) {
            let weight = o.run_time() as u128 * o.nodes as u128;
            self.sum_weighted += weight * o.response_time() as u128;
            self.n += 1;
        }
    }

    fn cost(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.sum_weighted as f64 / self.n as f64
    }
}

/// Online makespan: completion time of the last job seen.
#[derive(Clone, Copy, Debug, Default)]
pub struct OnlineMakespan {
    last: Time,
}

impl OnlineMakespan {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// The makespan as a simulation instant (0 before any completion).
    pub fn value(&self) -> Time {
        self.last
    }
}

impl StreamingObjective for OnlineMakespan {
    fn observe(&mut self, event: &JobEvent) {
        if let Some(o) = completed(event) {
            self.last = self.last.max(o.completion);
        }
    }

    fn cost(&self) -> f64 {
        self.last as f64
    }
}

/// Online negated utilization over `[0, makespan]` (lower = busier).
#[derive(Clone, Debug)]
pub struct OnlineUtilization {
    machine_nodes: u32,
    busy: u128,
    makespan: Time,
    /// Open allocation span per running job (`Started`/`Resumed` opens,
    /// `Preempted` or completion closes). Bounded by in-flight jobs.
    open: BTreeMap<JobId, (Time, u32)>,
    /// Jobs that were preempted at least once: their completion event
    /// must not fall back to the envelope charge (the closed spans were
    /// already accumulated).
    preempted: BTreeSet<JobId>,
}

impl OnlineUtilization {
    /// Accumulator for a machine of `machine_nodes`.
    pub fn new(machine_nodes: u32) -> Self {
        OnlineUtilization {
            machine_nodes,
            busy: 0,
            makespan: 0,
            open: BTreeMap::new(),
            preempted: BTreeSet::new(),
        }
    }

    /// The utilization itself (a fraction in `[0, 1]`), rather than the
    /// negated cost form.
    pub fn utilization(&self) -> f64 {
        if self.machine_nodes == 0 || self.busy == 0 {
            return 0.0;
        }
        let span = self.makespan.max(1) as f64;
        self.busy as f64 / (span * self.machine_nodes as f64)
    }
}

impl StreamingObjective for OnlineUtilization {
    fn observe(&mut self, event: &JobEvent) {
        match event {
            JobEvent::Started { id, at, nodes } | JobEvent::Resumed { id, at, nodes } => {
                self.open.insert(*id, (*at, *nodes));
            }
            JobEvent::Preempted { id, at, .. } => {
                // Close the open span; charge exactly the time the job
                // actually held its nodes (not the preempted gap).
                if let Some((start, w)) = self.open.remove(id) {
                    self.busy += (*at - start) as u128 * w as u128;
                    self.makespan = self.makespan.max(*at);
                    self.preempted.insert(*id);
                }
            }
            _ => {
                if let Some(o) = completed(event) {
                    if let Some((start, w)) = self.open.remove(&o.id) {
                        // Final span: charge from the last (re)start, not
                        // the envelope — identical for never-preempted
                        // jobs, where the span start IS `o.start`.
                        self.busy += (o.completion - start) as u128 * w as u128;
                        self.preempted.remove(&o.id);
                    } else if !self.preempted.remove(&o.id) {
                        // Replay path (no Started events): the envelope
                        // equals the single charged span.
                        self.busy += o.run_time() as u128 * o.nodes as u128;
                    }
                    // else: cancelled while preempted — all its spans
                    // were already closed and charged.
                    self.makespan = self.makespan.max(o.completion);
                }
            }
        }
    }

    fn cost(&self) -> f64 {
        let u = self.utilization();
        if u == 0.0 {
            0.0 // nothing utilized; never NaN, never −0.0
        } else {
            -u
        }
    }
}

/// Online average bounded slowdown with the conventional 10-second
/// threshold (Feitelson & Rudolph \[3\]).
#[derive(Clone, Copy, Debug, Default)]
pub struct OnlineBoundedSlowdown {
    sum_q52: u128,
    n: u64,
}

impl OnlineBoundedSlowdown {
    /// Conventional threshold below which runtimes are clamped.
    pub const TAU: f64 = 10.0;

    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StreamingObjective for OnlineBoundedSlowdown {
    fn observe(&mut self, event: &JobEvent) {
        if let Some(o) = completed(event) {
            let resp = o.response_time() as f64;
            let run = (o.run_time() as f64).max(Self::TAU);
            // Each term is ≥ 1.0, so its Q52 image is exact (see q52).
            self.sum_q52 += q52((resp / run).max(1.0));
            self.n += 1;
        }
    }

    fn cost(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        from_q52(self.sum_q52) / self.n as f64
    }
}

/// Point-in-time view of a live run's metrics — what a serving daemon
/// returns from its `metrics` command. Plain `Copy` data, cheap to take
/// at any instant; the underlying accumulators keep running.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricsSnapshot {
    /// Jobs that entered the system.
    pub jobs_submitted: u64,
    /// Jobs that began executing.
    pub jobs_started: u64,
    /// Jobs that ran to (possibly truncated) completion.
    pub jobs_finished: u64,
    /// Cancellations applied (any lifecycle phase).
    pub jobs_cancelled: u64,
    /// Online average response time over completed executions.
    pub art: f64,
    /// Online average weighted response time.
    pub awrt: f64,
    /// Online average bounded slowdown.
    pub bounded_slowdown: f64,
    /// Utilization fraction over `[0, makespan]`.
    pub utilization: f64,
    /// Completion time of the last finished job.
    pub makespan: Time,
}

/// Bundle of the standard online accumulators plus lifecycle counters,
/// mountable directly as a pipeline/daemon [`SimObserver`]. This is the
/// `metrics` surface of the serving daemon: one observer, one
/// [`MetricsSnapshot`] per query.
#[derive(Clone, Debug)]
pub struct OnlineMetrics {
    art: OnlineArt,
    awrt: OnlineAwrt,
    slowdown: OnlineBoundedSlowdown,
    util: OnlineUtilization,
    makespan: OnlineMakespan,
    jobs_submitted: u64,
    jobs_started: u64,
    jobs_finished: u64,
    jobs_cancelled: u64,
}

impl OnlineMetrics {
    /// Fresh accumulators for a machine of `machine_nodes`.
    pub fn new(machine_nodes: u32) -> Self {
        OnlineMetrics {
            art: OnlineArt::new(),
            awrt: OnlineAwrt::new(),
            slowdown: OnlineBoundedSlowdown::new(),
            util: OnlineUtilization::new(machine_nodes),
            makespan: OnlineMakespan::new(),
            jobs_submitted: 0,
            jobs_started: 0,
            jobs_finished: 0,
            jobs_cancelled: 0,
        }
    }

    /// The current values, as one consistent copy.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            jobs_submitted: self.jobs_submitted,
            jobs_started: self.jobs_started,
            jobs_finished: self.jobs_finished,
            jobs_cancelled: self.jobs_cancelled,
            art: self.art.cost(),
            awrt: self.awrt.cost(),
            bounded_slowdown: self.slowdown.cost(),
            utilization: self.util.utilization(),
            makespan: self.makespan.value(),
        }
    }
}

impl SimObserver for OnlineMetrics {
    fn on_event(&mut self, event: &JobEvent) {
        match event {
            JobEvent::Submitted(_) => self.jobs_submitted += 1,
            JobEvent::Started { .. } => self.jobs_started += 1,
            JobEvent::Finished(_) => self.jobs_finished += 1,
            JobEvent::Cancelled { .. } => self.jobs_cancelled += 1,
            // Preempt/resume churn is visible through the utilization
            // accumulator; the lifecycle counters track jobs, not spans.
            JobEvent::Preempted { .. } | JobEvent::Resumed { .. } => {}
        }
        self.art.observe(event);
        self.awrt.observe(event);
        self.slowdown.observe(event);
        self.util.observe(event);
        self.makespan.observe(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jobsched_workload::{JobBuilder, JobId};

    fn outcome(id: u32, submit: Time, start: Time, completion: Time, nodes: u32) -> JobEvent {
        JobEvent::Finished(JobOutcome {
            id: JobId(id),
            submit,
            start,
            completion,
            nodes,
            requested_time: completion - start,
            user: 0,
        })
    }

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

    /// The fixture's cost under `acc`, replayed.
    fn replayed(mut acc: impl StreamingObjective) -> f64 {
        let (w, s) = fixture();
        replay(w.jobs(), &s, &mut acc);
        acc.cost()
    }

    #[test]
    fn art_averages_response_times() {
        // responses: 100 and 150.
        assert_eq!(replayed(OnlineArt::new()), 125.0);
    }

    #[test]
    fn awrt_weights_by_area() {
        // areas: 600 and 300; weighted responses 600×100 + 300×150.
        let expected = (600.0 * 100.0 + 300.0 * 150.0) / 2.0;
        assert_eq!(replayed(OnlineAwrt::new()), expected);
    }

    #[test]
    fn makespan_is_last_completion() {
        assert_eq!(replayed(OnlineMakespan::new()), 150.0);
    }

    #[test]
    fn utilization_cost_is_negative() {
        let u = replayed(OnlineUtilization::new(10));
        assert!((u + 900.0 / 1500.0).abs() < 1e-12);
    }

    #[test]
    fn bounded_slowdown_floors_at_one() {
        // J0: 100/100 = 1; J1: 150/50 = 3.
        assert_eq!(replayed(OnlineBoundedSlowdown::new()), 2.0);
    }

    #[test]
    fn empty_workload_costs_zero() {
        let w = Workload::new("e", 10, vec![]);
        let s = ScheduleRecord::new(10, 0);
        let mut art = OnlineArt::new();
        let mut awrt = OnlineAwrt::new();
        replay(w.jobs(), &s, &mut art);
        replay(w.jobs(), &s, &mut awrt);
        assert_eq!((art.cost(), awrt.cost()), (0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "no placement")]
    fn incomplete_schedule_panics() {
        let (w, _) = fixture();
        let s = ScheduleRecord::new(10, 2);
        replay(w.jobs(), &s, &mut OnlineArt::new());
    }

    #[test]
    fn art_is_mean_response() {
        let mut a = OnlineArt::new();
        a.observe(&outcome(0, 0, 0, 100, 6));
        a.observe(&outcome(1, 0, 100, 150, 6));
        assert_eq!(a.cost(), 125.0);
    }

    #[test]
    fn awrt_weights_by_consumption() {
        let mut a = OnlineAwrt::new();
        a.observe(&outcome(0, 0, 0, 100, 6)); // weight 600, resp 100
        a.observe(&outcome(1, 0, 100, 150, 6)); // weight 300, resp 150
        assert_eq!(a.cost(), (600.0 * 100.0 + 300.0 * 150.0) / 2.0);
    }

    #[test]
    fn empty_accumulators_cost_zero() {
        assert_eq!(OnlineArt::new().cost(), 0.0);
        assert_eq!(OnlineAwrt::new().cost(), 0.0);
        assert_eq!(OnlineMakespan::new().cost(), 0.0);
        assert_eq!(OnlineUtilization::new(10).cost(), 0.0);
        assert_eq!(OnlineBoundedSlowdown::new().cost(), 0.0);
        assert!(OnlineUtilization::new(0).cost().is_finite());
    }

    #[test]
    fn accumulation_is_order_independent() {
        // The exactness claim, directly: feeding outcomes in opposite
        // orders yields bit-identical costs.
        let events: Vec<JobEvent> = (0..500)
            .map(|i| {
                outcome(
                    i,
                    i as Time,
                    i as Time * 3,
                    i as Time * 7 + 13,
                    (i % 17) + 1,
                )
            })
            .collect();
        let forward = {
            let mut a = OnlineBoundedSlowdown::new();
            events.iter().for_each(|e| a.observe(e));
            a.cost()
        };
        let backward = {
            let mut a = OnlineBoundedSlowdown::new();
            events.iter().rev().for_each(|e| a.observe(e));
            a.cost()
        };
        assert_eq!(forward.to_bits(), backward.to_bits());
    }

    #[test]
    fn q52_is_lossless_for_terms_above_one() {
        // A single term's Q52 image has exactly the 53 significant bits
        // of its mantissa, so it round-trips bit for bit.
        for x in [1.0f64, 1.5, 2.0, 3.0, 10.0 / 3.0, 1234.56789, 1e9] {
            let back = from_q52(q52(x));
            assert_eq!(back.to_bits(), x.to_bits(), "x={x}");
        }
    }

    #[test]
    fn cancelled_running_jobs_count_their_truncated_execution() {
        let mut a = OnlineArt::new();
        a.observe(&JobEvent::Cancelled {
            id: JobId(0),
            at: 40,
            phase: jobsched_sim::CancelPhase::Running,
            run: Some(JobOutcome {
                id: JobId(0),
                submit: 0,
                start: 0,
                completion: 40,
                nodes: 4,
                requested_time: 100,
                user: 0,
            }),
        });
        // Queued cancellations contribute nothing.
        a.observe(&JobEvent::Cancelled {
            id: JobId(1),
            at: 50,
            phase: jobsched_sim::CancelPhase::Queued,
            run: None,
        });
        assert_eq!(a.cost(), 40.0);
    }

    #[test]
    fn online_metrics_snapshot_tracks_the_lifecycle() {
        let mut m = OnlineMetrics::new(10);
        let empty = m.snapshot();
        assert_eq!(empty.jobs_submitted, 0);
        assert_eq!(empty.art, 0.0);
        m.on_event(&JobEvent::Submitted(jobsched_sim::JobRequest {
            id: JobId(0),
            submit: 0,
            nodes: 5,
            class: jobsched_workload::ClassId(0),
            requested_time: 100,
            user: 0,
        }));
        m.on_event(&JobEvent::Started {
            id: JobId(0),
            at: 0,
            nodes: 5,
        });
        m.on_event(&outcome(0, 0, 0, 100, 5));
        let s = m.snapshot();
        assert_eq!(
            (s.jobs_submitted, s.jobs_started, s.jobs_finished),
            (1, 1, 1)
        );
        assert_eq!(s.art, 100.0);
        assert_eq!(s.awrt, 500.0 * 100.0);
        assert_eq!(s.makespan, 100);
        assert_eq!(s.utilization, 0.5); // 500 busy node-s of 1000 capacity
        assert!(s.bounded_slowdown >= 1.0);
        // Snapshots are copies: taking one does not reset anything.
        assert_eq!(m.snapshot(), s);
    }

    #[test]
    fn online_metrics_counts_cancellations() {
        let mut m = OnlineMetrics::new(10);
        m.on_event(&JobEvent::Cancelled {
            id: JobId(3),
            at: 50,
            phase: jobsched_sim::CancelPhase::Queued,
            run: None,
        });
        let s = m.snapshot();
        assert_eq!(s.jobs_cancelled, 1);
        assert_eq!(s.jobs_finished, 0);
        assert_eq!(s.art, 0.0);
    }

    #[test]
    fn observer_adapter_feeds_the_accumulator() {
        let mut art = OnlineArt::new();
        {
            let mut obs = StreamingObserver(&mut art);
            obs.on_event(&outcome(0, 0, 0, 80, 2));
            obs.on_end(80);
        }
        assert_eq!(art.cost(), 80.0);
    }
}
