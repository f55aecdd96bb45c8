//! PSRS — Preemptive Smith-Ratio Scheduling (Schwiegelshohn \[13\], §5.5)
//! and its conversion to a non-preemptive job order.
//!
//! PSRS proper generates *preemptive* schedules:
//!
//! 1. "All jobs are ordered by their modified Smith ratio" — weight
//!    divided by (required nodes × execution time), largest first.
//! 2. "A greedy list schedule is applied for all jobs requiring at most
//!    50 % of the machine nodes. If a job needs more than half of all
//!    nodes and has been waiting for some time, then all running jobs are
//!    preempted and the parallel job is executed. After the completion of
//!    the parallel job, the execution of the preempted jobs is resumed."
//!
//! The target machine supports no time sharing, so §5.5 converts the
//! preemptive schedule into a job *order*:
//!
//! 1. Two geometric sequences of time instances (factor 2, different
//!    offsets) define bins — one for the preempting "wide" jobs, one for
//!    the "small" jobs.
//! 2. Jobs are assigned to bins by their completion time in the
//!    preemptive schedule; within a bin the Smith-ratio order is kept.
//! 3. The final order alternates bins from the two sequences, starting
//!    with the small-job sequence.
//!
//! Under-specified details and our documented choices (DESIGN.md §2):
//! "waiting for some time" = `wide_wait_factor ×` the wide job's own
//! execution time (default 1.0); the sequence offsets are `2^k` (small)
//! and `1.5·2^k` (wide) seconds.

use crate::view::JobView;
use jobsched_sim::Segment;
use jobsched_workload::{JobId, Time};

/// Tunable parameters of the PSRS adaptation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PsrsParams {
    /// A wide job preempts once it has waited `factor × execution time`.
    pub wide_wait_factor: f64,
}

impl Default for PsrsParams {
    fn default() -> Self {
        PsrsParams {
            wide_wait_factor: 1.0,
        }
    }
}

/// Whether a job is "wide" (needs more than half the machine).
#[inline]
pub fn is_wide(nodes: u32, machine_nodes: u32) -> bool {
    2 * nodes > machine_nodes
}

/// One job's allocation in the PSRS preemptive schedule: its segment
/// union plus the completion/wide projection §5.5 bins on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PsrsAllocation {
    /// The job.
    pub id: JobId,
    /// Whether it needs more than half the machine.
    pub wide: bool,
    /// Completion instant (end of the last segment).
    pub completion: Time,
    /// Disjoint execution spans; more than one iff the job was
    /// preempted by a wide job and later resumed.
    pub segments: Vec<Segment>,
}

/// The full PSRS *preemptive* schedule with every job available at
/// time 0 (the offline setting of \[13\]), one segment union per job in
/// completion order.
///
/// This is the schedule §5.5 only ever observes through its completion
/// times ([`preemptive_completions`]); exposing the spans makes the
/// intermediate auditable with the oracle's `check_segments` — machine
/// capacity, per-job self-overlap and charged-time checks that the
/// completion projection cannot express (`tests/psrs_segment_audit.rs`).
pub fn preemptive_schedule(
    jobs: &[JobView],
    machine_nodes: u32,
    params: PsrsParams,
) -> Vec<PsrsAllocation> {
    let mut order: Vec<JobView> = jobs.to_vec();
    order.sort_by(|a, b| {
        b.smith_ratio()
            .partial_cmp(&a.smith_ratio())
            .expect("finite ratios")
            .then(a.id.cmp(&b.id))
    });

    // Waiting jobs, Smith order. `remaining` tracks preempted work;
    // `span_start`/`segments` its union of execution spans.
    struct Running {
        job: JobView,
        remaining: Time,
        span_start: Time,
        segments: Vec<Segment>,
    }
    impl Running {
        /// Close the open span at `end`; a zero-length span (started
        /// and preempted in the same instant) leaves no trace.
        fn close_span(&mut self, end: Time) {
            if end > self.span_start {
                self.segments
                    .push(Segment::new(self.span_start, end, self.job.nodes));
            }
        }
        fn retire(mut self, t: Time, machine_nodes: u32) -> PsrsAllocation {
            self.close_span(t);
            PsrsAllocation {
                id: self.job.id,
                wide: is_wide(self.job.nodes, machine_nodes),
                completion: t,
                segments: self.segments,
            }
        }
    }
    let mut waiting: std::collections::VecDeque<JobView> = order.iter().copied().collect();
    let mut running: Vec<Running> = Vec::new();
    let mut free = machine_nodes;
    let mut t: Time = 0;
    let mut done: Vec<PsrsAllocation> = Vec::new();
    // The head wide job becomes "eligible" when it reaches the front of
    // the wide backlog; its preemption deadline counts from there.
    let mut wide_eligible_since: Time = 0;

    while !waiting.is_empty() || !running.is_empty() {
        // Greedy list start in Smith order ("a greedy list schedule is
        // applied", §5.5 — the same head-blocking greedy as FCFS, so that
        // completion order tracks the Smith order instead of rewarding
        // narrow jobs that happen to fit holes). Wide jobs block here and
        // are handled by the preemption rule below.
        while let Some(head) = waiting.front() {
            if head.nodes > free {
                break;
            }
            let job = waiting.pop_front().expect("peeked");
            free -= job.nodes;
            running.push(Running {
                job,
                remaining: job.time.max(1),
                span_start: t,
                segments: Vec::new(),
            });
        }

        // Next completion event.
        let next_completion = running.iter().map(|r| t + r.remaining).min();

        // Preemption deadline of the highest-priority waiting wide job
        // (one that could not be started above). Clamped to `t`: the
        // eligibility clock only advances on preemptive runs, so when
        // the previous head wide started *greedily* instead, its
        // successor's patience may already have lapsed — it preempts
        // now. (Unclamped, the schedule would run the wide job in the
        // past, before jobs that already completed.)
        let wide_deadline = waiting
            .iter()
            .find(|j| is_wide(j.nodes, machine_nodes))
            .map(|j| {
                (wide_eligible_since
                    + (params.wide_wait_factor * j.time as f64).ceil().max(1.0) as Time)
                    .max(t)
            });

        match (next_completion, wide_deadline) {
            (None, None) => break,
            (Some(tc), wd) if wd.is_none_or(|td| tc <= td) => {
                // Advance to the completion; retire all jobs ending then.
                let elapsed = tc - t;
                t = tc;
                let mut still: Vec<Running> = Vec::with_capacity(running.len());
                for mut r in running {
                    r.remaining -= elapsed;
                    if r.remaining == 0 {
                        free += r.job.nodes;
                        done.push(r.retire(t, machine_nodes));
                    } else {
                        still.push(r);
                    }
                }
                running = still;
            }
            (Some(_), None) => unreachable!("guard above covers wd = None"),
            (tc, Some(td)) => {
                // The wide job's patience runs out at td: advance running
                // work to td, preempt everything, run the wide job alone.
                debug_assert!(tc.is_none_or(|c| c > td));
                debug_assert!(td >= t);
                let elapsed = td - t;
                t = td;
                for r in &mut running {
                    r.remaining -= elapsed.min(r.remaining);
                }
                // Retire anything that happened to end exactly at td;
                // everything else is suspended (its span closes at td).
                let mut paused: Vec<Running> = Vec::with_capacity(running.len());
                for mut r in running {
                    if r.remaining == 0 {
                        free += r.job.nodes;
                        done.push(r.retire(t, machine_nodes));
                    } else {
                        r.close_span(t);
                        paused.push(r);
                    }
                }
                let wide_idx = waiting
                    .iter()
                    .position(|j| is_wide(j.nodes, machine_nodes))
                    .expect("deadline implies a waiting wide job");
                let wide = waiting.remove(wide_idx).expect("index checked");
                let wide_end = t + wide.time.max(1);
                done.push(PsrsAllocation {
                    id: wide.id,
                    wide: true,
                    completion: wide_end,
                    segments: vec![Segment::new(t, wide_end, wide.nodes)],
                });
                t = wide_end;
                wide_eligible_since = t;
                // Resume the preempted jobs (they fit together: they were
                // running together before); their next span opens now.
                for r in &mut paused {
                    r.span_start = t;
                }
                running = paused;
            }
        }
    }
    done
}

/// Completion times of all jobs in the PSRS *preemptive* schedule —
/// the projection of [`preemptive_schedule`] that §5.5's geometric
/// binning consumes.
///
/// Returns `(id, completion, wide)` tuples in completion order.
pub fn preemptive_completions(
    jobs: &[JobView],
    machine_nodes: u32,
    params: PsrsParams,
) -> Vec<(JobId, Time, bool)> {
    preemptive_schedule(jobs, machine_nodes, params)
        .into_iter()
        .map(|a| (a.id, a.completion, a.wide))
        .collect()
}

/// Bin index in the small-job sequence: boundaries `2^k` seconds — the
/// smallest k with `2^k ≥ completion`.
fn small_bin(completion: Time) -> u32 {
    let c = completion.max(1);
    let mut k = 0u32;
    while (1u64 << k) < c {
        k += 1;
    }
    k
}

/// Bin index in the wide-job sequence: boundaries `1.5·2^k` seconds.
fn wide_bin(completion: Time) -> u32 {
    let c = completion.max(1) as f64;
    let mut k = 0u32;
    while 1.5 * ((1u64 << k) as f64) < c {
        k += 1;
    }
    k
}

/// Full §5.5 pipeline: preemptive PSRS schedule → geometric binning →
/// alternating merge (small sequence first) → non-preemptive job order.
pub fn psrs_order(jobs: &[JobView], machine_nodes: u32, params: PsrsParams) -> Vec<JobId> {
    if jobs.is_empty() {
        return Vec::new();
    }
    let completions = preemptive_completions(jobs, machine_nodes, params);
    debug_assert_eq!(completions.len(), jobs.len());

    // Smith-ratio rank for the in-bin order.
    let mut rank: std::collections::BTreeMap<JobId, usize> = std::collections::BTreeMap::new();
    let mut by_ratio: Vec<&JobView> = jobs.iter().collect();
    by_ratio.sort_by(|a, b| {
        b.smith_ratio()
            .partial_cmp(&a.smith_ratio())
            .expect("finite ratios")
            .then(a.id.cmp(&b.id))
    });
    for (i, j) in by_ratio.iter().enumerate() {
        rank.insert(j.id, i);
    }

    let mut small_bins: std::collections::BTreeMap<u32, Vec<JobId>> = Default::default();
    let mut wide_bins: std::collections::BTreeMap<u32, Vec<JobId>> = Default::default();
    for (id, completion, wide) in completions {
        if wide {
            wide_bins.entry(wide_bin(completion)).or_default().push(id);
        } else {
            small_bins
                .entry(small_bin(completion))
                .or_default()
                .push(id);
        }
    }
    for bin in small_bins.values_mut().chain(wide_bins.values_mut()) {
        bin.sort_by_key(|id| rank[id]);
    }

    // Alternate: small bin k, wide bin k, small bin k+1, ...
    let max_bin = small_bins
        .keys()
        .chain(wide_bins.keys())
        .copied()
        .max()
        .unwrap_or(0);
    let mut out = Vec::with_capacity(jobs.len());
    for k in 0..=max_bin {
        if let Some(bin) = small_bins.get(&k) {
            out.extend_from_slice(bin);
        }
        if let Some(bin) = wide_bins.get(&k) {
            out.extend_from_slice(bin);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(id: u32, nodes: u32, time: Time, weight: f64) -> JobView {
        JobView {
            id: JobId(id),
            nodes,
            time,
            weight,
        }
    }

    #[test]
    fn wide_predicate() {
        assert!(!is_wide(128, 256));
        assert!(is_wide(129, 256));
        assert!(is_wide(256, 256));
    }

    #[test]
    fn bins_are_geometric() {
        assert_eq!(small_bin(1), 0);
        assert_eq!(small_bin(2), 1);
        assert_eq!(small_bin(3), 2);
        assert_eq!(small_bin(4), 2);
        assert_eq!(small_bin(5), 3);
        assert_eq!(wide_bin(1), 0);
        assert_eq!(wide_bin(2), 1);
        assert_eq!(wide_bin(3), 1);
        assert_eq!(wide_bin(4), 2);
        assert_eq!(wide_bin(6), 2);
        assert_eq!(wide_bin(7), 3);
    }

    #[test]
    fn small_jobs_only_greedy_schedule() {
        // Two 4-node 10 s jobs on 8 nodes run together; a third waits.
        let jobs = vec![
            view(0, 4, 10, 1.0),
            view(1, 4, 10, 1.0),
            view(2, 4, 10, 1.0),
        ];
        let c = preemptive_completions(&jobs, 8, PsrsParams::default());
        let mut by_id: Vec<(u32, Time)> = c.iter().map(|&(id, t, _)| (id.0, t)).collect();
        by_id.sort_unstable();
        assert_eq!(by_id, vec![(0, 10), (1, 10), (2, 20)]);
    }

    #[test]
    fn smith_order_prefers_high_ratio() {
        // j1 has a far better ratio (tiny area) and must complete first
        // even though j0 has a lower id.
        let jobs = vec![view(0, 8, 100, 1.0), view(1, 8, 1, 1.0)];
        let c = preemptive_completions(&jobs, 8, PsrsParams::default());
        assert_eq!(c[0].0, JobId(1));
        assert_eq!(c[0].1, 1);
    }

    #[test]
    fn wide_job_preempts_after_patience() {
        // Machine 8. A stream of small jobs keeps 6 nodes busy; the wide
        // job (7 nodes, time 10) cannot start. With factor 1.0 it preempts
        // at t = 10 and completes at 20; the preempted small job resumes
        // and finishes late.
        let jobs = vec![
            view(0, 6, 100, 10.0), // high weight → runs first
            view(1, 7, 10, 0.1),   // wide, poor ratio
        ];
        let c = preemptive_completions(&jobs, 8, PsrsParams::default());
        let wide = c.iter().find(|x| x.0 == JobId(1)).unwrap();
        assert_eq!(wide.1, 20, "wide preempts at 10, runs 10");
        assert!(wide.2);
        let small = c.iter().find(|x| x.0 == JobId(0)).unwrap();
        // 10 s of work done before preemption, 90 after resume at t=20.
        assert_eq!(small.1, 110);
    }

    #[test]
    fn wide_job_starts_immediately_on_idle_machine() {
        let jobs = vec![view(0, 7, 10, 1.0)];
        let c = preemptive_completions(&jobs, 8, PsrsParams::default());
        assert_eq!(c, vec![(JobId(0), 10, true)]);
    }

    #[test]
    fn patience_scales_with_factor() {
        let jobs = vec![view(0, 6, 100, 10.0), view(1, 7, 10, 0.1)];
        let c = preemptive_completions(
            &jobs,
            8,
            PsrsParams {
                wide_wait_factor: 3.0,
            },
        );
        let wide = c.iter().find(|x| x.0 == JobId(1)).unwrap();
        assert_eq!(wide.1, 40, "preempts at 30, runs 10");
    }

    #[test]
    fn preemptive_schedule_emits_the_documented_segments() {
        // The wide_job_preempts_after_patience scenario, span by span:
        // the small job runs [0,10), is suspended for the wide job's
        // solo run [10,20), and resumes [20,110).
        let jobs = vec![view(0, 6, 100, 10.0), view(1, 7, 10, 0.1)];
        let alloc = preemptive_schedule(&jobs, 8, PsrsParams::default());
        let small = alloc.iter().find(|a| a.id == JobId(0)).unwrap();
        assert_eq!(
            small.segments,
            vec![Segment::new(0, 10, 6), Segment::new(20, 110, 6)]
        );
        assert_eq!(small.completion, 110);
        let wide = alloc.iter().find(|a| a.id == JobId(1)).unwrap();
        assert_eq!(wide.segments, vec![Segment::new(10, 20, 7)]);
        assert!(wide.wide);
    }

    #[test]
    fn job_preempted_at_its_start_instant_leaves_no_zero_span() {
        // Two small jobs free the machine at t=10; B(3 nodes) starts
        // there — and the wide job's patience lapses in the same
        // instant, so B is suspended before receiving any cycles. Its
        // union must hold only the real span after the wide run, not a
        // [10,10) stub.
        let jobs = vec![
            view(0, 4, 10, 10.0),
            view(1, 2, 10, 8.0),
            view(2, 3, 3, 0.03),
            view(3, 7, 10, 0.1),
        ];
        let alloc = preemptive_schedule(&jobs, 8, PsrsParams::default());
        let b = alloc.iter().find(|a| a.id == JobId(2)).unwrap();
        assert_eq!(b.segments, vec![Segment::new(20, 23, 3)]);
        let wide = alloc.iter().find(|a| a.id == JobId(3)).unwrap();
        assert_eq!(wide.segments, vec![Segment::new(10, 20, 7)]);
    }

    #[test]
    fn lapsed_patience_preempts_now_not_in_the_past() {
        // The eligibility clock only advances on preemptive runs. Here
        // W1 starts *greedily* at t=30, leaving W2's deadline computed
        // from wide_eligible_since = 0: already lapsed. W2 must preempt
        // at t=30 — before the clamp it ran "at" t=5, completing before
        // jobs that had already finished.
        let jobs = vec![
            view(0, 2, 30, 10.0), // runs [0,30)
            view(1, 7, 50, 0.2),  // W1: blocked, starts greedily at 30
            view(2, 7, 5, 0.01),  // W2: patience 5, lapsed long before
        ];
        let alloc = preemptive_schedule(&jobs, 8, PsrsParams::default());
        let a = alloc.iter().find(|x| x.id == JobId(0)).unwrap();
        assert_eq!(a.segments, vec![Segment::new(0, 30, 2)]);
        // W1 started at 30, was preempted in the same instant (no zero
        // span) and resumed after W2's solo run.
        let w2 = alloc.iter().find(|x| x.id == JobId(2)).unwrap();
        assert_eq!(w2.segments, vec![Segment::new(30, 35, 7)]);
        let w1 = alloc.iter().find(|x| x.id == JobId(1)).unwrap();
        assert_eq!(w1.segments, vec![Segment::new(35, 85, 7)]);
        // Completions are monotone in schedule time.
        let times: Vec<Time> = alloc.iter().map(|x| x.completion).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
    }

    #[test]
    fn completions_are_exactly_the_schedule_projection() {
        let jobs: Vec<JobView> = (0..60)
            .map(|i| view(i, 1 + (i * 29) % 120, 1 + (i as Time * 97) % 800, 1.0))
            .collect();
        let schedule = preemptive_schedule(&jobs, 128, PsrsParams::default());
        let completions = preemptive_completions(&jobs, 128, PsrsParams::default());
        assert_eq!(
            completions,
            schedule
                .iter()
                .map(|a| (a.id, a.completion, a.wide))
                .collect::<Vec<_>>()
        );
        // Each union ends exactly at the completion it projects to.
        for a in &schedule {
            assert_eq!(a.segments.last().unwrap().end, a.completion);
        }
    }

    #[test]
    fn all_jobs_complete_exactly_once() {
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
        let c = preemptive_completions(&jobs, 256, PsrsParams::default());
        assert_eq!(c.len(), 100);
        let mut ids: Vec<u32> = c.iter().map(|x| x.0 .0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 100);
    }

    #[test]
    fn order_is_permutation() {
        let jobs: Vec<JobView> = (0..80)
            .map(|i| {
                view(
                    i,
                    1 + (i * 29) % 256,
                    1 + (i as Time * 97) % 10_000,
                    1.0 + (i % 5) as f64,
                )
            })
            .collect();
        let order = psrs_order(&jobs, 256, PsrsParams::default());
        let mut ids: Vec<u32> = order.iter().map(|j| j.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..80).collect::<Vec<_>>());
    }

    #[test]
    fn early_bins_lead_the_order() {
        // A tiny high-ratio job completes almost immediately in the
        // preemptive schedule and must appear before a long job that
        // completes late.
        let jobs = vec![view(0, 10, 10_000, 1.0), view(1, 1, 2, 1.0)];
        let order = psrs_order(&jobs, 256, PsrsParams::default());
        assert_eq!(order[0], JobId(1));
    }

    #[test]
    fn deterministic_under_permutation() {
        let jobs: Vec<JobView> = (0..40)
            .map(|i| view(i, 1 + (i * 7) % 100, 1 + (i as Time * 11) % 300, 1.0))
            .collect();
        let mut rev = jobs.clone();
        rev.reverse();
        assert_eq!(
            psrs_order(&jobs, 128, PsrsParams::default()),
            psrs_order(&rev, 128, PsrsParams::default())
        );
    }

    #[test]
    fn empty_input() {
        assert!(psrs_order(&[], 256, PsrsParams::default()).is_empty());
    }

    #[test]
    fn weighted_scheme_degenerates_gracefully() {
        // With weight = area the modified Smith ratio is 1 for every job;
        // the order must still be a deterministic permutation.
        let jobs: Vec<JobView> = (0..30)
            .map(|i| {
                let nodes = 1 + (i * 3) % 64;
                let time = 1 + (i as Time * 17) % 400;
                view(i, nodes, time, nodes as f64 * time as f64)
            })
            .collect();
        let order = psrs_order(&jobs, 256, PsrsParams::default());
        assert_eq!(order.len(), 30);
    }
}
