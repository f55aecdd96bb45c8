//! Figures 1–2 of the paper: one two-criteria scenario (a priority
//! group sharing the machine with a lab course holding Example 1's
//! weekday exclusive window), scheduled by every matrix algorithm and
//! ranked by Pareto dominance. The window is read from
//! [`Policy::example1`] and the group's ART is the library's
//! [`OnlineArt`] over the group's jobs.
//!
//! | item | content | function |
//! |---|---|---|
//! | Fig. 1 | Pareto-optimal schedules under two criteria | [`figure1`] |
//! | Fig. 2 | online vs. offline achievable regions | [`figure2`] |
//!
//! Tables 1–8 (and Figures 3–6, which plot them) are not defined here:
//! every table of the evaluation is a `jobsched-sweep` campaign preset
//! (`Campaign::paper_tables`) run by `run_campaign`.

use crate::objective_select::ObjectiveKind;
use crate::policy::{DailyWindow, Policy};
use jobsched_algos::view::WeightScheme;
use jobsched_algos::AlgorithmSpec;
use jobsched_metrics::{pareto_ranks, replay, Objective, OnlineArt, Point, StreamingObjective};
use jobsched_sim::{simulate, ScheduleRecord};
use jobsched_workload::exact::with_exact_estimates;
use jobsched_workload::job::{DAY, HOUR};
use jobsched_workload::{JobBuilder, JobId, Time, Workload};

// ---------------------------------------------------------------------
// Figure 1: Pareto-optimal schedules under two conflicting criteria.
// ---------------------------------------------------------------------

/// The Figure 1 scenario: a machine shared between a priority group
/// ("drug design", user 0) and a lab course holding Example 1's weekday
/// exclusive window, evaluated under two conflicting criteria:
///
/// * x — *unavailability* for the course: fraction of the course window's
///   node-seconds occupied by other groups' jobs (0 = fully available);
/// * y — average response time of the drug-design jobs.
///
/// Both are costs; the paper marks the Pareto-optimal schedules and ranks
/// them by desirability.
pub struct Figure1 {
    /// One point per examined schedule.
    pub points: Vec<Point>,
    /// Non-domination rank per point (1 = Pareto-optimal).
    pub ranks: Vec<usize>,
}

/// The lab course's window in the Figure 1 and 2 scenarios: Example 1's
/// exclusive window (weekdays, 10:00–12:00).
fn course_window() -> DailyWindow {
    Policy::example1()
        .exclusive_window()
        .expect("Example 1 reserves a window for the lab course")
}

/// Fraction of course-window node-seconds occupied by non-course jobs,
/// over the days the window applies to.
fn course_unavailability(
    window: DailyWindow,
    workload: &Workload,
    schedule: &ScheduleRecord,
) -> f64 {
    let makespan = schedule.makespan().max(DAY);
    let open = window.start_hour as Time * HOUR;
    let close = window.end_hour as Time * HOUR;
    let days: Vec<Time> = (0..makespan.div_ceil(DAY))
        .map(|d| d * DAY)
        .filter(|&day| window.contains(day + open))
        .collect();
    let capacity = (days.len() as Time * (close - open)) as f64 * schedule.machine_nodes() as f64;
    let mut occupied = 0.0;
    for job in workload.jobs() {
        let Some(p) = schedule.placement(job.id) else {
            continue;
        };
        for &day in &days {
            let (lo, hi) = (day + open, day + close);
            let (s, e) = (p.start.max(lo), p.completion.min(hi));
            if e > s {
                occupied += (e - s) as f64 * job.nodes as f64;
            }
        }
    }
    occupied / capacity
}

/// Average response time of user 0's ("drug design") jobs, in minutes.
fn priority_group_art(workload: &Workload, schedule: &ScheduleRecord) -> f64 {
    let mut art = OnlineArt::new();
    let group = workload.jobs().iter().filter(|j| j.user == 0);
    replay(group, schedule, &mut art);
    art.cost() / 60.0
}

/// Schedule `workload` with every matrix algorithm under both weight
/// schemes: one point per schedule, costed by `criteria`.
fn matrix_points(
    workload: &Workload,
    criteria: impl Fn(&ScheduleRecord) -> Vec<f64>,
) -> Vec<Point> {
    let mut points = Vec::new();
    for spec in AlgorithmSpec::paper_matrix() {
        for scheme in [WeightScheme::Unweighted, WeightScheme::ProjectedArea] {
            let out = simulate(workload, &mut spec.build(scheme));
            points.push(Point::new(
                format!("{} [{}]", spec.name(), scheme.label()),
                criteria(&out.schedule),
            ));
        }
    }
    points
}

/// A small two-group workload for Figures 1–2: user 0 = drug design
/// (priority group), users 1.. = everyone else.
pub fn figure_workload(seed: u64) -> Workload {
    // Deterministic structured mix; sized so that many distinct schedules
    // exist but a single simulation is instant.
    let mut jobs = Vec::new();
    let mut push = |submit: u64, nodes: u32, time: u64, user: u32| {
        jobs.push(
            JobBuilder::new(JobId(0))
                .submit(submit)
                .nodes(nodes)
                .requested(time + time / 4)
                .runtime(time)
                .user(user)
                .build(),
        );
    };
    let mut x = seed;
    let mut next = move || {
        // xorshift64 for a self-contained deterministic stream.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for i in 0..60 {
        let submit = (i as u64) * 600 + next() % 300;
        let user = (next() % 5) as u32;
        let nodes = 1 + (next() % 96) as u32;
        let time = 600 + next() % (3 * HOUR);
        push(submit, nodes, time, user);
    }
    Workload::new("figure-scenario", 128, jobs)
}

/// Compute the Figure 1 data: evaluate every matrix algorithm plus a
/// sweep of deterministic list-order permutations under the two criteria
/// and rank the resulting schedules.
pub fn figure1() -> Figure1 {
    let w = figure_workload(42);
    let window = course_window();
    let points = matrix_points(&w, |schedule| {
        vec![
            course_unavailability(window, &w, schedule),
            priority_group_art(&w, schedule),
        ]
    });
    let ranks = pareto_ranks(&points);
    Figure1 { points, ranks }
}

// ---------------------------------------------------------------------
// Figure 2: online vs. offline achievable regions.
// ---------------------------------------------------------------------

/// Figure 2 data: the same scenario scheduled by online algorithms (user
/// estimates only) and by "offline" algorithms (exact runtimes known at
/// submission), illustrating that "on-line algorithms cover a
/// significantly smaller area of schedules than off-line methods".
pub struct Figure2 {
    /// Points achievable by online algorithms.
    pub online: Vec<Point>,
    /// Points achievable with complete job knowledge.
    pub offline: Vec<Point>,
}

/// Best (minimum) cost in a point set per criterion.
pub fn ideal(points: &[Point]) -> Vec<f64> {
    let k = points.first().map_or(0, |p| p.costs.len());
    (0..k)
        .map(|i| {
            points
                .iter()
                .map(|p| p.costs[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Compute the Figure 2 data.
pub fn figure2() -> Figure2 {
    let w = figure_workload(42);
    let exact = with_exact_estimates(&w);
    let window = course_window();
    let run = |workload: &Workload| {
        matrix_points(workload, |schedule| {
            vec![
                ObjectiveKind::AvgResponseTime.cost(workload, schedule),
                course_unavailability(window, workload, schedule),
            ]
        })
    };
    Figure2 {
        online: run(&w),
        offline: run(&exact),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_workload_is_deterministic() {
        assert_eq!(figure_workload(42).jobs(), figure_workload(42).jobs());
        assert_ne!(figure_workload(42).jobs(), figure_workload(43).jobs());
    }

    #[test]
    fn figure1_produces_ranked_points() {
        let f = figure1();
        assert_eq!(f.points.len(), 26);
        assert_eq!(f.ranks.len(), 26);
        assert!(f.ranks.contains(&1), "a Pareto front exists");
        for p in &f.points {
            assert_eq!(p.costs.len(), 2);
            assert!(p.costs.iter().all(|c| c.is_finite()));
        }
    }

    #[test]
    fn figure2_offline_ideal_dominates_online_ideal() {
        let f = figure2();
        let on = ideal(&f.online);
        let off = ideal(&f.offline);
        // With exact runtimes the best achievable ART can only improve
        // (estimates only mislead the schedulers).
        assert!(
            off[0] <= on[0] * 1.05,
            "offline ideal ART {} vs online {}",
            off[0],
            on[0]
        );
    }

    #[test]
    fn course_unavailability_bounded() {
        let w = figure_workload(1);
        let spec = AlgorithmSpec::reference();
        let mut sched = spec.build(WeightScheme::Unweighted);
        let out = simulate(&w, &mut sched);
        let u = course_unavailability(course_window(), &w, &out.schedule);
        assert!((0.0..=1.0).contains(&u), "unavailability {u}");
    }
}
