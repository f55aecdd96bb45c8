//! Daily windows: the §7 regime split and Example 4's exclusive window.
//!
//! The paper's §7 conclusion leaves one step open: "In addition she must
//! evaluate the effect of combining the selected algorithms." Institution
//! B's policy prescribes different goals for weekday daytime (Rule 5:
//! response time) and nights/weekends (Rule 6: system load), so the final
//! production scheduler must *switch* between the two chosen algorithms
//! as the clock crosses the window boundaries.
//!
//! The combination is a [`ListScheduler`] with an off-peak regime
//! ([`ListScheduler::with_off_peak`]): one wait queue, two ordering
//! policies, each with its own maintained order and §5.4 trigger, and
//! at every decision the regime owning the current instant selects
//! through the same scans as its own row. Already-running jobs are never
//! disturbed (no time sharing), so a switch only changes how the
//! *backlog* is drained — which is exactly what the policy rules govern.
//!
//! Example 4 gives "the entire machine" to a class every weekday at
//! 10am; without time sharing, a job may start only if its *estimate*
//! completes before the class. [`ExclusiveWindow`] states that rule once
//! ([`ListScheduler::with_exclusive_window`]), and every selection
//! strategy treats a job it does not admit now as one that does not fit.

use crate::backfill::BackfillMode;
use crate::order::OrderPolicy;
use crate::scheduler::ListScheduler;
use jobsched_workload::job::{DAY, HOUR, WEEK};
use jobsched_workload::Time;
use std::fmt;

/// A daily time window, optionally restricted to weekdays (hours in
/// 0..24, `start < end`). Day 0 of simulated time is taken as a Monday,
/// matching the workload generators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DailyWindow {
    /// First hour of the window (inclusive).
    pub start_hour: u8,
    /// Last hour of the window (exclusive).
    pub end_hour: u8,
    /// Whether the window applies on weekdays only.
    pub weekdays_only: bool,
}

impl DailyWindow {
    /// The Rule 5 window: 7am–8pm on weekdays.
    pub const WEEKDAY_DAYTIME: DailyWindow = DailyWindow {
        start_hour: 7,
        end_hour: 20,
        weekdays_only: true,
    };

    /// Whether instant `t` falls into the window.
    pub fn contains(&self, t: Time) -> bool {
        let weekday = (t % WEEK) / DAY < 5;
        let hour = ((t % DAY) / HOUR) as u8;
        (weekday || !self.weekdays_only) && (self.start_hour..self.end_hour).contains(&hour)
    }

    /// The first whole hour after `t` at which [`DailyWindow::contains`]
    /// changes (both window edges lie on whole hours); `None` for a
    /// window that never starts or never ends.
    pub(crate) fn next_boundary(&self, t: Time) -> Option<Time> {
        let inside = self.contains(t);
        let next_hour = (t / HOUR + 1) * HOUR;
        (0..WEEK / HOUR)
            .map(|k| next_hour + k * HOUR)
            .find(|&b| self.contains(b) != inside)
    }

    /// Two windows overlap if their hour ranges intersect and their
    /// weekday scopes can coincide.
    pub fn overlaps(&self, other: &DailyWindow) -> bool {
        self.start_hour < other.end_hour && other.start_hour < self.end_hour
    }
}

impl fmt::Display for DailyWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02}:00–{:02}:00{}",
            self.start_hour,
            self.end_hour,
            if self.weekdays_only {
                " (weekdays)"
            } else {
                ""
            }
        )
    }
}

/// A [`DailyWindow`] during which the whole machine belongs to someone
/// else (Example 4). A job may start at `t` only outside the window, and
/// only if its estimate completes by the next opening — unless the
/// estimate exceeds the longest window-free gap, so it could never
/// comply: the rules conflict, and per §2.1 the job is exempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExclusiveWindow {
    pub(crate) window: DailyWindow,
    /// The longest window-free stretch of the week (Example 4: Friday
    /// 11:00 → Monday 10:00, 71 h); 0 for a window that never opens.
    max_gap: Time,
}

impl ExclusiveWindow {
    /// The rule for `window`. A window that never closes is rejected: it
    /// would admit nothing and arm no wakeup, starving every job.
    pub(crate) fn new(window: DailyWindow) -> Result<Self, String> {
        if window.next_boundary(0).is_none() && window.contains(0) {
            return Err(format!(
                "exclusive window {window} never closes: no job could ever start"
            ));
        }
        // Every gap runs from a window's end to the next opening; two
        // weeks of ends see every gap of the weekly calendar whole.
        let mut rule = ExclusiveWindow { window, max_gap: 0 };
        rule.max_gap = std::iter::successors(rule.next_end(0), |&end| rule.next_end(end))
            .take_while(|&end| end <= 2 * WEEK)
            .filter_map(|end| Some(window.next_boundary(end)? - end))
            .max()
            .unwrap_or(0);
        Ok(rule)
    }

    /// Whether a job with this estimate may start at `t`. A window that
    /// never opens admits everything.
    pub(crate) fn admits(&self, t: Time, estimate: Time) -> bool {
        !self.window.contains(t)
            && (estimate > self.max_gap
                || self
                    .window
                    .next_boundary(t)
                    .is_none_or(|opens| t.saturating_add(estimate.max(1)) <= opens))
    }

    /// The earliest instant ≥ `t` that admits the job, whatever the
    /// nodes. Admissibility only turns true at a window end, and a
    /// non-exempt estimate fits the gap after one of them.
    pub(crate) fn admissible_from(&self, mut t: Time, estimate: Time) -> Time {
        while !self.admits(t, estimate) {
            t = self.next_end(t).expect("a window that opens also closes");
        }
        t
    }

    /// The next instant after `t` at which the window closes: the next
    /// boundary inside it, the one after the next opening outside it.
    pub(crate) fn next_end(&self, t: Time) -> Option<Time> {
        let boundary = self.window.next_boundary(t)?;
        if self.window.contains(t) {
            Some(boundary)
        } else {
            self.window.next_boundary(boundary)
        }
    }
}

impl ListScheduler {
    /// The paper's §7 outcome: SMART-FFIA with EASY backfilling for the
    /// daytime response-time goal (Rule 5's window), Garey & Graham for
    /// the off-peak load goal.
    pub fn paper_combination() -> Self {
        use crate::smart::SmartVariant;
        use crate::view::WeightScheme;
        ListScheduler::new(
            OrderPolicy::smart(SmartVariant::Ffia, WeightScheme::Unweighted),
            BackfillMode::Easy,
        )
        .with_off_peak(
            OrderPolicy::GareyGraham,
            BackfillMode::None,
            DailyWindow::WEEKDAY_DAYTIME,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PolicyKind;
    use crate::view::WeightScheme;
    use jobsched_sim::{simulate, JobRequest, Scheduler};
    use jobsched_workload::ctc::prepared_ctc_workload;
    use jobsched_workload::JobId;

    /// Example 4's window: weekdays, 10:00–11:00.
    const CLASS: DailyWindow = DailyWindow {
        start_hour: 10,
        end_hour: 11,
        weekdays_only: true,
    };

    fn one_job() -> JobRequest {
        JobRequest {
            id: JobId(0),
            submit: 0,
            nodes: 1,
            class: jobsched_workload::ClassId(0),
            requested_time: 100,
            user: 0,
        }
    }

    #[test]
    fn window_calendar() {
        let w = CLASS;
        // 10:00 is inside; 09:59:59 and 11:00 are outside; so is
        // Saturday 10:30.
        assert!(w.contains(10 * HOUR));
        assert!(w.contains(10 * HOUR + 1800));
        assert!(w.contains(11 * HOUR - 1));
        assert!(!w.contains(10 * HOUR - 1));
        assert!(!w.contains(11 * HOUR));
        assert!(!w.contains(5 * DAY + 10 * HOUR + 1800));
        // Outside, the next boundary is the next window's start: from
        // Monday 9:00 it is Monday 10:00, from Monday noon Tuesday 10:00.
        assert_eq!(w.next_boundary(9 * HOUR), Some(10 * HOUR));
        assert_eq!(w.next_boundary(12 * HOUR), Some(DAY + 10 * HOUR));
        // Inside, it is the window's end, from the opening instant on.
        assert_eq!(w.next_boundary(10 * HOUR), Some(11 * HOUR));
        assert_eq!(w.next_boundary(11 * HOUR - 1), Some(11 * HOUR));
    }

    #[test]
    fn window_boundary_instants() {
        let w = CLASS;
        // From Friday 10:00:01 the next boundary is Friday 11:00; from
        // Friday 11:00 the weekend rolls it over to Monday 10:00 (day
        // indices 5 and 6 are the weekend).
        assert_eq!(
            w.next_boundary(4 * DAY + 10 * HOUR + 1),
            Some(4 * DAY + 11 * HOUR)
        );
        assert_eq!(
            w.next_boundary(4 * DAY + 11 * HOUR),
            Some(7 * DAY + 10 * HOUR)
        );
        assert_eq!(w.next_boundary(5 * DAY), Some(7 * DAY + 10 * HOUR));
        assert_eq!(
            w.next_boundary(6 * DAY + 23 * HOUR),
            Some(7 * DAY + 10 * HOUR)
        );
    }

    #[test]
    fn max_gap_is_the_weekend() {
        // Friday 11:00 → Monday 10:00 = 71 h.
        assert_eq!(ExclusiveWindow::new(CLASS).unwrap().max_gap, 71 * HOUR);
    }

    #[test]
    fn admissibility_clears_the_next_opening_or_is_exempt() {
        let rule = ExclusiveWindow::new(CLASS).unwrap();
        // Monday 9:00: an estimate ending exactly at 10:00 is admitted
        // (the window is half-open), one second more is not, and nothing
        // is admitted inside the window — not even an exempt estimate.
        assert!(rule.admits(9 * HOUR, HOUR));
        assert!(!rule.admits(9 * HOUR, HOUR + 1));
        assert!(!rule.admits(10 * HOUR, 1));
        assert!(!rule.admits(10 * HOUR + 1800, 100 * HOUR));
        // An estimate longer than the 71 h weekend gap can never comply
        // and is exempt outside the window; 71 h exactly is not.
        assert!(rule.admits(9 * HOUR, 71 * HOUR + 1));
        assert!(!rule.admits(9 * HOUR, 71 * HOUR));
        // The earliest admissible start: now, the window's end, or the
        // end of the window after a gap too short for the estimate.
        assert_eq!(rule.admissible_from(9 * HOUR, HOUR), 9 * HOUR);
        assert_eq!(rule.admissible_from(10 * HOUR + 5, 1), 11 * HOUR);
        assert_eq!(rule.admissible_from(9 * HOUR, 2 * HOUR), 11 * HOUR);
        // A 30 h estimate fits no weekday gap (23 h): it waits for
        // Friday's class to end and runs over the weekend.
        assert_eq!(rule.admissible_from(0, 30 * HOUR), 4 * DAY + 11 * HOUR);
        assert_eq!(rule.admissible_from(0, 71 * HOUR + 1), 0);
    }

    #[test]
    fn a_window_that_never_closes_is_rejected() {
        let always = DailyWindow {
            start_hour: 0,
            end_hour: 24,
            weekdays_only: false,
        };
        let err = ListScheduler::new(OrderPolicy::Fcfs, BackfillMode::Easy)
            .with_exclusive_window(always)
            .unwrap_err();
        assert!(err.contains(&always.to_string()), "{err}");
        // The same hours on weekdays only close for the weekend.
        let weekdays = DailyWindow {
            weekdays_only: true,
            ..always
        };
        assert!(ListScheduler::new(OrderPolicy::Fcfs, BackfillMode::Easy)
            .with_exclusive_window(weekdays)
            .is_ok());
        assert_eq!(ExclusiveWindow::new(weekdays).unwrap().max_gap, 2 * DAY);
    }

    #[test]
    fn a_window_that_never_opens_admits_everything() {
        let never = DailyWindow {
            start_hour: 10,
            end_hour: 10,
            weekdays_only: true,
        };
        assert_eq!(never.next_boundary(0), None);
        let rule = ExclusiveWindow::new(never).unwrap();
        assert_eq!(rule.max_gap, 0);
        for t in [0, 10 * HOUR, 4 * DAY + 23 * HOUR] {
            assert!(rule.admits(t, WEEK));
            assert_eq!(rule.admissible_from(t, 2 * HOUR), t);
        }
        assert_eq!(rule.next_end(9 * HOUR), None);
        // A waiting job arms no wakeup.
        let mut s = ListScheduler::new(OrderPolicy::Fcfs, BackfillMode::None)
            .with_exclusive_window(never)
            .unwrap();
        s.submit(one_job(), 0);
        assert_eq!(s.next_wakeup(9 * HOUR), None);
    }

    #[test]
    fn day_night_window_classification() {
        let w = DailyWindow::WEEKDAY_DAYTIME;
        assert!(w.contains(12 * HOUR)); // Monday noon
        assert!(!w.contains(2 * HOUR)); // Monday 2am
        assert!(!w.contains(20 * HOUR)); // Monday 8pm sharp (exclusive)
        assert!(w.contains(7 * HOUR)); // 7am sharp (inclusive)
        assert!(!w.contains(5 * DAY + 12 * HOUR)); // Saturday noon
        assert!(!w.contains(6 * DAY + 12 * HOUR)); // Sunday noon
        assert!(w.contains(7 * DAY + 12 * HOUR)); // next Monday noon
    }

    #[test]
    fn day_night_window_second_level_edges() {
        let w = DailyWindow::WEEKDAY_DAYTIME;
        // The regime flips exactly on the whole-hour boundary, not a
        // second early or late.
        assert!(!w.contains(7 * HOUR - 1)); // Monday 06:59:59
        assert!(w.contains(7 * HOUR)); // Monday 07:00:00
        assert!(w.contains(20 * HOUR - 1)); // Monday 19:59:59
        assert!(!w.contains(20 * HOUR)); // Monday 20:00:00

        // Friday evening rolls straight into the weekend regime and stays
        // there until Monday 07:00.
        assert!(w.contains(4 * DAY + 20 * HOUR - 1)); // Friday 19:59:59
        assert!(!w.contains(4 * DAY + 20 * HOUR)); // Friday 20:00:00
        assert!(!w.contains(7 * DAY + 7 * HOUR - 1)); // Monday 06:59:59 (week 2)
        assert!(w.contains(7 * DAY + 7 * HOUR)); // Monday 07:00:00 (week 2)
    }

    #[test]
    fn custom_window_hours_are_respected() {
        // A midnight-anchored window: start is inclusive at t = 0.
        let w = DailyWindow {
            start_hour: 0,
            end_hour: 6,
            weekdays_only: true,
        };
        assert!(w.contains(0));
        assert!(w.contains(6 * HOUR - 1));
        assert!(!w.contains(6 * HOUR));
        assert!(!w.contains(5 * DAY)); // Saturday 00:00
        let every_day = DailyWindow {
            weekdays_only: false,
            ..w
        };
        assert!(every_day.contains(5 * DAY));
        // An empty window is never entered, so it has no boundary.
        let empty = DailyWindow {
            start_hour: 12,
            end_hour: 12,
            weekdays_only: true,
        };
        assert!(!empty.contains(12 * HOUR));
        assert_eq!(empty.next_boundary(0), None);
    }

    #[test]
    fn next_wakeup_lands_exactly_on_regime_boundaries() {
        let mut s = ListScheduler::paper_combination();
        assert_eq!(s.next_wakeup(12 * HOUR), None, "empty queue never wakes");
        s.submit(one_job(), 0);
        // Day → night boundary at 20:00, including from 07:00 sharp.
        assert_eq!(s.next_wakeup(12 * HOUR), Some(20 * HOUR));
        assert_eq!(s.next_wakeup(7 * HOUR), Some(20 * HOUR));
        // Night → day boundary at 07:00.
        assert_eq!(s.next_wakeup(2 * HOUR), Some(7 * HOUR));
        // 20:00 sharp is already night: the next boundary is tomorrow 07:00.
        assert_eq!(s.next_wakeup(20 * HOUR), Some(DAY + 7 * HOUR));
        // Friday evening skips the whole weekend to Monday 07:00.
        assert_eq!(s.next_wakeup(4 * DAY + 20 * HOUR), Some(7 * DAY + 7 * HOUR));
        assert_eq!(s.next_wakeup(5 * DAY + 12 * HOUR), Some(7 * DAY + 7 * HOUR));
        // A single regime has no boundary to wake at.
        let mut single = ListScheduler::new(OrderPolicy::Fcfs, BackfillMode::Easy);
        single.submit(one_job(), 0);
        assert_eq!(single.next_wakeup(12 * HOUR), None);
    }

    #[test]
    fn forced_regime_overrides_the_clock() {
        let mut s = ListScheduler::paper_combination();
        assert_eq!(s.forced_regime(), None);
        assert!(s.force_regime(Some(false)));
        assert_eq!(s.active_regime_name(12 * HOUR), Some("night")); // noon, forced night
        assert!(s.force_regime(Some(true)));
        assert_eq!(s.active_regime_name(2 * HOUR), Some("day")); // 2am, forced day
        assert!(s.force_regime(None));
        assert_eq!(s.active_regime_name(2 * HOUR), Some("night")); // back to the clock
                                                                   // A single regime has nothing to force.
        let mut single = ListScheduler::new(OrderPolicy::Fcfs, BackfillMode::Easy);
        assert!(!single.force_regime(Some(true)));
        assert_eq!(single.forced_regime(), None);
        assert_eq!(single.active_regime_name(12 * HOUR), None);
    }

    #[test]
    fn forced_regime_suppresses_boundary_wakeups() {
        let mut s = ListScheduler::paper_combination();
        s.submit(one_job(), 0);
        assert_eq!(s.next_wakeup(12 * HOUR), Some(20 * HOUR));
        assert!(s.force_regime(Some(true)));
        assert_eq!(s.next_wakeup(12 * HOUR), None, "pinned regime never flips");
        assert!(s.force_regime(None));
        assert_eq!(s.next_wakeup(12 * HOUR), Some(20 * HOUR));
    }

    #[test]
    fn forcing_night_equals_the_night_scheduler() {
        // With the night regime pinned, the combined scheduler
        // degenerates to its off-peak algorithm.
        let w = prepared_ctc_workload(600, 1999);
        let mut forced = ListScheduler::paper_combination();
        assert!(forced.force_regime(Some(false)));
        let mut night_only = ListScheduler::new(OrderPolicy::GareyGraham, BackfillMode::None);
        let a = simulate(&w, &mut forced);
        let b = simulate(&w, &mut night_only);
        for j in w.jobs() {
            assert_eq!(a.schedule.placement(j.id), b.schedule.placement(j.id));
        }
    }

    #[test]
    fn a_forced_regime_places_as_its_list_scheduler() {
        // Pinned to either regime, a combination must place every job as
        // that regime's own row does: each regime keeps its order and
        // evaluates the §5.4 trigger at every submission, whichever
        // regime is active — the rows of Tables 3–8 are what the
        // combination combines. The other regime is the paper's. A row
        // under a window that never opens takes a full scan at every
        // decision, and must place as the row does too.
        let w = prepared_ctc_workload(800, 1999);
        let day = (
            OrderPolicy::smart(crate::smart::SmartVariant::Ffia, WeightScheme::Unweighted),
            BackfillMode::Easy,
        );
        let night = (OrderPolicy::GareyGraham, BackfillMode::None);
        for kind in PolicyKind::atlas() {
            let schemes: &[WeightScheme] = if kind.policy(WeightScheme::Unweighted).is_dynamic() {
                &[WeightScheme::Unweighted, WeightScheme::ProjectedArea]
            } else {
                &[WeightScheme::Unweighted]
            };
            for &scheme in schemes {
                for backfill in [
                    BackfillMode::None,
                    BackfillMode::Conservative,
                    BackfillMode::Easy,
                ] {
                    let policy = kind.policy(scheme);
                    let row = simulate(&w, &mut ListScheduler::new(policy, backfill));
                    // The third variant is the row itself under an
                    // exclusive window that never opens: it admits every
                    // job and must place it where the row does.
                    for daytime in [Some(true), Some(false), None] {
                        let window = DailyWindow::WEEKDAY_DAYTIME;
                        let mut forced = match daytime {
                            Some(true) => ListScheduler::new(policy, backfill)
                                .with_off_peak(night.0, night.1, window),
                            Some(false) => ListScheduler::new(day.0, day.1)
                                .with_off_peak(policy, backfill, window),
                            None => ListScheduler::new(policy, backfill)
                                .with_exclusive_window(DailyWindow {
                                    start_hour: 12,
                                    end_hour: 12,
                                    weekdays_only: false,
                                })
                                .unwrap(),
                        };
                        assert_eq!(forced.force_regime(daytime), daytime.is_some());
                        let out = simulate(&w, &mut forced);
                        for j in w.jobs() {
                            assert_eq!(
                                out.schedule.placement(j.id),
                                row.schedule.placement(j.id),
                                "{} forced to {}: job {}",
                                forced.name(),
                                forced.active_regime_name(0).unwrap_or("-"),
                                j.id
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn produces_valid_complete_schedules() {
        let w = prepared_ctc_workload(1_200, 1999);
        let mut s = ListScheduler::paper_combination();
        let out = simulate(&w, &mut s);
        assert_eq!(out.schedule.completion_ratio(), 1.0);
        assert!(out.schedule.validate(&w).is_empty());
    }

    #[test]
    fn picks_respect_node_class_pools() {
        use jobsched_workload::{JobBuilder, MachineLayout, NodeClassSpec, NodeType, Workload};
        // 8 thin + 2 wide nodes. Job 0 fills the wide pool; job 1 (wide,
        // 2 nodes) must wait for it although the thin pool is idle —
        // scanning the whole queue against pool 0 would start it into a
        // full pool.
        let pool = |node_type, memory_mb, count| NodeClassSpec {
            node_type,
            memory_mb,
            count,
        };
        let wide = |submit| {
            JobBuilder::new(JobId(0))
                .submit(submit)
                .nodes(2)
                .requested(100)
                .runtime(100)
                .node_type(NodeType::Wide)
                .memory_mb(1024)
                .build()
        };
        for regime in [true, false] {
            let layout = MachineLayout::new(vec![
                pool(NodeType::Thin, 512, 8),
                pool(NodeType::Wide, 2048, 2),
            ]);
            let w = Workload::new("two-class", 10, vec![wide(0), wide(1)]).with_layout(layout);
            let mut s = ListScheduler::paper_combination();
            assert!(s.force_regime(Some(regime)));
            let out = simulate(&w, &mut s);
            assert!(out.schedule.validate(&w).is_empty());
            assert_eq!(out.schedule.placement(JobId(1)).unwrap().start, 100);
        }
    }

    #[test]
    fn name_mentions_both_regimes() {
        let s = ListScheduler::paper_combination();
        assert_eq!(
            s.name(),
            "switch[day: SMART-FFIA+EASY-Backfilling | night: Garey&Graham+Listscheduler]"
        );
    }

    #[test]
    fn active_regime_tracks_clock() {
        let s = ListScheduler::paper_combination();
        assert_eq!(s.active_regime_name(12 * HOUR), Some("day"));
        assert_eq!(s.active_regime_name(23 * HOUR), Some("night"));
    }

    #[test]
    fn degenerate_combination_equals_single_fcfs() {
        // FCFS in both regimes: the combined scheduler must reproduce
        // the single FCFS schedule exactly.
        let w = prepared_ctc_workload(600, 7);
        let mut combined = ListScheduler::new(OrderPolicy::Fcfs, BackfillMode::Easy).with_off_peak(
            OrderPolicy::Fcfs,
            BackfillMode::Easy,
            DailyWindow::WEEKDAY_DAYTIME,
        );
        let mut single = ListScheduler::new(OrderPolicy::Fcfs, BackfillMode::Easy);
        let a = simulate(&w, &mut combined);
        let b = simulate(&w, &mut single);
        for j in w.jobs() {
            assert_eq!(a.schedule.placement(j.id), b.schedule.placement(j.id));
        }
    }

    #[test]
    fn switching_changes_the_schedule() {
        let w = prepared_ctc_workload(1_200, 1999);
        let mut combined = ListScheduler::paper_combination();
        let mut day_only = ListScheduler::new(
            OrderPolicy::smart(crate::smart::SmartVariant::Ffia, WeightScheme::Unweighted),
            BackfillMode::Easy,
        );
        let a = simulate(&w, &mut combined);
        let b = simulate(&w, &mut day_only);
        let differs = w
            .jobs()
            .iter()
            .any(|j| a.schedule.placement(j.id) != b.schedule.placement(j.id));
        assert!(differs, "night regime should alter some placements");
    }
}
