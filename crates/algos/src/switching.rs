//! Time-regime switching: combining the selected algorithms.
//!
//! The paper's §7 conclusion leaves one step open: "In addition she must
//! evaluate the effect of combining the selected algorithms." Institution
//! B's policy prescribes different goals for weekday daytime (Rule 5:
//! response time) and nights/weekends (Rule 6: system load), so the final
//! production scheduler must *switch* between the two chosen algorithms
//! as the clock crosses the window boundaries.
//!
//! [`SwitchingScheduler`] holds one wait queue and two ordering policies;
//! at every decision point the policy owning the current instant orders
//! the queue. Already-running jobs are never disturbed (no time sharing),
//! so a switch only changes how the *backlog* is drained — which is
//! exactly what the policy rules govern.
//!
//! A regime whose order is not submission order (SMART, PSRS, a score
//! order) keeps the list scheduler's maintained order, fed by every
//! submission, start and cancellation whichever regime is active, so the
//! regime that takes over at a boundary finds its order current. A
//! dynamic regime's §5.4 trigger is evaluated, and a wait-dependent score
//! order re-ranked, at the decisions it owns.

use crate::backfill::BackfillMode;
use crate::order::OrderPolicy;
use crate::scheduler::{full_decision, MaintainedOrder, Waiting};
use jobsched_sim::{JobRequest, Machine, Profile, Scheduler};
use jobsched_workload::job::{DAY, HOUR, WEEK};
use jobsched_workload::{JobId, Time};

/// A daily switching rule: `day` applies 7am–8pm on weekdays, `night`
/// otherwise (Example 5, Rules 5–6). Day 0 of simulated time is taken as
/// a Monday, matching the workload generators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DayNightWindow {
    /// First hour (inclusive) of the daytime regime.
    pub start_hour: u8,
    /// Last hour (exclusive) of the daytime regime.
    pub end_hour: u8,
}

impl Default for DayNightWindow {
    fn default() -> Self {
        DayNightWindow {
            start_hour: 7,
            end_hour: 20,
        }
    }
}

impl DayNightWindow {
    /// Whether `t` falls into the daytime regime (weekday, in-window).
    pub fn is_daytime(&self, t: Time) -> bool {
        let weekday = (t % WEEK) / DAY < 5;
        let hour = ((t % DAY) / HOUR) as u8;
        weekday && (self.start_hour..self.end_hour).contains(&hour)
    }
}

/// One regime: an ordering policy, its backfill mode, and (every policy
/// but submission order) its maintained order.
#[derive(Debug)]
struct Regime {
    policy: OrderPolicy,
    backfill: BackfillMode,
    order: MaintainedOrder,
}

impl Regime {
    fn new(policy: OrderPolicy, backfill: BackfillMode) -> Self {
        Regime {
            policy,
            backfill,
            order: MaintainedOrder::default(),
        }
    }

    fn submit(&mut self, job: JobRequest) {
        if self.policy.is_maintained() {
            self.order.insert(&self.policy, job);
        }
    }

    /// Started or cancelled jobs leave the order.
    fn dequeue(&mut self, ids: &[JobId]) {
        if self.policy.is_maintained() {
            self.order.remove(ids);
        }
    }

    /// One full decision under this regime's policy. A dynamic order is
    /// first recomputed on the §5.4 trigger (unordered fraction above ⅓),
    /// a score order ranked for `now`.
    fn decide(
        &mut self,
        waiting: &Waiting,
        scratch: &mut Profile,
        machine: &Machine,
        now: Time,
    ) -> Vec<JobId> {
        if self.policy.is_dynamic() && self.order.unordered() as f64 > waiting.len() as f64 / 3.0 {
            self.order
                .recompute(&self.policy, waiting, machine.total_nodes());
        }
        if let OrderPolicy::Score(score) = self.policy {
            self.order.rank_at(score, now);
        }
        full_decision(
            &self.policy,
            self.backfill,
            &self.order,
            waiting,
            scratch,
            machine,
            now,
        )
        .0
    }
}

/// The combined production scheduler: Rule 5's algorithm by day, Rule 6's
/// by night/weekend, one shared wait queue.
#[derive(Debug)]
pub struct SwitchingScheduler {
    window: DayNightWindow,
    day: Regime,
    night: Regime,
    waiting: Waiting,
    /// Reusable step-function buffer for the backfilling scans.
    scratch: Profile,
    /// Operator override: `Some(true)` pins the day regime, `Some(false)`
    /// the night regime, `None` follows the clock. A serving daemon
    /// exposes this through its `policy` command.
    forced: Option<bool>,
}

impl SwitchingScheduler {
    /// Build from the two regime configurations.
    pub fn new(
        day: (OrderPolicy, BackfillMode),
        night: (OrderPolicy, BackfillMode),
        window: DayNightWindow,
    ) -> Self {
        SwitchingScheduler {
            window,
            day: Regime::new(day.0, day.1),
            night: Regime::new(night.0, night.1),
            waiting: Waiting::new(),
            scratch: Profile::empty(1, 0),
            forced: None,
        }
    }

    /// The paper's §7 outcome: SMART-FFIA with EASY backfilling for the
    /// daytime response-time goal, Garey & Graham for the off-peak load
    /// goal.
    pub fn paper_combination() -> Self {
        use crate::smart::SmartVariant;
        use crate::view::WeightScheme;
        SwitchingScheduler::new(
            (
                OrderPolicy::smart(SmartVariant::Ffia, WeightScheme::Unweighted),
                BackfillMode::Easy,
            ),
            (OrderPolicy::GareyGraham, BackfillMode::None),
            DayNightWindow::default(),
        )
    }

    /// Whether the *day* regime governs instant `t`, honouring a forced
    /// override.
    fn daytime_at(&self, t: Time) -> bool {
        self.forced.unwrap_or_else(|| self.window.is_daytime(t))
    }

    /// Which regime is active at `t` (`"day"` / `"night"`).
    pub fn active_regime_name(&self, t: Time) -> &'static str {
        if self.daytime_at(t) {
            "day"
        } else {
            "night"
        }
    }

    /// Pin the active regime (`Some(true)` = day, `Some(false)` = night)
    /// or return control to the clock (`None`). Takes effect at the next
    /// decision round; running jobs are never disturbed.
    pub fn force_regime(&mut self, forced: Option<bool>) {
        self.forced = forced;
    }

    /// The current override, if any.
    pub fn forced_regime(&self) -> Option<bool> {
        self.forced
    }
}

impl Scheduler for SwitchingScheduler {
    fn name(&self) -> String {
        format!(
            "switch[day: {}+{} | night: {}+{}]",
            self.day.policy.label(),
            self.day.backfill.label(),
            self.night.policy.label(),
            self.night.backfill.label()
        )
    }

    fn submit(&mut self, job: JobRequest, _now: Time) {
        self.waiting.insert(job);
        self.day.submit(job);
        self.night.submit(job);
    }

    fn cancel(&mut self, id: JobId, _now: Time) {
        if self.waiting.contains(id) {
            self.waiting.remove(id);
            self.day.dequeue(&[id]);
            self.night.dequeue(&[id]);
        }
    }

    fn select_starts(&mut self, now: Time, machine: &Machine) -> Vec<JobId> {
        if machine.free_nodes() == 0 || self.waiting.is_empty() {
            return Vec::new();
        }
        let daytime = self.daytime_at(now);
        let regime = if daytime {
            &mut self.day
        } else {
            &mut self.night
        };
        let picks = regime.decide(&self.waiting, &mut self.scratch, machine, now);
        for &id in &picks {
            self.waiting.remove(id);
        }
        self.day.dequeue(&picks);
        self.night.dequeue(&picks);
        picks
    }

    fn queue_len(&self) -> usize {
        self.waiting.len()
    }

    fn next_wakeup(&self, now: Time) -> Option<Time> {
        if self.waiting.is_empty() {
            return None;
        }
        // A forced regime never flips on its own: no boundary to wake at.
        if self.forced.is_some() {
            return None;
        }
        // Wake at the next regime boundary: the backlog is re-ordered by
        // the other regime's policy there (hour granularity suffices —
        // both boundaries lie on whole hours).
        let current = self.window.is_daytime(now);
        let mut t = (now / HOUR + 1) * HOUR;
        while self.window.is_daytime(t) == current {
            t += HOUR;
            debug_assert!(t < now + WEEK, "boundary search runaway");
        }
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::priority::ScoreFn;
    use crate::smart::SmartVariant;
    use crate::view::WeightScheme;
    use jobsched_sim::simulate;
    use jobsched_workload::ctc::prepared_ctc_workload;

    #[test]
    fn day_night_window_classification() {
        let w = DayNightWindow::default();
        assert!(w.is_daytime(12 * HOUR)); // Monday noon
        assert!(!w.is_daytime(2 * HOUR)); // Monday 2am
        assert!(!w.is_daytime(20 * HOUR)); // Monday 8pm sharp (exclusive)
        assert!(w.is_daytime(7 * HOUR)); // 7am sharp (inclusive)
        assert!(!w.is_daytime(5 * DAY + 12 * HOUR)); // Saturday noon
        assert!(!w.is_daytime(6 * DAY + 12 * HOUR)); // Sunday noon
        assert!(w.is_daytime(7 * DAY + 12 * HOUR)); // next Monday noon
    }

    #[test]
    fn day_night_window_second_level_edges() {
        let w = DayNightWindow::default();
        // The regime flips exactly on the whole-hour boundary, not a
        // second early or late.
        assert!(!w.is_daytime(7 * HOUR - 1)); // Monday 06:59:59
        assert!(w.is_daytime(7 * HOUR)); // Monday 07:00:00
        assert!(w.is_daytime(20 * HOUR - 1)); // Monday 19:59:59
        assert!(!w.is_daytime(20 * HOUR)); // Monday 20:00:00

        // Friday evening rolls straight into the weekend regime and stays
        // there until Monday 07:00.
        assert!(w.is_daytime(4 * DAY + 20 * HOUR - 1)); // Friday 19:59:59
        assert!(!w.is_daytime(4 * DAY + 20 * HOUR)); // Friday 20:00:00
        assert!(!w.is_daytime(7 * DAY + 7 * HOUR - 1)); // Monday 06:59:59 (week 2)
        assert!(w.is_daytime(7 * DAY + 7 * HOUR)); // Monday 07:00:00 (week 2)
    }

    #[test]
    fn custom_window_hours_are_respected() {
        // A midnight-anchored window: start is inclusive at t = 0.
        let w = DayNightWindow {
            start_hour: 0,
            end_hour: 6,
        };
        assert!(w.is_daytime(0));
        assert!(w.is_daytime(6 * HOUR - 1));
        assert!(!w.is_daytime(6 * HOUR));
        // An empty window is never daytime.
        let empty = DayNightWindow {
            start_hour: 12,
            end_hour: 12,
        };
        assert!(!empty.is_daytime(12 * HOUR));
    }

    #[test]
    fn next_wakeup_lands_exactly_on_regime_boundaries() {
        let mut s = SwitchingScheduler::paper_combination();
        assert_eq!(s.next_wakeup(12 * HOUR), None, "empty queue never wakes");
        s.submit(
            JobRequest {
                id: JobId(0),
                submit: 0,
                nodes: 1,
                class: jobsched_workload::ClassId(0),
                requested_time: 100,
                user: 0,
            },
            0,
        );
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
    }

    #[test]
    fn forced_regime_overrides_the_clock() {
        let mut s = SwitchingScheduler::paper_combination();
        assert_eq!(s.forced_regime(), None);
        s.force_regime(Some(false));
        assert_eq!(s.active_regime_name(12 * HOUR), "night"); // noon, forced night
        s.force_regime(Some(true));
        assert_eq!(s.active_regime_name(2 * HOUR), "day"); // 2am, forced day
        s.force_regime(None);
        assert_eq!(s.active_regime_name(2 * HOUR), "night"); // back to the clock
    }

    #[test]
    fn forced_regime_suppresses_boundary_wakeups() {
        let mut s = SwitchingScheduler::paper_combination();
        s.submit(
            JobRequest {
                id: JobId(0),
                submit: 0,
                nodes: 1,
                class: jobsched_workload::ClassId(0),
                requested_time: 100,
                user: 0,
            },
            0,
        );
        assert_eq!(s.next_wakeup(12 * HOUR), Some(20 * HOUR));
        s.force_regime(Some(true));
        assert_eq!(s.next_wakeup(12 * HOUR), None, "pinned regime never flips");
        s.force_regime(None);
        assert_eq!(s.next_wakeup(12 * HOUR), Some(20 * HOUR));
    }

    #[test]
    fn forcing_night_equals_the_night_scheduler() {
        // With the night regime pinned, the combined scheduler
        // degenerates to its off-peak algorithm. Garey & Graham is
        // stateless (greedy over submission order), so — unlike the
        // dynamic SMART day regime — exact placement identity holds.
        let w = prepared_ctc_workload(600, 1999);
        let mut forced = SwitchingScheduler::paper_combination();
        forced.force_regime(Some(false));
        let mut night_only =
            crate::ListScheduler::new(OrderPolicy::GareyGraham, BackfillMode::None);
        let a = simulate(&w, &mut forced);
        let b = simulate(&w, &mut night_only);
        for j in w.jobs() {
            assert_eq!(a.schedule.placement(j.id), b.schedule.placement(j.id));
        }
    }

    #[test]
    fn forced_score_regime_equals_its_list_scheduler() {
        // Nothing else builds a switching scheduler with a score regime:
        // pinned to its day regime, it must place every job as that
        // row's list scheduler does.
        let w = prepared_ctc_workload(800, 1999);
        for score in ScoreFn::ALL {
            for backfill in [
                BackfillMode::None,
                BackfillMode::Conservative,
                BackfillMode::Easy,
            ] {
                let policy = OrderPolicy::Score(score);
                let mut forced = SwitchingScheduler::new(
                    (policy, backfill),
                    (OrderPolicy::GareyGraham, BackfillMode::None),
                    DayNightWindow::default(),
                );
                forced.force_regime(Some(true));
                let a = simulate(&w, &mut forced);
                let b = simulate(&w, &mut crate::ListScheduler::new(policy, backfill));
                for j in w.jobs() {
                    assert_eq!(
                        a.schedule.placement(j.id),
                        b.schedule.placement(j.id),
                        "{}+{} job {}",
                        score.label(),
                        backfill.label(),
                        j.id
                    );
                }
            }
        }
    }

    #[test]
    fn produces_valid_complete_schedules() {
        let w = prepared_ctc_workload(1_200, 1999);
        let mut s = SwitchingScheduler::paper_combination();
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
            let mut s = SwitchingScheduler::paper_combination();
            s.force_regime(Some(regime));
            let out = simulate(&w, &mut s);
            assert!(out.schedule.validate(&w).is_empty());
            assert_eq!(out.schedule.placement(JobId(1)).unwrap().start, 100);
        }
    }

    #[test]
    fn name_mentions_both_regimes() {
        let s = SwitchingScheduler::paper_combination();
        assert!(s.name().contains("SMART-FFIA"));
        assert!(s.name().contains("Garey&Graham"));
    }

    #[test]
    fn active_regime_tracks_clock() {
        let s = SwitchingScheduler::paper_combination();
        assert_eq!(s.active_regime_name(12 * HOUR), "day");
        assert_eq!(s.active_regime_name(23 * HOUR), "night");
    }

    #[test]
    fn degenerate_combination_equals_single_fcfs() {
        // FCFS in both regimes is stateless (submission order), so the
        // combined scheduler must reproduce the single FCFS schedule
        // exactly. (Dynamic policies keep per-regime recomputation state,
        // so only stateless policies admit this exact check.)
        let w = prepared_ctc_workload(600, 7);
        let mut combined = SwitchingScheduler::new(
            (OrderPolicy::Fcfs, BackfillMode::Easy),
            (OrderPolicy::Fcfs, BackfillMode::Easy),
            DayNightWindow::default(),
        );
        let mut single = crate::ListScheduler::new(OrderPolicy::Fcfs, BackfillMode::Easy);
        let a = simulate(&w, &mut combined);
        let b = simulate(&w, &mut single);
        for j in w.jobs() {
            assert_eq!(a.schedule.placement(j.id), b.schedule.placement(j.id));
        }
    }

    #[test]
    fn switching_changes_the_schedule() {
        let w = prepared_ctc_workload(1_200, 1999);
        let mut combined = SwitchingScheduler::paper_combination();
        let mut day_only = crate::ListScheduler::new(
            OrderPolicy::smart(SmartVariant::Ffia, WeightScheme::Unweighted),
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
