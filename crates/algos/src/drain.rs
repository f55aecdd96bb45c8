//! Example 4: a recurring exclusive reservation on a machine without
//! time sharing.
//!
//! "Assume a machine that does not support time sharing. The scheduling
//! policy includes the rule: *Every weekday at 10am the entire machine
//! must be available to a theoretical chemistry class for 1 hour.* …
//! as users are not able to provide accurate execution time estimates for
//! their jobs no scheduling algorithm can generate good schedules."
//!
//! [`DrainingFcfs`] implements the only valid strategy on such a machine:
//! never start a job whose *estimated* completion crosses the next window
//! (so the machine is provably empty when the class begins), and backfill
//! shorter jobs into the draining tail. The §2.4 dependence the example
//! illustrates — policy rules whose cost explodes with estimate
//! inaccuracy — is measured by `core::extensions::drain_window_cost`.
//!
//! The window is a [`DailyWindow`], the one window type Examples 1 and
//! 5 use as well ([`EXAMPLE4_WINDOW`]). Jobs whose estimate exceeds the
//! longest window-free gap (Friday 11:00 → Monday 10:00) can never
//! comply; the two policy rules conflict, and per §2.1 ("a good policy
//! contains rules to resolve conflicts") we resolve explicitly in favour
//! of progress: such jobs are exempt from the drain rule and may overlap
//! the class window.

use crate::scheduler::Waiting;
use crate::switching::DailyWindow;
use jobsched_sim::{JobRequest, Machine, Scheduler};
use jobsched_workload::job::WEEK;
use jobsched_workload::{ClassId, JobId, Time};

/// Example 4's window: weekdays, 10:00–11:00.
pub const EXAMPLE4_WINDOW: DailyWindow = DailyWindow {
    start_hour: 10,
    end_hour: 11,
    weekdays_only: true,
};

/// The longest window-free stretch of `window`'s week: the gap from one
/// window's end to the next window's start (for Example 4's window,
/// Friday 11:00 → Monday 10:00, 71 hours). 0 for a window that never
/// opens or never closes.
fn longest_gap(window: &DailyWindow) -> Time {
    let mut longest = 0;
    let mut closed_at = None;
    let mut t = 0;
    // Two weeks of boundaries see every gap of the weekly calendar whole.
    while let Some(b) = window.next_boundary(t).filter(|&b| b <= 2 * WEEK) {
        if window.contains(b) {
            if let Some(end) = closed_at {
                longest = longest.max(b - end);
            }
        } else {
            closed_at = Some(b);
        }
        t = b;
    }
    longest
}

/// FCFS that drains the machine ahead of every window occurrence: a job
/// starts only if its *estimate* completes before the next window, and
/// jobs behind a window-blocked head may backfill under the same rule
/// (they cannot delay the head — it is waiting for the window, not for
/// nodes).
#[derive(Debug)]
pub struct DrainingFcfs {
    window: DailyWindow,
    /// [`longest_gap`] of `window`: a longer estimate can never comply.
    max_gap: Time,
    waiting: Waiting,
}

impl DrainingFcfs {
    /// New scheduler with the given recurring window.
    pub fn new(window: DailyWindow) -> Self {
        DrainingFcfs {
            window,
            max_gap: longest_gap(&window),
            waiting: Waiting::new(),
        }
    }
}

impl Scheduler for DrainingFcfs {
    fn name(&self) -> String {
        format!("FCFS+drain[{}]", self.window)
    }

    fn submit(&mut self, job: JobRequest, _now: Time) {
        self.waiting.insert(job);
    }

    fn cancel(&mut self, id: JobId, _now: Time) {
        if self.waiting.contains(id) {
            self.waiting.remove(id);
        }
    }

    fn select_starts(&mut self, now: Time, machine: &Machine) -> Vec<JobId> {
        if machine.free_nodes() == 0 || self.waiting.is_empty() {
            return Vec::new();
        }
        if self.window.contains(now) {
            // The class owns the machine; nothing starts.
            return Vec::new();
        }
        // A window that never opens blocks nothing.
        let window_start = self.window.next_boundary(now).unwrap_or(Time::MAX);
        // One budget per node-class pool: a job can only take nodes of
        // the pool it resolved to.
        let mut free: Vec<u32> = (0..machine.class_count())
            .map(|c| machine.free_in(ClassId(c as u8)))
            .collect();
        let mut picks = Vec::new();
        let mut head_passed = false;
        for id in self.waiting.ids() {
            if free.iter().all(|&f| f == 0) {
                break;
            }
            let job = self.waiting.get(id);
            let pool = &mut free[job.class.index()];
            // A job whose estimate exceeds the widest window-free gap can
            // never comply: the policy rules conflict (§2.1 demands such
            // conflicts be resolved) and we resolve in favour of progress —
            // the job is exempt from the drain rule.
            let clears_window = now + job.requested_time.max(1) <= window_start
                || job.requested_time > self.max_gap;
            let fits = job.nodes <= *pool;
            if fits && clears_window {
                *pool -= job.nodes;
                picks.push(id);
            } else if !head_passed && fits && !clears_window {
                // Head is blocked purely by the window: later jobs may
                // backfill (they cannot postpone it — it starts after the
                // class regardless).
                head_passed = true;
            } else if !head_passed && !fits {
                // Head blocked by nodes: plain FCFS semantics, stop.
                break;
            }
        }
        for &id in &picks {
            self.waiting.remove(id);
        }
        picks
    }

    fn queue_len(&self) -> usize {
        self.waiting.len()
    }

    fn next_wakeup(&self, now: Time) -> Option<Time> {
        if self.waiting.is_empty() {
            return None;
        }
        // Jobs blocked by the drain rule become startable when the next
        // window closes: the next boundary inside a window, the one after
        // the next window opens outside it.
        let boundary = self.window.next_boundary(now)?;
        if self.window.contains(now) {
            Some(boundary)
        } else {
            self.window.next_boundary(boundary)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jobsched_sim::simulate;
    use jobsched_workload::job::{DAY, HOUR};
    use jobsched_workload::{JobBuilder, Workload};

    fn one_job() -> JobRequest {
        JobRequest {
            id: JobId(0),
            submit: 0,
            nodes: 1,
            class: ClassId(0),
            requested_time: 100,
            user: 0,
        }
    }

    #[test]
    fn window_calendar() {
        let w = EXAMPLE4_WINDOW;
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
        let w = EXAMPLE4_WINDOW;
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
    fn drain_admits_a_job_finishing_exactly_at_the_window_start() {
        // Estimated completion landing exactly on 10:00 clears the drain
        // (the window is half-open); one second longer must wait out the
        // class.
        let jobs = vec![
            JobBuilder::new(JobId(0))
                .submit(9 * HOUR)
                .nodes(8)
                .exact_runtime(HOUR)
                .build(),
            JobBuilder::new(JobId(0))
                .submit(9 * HOUR)
                .nodes(8)
                .exact_runtime(HOUR + 1)
                .build(),
        ];
        let w = Workload::new("drain", 64, jobs);
        let mut s = DrainingFcfs::new(EXAMPLE4_WINDOW);
        let out = simulate(&w, &mut s);
        assert_eq!(out.schedule.placement(JobId(0)).unwrap().start, 9 * HOUR);
        assert_eq!(out.schedule.placement(JobId(1)).unwrap().start, 11 * HOUR);
    }

    #[test]
    fn wakeup_at_boundary_instants_points_past_the_window() {
        let mut s = DrainingFcfs::new(EXAMPLE4_WINDOW);
        assert_eq!(s.next_wakeup(9 * HOUR), None, "empty queue never wakes");
        s.submit(one_job(), 0);
        // Before, at the opening instant, mid-window and at the closing
        // instant: the wakeup always lands on (or beyond) a window end.
        assert_eq!(s.next_wakeup(9 * HOUR), Some(11 * HOUR));
        assert_eq!(s.next_wakeup(10 * HOUR), Some(11 * HOUR));
        assert_eq!(s.next_wakeup(10 * HOUR + 1800), Some(11 * HOUR));
        // 11:00 sharp is outside the window again: next relevant close is
        // tomorrow's.
        assert_eq!(s.next_wakeup(11 * HOUR), Some(DAY + 11 * HOUR));
        // Friday after class: the weekend gap defers to Monday 11:00.
        assert_eq!(
            s.next_wakeup(4 * DAY + 11 * HOUR),
            Some(7 * DAY + 11 * HOUR)
        );
    }

    #[test]
    fn machine_is_empty_during_every_window() {
        // Jobs with exact 2 h estimates submitted all morning: whatever
        // the scheduler does, nothing may overlap 10:00–11:00.
        let jobs: Vec<_> = (0..40)
            .map(|i| {
                JobBuilder::new(JobId(0))
                    .submit(i * 600)
                    .nodes(16)
                    .exact_runtime(2 * HOUR)
                    .build()
            })
            .collect();
        let w = Workload::new("drain", 64, jobs);
        let mut s = DrainingFcfs::new(EXAMPLE4_WINDOW);
        let out = simulate(&w, &mut s);
        assert!(out.schedule.validate(&w).is_empty());
        let win = EXAMPLE4_WINDOW;
        for j in w.jobs() {
            let p = out.schedule.placement(j.id).unwrap();
            for t in [p.start, p.completion - 1] {
                assert!(!win.contains(t), "{:?} touches the window: {p:?}", j.id);
            }
            // Entire execution clear of windows: a job starting outside
            // one ends before the next one opens.
            let opens = win.next_boundary(p.start).unwrap();
            assert!(p.completion <= opens, "{:?} spans a window: {p:?}", j.id);
        }
    }

    #[test]
    fn short_jobs_backfill_into_the_draining_tail() {
        // At 9:00 a 2 h job blocks on the 10:00 window; a 30 min job
        // behind it must still start immediately.
        let jobs = vec![
            JobBuilder::new(JobId(0))
                .submit(9 * HOUR)
                .nodes(32)
                .exact_runtime(2 * HOUR)
                .build(),
            JobBuilder::new(JobId(0))
                .submit(9 * HOUR + 60)
                .nodes(32)
                .exact_runtime(1800)
                .build(),
        ];
        let w = Workload::new("drain", 64, jobs);
        let mut s = DrainingFcfs::new(EXAMPLE4_WINDOW);
        let out = simulate(&w, &mut s);
        assert_eq!(
            out.schedule.placement(JobId(1)).unwrap().start,
            9 * HOUR + 60
        );
        // The long head waits for the class to end.
        assert_eq!(out.schedule.placement(JobId(0)).unwrap().start, 11 * HOUR);
    }

    #[test]
    fn each_node_class_pool_has_its_own_budget() {
        use jobsched_workload::{MachineLayout, NodeClassSpec, NodeType};
        // 8 thin + 2 wide nodes. Job 0 fills the thin pool; job 1 (thin,
        // 2 nodes) must wait for it although 2 *wide* nodes sit free —
        // budgeting against the summed free count would start it into a
        // full pool.
        let pool = |node_type, memory_mb, count| NodeClassSpec {
            node_type,
            memory_mb,
            count,
        };
        let layout = MachineLayout::new(vec![
            pool(NodeType::Thin, 512, 8),
            pool(NodeType::Wide, 2048, 2),
        ]);
        let thin = |submit, nodes| {
            JobBuilder::new(JobId(0))
                .submit(submit)
                .nodes(nodes)
                .requested(100)
                .runtime(100)
                .node_type(NodeType::Thin)
                .memory_mb(256)
                .build()
        };
        let w = Workload::new("two-class", 10, vec![thin(0, 8), thin(1, 2)]).with_layout(layout);
        let out = simulate(&w, &mut DrainingFcfs::new(EXAMPLE4_WINDOW));
        assert!(out.schedule.validate(&w).is_empty());
        assert_eq!(out.schedule.placement(JobId(1)).unwrap().start, 100);
    }

    #[test]
    fn max_gap_is_the_weekend() {
        // Friday 11:00 → Monday 10:00 = 71 h.
        assert_eq!(longest_gap(&EXAMPLE4_WINDOW), 71 * HOUR);
    }

    #[test]
    fn a_window_that_never_opens_blocks_nothing() {
        let never = DailyWindow {
            start_hour: 10,
            end_hour: 10,
            weekdays_only: true,
        };
        assert_eq!(never.next_boundary(0), None);
        assert_eq!(longest_gap(&never), 0);
        // A 2 h job submitted at 9:00 starts at once, and a waiting job
        // arms no wakeup.
        let jobs = vec![JobBuilder::new(JobId(0))
            .submit(9 * HOUR)
            .nodes(64)
            .exact_runtime(2 * HOUR)
            .build()];
        let w = Workload::new("drain", 64, jobs);
        let out = simulate(&w, &mut DrainingFcfs::new(never));
        assert_eq!(out.schedule.placement(JobId(0)).unwrap().start, 9 * HOUR);
        let mut s = DrainingFcfs::new(never);
        s.submit(one_job(), 0);
        assert_eq!(s.next_wakeup(9 * HOUR), None);
    }

    #[test]
    fn uncompliable_jobs_are_exempt_and_simulation_terminates() {
        // A 100 h estimate can never clear the 71 h max gap: the job is
        // exempt from the drain rule and starts immediately.
        let jobs = vec![JobBuilder::new(JobId(0))
            .submit(9 * HOUR)
            .nodes(8)
            .requested(100 * HOUR)
            .runtime(30 * HOUR)
            .build()];
        let w = Workload::new("drain", 64, jobs);
        let mut s = DrainingFcfs::new(EXAMPLE4_WINDOW);
        let out = simulate(&w, &mut s);
        assert_eq!(out.schedule.placement(JobId(0)).unwrap().start, 9 * HOUR);
    }

    #[test]
    fn overestimates_widen_the_drain_shadow() {
        // The Example 4 phenomenon: a job that actually runs 30 min but is
        // estimated at 4 h cannot start at 9:30 even though it would have
        // finished in time.
        let jobs = vec![JobBuilder::new(JobId(0))
            .submit(9 * HOUR + 1800)
            .nodes(8)
            .requested(4 * HOUR)
            .runtime(1800)
            .build()];
        let w = Workload::new("drain", 64, jobs);
        let mut s = DrainingFcfs::new(EXAMPLE4_WINDOW);
        let out = simulate(&w, &mut s);
        assert_eq!(out.schedule.placement(JobId(0)).unwrap().start, 11 * HOUR);
    }
}
