//! Gang scheduling: the time-sharing substrate of the paper's reference
//! \[15\] (Schwiegelshohn & Yahyapour, *Improving first-come-first-serve
//! job scheduling by gang scheduling*, JSSPP'98).
//!
//! Example 5's machine "does not allow time sharing", which is why the
//! main evaluation is purely space-shared — but §2 lists gang scheduling
//! among the validity constraints a target machine may or may not impose,
//! and \[15\] shows FCFS improves markedly when the machine *does* support
//! it. This module provides that substrate as an extension experiment:
//!
//! * the machine's nodes are time-multiplexed between **contexts** (gangs)
//!   in round-robin time slices;
//! * all jobs of a context run concurrently while their context is
//!   active (gang property: an application's processes are coscheduled);
//! * a job accumulates progress only during its context's slices and
//!   completes when the accumulated time reaches its effective runtime;
//! * arriving jobs join the first context with room (first fit) or open
//!   a new context — FCFS in spirit: nobody is reordered, capacity is
//!   found wherever it exists.
//!
//! Context switches are free (the classic idealisation).
//!
//! The policy is a [`TimeSharedScheduler`] ([`GangFcfsTs`]); the event
//! loop every scheduler shares owns every clock, span and work account.
//! Run it with [`crate::simulate_time_shared`].

use crate::tshare::{Action, TimeSharedScheduler, TsJobView};
use crate::Machine;
use jobsched_workload::{JobId, Time};

/// Gang scheduler configuration.
#[derive(Clone, Copy, Debug)]
pub struct GangConfig {
    /// Length of one time slice in seconds.
    pub time_slice: Time,
    /// Multiprogramming level: maximum number of simultaneous contexts.
    /// Each context dilutes every job's share of the machine, so real
    /// gang schedulers keep this small; jobs beyond it wait FCFS.
    pub max_contexts: usize,
}

impl Default for GangConfig {
    fn default() -> Self {
        GangConfig {
            time_slice: 600,
            max_contexts: 3,
        }
    }
}

/// FCFS gang scheduling as a time-shared scheduler: context membership,
/// first-fit admission, round-robin rotation, and the slice-remainder
/// inheritance when the active context empties.
///
/// `crates/sim/tests/gang_differential.rs` pins its decisions to a
/// monolithic reference loop (per-job completion, makespan, peak
/// contexts); comments below that mention "the monolithic loop" refer
/// to that reference. The run additionally yields a full
/// [`crate::ScheduleRecord`] whose segment union is auditable with the
/// oracle's `check_segments`.
#[derive(Debug)]
pub struct GangFcfsTs {
    slice: Time,
    max_contexts: usize,
    /// Context membership: `(job, width)` rosters plus used capacity.
    contexts: Vec<(Vec<(JobId, u32)>, u32)>,
    active: usize,
    /// FCFS backlog no context can hold yet.
    pending: std::collections::VecDeque<(JobId, u32)>,
    running: std::collections::BTreeSet<JobId>,
    started: std::collections::BTreeSet<JobId>,
    slice_end: Time,
    /// Instant the system went fully idle (no contexts, no backlog); a
    /// submission at the *same* instant inherits the old slice phase —
    /// the monolithic loop only resets the slice clock across a
    /// strictly positive idle gap. `None` while jobs are anywhere in
    /// the system (a drain that leaves a blocked backlog never idles).
    idle_since: Option<Time>,
    ever_busy: bool,
    /// Largest simultaneous context count.
    pub peak_contexts: usize,
}

impl GangFcfsTs {
    /// Gang FCFS under `config`.
    pub fn new(config: GangConfig) -> Self {
        GangFcfsTs {
            slice: config.time_slice.max(1),
            max_contexts: config.max_contexts.max(1),
            contexts: Vec::new(),
            active: 0,
            pending: std::collections::VecDeque::new(),
            running: std::collections::BTreeSet::new(),
            started: std::collections::BTreeSet::new(),
            slice_end: 0,
            idle_since: None,
            ever_busy: false,
            peak_contexts: 0,
        }
    }

    fn jobs_in_contexts(&self) -> usize {
        self.contexts.iter().map(|(jobs, _)| jobs.len()).sum()
    }
}

impl TimeSharedScheduler for GangFcfsTs {
    fn name(&self) -> String {
        format!("Gang-FCFS-TS(slice={})", self.slice)
    }

    fn submit(&mut self, job: &TsJobView, _now: Time) {
        self.pending.push_back((job.id, job.choices[0].0));
    }

    fn job_finished(&mut self, id: JobId, now: Time) {
        // A finishing job is necessarily running, hence in the active
        // context. Dropping an emptied context shifts its successor
        // into place — which therefore inherits the slice remainder,
        // exactly like the monolithic `retain` + pointer fix-up.
        self.running.remove(&id);
        let (jobs, used) = &mut self.contexts[self.active];
        if let Some(pos) = jobs.iter().position(|&(j, _)| j == id) {
            let (_, width) = jobs.remove(pos);
            *used -= width;
        }
        if self.contexts[self.active].0.is_empty() {
            self.contexts.remove(self.active);
            if self.active >= self.contexts.len() {
                self.active = 0;
            }
        }
        if self.contexts.is_empty() && self.pending.is_empty() {
            self.idle_since = Some(now);
        }
    }

    fn decide(&mut self, now: Time, machine: &Machine) -> Vec<Action> {
        // Slice clock. Restarting from a strictly positive idle gap (or
        // cold) re-phases the clock at `now`; a single surviving context
        // fast-forwards through the no-op boundary rotations the
        // monolithic loop performs; with two or more contexts each
        // boundary arrives as an exact wakeup and rotates once, *before*
        // admission — a context opened at the boundary instant is not
        // part of the modulus.
        if self.contexts.is_empty() {
            if !self.pending.is_empty() {
                let reset = match (self.ever_busy, self.idle_since) {
                    (false, _) => true,         // cold start
                    (true, Some(e)) => now > e, // strictly positive gap
                    (true, None) => false,      // drained with a backlog
                };
                if reset {
                    self.slice_end = now + self.slice;
                }
                self.idle_since = None;
            }
        } else if self.contexts.len() == 1 {
            while self.slice_end <= now {
                self.slice_end += self.slice;
            }
        } else if now >= self.slice_end {
            self.active = (self.active + 1) % self.contexts.len();
            self.slice_end = now + self.slice;
        }

        // FCFS admission: the head joins the first context with room,
        // or opens one while the multiprogramming level allows.
        let capacity = machine.total_nodes();
        while let Some(&(id, width)) = self.pending.front() {
            if let Some((jobs, used)) = self
                .contexts
                .iter_mut()
                .find(|(_, used)| *used + width <= capacity)
            {
                jobs.push((id, width));
                *used += width;
            } else if self.contexts.len() < self.max_contexts {
                self.contexts.push((vec![(id, width)], width));
            } else {
                break;
            }
            self.pending.pop_front();
        }
        self.peak_contexts = self.peak_contexts.max(self.contexts.len());
        if self.contexts.is_empty() {
            return Vec::new();
        }
        self.ever_busy = true;
        self.active = self.active.min(self.contexts.len() - 1);
        // Restart-at-boundary corner: the system drained exactly at the
        // old slice boundary and refilled in the same instant. The
        // monolithic loop then runs a zero-length activation of context
        // 0 and rotates immediately — the rotation's modulus *includes*
        // the contexts just opened. Rotate here, before anything starts,
        // so the event loop never sees the unrepresentable zero-length span
        // (completions agree; only the phantom "first start" differs).
        if self.contexts.len() >= 2 && now >= self.slice_end {
            self.active = (self.active + 1) % self.contexts.len();
            self.slice_end = now + self.slice;
        }

        // Reconcile the machine with the active context: suspend
        // everything that rotated out, then (the frees land first)
        // start or resume the gang that rotated in.
        let target: std::collections::BTreeSet<JobId> = self.contexts[self.active]
            .0
            .iter()
            .map(|&(j, _)| j)
            .collect();
        let mut out = Vec::new();
        for &id in self.running.difference(&target) {
            out.push(Action::Preempt { id });
        }
        for &id in target.difference(&self.running) {
            out.push(if self.started.insert(id) {
                Action::Start { id, choice: 0 }
            } else {
                Action::Resume { id }
            });
        }
        self.running = target;
        out
    }

    fn queue_len(&self) -> usize {
        self.pending.len() + self.jobs_in_contexts() - self.running.len()
    }

    fn next_wakeup(&self, now: Time) -> Option<Time> {
        // Rotation only changes anything with at least two contexts; a
        // lone context keeps the machine without boundary wakeups.
        (self.contexts.len() >= 2 && self.slice_end > now).then_some(self.slice_end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate_time_shared, ScheduleRecord};
    use jobsched_workload::{JobBuilder, Workload};

    fn job(submit: Time, nodes: u32, runtime: Time) -> jobsched_workload::Job {
        JobBuilder::new(JobId(0))
            .submit(submit)
            .nodes(nodes)
            .requested(runtime)
            .runtime(runtime)
            .build()
    }

    /// Run the default configuration; returns the schedule and the peak
    /// context count.
    fn run(w: &Workload) -> (ScheduleRecord, usize) {
        let mut gang = GangFcfsTs::new(GangConfig::default());
        let out = simulate_time_shared(w, &mut gang);
        (out.schedule, gang.peak_contexts)
    }

    fn first_start(s: &ScheduleRecord, id: u32) -> Time {
        s.placement(JobId(id)).unwrap().start
    }

    fn completion(s: &ScheduleRecord, id: u32) -> Time {
        s.placement(JobId(id)).unwrap().completion
    }

    #[test]
    fn single_job_runs_contiguously() {
        let w = Workload::new("g", 10, vec![job(5, 4, 100)]);
        let (s, peak) = run(&w);
        assert_eq!(first_start(&s, 0), 5);
        assert_eq!(completion(&s, 0), 105);
        assert_eq!(peak, 1);
    }

    #[test]
    fn concurrent_jobs_share_one_context() {
        let w = Workload::new("g", 10, vec![job(0, 4, 100), job(0, 4, 100)]);
        let (s, peak) = run(&w);
        assert_eq!((completion(&s, 0), completion(&s, 1)), (100, 100));
        assert_eq!(peak, 1);
        // No context switch: neither job was ever suspended.
        assert!(s.segments(JobId(0)).is_none() && s.segments(JobId(1)).is_none());
    }

    #[test]
    fn overflow_opens_second_context_and_time_shares() {
        // Two full-machine jobs of 600 s each with a 600 s slice: the
        // second gang's first slice starts when the first one's ends.
        let w = Workload::new("g", 10, vec![job(0, 10, 600), job(0, 10, 600)]);
        let (s, _) = run(&w);
        assert_eq!(first_start(&s, 0), 0);
        assert_eq!(first_start(&s, 1), 600, "second gang's first slice");
        assert_eq!(completion(&s, 0), 600);
        assert_eq!(completion(&s, 1), 1200);
    }

    #[test]
    fn short_job_not_stuck_behind_long_one() {
        // The [15] effect: a short full-machine job time-shares with a
        // long one instead of waiting for it to finish.
        let w = Workload::new("g", 10, vec![job(0, 10, 100_000), job(1, 10, 600)]);
        let (s, _) = run(&w);
        // Space-shared FCFS would complete it at 100_600; gang completes
        // it within a few slices.
        assert!(
            completion(&s, 1) < 3_000,
            "gang completion {}",
            completion(&s, 1)
        );
        // The long job still finishes (progress conserved).
        assert!(completion(&s, 0) >= 100_000);
    }

    #[test]
    fn all_jobs_complete() {
        let jobs: Vec<_> = (0..200)
            .map(|i| {
                job(
                    (i * 97) % 5_000,
                    1 + (i as u32 * 13) % 10,
                    50 + (i * 31) % 2_000,
                )
            })
            .collect();
        let w = Workload::new("g", 10, jobs);
        let (s, _) = run(&w);
        for j in w.jobs() {
            let p = s.placement(j.id).expect("every job completes");
            assert!(p.start >= j.submit);
            assert!(p.completion >= p.start + j.effective_runtime());
            assert_eq!(s.charged_time(j.id), Some(j.effective_runtime()));
        }
    }

    #[test]
    fn empty_workload() {
        let w = Workload::new("g", 10, vec![]);
        let (s, peak) = run(&w);
        assert_eq!(s.makespan(), 0);
        assert_eq!(peak, 0);
    }

    #[test]
    fn gang_improves_art_on_mixed_workload() {
        // The headline claim of [15]: FCFS + gang beats plain FCFS on
        // average response time for workloads mixing long and short jobs.
        // One full-machine hog plus periodic short full-machine jobs: the
        // scenario where time sharing shines. Space-shared FCFS makes
        // every short job wait for the hog; gang scheduling services them
        // within a couple of slices.
        let mut jobs = vec![job(0, 10, 50_000)];
        for i in 0..30u64 {
            jobs.push(job(1_000 + i * 1_000, 10, 60));
        }
        let w = Workload::new("g", 10, jobs);
        let (gang, _) = run(&w);

        // Plain space-shared FCFS reference (head-blocking greedy).
        let mut free = 10u32;
        let mut running: Vec<(Time, u32)> = Vec::new(); // (end, nodes)
        let mut fcfs_completion = vec![0u64; w.len()];
        let mut queue: std::collections::VecDeque<&jobsched_workload::Job> =
            w.jobs().iter().collect();
        let mut t = 0;
        while !queue.is_empty() || !running.is_empty() {
            while let Some(head) = queue.front() {
                if head.submit <= t && head.nodes <= free {
                    let j = queue.pop_front().unwrap();
                    free -= j.nodes;
                    let end = t + j.effective_runtime();
                    fcfs_completion[j.id.index()] = end;
                    running.push((end, j.nodes));
                } else {
                    break;
                }
            }
            let next_end = running.iter().map(|r| r.0).min();
            let next_sub = queue.front().map(|j| j.submit.max(t));
            t = match (next_end, next_sub) {
                (Some(e), Some(s)) => e.min(s.max(t + 1)),
                (Some(e), None) => e,
                (None, Some(s)) => s.max(t + 1),
                (None, None) => break,
            };
            running.retain(|&(end, nodes)| {
                if end <= t {
                    free += nodes;
                    false
                } else {
                    true
                }
            });
        }
        let gang_completion: Vec<Time> =
            (0..w.len() as u32).map(|i| completion(&gang, i)).collect();
        let art = |completion: &[Time]| {
            w.jobs()
                .iter()
                .map(|j| (completion[j.id.index()] - j.submit) as f64)
                .sum::<f64>()
                / w.len() as f64
        };
        let fcfs_art = art(&fcfs_completion);
        let gang_art = art(&gang_completion);
        assert!(
            gang_art < fcfs_art,
            "gang ART {gang_art} should beat FCFS ART {fcfs_art}"
        );
    }
}
