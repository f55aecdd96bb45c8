//! The batch reference loop's allocation tape.
//!
//! A [`ScheduleRecord`] only takes finished allocations, so
//! [`crate::batch`] writes each job's allocation to this tape as it
//! happens — placed at its start, its open span closed by a preemption,
//! a new span opened by the restart, truncated by a cancellation — and
//! commits the tape once the run is over: a job that ran once through
//! [`ScheduleRecord::place`], a preempted one as its segment union
//! through [`ScheduleRecord::place_segments_at`].

use jobsched_sim::{JobPlacement, ScheduleRecord, Segment};
use jobsched_workload::{JobId, Time};

/// One job's allocation so far.
#[derive(Clone, Debug)]
enum Alloc {
    /// One contiguous run at the job's submitted width.
    Rigid(JobPlacement),
    /// A preempted job's spans, and the instant it leaves the system
    /// (after the last span's end when cancelled while preempted).
    Shared(Vec<Segment>, Time),
}

/// The schedule under construction, indexed by job id.
#[derive(Clone, Debug)]
pub(crate) struct ScheduleTape {
    machine_nodes: u32,
    allocs: Vec<Option<Alloc>>,
}

impl ScheduleTape {
    /// Empty tape for `jobs` jobs on a machine of `machine_nodes`.
    pub(crate) fn new(machine_nodes: u32, jobs: usize) -> Self {
        ScheduleTape {
            machine_nodes,
            allocs: vec![None; jobs],
        }
    }

    /// Whether the job ever started.
    pub(crate) fn is_placed(&self, id: JobId) -> bool {
        self.allocs[id.index()].is_some()
    }

    /// Record a job's first start, running over `[start, completion)`.
    pub(crate) fn place(&mut self, id: JobId, start: Time, completion: Time) {
        let slot = &mut self.allocs[id.index()];
        assert!(slot.is_none(), "job {id} placed twice");
        assert!(completion >= start, "negative duration for job {id}");
        *slot = Some(Alloc::Rigid(JobPlacement { start, completion }));
    }

    /// Close a running job's open span, `nodes` wide, at `t`.
    pub(crate) fn preempt_at(&mut self, id: JobId, t: Time, nodes: u32) {
        let slot = self.started(id, "preempting");
        match slot {
            Alloc::Rigid(p) => {
                let p = *p;
                assert!(
                    t > p.start && t <= p.completion,
                    "preempt of job {id} at {t} outside its execution [{}, {}]",
                    p.start,
                    p.completion
                );
                *slot = Alloc::Shared(vec![Segment::new(p.start, t, nodes)], t);
            }
            Alloc::Shared(segments, completion) => {
                let last = segments.last_mut().expect("shared alloc has segments");
                assert!(
                    t > last.start && t <= last.end,
                    "preempt of job {id} at {t} outside its open span [{}, {})",
                    last.start,
                    last.end
                );
                last.end = t;
                *completion = t;
            }
        }
    }

    /// Open a preempted job's next span, `[start, projected_completion)`
    /// at width `nodes`.
    pub(crate) fn resume_place(
        &mut self,
        id: JobId,
        start: Time,
        projected_completion: Time,
        nodes: u32,
    ) {
        let Alloc::Shared(segments, completion) = self.started(id, "resuming") else {
            panic!("resuming job {id} that was never preempted");
        };
        let last_end = segments.last().expect("shared alloc has segments").end;
        assert!(start >= last_end, "resume of job {id} overlaps its past");
        assert!(
            projected_completion > start,
            "resume of job {id} projects a non-positive span"
        );
        segments.push(Segment::new(start, projected_completion, nodes));
        *completion = projected_completion;
    }

    /// Truncate a started job's allocation at `t`: it was cancelled while
    /// running or preempted, and leaves the system at `t`.
    pub(crate) fn cancel_at(&mut self, id: JobId, t: Time) {
        match self.started(id, "cancelling") {
            Alloc::Rigid(p) => {
                assert!(
                    t >= p.start && t <= p.completion,
                    "cancel of job {id} at {t} outside its execution [{}, {}]",
                    p.start,
                    p.completion
                );
                p.completion = t;
            }
            Alloc::Shared(segments, completion) => {
                // Cancelled mid-span or inside a preemption gap: drop the
                // spans that had not begun, clip the one containing `t`.
                let first = segments.first().expect("shared alloc has segments").start;
                assert!(
                    t >= first,
                    "cancel of job {id} at {t} precedes its first span at {first}"
                );
                segments.retain(|s| s.start < t);
                if let Some(last) = segments.last_mut() {
                    last.end = last.end.min(t);
                }
                *completion = t;
            }
        }
    }

    fn started(&mut self, id: JobId, doing: &str) -> &mut Alloc {
        self.allocs[id.index()]
            .as_mut()
            .unwrap_or_else(|| panic!("{doing} job {id} that never started"))
    }

    /// Commit every allocation into a finished [`ScheduleRecord`].
    pub(crate) fn into_record(self) -> ScheduleRecord {
        let mut record = ScheduleRecord::new(self.machine_nodes, self.allocs.len());
        for (i, alloc) in self.allocs.into_iter().enumerate() {
            let id = JobId(i as u32);
            match alloc {
                Some(Alloc::Rigid(p)) => record.place(id, p.start, p.completion),
                Some(Alloc::Shared(segments, completion)) => {
                    record.place_segments_at(id, segments, completion)
                }
                None => {}
            }
        }
        record
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jobsched_workload::{JobBuilder, Workload};

    #[test]
    fn cancel_at_truncates_completion() {
        let mut r = ScheduleTape::new(10, 1);
        r.place(JobId(0), 10, 110);
        r.cancel_at(JobId(0), 40);
        assert_eq!(
            r.into_record().placement(JobId(0)),
            Some(JobPlacement {
                start: 10,
                completion: 40
            })
        );
    }

    #[test]
    #[should_panic(expected = "never started")]
    fn cancel_of_unplaced_job_panics() {
        let mut r = ScheduleTape::new(10, 1);
        r.cancel_at(JobId(0), 40);
    }

    #[test]
    fn preempt_resume_lifecycle_builds_segment_union() {
        // Job 0: starts at 0 projecting 100 s, preempted at 30, resumes
        // at 60 for the remaining 70 s.
        let w = Workload::new(
            "t",
            10,
            vec![JobBuilder::new(JobId(0))
                .submit(0)
                .nodes(6)
                .requested(100)
                .runtime(100)
                .build()],
        );
        let mut r = ScheduleTape::new(10, 1);
        r.place(JobId(0), 0, 100);
        r.preempt_at(JobId(0), 30, 6);
        assert_eq!(
            r.clone().into_record().placement(JobId(0)),
            Some(JobPlacement {
                start: 0,
                completion: 30
            })
        );
        r.resume_place(JobId(0), 60, 130, 6);
        let r = r.into_record();
        let p = r.placement(JobId(0)).unwrap();
        assert_eq!((p.start, p.completion), (0, 130));
        assert_eq!(r.charged_time(JobId(0)), Some(100));
        assert_eq!(
            r.segments(JobId(0)).unwrap(),
            &[Segment::new(0, 30, 6), Segment::new(60, 130, 6)]
        );
        // The audit charges from the segment union: 100 s of execution
        // spread over a 130 s envelope is still a valid schedule.
        assert!(r.validate(&w).is_empty());
        assert_eq!(r.makespan(), 130);
        // busy_area excludes the 30 s gap: 100 s × 6 nodes.
        assert!((r.busy_area(&w) - 600.0).abs() < 1e-12);
        assert!((r.utilization(&w) - 600.0 / (130.0 * 10.0)).abs() < 1e-12);
    }

    #[test]
    fn preempted_job_frees_capacity_inside_gap() {
        // Job 0 (6 nodes) is preempted over [30, 60); job 1 (6 nodes)
        // runs inside the gap on a 10-node machine. Envelope overlap,
        // segment-wise valid.
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
                    .requested(30)
                    .runtime(30)
                    .build(),
            ],
        );
        let mut r = ScheduleTape::new(10, 2);
        r.place(JobId(0), 0, 100);
        r.preempt_at(JobId(0), 30, 6);
        r.resume_place(JobId(0), 60, 130, 6);
        r.place(JobId(1), 30, 60);
        assert!(r.into_record().validate(&w).is_empty());
    }

    #[test]
    fn cancel_while_preempted_completes_at_cancel_instant() {
        let mut r = ScheduleTape::new(10, 1);
        r.place(JobId(0), 0, 100);
        r.preempt_at(JobId(0), 30, 6);
        r.resume_place(JobId(0), 60, 130, 6);
        r.preempt_at(JobId(0), 80, 6);
        // Cancelled at t=90, inside the second preemption gap: the spans
        // already run stay charged, completion is the cancel instant.
        r.cancel_at(JobId(0), 90);
        let r = r.into_record();
        let p = r.placement(JobId(0)).unwrap();
        assert_eq!((p.start, p.completion), (0, 90));
        assert_eq!(r.charged_time(JobId(0)), Some(30 + 20));
        assert_eq!(
            r.segments(JobId(0)).unwrap(),
            &[Segment::new(0, 30, 6), Segment::new(60, 80, 6)]
        );
    }

    #[test]
    fn cancel_mid_resumed_span_clips_it() {
        let mut r = ScheduleTape::new(10, 1);
        r.place(JobId(0), 0, 100);
        r.preempt_at(JobId(0), 30, 6);
        r.resume_place(JobId(0), 60, 130, 6);
        r.cancel_at(JobId(0), 70);
        let r = r.into_record();
        assert_eq!(r.charged_time(JobId(0)), Some(40));
        assert_eq!(
            r.segments(JobId(0)).unwrap(),
            &[Segment::new(0, 30, 6), Segment::new(60, 70, 6)]
        );
    }

    #[test]
    #[should_panic(expected = "never preempted")]
    fn resume_of_rigid_job_panics() {
        let mut r = ScheduleTape::new(10, 1);
        r.place(JobId(0), 0, 100);
        r.resume_place(JobId(0), 100, 200, 6);
    }
}
