//! Finished-schedule records and the §2 validity audit.
//!
//! "A schedule is an allocation of system resources to individual jobs for
//! certain time periods … the validity constraints of a schedule are
//! defined by the target machine." For Example 5's machine, validity means:
//! no more than 256 busy nodes at any instant, exclusive partitions, no job
//! starting before its submission, execution truncated at the user limit.
//! [`ScheduleRecord::validate`] re-checks all of that after the fact.

use crate::segment::Segment;
use jobsched_workload::{JobId, Time, Workload};

/// Placement of one job in a finished schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobPlacement {
    /// Start time.
    pub start: Time,
    /// Completion time (`start + effective runtime`).
    pub completion: Time,
}

impl JobPlacement {
    /// Response time given the job's submission instant.
    #[inline]
    pub fn response_time(&self, submit: Time) -> Time {
        self.completion - submit
    }

    /// Waiting time given the job's submission instant.
    #[inline]
    pub fn wait_time(&self, submit: Time) -> Time {
        self.start - submit
    }
}

/// Violations detected by the schedule audit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleViolation {
    /// A job never completed.
    Unfinished(JobId),
    /// A job started before it was submitted.
    StartsBeforeSubmit(JobId),
    /// A job's completion is inconsistent with its effective runtime.
    WrongRuntime(JobId),
    /// Busy nodes exceed the machine at some instant.
    Overcommit {
        /// The violating instant.
        time: Time,
        /// Busy nodes at that instant.
        busy: u64,
        /// Machine capacity.
        capacity: u32,
    },
}

impl std::fmt::Display for ScheduleViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleViolation::Unfinished(id) => write!(f, "job {id} never completed"),
            ScheduleViolation::StartsBeforeSubmit(id) => {
                write!(f, "job {id} starts before its submission")
            }
            ScheduleViolation::WrongRuntime(id) => {
                write!(f, "job {id} ran for a wrong duration")
            }
            ScheduleViolation::Overcommit {
                time,
                busy,
                capacity,
            } => {
                write!(
                    f,
                    "{busy} busy nodes exceed capacity {capacity} at t={time}"
                )
            }
        }
    }
}

/// One job's allocation in a finished schedule.
///
/// A rigid run-to-completion job is stored as the degenerate
/// [`Alloc::Rigid`] case — one `(start, completion)` fact, exactly the
/// pre-segment representation, so rigid schedules compare bit-identical
/// across the refactor. A job that was preempted, resumed or resized
/// carries its full segment union instead.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Alloc {
    /// One contiguous run at the job's submitted width.
    Rigid(JobPlacement),
    /// A union of allocation segments. `completion` is the instant the
    /// job left the system, which can lie *after* the last segment's end
    /// (a job cancelled while preempted completes at the cancel instant
    /// without ever running again).
    Shared {
        segments: Vec<Segment>,
        completion: Time,
    },
}

impl Alloc {
    fn view(&self) -> JobPlacement {
        match self {
            Alloc::Rigid(p) => *p,
            Alloc::Shared {
                segments,
                completion,
            } => JobPlacement {
                start: segments.first().map_or(*completion, |s| s.start),
                completion: *completion,
            },
        }
    }
}

/// A completed schedule: the allocation of every job, indexed by job id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleRecord {
    machine_nodes: u32,
    placements: Vec<Option<Alloc>>,
}

impl ScheduleRecord {
    /// Empty record for `jobs` jobs on a machine of `machine_nodes`.
    pub fn new(machine_nodes: u32, jobs: usize) -> Self {
        ScheduleRecord {
            machine_nodes,
            placements: vec![None; jobs],
        }
    }

    /// Assemble a record from already-collected placements (slot `k`
    /// belongs to `JobId(k)`), as the streaming pipeline's
    /// [`crate::pipeline::RecordingObserver`] does.
    pub fn from_placements(machine_nodes: u32, placements: Vec<Option<JobPlacement>>) -> Self {
        ScheduleRecord {
            machine_nodes,
            placements: placements
                .into_iter()
                .map(|p| p.map(Alloc::Rigid))
                .collect(),
        }
    }

    /// Machine size the schedule ran on.
    pub fn machine_nodes(&self) -> u32 {
        self.machine_nodes
    }

    /// Number of jobs the record covers.
    pub fn len(&self) -> usize {
        self.placements.len()
    }

    /// Whether the record covers no jobs.
    pub fn is_empty(&self) -> bool {
        self.placements.is_empty()
    }

    /// Record a rigid placement: one contiguous run at the job's own
    /// width. Panics if the job already has one — a rigid job runs
    /// exactly once; a preempted or reshaped job goes in as its segment
    /// union through [`Self::place_segments_at`] instead.
    pub fn place(&mut self, id: JobId, start: Time, completion: Time) {
        let slot = &mut self.placements[id.index()];
        assert!(slot.is_none(), "job {id} placed twice");
        assert!(completion >= start, "negative duration for job {id}");
        *slot = Some(Alloc::Rigid(JobPlacement { start, completion }));
    }

    /// Record a complete segment-union allocation in one shot, as the
    /// streaming recorder does when a job leaves the system. Segments
    /// must be sorted and disjoint; `completion` lies at or after the
    /// last segment's end — later for a job cancelled while preempted,
    /// which leaves the system *after* its last span closed. Panics if
    /// the job already has an allocation or `segments` is empty.
    pub fn place_segments_at(&mut self, id: JobId, segments: Vec<Segment>, completion: Time) {
        let last_end = segments.last().map_or(completion, |s| s.end);
        assert!(
            completion >= last_end,
            "job {id} completes before its last span ends"
        );
        let slot = &mut self.placements[id.index()];
        assert!(slot.is_none(), "job {id} placed twice");
        assert!(!segments.is_empty(), "job {id} placed with no segments");
        for w in segments.windows(2) {
            assert!(
                w[1].start >= w[0].end,
                "job {id} segments overlap or are unsorted"
            );
        }
        *slot = Some(Alloc::Shared {
            segments,
            completion,
        });
    }

    /// Placement of one job, if it completed: its first start and final
    /// completion. For a segmented job this is the *envelope* of its
    /// segment union (response time and sum-wC charge from it; the time
    /// inside preemption gaps counts as waiting, not running). Ids
    /// beyond the record (a zero-job record queried about a non-empty
    /// workload, a stream recorder that saw fewer jobs than expected)
    /// read as unplaced rather than panicking.
    pub fn placement(&self, id: JobId) -> Option<JobPlacement> {
        self.placements
            .get(id.index())
            .and_then(|a| a.as_ref())
            .map(Alloc::view)
    }

    /// The job's segment union, if it was ever preempted or resized.
    /// Rigid one-shot jobs return `None` — their single segment is
    /// implied by [`Self::placement`] and the workload's width; use
    /// [`Self::charged_spans`] for a uniform view.
    pub fn segments(&self, id: JobId) -> Option<&[Segment]> {
        match self.placements.get(id.index()).and_then(|a| a.as_ref()) {
            Some(Alloc::Shared { segments, .. }) => Some(segments),
            _ => None,
        }
    }

    /// Uniform segment view of one job's allocation: a rigid placement
    /// reads as a single segment at `default_nodes` (the workload width
    /// the record does not store), a segmented job as its stored spans.
    pub fn charged_spans(&self, id: JobId, default_nodes: u32) -> Option<Vec<Segment>> {
        match self.placements.get(id.index()).and_then(|a| a.as_ref())? {
            Alloc::Rigid(p) => Some(vec![Segment::new(p.start, p.completion, default_nodes)]),
            Alloc::Shared { segments, .. } => Some(segments.clone()),
        }
    }

    /// Seconds of actual execution charged to the job: the summed span
    /// durations, *excluding* preemption gaps. Equals
    /// `completion − start` only in the rigid one-segment case — the
    /// latent single-segment assumption this API replaces.
    pub fn charged_time(&self, id: JobId) -> Option<Time> {
        match self.placements.get(id.index()).and_then(|a| a.as_ref())? {
            Alloc::Rigid(p) => Some(p.completion - p.start),
            Alloc::Shared { segments, .. } => Some(segments.iter().map(Segment::duration).sum()),
        }
    }

    /// Iterate over `(JobId, JobPlacement)` for all completed jobs.
    pub fn iter(&self) -> impl Iterator<Item = (JobId, JobPlacement)> + '_ {
        self.placements
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.as_ref().map(|a| (JobId(i as u32), a.view())))
    }

    /// Latest completion time (0 for an empty schedule).
    pub fn makespan(&self) -> Time {
        self.iter().map(|(_, p)| p.completion).max().unwrap_or(0)
    }

    /// Fraction of completed jobs.
    pub fn completion_ratio(&self) -> f64 {
        if self.placements.is_empty() {
            return 1.0;
        }
        self.iter().count() as f64 / self.placements.len() as f64
    }

    /// Full §2 validity audit against the workload that produced this
    /// schedule. Returns every violation found.
    pub fn validate(&self, workload: &Workload) -> Vec<ScheduleViolation> {
        let mut violations = Vec::new();
        assert_eq!(
            self.placements.len(),
            workload.len(),
            "schedule and workload sizes differ"
        );
        // Per-job checks. Runtime is charged from the segment union: the
        // summed span durations must equal the effective runtime of the
        // execution alternative the job actually started under — a
        // moldable job charges its *chosen* shape, identified by the
        // width of its first span (selection happens once, at start
        // time). A rigid job is the degenerate one-alternative case.
        for job in workload.jobs() {
            match self.placement(job.id) {
                None => violations.push(ScheduleViolation::Unfinished(job.id)),
                Some(p) => {
                    if p.start < job.submit {
                        violations.push(ScheduleViolation::StartsBeforeSubmit(job.id));
                    }
                    let charged = self.charged_time(job.id);
                    let width = self
                        .segments(job.id)
                        .and_then(|s| s.first().map(|s| s.nodes))
                        .unwrap_or(job.nodes);
                    let chosen = workload
                        .choices(job.id)
                        .iter()
                        .any(|c| c.nodes == width && charged == Some(c.effective_runtime()));
                    if !chosen {
                        violations.push(ScheduleViolation::WrongRuntime(job.id));
                    }
                }
            }
        }
        // Capacity sweep over every segment: +nodes at span start,
        // −nodes at span end (a preempted job frees its nodes inside
        // the gap).
        let mut deltas: Vec<(Time, i64)> = Vec::with_capacity(2 * workload.len());
        for job in workload.jobs() {
            for seg in self.charged_spans(job.id, job.nodes).unwrap_or_default() {
                deltas.push((seg.start, seg.nodes as i64));
                deltas.push((seg.end, -(seg.nodes as i64)));
            }
        }
        deltas.sort_unstable();
        let mut busy: i64 = 0;
        for (time, d) in deltas {
            busy += d;
            if busy > self.machine_nodes as i64 {
                violations.push(ScheduleViolation::Overcommit {
                    time,
                    busy: busy as u64,
                    capacity: self.machine_nodes,
                });
                break; // one capacity violation is enough evidence
            }
        }
        violations
    }

    /// Total busy node-seconds over the schedule, summed per segment so
    /// preemption gaps charge nothing and resized spans charge their own
    /// width. 0 for a zero-job workload (an empty sum, not an error).
    pub fn busy_area(&self, workload: &Workload) -> f64 {
        workload
            .jobs()
            .iter()
            .filter_map(|j| {
                self.charged_spans(j.id, j.nodes)
                    .map(|spans| spans.iter().map(|s| s.area() as f64).sum::<f64>())
            })
            .sum()
    }

    /// Machine utilization over `[0, makespan]`. A zero-job workload (or
    /// a degenerate zero-node machine) utilizes nothing: 0, never NaN.
    pub fn utilization(&self, workload: &Workload) -> f64 {
        if workload.is_empty() || self.machine_nodes == 0 {
            return 0.0;
        }
        let span = self.makespan().max(1) as f64;
        self.busy_area(workload) / (span * self.machine_nodes as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jobsched_workload::{JobBuilder, Workload};

    fn workload() -> Workload {
        Workload::new(
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
                    .runtime(100)
                    .build(),
            ],
        )
    }

    fn valid_record() -> ScheduleRecord {
        let mut r = ScheduleRecord::new(10, 2);
        r.place(JobId(0), 0, 100);
        r.place(JobId(1), 100, 200);
        r
    }

    #[test]
    fn valid_schedule_passes_audit() {
        assert!(valid_record().validate(&workload()).is_empty());
    }

    #[test]
    fn audit_charges_the_chosen_moldable_shape_not_the_rigid_one() {
        // Rigid shape 6×100; a work-conserving 3-wide alternative runs
        // 200 s. The audit must accept the alternative's charge (its
        // width identifies the choice) and still reject a charge that
        // matches no alternative at that width.
        let mut w = Workload::new(
            "t",
            10,
            vec![JobBuilder::new(JobId(0))
                .submit(0)
                .nodes(6)
                .requested(100)
                .runtime(100)
                .build()],
        );
        w.set_moldable(vec![vec![jobsched_workload::MoldableChoice {
            nodes: 3,
            requested_time: 200,
            runtime: 200,
        }]]);
        let mut molded = ScheduleRecord::new(10, 1);
        molded.place_segments_at(JobId(0), vec![Segment::new(0, 200, 3)], 200);
        assert!(molded.validate(&w).is_empty(), "{:?}", molded.validate(&w));

        // 3-wide but charging the rigid 100 s: wrong under every choice.
        let mut short = ScheduleRecord::new(10, 1);
        short.place_segments_at(JobId(0), vec![Segment::new(0, 100, 3)], 100);
        assert!(short
            .validate(&w)
            .iter()
            .any(|v| matches!(v, ScheduleViolation::WrongRuntime(JobId(0)))));
    }

    #[test]
    fn audit_catches_overcommit() {
        let mut r = ScheduleRecord::new(10, 2);
        r.place(JobId(0), 0, 100);
        r.place(JobId(1), 50, 150);
        let v = r.validate(&workload());
        assert!(
            v.iter()
                .any(|x| matches!(x, ScheduleViolation::Overcommit { busy: 12, .. })),
            "{v:?}"
        );
    }

    #[test]
    fn audit_catches_early_start() {
        let w = Workload::new(
            "t",
            10,
            vec![JobBuilder::new(JobId(0))
                .submit(50)
                .nodes(1)
                .requested(10)
                .runtime(10)
                .build()],
        );
        let mut r = ScheduleRecord::new(10, 1);
        r.place(JobId(0), 40, 50);
        assert_eq!(
            r.validate(&w),
            vec![ScheduleViolation::StartsBeforeSubmit(JobId(0))]
        );
    }

    #[test]
    fn audit_catches_wrong_runtime() {
        let mut r = ScheduleRecord::new(10, 2);
        r.place(JobId(0), 0, 99);
        r.place(JobId(1), 100, 200);
        let v = r.validate(&workload());
        assert_eq!(v, vec![ScheduleViolation::WrongRuntime(JobId(0))]);
    }

    #[test]
    fn audit_catches_unfinished() {
        let mut r = ScheduleRecord::new(10, 2);
        r.place(JobId(0), 0, 100);
        let v = r.validate(&workload());
        assert_eq!(v, vec![ScheduleViolation::Unfinished(JobId(1))]);
        assert_eq!(r.completion_ratio(), 0.5);
    }

    #[test]
    fn audit_respects_limit_truncation() {
        // Job killed at its 60 s limit must occupy exactly 60 s.
        let w = Workload::new(
            "t",
            10,
            vec![JobBuilder::new(JobId(0))
                .submit(0)
                .nodes(1)
                .requested(60)
                .runtime(500)
                .build()],
        );
        let mut r = ScheduleRecord::new(10, 1);
        r.place(JobId(0), 0, 60);
        assert!(r.validate(&w).is_empty());
    }

    #[test]
    fn makespan_and_utilization() {
        let r = valid_record();
        let w = workload();
        assert_eq!(r.makespan(), 200);
        // 2 jobs × 6 nodes × 100 s on 10 nodes × 200 s = 0.6.
        assert!((r.utilization(&w) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn back_to_back_jobs_do_not_overlap() {
        // completion at t and start at t must not double-count capacity:
        // the −delta sorts before the +delta at equal time.
        let w = Workload::new(
            "t",
            10,
            vec![
                JobBuilder::new(JobId(0))
                    .submit(0)
                    .nodes(10)
                    .requested(10)
                    .runtime(10)
                    .build(),
                JobBuilder::new(JobId(0))
                    .submit(0)
                    .nodes(10)
                    .requested(10)
                    .runtime(10)
                    .build(),
            ],
        );
        let mut r = ScheduleRecord::new(10, 2);
        r.place(JobId(0), 0, 10);
        r.place(JobId(1), 10, 20);
        assert!(r.validate(&w).is_empty());
    }

    #[test]
    #[should_panic(expected = "placed twice")]
    fn double_placement_panics() {
        let mut r = ScheduleRecord::new(10, 1);
        r.place(JobId(0), 0, 10);
        r.place(JobId(0), 20, 30);
    }

    #[test]
    fn zero_job_workload_metrics_are_well_defined() {
        let w = Workload::new("empty", 10, vec![]);
        let r = ScheduleRecord::new(10, 0);
        assert_eq!(r.completion_ratio(), 1.0);
        assert_eq!(r.busy_area(&w), 0.0);
        assert_eq!(r.utilization(&w), 0.0);
        assert!(r.utilization(&w).is_finite());
        assert_eq!(r.makespan(), 0);
        assert!(r.validate(&w).is_empty());
    }

    #[test]
    fn zero_node_machine_does_not_divide_by_zero() {
        let w = Workload::new("degenerate", 0, vec![]);
        let r = ScheduleRecord::new(0, 0);
        assert!(r.utilization(&w).is_finite());
        assert_eq!(r.utilization(&w), 0.0);
    }

    #[test]
    fn placement_beyond_record_reads_as_unplaced() {
        let r = ScheduleRecord::new(10, 1);
        assert_eq!(r.placement(JobId(5)), None);
    }

    #[test]
    fn from_placements_roundtrips() {
        let r = valid_record();
        let rebuilt = ScheduleRecord::from_placements(
            r.machine_nodes(),
            (0..r.len() as u32).map(|i| r.placement(JobId(i))).collect(),
        );
        assert_eq!(rebuilt, r);
    }

    #[test]
    fn place_segments_records_a_whole_union() {
        let mut r = ScheduleRecord::new(10, 1);
        r.place_segments_at(
            JobId(0),
            vec![Segment::new(5, 25, 8), Segment::new(40, 50, 2)],
            50,
        );
        let p = r.placement(JobId(0)).unwrap();
        assert_eq!((p.start, p.completion), (5, 50));
        assert_eq!(r.charged_time(JobId(0)), Some(30));
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn place_segments_rejects_overlap() {
        let mut r = ScheduleRecord::new(10, 1);
        r.place_segments_at(
            JobId(0),
            vec![Segment::new(5, 25, 8), Segment::new(20, 50, 2)],
            50,
        );
    }

    #[test]
    fn charged_spans_gives_rigid_jobs_one_segment() {
        let r = valid_record();
        assert_eq!(
            r.charged_spans(JobId(0), 6),
            Some(vec![Segment::new(0, 100, 6)])
        );
        assert_eq!(r.charged_spans(JobId(7), 6), None);
    }

    #[test]
    fn response_and_wait_times() {
        let p = JobPlacement {
            start: 100,
            completion: 300,
        };
        assert_eq!(p.response_time(50), 250);
        assert_eq!(p.wait_time(50), 50);
    }
}
