//! The segment-schedule audit: the §2 validity audit generalised to
//! allocation segment unions — per-instant capacity re-summed over all
//! segments, no job overlapping *itself* (a job cannot run twice at one
//! instant), and charged time equal to processing time (the sum of
//! segment durations matches the work the job was due). It backs the
//! PSRS preemptive-schedule pin, the gang differential and the gang
//! extension's work-conservation test.

use jobsched_sim::Segment;
use jobsched_workload::{JobId, Time};

/// Violations detected by the segment-schedule audit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SegmentViolation {
    /// A job has no segments at all.
    Empty(JobId),
    /// A segment spans zero time or holds zero nodes.
    Degenerate {
        /// Offending job.
        id: JobId,
        /// Index of the offending segment in the job's list.
        index: usize,
    },
    /// A job's segments are out of order or overlap each other — the job
    /// would be running twice at one instant.
    SelfOverlap {
        /// Offending job.
        id: JobId,
        /// Index of the second segment of the offending pair.
        index: usize,
    },
    /// Summed segment durations differ from the time the job was due to
    /// be charged.
    WrongCharge {
        /// Offending job.
        id: JobId,
        /// Seconds actually covered by segments.
        charged: Time,
        /// Seconds the job should have been charged.
        expected: Time,
    },
    /// Busy nodes summed over all segments exceed the machine at some
    /// instant.
    Overcommit {
        /// The violating instant.
        time: Time,
        /// Busy nodes at that instant.
        busy: u64,
        /// Machine capacity.
        capacity: u32,
    },
}

/// Audit a segment schedule: `jobs` pairs each job with its segment list
/// and the total seconds it must be charged (`None` skips the charge
/// check, e.g. for cancelled jobs whose remaining work was abandoned).
///
/// Checks, in order: every job has at least one segment, every segment is
/// non-degenerate, no job self-overlaps (segments must be sorted and
/// disjoint — touching at an instant is allowed), charged time equals
/// processing time, and the machine is never overcommitted when busy
/// nodes are re-summed over *all* segments. Returns every violation
/// found (capacity stops at the first offending instant).
pub fn check_segments(
    machine_nodes: u32,
    jobs: &[(JobId, &[Segment], Option<Time>)],
) -> Vec<SegmentViolation> {
    let mut violations = Vec::new();
    let mut deltas: Vec<(Time, i64)> = Vec::new();
    for &(id, segments, expected) in jobs {
        if segments.is_empty() {
            violations.push(SegmentViolation::Empty(id));
            continue;
        }
        let mut charged: Time = 0;
        for (index, seg) in segments.iter().enumerate() {
            if seg.end <= seg.start || seg.nodes == 0 {
                violations.push(SegmentViolation::Degenerate { id, index });
            }
            if index > 0 && seg.start < segments[index - 1].end {
                violations.push(SegmentViolation::SelfOverlap { id, index });
            }
            charged += seg.end.saturating_sub(seg.start);
            deltas.push((seg.start, seg.nodes as i64));
            deltas.push((seg.end, -(seg.nodes as i64)));
        }
        if let Some(expected) = expected {
            if charged != expected {
                violations.push(SegmentViolation::WrongCharge {
                    id,
                    charged,
                    expected,
                });
            }
        }
    }
    // Capacity sweep: −deltas sort before +deltas at equal instants, so
    // back-to-back segments do not double-count.
    deltas.sort_unstable();
    let mut busy: i64 = 0;
    for (time, d) in deltas {
        busy += d;
        if busy > machine_nodes as i64 {
            violations.push(SegmentViolation::Overcommit {
                time,
                busy: busy as u64,
                capacity: machine_nodes,
            });
            break;
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(start: Time, end: Time, nodes: u32) -> Segment {
        Segment::new(start, end, nodes)
    }

    #[test]
    fn rigid_one_segment_schedule_passes() {
        let a = [seg(0, 100, 6)];
        let b = [seg(100, 200, 6)];
        let jobs = [(JobId(0), &a[..], Some(100)), (JobId(1), &b[..], Some(100))];
        assert!(check_segments(10, &jobs).is_empty());
    }

    #[test]
    fn preempted_job_with_gap_passes() {
        // Job 0 runs [0,30), is preempted for [30,60), resumes [60,130).
        let a = [seg(0, 30, 4), seg(60, 130, 4)];
        let b = [seg(30, 60, 10)];
        let jobs = [(JobId(0), &a[..], Some(100)), (JobId(1), &b[..], Some(30))];
        assert!(check_segments(10, &jobs).is_empty());
    }

    #[test]
    fn resized_job_charges_per_segment_width() {
        let a = [seg(0, 50, 8), seg(50, 150, 2)];
        let jobs = [(JobId(0), &a[..], Some(150))];
        assert!(check_segments(8, &jobs).is_empty());
    }

    #[test]
    fn self_overlap_is_flagged() {
        let a = [seg(0, 50, 1), seg(40, 90, 1)];
        let jobs = [(JobId(0), &a[..], None)];
        assert_eq!(
            check_segments(10, &jobs),
            vec![SegmentViolation::SelfOverlap {
                id: JobId(0),
                index: 1
            }]
        );
    }

    #[test]
    fn touching_segments_are_not_self_overlap() {
        let a = [seg(0, 50, 1), seg(50, 90, 1)];
        let jobs = [(JobId(0), &a[..], Some(90))];
        assert!(check_segments(10, &jobs).is_empty());
    }

    #[test]
    fn wrong_charge_is_flagged() {
        let a = [seg(0, 30, 2), seg(60, 90, 2)];
        let jobs = [(JobId(0), &a[..], Some(100))];
        assert_eq!(
            check_segments(10, &jobs),
            vec![SegmentViolation::WrongCharge {
                id: JobId(0),
                charged: 60,
                expected: 100
            }]
        );
    }

    #[test]
    fn cross_job_overcommit_is_flagged() {
        let a = [seg(0, 100, 6)];
        let b = [seg(50, 150, 6)];
        let jobs = [(JobId(0), &a[..], None), (JobId(1), &b[..], None)];
        assert_eq!(
            check_segments(10, &jobs),
            vec![SegmentViolation::Overcommit {
                time: 50,
                busy: 12,
                capacity: 10
            }]
        );
    }

    #[test]
    fn back_to_back_segments_of_different_jobs_do_not_double_count() {
        let a = [seg(0, 10, 10)];
        let b = [seg(10, 20, 10)];
        let jobs = [(JobId(0), &a[..], Some(10)), (JobId(1), &b[..], Some(10))];
        assert!(check_segments(10, &jobs).is_empty());
    }

    #[test]
    fn empty_and_degenerate_are_flagged() {
        let a: [Segment; 0] = [];
        let b = [seg(5, 5, 1)];
        let c = [seg(0, 10, 0)];
        let jobs = [
            (JobId(0), &a[..], None),
            (JobId(1), &b[..], None),
            (JobId(2), &c[..], None),
        ];
        let v = check_segments(10, &jobs);
        assert!(v.contains(&SegmentViolation::Empty(JobId(0))));
        assert!(v.contains(&SegmentViolation::Degenerate {
            id: JobId(1),
            index: 0
        }));
        assert!(v.contains(&SegmentViolation::Degenerate {
            id: JobId(2),
            index: 0
        }));
    }
}
