//! Allocation segments: the unit of a preemptible schedule.
//!
//! The paper's §2 schedule model allocates each job one contiguous block
//! of nodes for one contiguous time span ("no time sharing"). Breaking
//! that wall (ROADMAP item 3) means a job's allocation becomes a *union
//! of segments*: each [`Segment`] is a span of wall-clock time during
//! which the job holds a fixed number of nodes. A rigid run-to-completion
//! job is the degenerate one-segment case; a preempted job has a gap
//! between segments; a resized (malleable/moldable) job changes `nodes`
//! across segments.
//!
//! The §2 validity audit generalised to segment schedules lives beside
//! the oracle's other references (`jobsched_oracle::segment`).

use jobsched_workload::Time;

/// One contiguous allocation span: the job holds `nodes` nodes over
/// `[start, end)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Segment {
    /// Span start (inclusive).
    pub start: Time,
    /// Span end (exclusive).
    pub end: Time,
    /// Nodes held over the span.
    pub nodes: u32,
}

impl Segment {
    /// New segment. Panics on a negative span.
    pub fn new(start: Time, end: Time, nodes: u32) -> Self {
        assert!(end >= start, "segment ends before it starts");
        Segment { start, end, nodes }
    }

    /// Span length in seconds.
    #[inline]
    pub fn duration(&self) -> Time {
        self.end - self.start
    }

    /// Node-seconds charged by this segment.
    #[inline]
    pub fn area(&self) -> u128 {
        self.duration() as u128 * self.nodes as u128
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_area_and_duration() {
        let s = Segment::new(10, 40, 5);
        assert_eq!(s.duration(), 30);
        assert_eq!(s.area(), 150);
    }
}
