//! The simulation event queue.
//!
//! Job submissions (the "stream of job submission data" of §2) and job
//! completions drive the §3 scheduling loop; fault-injection campaigns
//! (see [`crate::engine::FaultPlan`]) add cancellations, node
//! drain/return and forced preempt/resume events (a time-shared
//! scheduler's own preemptions are decisions, not events). Events are
//! processed in timestamp order; all events sharing a timestamp are
//! applied as one batch before the scheduler is consulted, so the
//! outcome does not depend on heap tie-breaking. *Within* a batch the
//! variant order decides: resources return first (finishes, then
//! drained nodes coming back), submissions next, then cancellations (so
//! a job submitted and cancelled at the same instant is retracted while
//! queued), and drains grab free nodes last — right before the decision
//! round that must cope with the reduced capacity.

use jobsched_workload::{JobId, Time};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A simulation event. The variant order is load-bearing: it is the
/// processing order inside a same-timestamp batch (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Event {
    /// A job finished (its resources are released *before* submissions at
    /// the same instant are considered — hence the variant order).
    Finish(JobId),
    /// A running job is preempted mid-flight (fault injection): its
    /// allocation segment closes and its nodes return to the pool. Sorts
    /// with the other
    /// resource-releasing events, right after finishes (a job that
    /// finishes at the instant of its preemption is already gone and the
    /// preemption is a no-op).
    Preempt(JobId),
    /// Drained nodes return to service. Carries the index of the drain in
    /// the run's [`crate::engine::FaultPlan`].
    Undrain(u32),
    /// A preempted job becomes eligible to run again. Applied after the
    /// resource-returning events (so a finish/undrain at the same instant
    /// can free the nodes it needs) and before same-instant submissions.
    Resume(JobId),
    /// A job was submitted.
    Submit(JobId),
    /// A job was cancelled by its user (fault injection). Applied after
    /// same-instant submissions so a submit+cancel pair retracts the job.
    Cancel(JobId),
    /// Nodes leave service (fault injection). Carries the index of the
    /// drain in the run's [`crate::engine::FaultPlan`]. Applied last so
    /// the following decision round sees the reduced capacity.
    Drain(u32),
    /// A scheduler-requested wakeup (e.g. a policy window boundary): no
    /// state change, but a decision round runs at this instant.
    Wakeup,
}

/// Min-heap of timestamped events with stable FIFO order for ties.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<(Time, Event, u64)>>,
    seq: u64,
}

impl EventQueue {
    /// Empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedule an event at `time`.
    pub fn push(&mut self, time: Time, event: Event) {
        self.heap.push(Reverse((time, event, self.seq)));
        self.seq += 1;
    }

    /// Whether no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Timestamp of the next event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }

    /// Pop *all* events at the earliest pending timestamp into `batch`,
    /// which is cleared first, and return that timestamp. Finishes sort
    /// before submissions within the batch.
    pub fn pop_batch(&mut self, batch: &mut Vec<Event>) -> Option<Time> {
        batch.clear();
        let t = self.peek_time()?;
        while self.peek_time() == Some(t) {
            let Reverse((_, ev, _)) = self.heap.pop().expect("peeked");
            batch.push(ev);
        }
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One batch into a fresh buffer.
    fn pop(q: &mut EventQueue) -> Option<(Time, Vec<Event>)> {
        let mut batch = Vec::new();
        q.pop_batch(&mut batch).map(|t| (t, batch))
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, Event::Submit(JobId(3)));
        q.push(10, Event::Submit(JobId(1)));
        q.push(20, Event::Submit(JobId(2)));
        let times: Vec<Time> = std::iter::from_fn(|| pop(&mut q).map(|(t, _)| t)).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn batches_equal_timestamps() {
        let mut q = EventQueue::new();
        q.push(10, Event::Submit(JobId(1)));
        q.push(10, Event::Finish(JobId(0)));
        q.push(10, Event::Submit(JobId(2)));
        q.push(20, Event::Submit(JobId(3)));
        let (t, batch) = pop(&mut q).unwrap();
        assert_eq!(t, 10);
        assert_eq!(batch.len(), 3);
        // Finish events lead the batch.
        assert_eq!(batch[0], Event::Finish(JobId(0)));
        assert_eq!(pop(&mut q), Some((20, vec![Event::Submit(JobId(3))])));
    }

    #[test]
    fn batch_order_resources_return_before_submit_cancel_drain() {
        let mut q = EventQueue::new();
        q.push(10, Event::Drain(0));
        q.push(10, Event::Cancel(JobId(2)));
        q.push(10, Event::Submit(JobId(2)));
        q.push(10, Event::Undrain(1));
        q.push(10, Event::Finish(JobId(0)));
        let (_, batch) = pop(&mut q).unwrap();
        assert_eq!(
            batch,
            vec![
                Event::Finish(JobId(0)),
                Event::Undrain(1),
                Event::Submit(JobId(2)),
                Event::Cancel(JobId(2)),
                Event::Drain(0),
            ]
        );
    }

    #[test]
    fn batch_order_preempt_releases_before_resume_consumes() {
        // Finish frees first; a preempt closes its segment next; the
        // freed nodes then serve a same-instant resume before any new
        // submission competes for them.
        let mut q = EventQueue::new();
        q.push(10, Event::Submit(JobId(4)));
        q.push(10, Event::Resume(JobId(2)));
        q.push(10, Event::Preempt(JobId(1)));
        q.push(10, Event::Finish(JobId(0)));
        let (_, batch) = pop(&mut q).unwrap();
        assert_eq!(
            batch,
            vec![
                Event::Finish(JobId(0)),
                Event::Preempt(JobId(1)),
                Event::Resume(JobId(2)),
                Event::Submit(JobId(4)),
            ]
        );
    }

    #[test]
    fn empty_queue_returns_none() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(pop(&mut q), None);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(5, Event::Finish(JobId(9)));
        assert_eq!(q.peek_time(), Some(5));
        assert_eq!(pop(&mut q), Some((5, vec![Event::Finish(JobId(9))])));
    }

    #[test]
    fn pop_batch_clears_a_dirty_buffer() {
        let mut q = EventQueue::new();
        q.push(7, Event::Submit(JobId(1)));
        let mut batch = vec![Event::Wakeup, Event::Finish(JobId(0))];
        assert_eq!(q.pop_batch(&mut batch), Some(7));
        assert_eq!(batch, vec![Event::Submit(JobId(1))]);
        assert_eq!(q.pop_batch(&mut batch), None);
        assert!(batch.is_empty());
    }
}
