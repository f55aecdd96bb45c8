//! A rigid scheduler behind the time-shared contract. A job that is
//! never preempted ends at `start + effective_runtime` under either
//! contract, so an adapted run must reproduce the rigid one bit for bit
//! — `tests/segment_identity.rs` pins all 43 atlas rows to that.

use jobsched_sim::{Action, JobRequest, Machine, Scheduler, TimeSharedScheduler, TsJobView};
use jobsched_workload::{JobId, Time};

/// Replay a rigid [`Scheduler`] as a [`TimeSharedScheduler`]: every
/// pick maps to `Start` at the rigid choice.
pub struct RigidAdapter<'a> {
    inner: &'a mut dyn Scheduler,
}

impl<'a> RigidAdapter<'a> {
    /// Wrap a rigid scheduler.
    pub fn new(inner: &'a mut dyn Scheduler) -> Self {
        RigidAdapter { inner }
    }
}

impl TimeSharedScheduler for RigidAdapter<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn submit(&mut self, job: &TsJobView, now: Time) {
        let (nodes, requested_time) = job.choices[0];
        self.inner.submit(
            JobRequest {
                id: job.id,
                submit: job.submit,
                nodes,
                class: job.class,
                requested_time,
                user: job.user,
            },
            now,
        );
    }

    fn job_finished(&mut self, id: JobId, now: Time) {
        self.inner.job_finished(id, now);
    }

    fn decide(&mut self, now: Time, machine: &Machine) -> Vec<Action> {
        self.inner
            .select_starts(now, machine)
            .into_iter()
            .map(|id| Action::Start { id, choice: 0 })
            .collect()
    }

    fn queue_len(&self) -> usize {
        self.inner.queue_len()
    }

    fn next_wakeup(&self, now: Time) -> Option<Time> {
        // Rigid runs consult next_wakeup only while jobs queue;
        // replicate that gate so event streams stay bit-identical.
        (self.inner.queue_len() > 0).then(|| self.inner.next_wakeup(now))?
    }
}
