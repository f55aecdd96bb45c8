//! Classical list scheduling by Garey & Graham \[6\] (§5.3).
//!
//! "The classical list scheduling algorithm … always starts the next job
//! for which enough resources are available. Ties can be broken in an
//! arbitrary fashion. The algorithm guarantees good theoretical bounds in
//! some on-line scenarios (unknown job execution time), it is easy to
//! implement and requires little computational effort. As in the case of
//! FCFS no knowledge of the job execution time is required. Application of
//! backfilling will be of no benefit for this method."
//!
//! We break ties in submission order: the scan walks the wait queue's
//! requests in id order and stops once the pool is full, so a decision
//! costs the jobs it inspects, not a lookup per id. The selection logic is
//! [`select_greedy_any_in`]; the classical Graham bound (a greedy schedule's
//! makespan is < 2× the lower bound when jobs are available) is asserted
//! in the integration tests.

use jobsched_sim::{JobRequest, Machine};
use jobsched_workload::{ClassId, JobId};

/// Start *any* waiting job of one node-class pool, in list order, for
/// which enough resources are available. Lazy over the order (the wait
/// queue's requests, walked without an id lookup): stops once the pool is
/// full. The order must contain only jobs resolved to `class`; on a
/// single-class machine `ClassId(0)` is the whole machine.
///
/// Greedy-any needs only the *instantaneous* free-node count — it never
/// reasons about the future, so it reads the head of the pool's
/// incremental availability calendar ([`jobsched_sim::LiveProfile`])
/// rather than materialising a step function.
pub fn select_greedy_any_in<'a>(
    class: ClassId,
    order: impl IntoIterator<Item = &'a JobRequest>,
    machine: &Machine,
) -> Vec<JobId> {
    let mut free = machine.class_profile(class).free_nodes();
    debug_assert_eq!(free, machine.free_in(class));
    let mut out = Vec::new();
    for job in order {
        if free == 0 {
            break;
        }
        if job.nodes <= free {
            free -= job.nodes;
            out.push(job.id);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use jobsched_workload::Time;

    fn req(id: u32, nodes: u32, requested: Time) -> JobRequest {
        JobRequest {
            id: JobId(id),
            submit: 0,
            nodes,
            class: ClassId(0),
            requested_time: requested,
            user: 0,
        }
    }

    #[test]
    fn starts_everything_that_fits() {
        let m = Machine::new(10);
        let order = [req(0, 4, 10), req(1, 8, 10), req(2, 5, 10), req(3, 1, 10)];
        // 4 fits (6 left), 8 skipped, 5 fits (1 left), 1 fits (0 left).
        assert_eq!(
            select_greedy_any_in(ClassId(0), &order, &m),
            vec![JobId(0), JobId(2), JobId(3)]
        );
    }

    #[test]
    fn never_idles_a_feasible_machine() {
        // Greedy property: if any waiting job fits, something starts.
        let m = Machine::new(10);
        // Job 0 can never fit (invalid for machine); select just skips it.
        let order = [req(0, 11, 10), req(1, 10, 10)];
        let picks = select_greedy_any_in(ClassId(0), &order, &m);
        assert_eq!(picks, vec![JobId(1)]);
    }

    #[test]
    fn stops_scanning_when_full() {
        let m = Machine::new(4);
        let order: Vec<JobRequest> = (0..100).map(|i| req(i, 4, 10)).collect();
        assert_eq!(select_greedy_any_in(ClassId(0), &order, &m), vec![JobId(0)]);
    }
}
