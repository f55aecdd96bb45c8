//! Worker pool on `std::thread` + channels.
//!
//! The evaluation grid is embarrassingly parallel but wildly uneven: a
//! paper-scale FCFS cell simulates in seconds while SMART over the same
//! workload can take orders of magnitude longer (Tables 7–8 exist to
//! measure exactly that spread). Static chunking would leave most
//! workers idle behind the slowest chunk, so there are no chunks: every
//! worker pulls its next task from one shared queue the moment it is
//! free — the simplest dynamic schedule, in which no worker idles while
//! a task is unclaimed. The queue is one `Mutex` around the task
//! iterator (cells run for milliseconds to minutes, so lock traffic is
//! noise) and results flow back over an `mpsc` channel; no external
//! crate.
//!
//! Determinism: results are reassembled **by task index**, so the output
//! order — and everything downstream, including table assembly and
//! manifest contents — is independent of the thread count and of which
//! worker ran which task.

use std::sync::mpsc;
use std::sync::Mutex;

/// Run `f` over every task on `jobs` workers; returns results in task
/// order. `jobs == 1` runs inline on the calling thread with no pool at
/// all (exact serial semantics, useful as the determinism baseline).
pub fn run_indexed<T, R, F>(jobs: usize, tasks: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let jobs = jobs.max(1);
    if jobs == 1 || tasks.len() <= 1 {
        return tasks
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }

    let n = tasks.len();
    // Tasks are claimed in index order; the index travels with the
    // task so completion order cannot scramble the output.
    let queue = Mutex::new(tasks.into_iter().enumerate());
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();

    std::thread::scope(|scope| {
        for _ in 0..jobs.min(n) {
            let tx = tx.clone();
            let (queue, f) = (&queue, &f);
            scope.spawn(move || loop {
                // The guard is a temporary: the lock is released before
                // the task runs.
                let Some((i, t)) = queue.lock().expect("pool poisoned").next() else {
                    return;
                };
                if tx.send((i, f(i, t))).is_err() {
                    return;
                }
            });
        }
        drop(tx);
        for (i, r) in rx {
            out[i] = Some(r);
        }
    });

    out.into_iter()
        .map(|r| r.expect("every task produces a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_task_order() {
        let tasks: Vec<usize> = (0..100).collect();
        let out = run_indexed(8, tasks, |i, t| {
            assert_eq!(i, t);
            // Invert the natural completion order a little.
            if t % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            t * 3
        });
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let work = |_: usize, t: u64| -> u64 {
            // Deterministic CPU-bound transform.
            (0..t % 1000).fold(t, |acc, x| acc.wrapping_mul(31).wrapping_add(x))
        };
        let tasks: Vec<u64> = (0..64).map(|i| i * 123_457).collect();
        let serial = run_indexed(1, tasks.clone(), work);
        let parallel = run_indexed(8, tasks, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn uneven_tasks_do_not_idle_workers() {
        // One huge task plus many small ones: the worker that claimed
        // the huge one holds nothing else back, so total wall-clock
        // stays near the huge task alone.
        let touched = AtomicUsize::new(0);
        let tasks: Vec<u64> = (0..32).collect();
        let out = run_indexed(4, tasks, |_, t| {
            touched.fetch_add(1, Ordering::Relaxed);
            if t == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            t
        });
        assert_eq!(touched.load(Ordering::Relaxed), 32);
        assert_eq!(out.len(), 32);
    }

    #[test]
    fn more_workers_than_tasks() {
        let out = run_indexed(16, vec![1u32, 2], |_, t| t + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn empty_task_list() {
        let out: Vec<u32> = run_indexed(4, Vec::<u32>::new(), |_, t| t);
        assert!(out.is_empty());
    }
}
