//! Heap allocations per job of two score orders, pinned.
//!
//! The counting allocator and the 100 000-job probabilistic stream of
//! `alloc_budget.rs`, run through WFP+EASY (a wait-dependent score,
//! re-ranked once per decision instant) and SJF+none (a time-invariant
//! score, ranked by insertion). Budgets: 3.5 and 2.5 allocations per
//! job. The file holds a single test, so no parallel test shares the
//! counter.

use jobsched_algos::{BackfillMode, ListScheduler, OrderPolicy, ScoreFn};
use jobsched_sim::SimPipeline;
use jobsched_workload::ctc::prepared_ctc_workload;
use jobsched_workload::probabilistic::BinnedModel;
use jobsched_workload::ProbabilisticSource;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting the calls that obtain memory.
struct Counting;

/// Allocations so far: a statistic that publishes no other data.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees are this allocator's.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const JOBS: usize = 100_000;

#[test]
fn score_order_streams_stay_within_their_allocation_budgets() {
    let model = BinnedModel::fit(&prepared_ctc_workload(2000, 1999));
    let rows = [
        (ScoreFn::Wfp, BackfillMode::Easy, 3.5),
        (ScoreFn::Sjf, BackfillMode::None, 2.5),
    ];
    let mut over = Vec::new();
    for (score, backfill, budget) in rows {
        let mut source = ProbabilisticSource::new(model.clone(), 7)
            .with_limit(JOBS)
            .with_arrival_scale(2.0);
        let mut scheduler = ListScheduler::new(OrderPolicy::Score(score), backfill);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let out = SimPipeline::new(&mut source, &mut scheduler)
            .run()
            .expect("probabilistic sources are infallible");
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(out.jobs_finished, JOBS as u64);
        let per_job = allocations as f64 / JOBS as f64;
        let name = format!("{}+{}", score.label(), backfill.label());
        println!("{name}: {allocations} allocations over {JOBS} jobs: {per_job:.3} per job");
        if per_job > budget {
            over.push(format!("{name}: {per_job:.3} per job, budget {budget}"));
        }
    }
    assert!(over.is_empty(), "over budget: {over:?}");
}
