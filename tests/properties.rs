//! Property-based tests: invariants that must hold for *every* workload,
//! not just the calibrated ones.
//!
//! Randomization runs on the repo's own deterministic generators
//! (`jobsched::workload::rng`) — the offline build has no `proptest` —
//! so these properties run in every plain `cargo test -q`.

use jobsched::algos::spec::PolicyKind;
use jobsched::algos::switching::DailyWindow;
use jobsched::algos::view::WeightScheme;
use jobsched::algos::{AlgorithmSpec, BackfillMode, ListScheduler};
use jobsched::sim::{simulate, LiveSim, RecordingObserver, ScheduleRecord, SimObserver};
use jobsched::workload::job::DAY;
use jobsched::workload::rng::{derive_seed, Rng, SmallRng};
use jobsched::workload::{Job, JobBuilder, JobId, Time, Workload};
use std::ops::Range;

const MACHINE: u32 = 64;
const CASES: u64 = 24;

/// Arbitrary job stream for a 64-node machine (1 to `max_jobs - 1` jobs,
/// matching the old proptest strategy's range).
fn arb_jobs(rng: &mut SmallRng, max_jobs: usize) -> Vec<Job> {
    arb_jobs_within(rng, 1..max_jobs, 50_000)
}

/// Arbitrary job stream of `lens` jobs submitted in `[0, span)`.
fn arb_jobs_within(rng: &mut SmallRng, lens: Range<usize>, span: Time) -> Vec<Job> {
    let len = rng.random_range(lens);
    (0..len)
        .map(|_| {
            let submit = rng.random_range(0..span);
            let nodes = rng.random_range(1u32..=MACHINE);
            let requested = rng.random_range(1u64..5_000);
            // Runtime may exceed requested: killed at the limit (Rule 2).
            let runtime = rng.random_range(1u64..8_000);
            JobBuilder::new(JobId(0))
                .submit(submit)
                .nodes(nodes)
                .requested(requested)
                .runtime(runtime)
                .build()
        })
        .collect()
}

/// Per-property case driver: a fresh independent rng stream per case.
fn for_each_case(tag: u64, f: impl Fn(u64, &mut SmallRng)) {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(derive_seed(tag, case));
        f(case, &mut rng);
    }
}

/// Every algorithm × backfill combination produces a complete, valid
/// schedule on arbitrary workloads (§2's validity requirement).
#[test]
fn all_algorithms_valid_on_arbitrary_workloads() {
    for_each_case(0xA11A, |case, rng| {
        let w = Workload::new("prop", MACHINE, arb_jobs(rng, 40));
        for spec in AlgorithmSpec::paper_matrix() {
            for scheme in [WeightScheme::Unweighted, WeightScheme::ProjectedArea] {
                let mut sched = spec.build(scheme);
                let out = simulate(&w, &mut sched);
                assert_eq!(out.schedule.completion_ratio(), 1.0, "case {case}");
                let violations = out.schedule.validate(&w);
                assert!(
                    violations.is_empty(),
                    "case {case}, {}: {violations:?}",
                    spec.name()
                );
            }
        }
    });
}

/// FCFS fairness (§5.1: "the completion time of each job is independent
/// of any job submitted later"): under plain FCFS, start times follow
/// submission order.
#[test]
fn fcfs_starts_in_submission_order() {
    for_each_case(0xFCF5, |case, rng| {
        let w = Workload::new("prop", MACHINE, arb_jobs(rng, 60));
        let spec = AlgorithmSpec::new(PolicyKind::Fcfs, BackfillMode::None);
        let out = simulate(&w, &mut spec.build(WeightScheme::Unweighted));
        let mut last_start = 0;
        for j in w.jobs() {
            let s = out.schedule.placement(j.id).unwrap().start;
            assert!(
                s >= last_start,
                "case {case}: job {} started at {s} before its predecessor at {last_start}",
                j.id
            );
            last_start = s;
        }
    });
}

/// FCFS prefix property: the schedule of the first k jobs is unaffected
/// by deleting all later submissions.
#[test]
fn fcfs_prefix_independent_of_future() {
    for_each_case(0x9EF1, |case, rng| {
        let w = Workload::new("prop", MACHINE, arb_jobs(rng, 40));
        let split = rng.random_range(1usize..39);
        let k = split.min(w.len());
        let prefix = Workload::new("prefix", MACHINE, w.jobs()[..k].to_vec());
        let spec = AlgorithmSpec::new(PolicyKind::Fcfs, BackfillMode::None);
        let full = simulate(&w, &mut spec.build(WeightScheme::Unweighted));
        let part = simulate(&prefix, &mut spec.build(WeightScheme::Unweighted));
        for j in prefix.jobs() {
            assert_eq!(
                full.schedule.placement(j.id),
                part.schedule.placement(j.id),
                "case {case}: placement of {} changed when later jobs were removed",
                j.id
            );
        }
    });
}

/// Garey & Graham non-idling: whenever a job waits under G&G, the machine
/// cannot fit the smallest waiting job at that moment. We check the
/// weaker consequence: no instant has every job waiting and the machine
/// empty (deadlock-freedom is enforced by the engine, so simulate()
/// returning at all proves progress).
#[test]
fn garey_graham_always_progresses() {
    for_each_case(0x6A59, |case, rng| {
        let w = Workload::new("prop", MACHINE, arb_jobs(rng, 50));
        let spec = AlgorithmSpec::new(PolicyKind::GareyGraham, BackfillMode::None);
        let out = simulate(&w, &mut spec.build(WeightScheme::Unweighted));
        assert_eq!(out.schedule.completion_ratio(), 1.0, "case {case}");
    });
}

/// EASY's defining guarantee (§5.2): with *exact* estimates, the first
/// blocked job starts exactly when it would under plain FCFS — its
/// projected start (shadow time) is never postponed by backfilled jobs.
/// (With inaccurate estimates this fails — the §5.2 caveat — which
/// `examples/backfill_anatomy.rs` demonstrates.)
#[test]
fn easy_protects_the_head_job_on_exact_batch() {
    for_each_case(0xEA5E, |case, rng| {
        let batch: Vec<Job> = arb_jobs(rng, 30)
            .into_iter()
            .map(|j| {
                let exact = j.effective_runtime().max(1);
                JobBuilder::new(j.id)
                    .submit(0)
                    .nodes(j.nodes)
                    .exact_runtime(exact)
                    .build()
            })
            .collect();
        let w = Workload::new("batch", MACHINE, batch);
        let plain = simulate(
            &w,
            &mut AlgorithmSpec::new(PolicyKind::Fcfs, BackfillMode::None)
                .build(WeightScheme::Unweighted),
        );
        let easy = simulate(
            &w,
            &mut AlgorithmSpec::new(PolicyKind::Fcfs, BackfillMode::Easy)
                .build(WeightScheme::Unweighted),
        );
        // The head job = the first (in submission order) that cannot start
        // at t = 0 under FCFS. Jobs before it run identically in both.
        if let Some(head) = w
            .jobs()
            .iter()
            .find(|j| plain.schedule.placement(j.id).unwrap().start > 0)
        {
            let fcfs_start = plain.schedule.placement(head.id).unwrap().start;
            let easy_start = easy.schedule.placement(head.id).unwrap().start;
            assert!(
                easy_start <= fcfs_start,
                "case {case}: EASY delayed the protected head {}: {easy_start} > {fcfs_start}",
                head.id
            );
        }
    });
}

/// Differential test of the incremental blocked-state cache: with the
/// cache enabled (production default) and disabled (naive full scan every
/// round) every algorithm must produce the *identical* schedule.
#[test]
fn cache_is_semantically_transparent() {
    for_each_case(0xCAC4, |case, rng| {
        let w = Workload::new("prop", MACHINE, arb_jobs(rng, 50));
        for spec in AlgorithmSpec::paper_matrix() {
            for scheme in [WeightScheme::Unweighted, WeightScheme::ProjectedArea] {
                let mut cached = spec.build(scheme);
                let mut naive =
                    ListScheduler::new(spec.kind.policy(scheme), spec.backfill).with_caching(false);
                let a = simulate(&w, &mut cached);
                let b = simulate(&w, &mut naive);
                for j in w.jobs() {
                    assert_eq!(
                        a.schedule.placement(j.id),
                        b.schedule.placement(j.id),
                        "case {case}, {}: cache changed placement of {}",
                        spec.name(),
                        j.id
                    );
                }
            }
        }
        // The day/night combination, on submissions spanning two days:
        // a cache taken under one regime must not outlive the switch to
        // the other.
        let w = Workload::new("prop-days", MACHINE, arb_jobs_within(rng, 40..160, 2 * DAY));
        let a = simulate(&w, &mut ListScheduler::paper_combination()).schedule;
        let b = simulate(
            &w,
            &mut ListScheduler::paper_combination().with_caching(false),
        )
        .schedule;
        // Every start is a decision of the regime owning its instant.
        let window = DailyWindow::WEEKDAY_DAYTIME;
        let starts = |day| {
            w.jobs()
                .iter()
                .filter(|j| window.contains(a.placement(j.id).unwrap().start) == day)
                .count()
        };
        assert!(
            starts(true) > 0 && starts(false) > 0,
            "case {case}: one regime idle"
        );
        for j in w.jobs() {
            assert_eq!(
                a.placement(j.id),
                b.placement(j.id),
                "case {case}, paper combination: cache changed placement of {}",
                j.id
            );
        }
        // The same, with the regime forced against the clock a third of
        // the way through the run and handed back to it at two thirds.
        assert_eq!(
            run_with_forced_regime(&w, ListScheduler::paper_combination()),
            run_with_forced_regime(&w, ListScheduler::paper_combination().with_caching(false)),
            "case {case}: cache changed a placement under a forced regime"
        );
    });
}

/// Step `scheduler` over `w` on a [`LiveSim`], as the daemon does: after
/// the first third of the event batches force the regime the clock does
/// not pick, after the second third return control to the clock, each
/// followed by a decision round at that instant.
fn run_with_forced_regime(w: &Workload, mut scheduler: ListScheduler) -> ScheduleRecord {
    let mut live = LiveSim::new(w.machine_nodes());
    for j in w.jobs() {
        live.add_job(j.clone());
    }
    let mut recorder = RecordingObserver::new();
    let batches = 2 * w.len();
    let (mut step, mut flips) = (0, 0);
    while let Some(now) = live.step(
        &mut scheduler,
        None,
        false,
        &mut [&mut recorder as &mut dyn SimObserver],
    ) {
        step += 1;
        let force = if step == batches / 3 {
            Some(Some(!DailyWindow::WEEKDAY_DAYTIME.contains(now)))
        } else if step == 2 * batches / 3 {
            Some(None)
        } else {
            None
        };
        if let Some(forced) = force {
            assert!(scheduler.force_regime(forced));
            live.request_decision(now);
            flips += 1;
        }
    }
    assert_eq!(flips, 2, "the run ended before the regime was handed back");
    recorder.into_record(w.machine_nodes(), w.len())
}

/// Schedule-record audit and machine bookkeeping agree: busy area of the
/// schedule equals the workload's effective area.
#[test]
fn busy_area_conserved() {
    for_each_case(0xB5A4, |case, rng| {
        let w = Workload::new("prop", MACHINE, arb_jobs(rng, 40));
        let spec = AlgorithmSpec::reference();
        let out = simulate(&w, &mut spec.build(WeightScheme::Unweighted));
        let expected: f64 = w.total_area();
        assert!(
            (out.schedule.busy_area(&w) - expected).abs() < 1e-6,
            "case {case}"
        );
    });
}

/// SWF round-trip preserves scheduling behaviour: the re-parsed workload
/// schedules identically.
#[test]
fn swf_roundtrip_preserves_schedules() {
    for_each_case(0x50F5, |case, rng| {
        let w = Workload::new("orig", MACHINE, arb_jobs(rng, 30));
        let back = Workload::from_swf(&w.to_swf(), "copy").unwrap();
        assert_eq!(w.len(), back.len(), "case {case}");
        let spec = AlgorithmSpec::reference();
        let a = simulate(&w, &mut spec.build(WeightScheme::Unweighted));
        let b = simulate(&back, &mut spec.build(WeightScheme::Unweighted));
        for j in w.jobs() {
            assert_eq!(
                a.schedule.placement(j.id),
                b.schedule.placement(j.id),
                "case {case}"
            );
        }
    });
}
