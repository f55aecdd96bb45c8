//! Property tests for the priority scoring functions.
//!
//! Three families of properties, swept with the hand-rolled xoshiro
//! generator (tier-1: no external proptest dependency):
//!
//! * **Monotonicity in the governing variable** — each scoring rule
//!   promises a direction: more wait never *lowers* the priority of a
//!   wait-compensating rule (FCFS, WFP, WFP³, UNICEF, F1, F2), a longer
//!   estimate never raises SJF's priority, more width never raises
//!   Smallest-First's, and the mirrored rules (LJF, Largest-First) run
//!   the other way. Scores use "smaller = earlier", so the assertions
//!   are on score order.
//! * **Tie-break determinism** — ranking is a function of the job *set*,
//!   not the iteration order: any permutation of the queue ranks
//!   identically, and exact score ties order by ascending id.
//! * **No NaN/overflow at the extremes** — zero wait, maximal wait,
//!   clamped estimates, one-node and `u32::MAX`-width jobs all score
//!   finite, for every rule.
//! * **Time invariance as claimed** — on the same extremes grid, a rule
//!   that claims [`ScoreFn::time_invariant`] scores bit-identically at
//!   every wait, and every other rule's score moves with the wait.

use jobsched_algos::priority::rank;
use jobsched_algos::ScoreFn;
use jobsched_sim::JobRequest;
use jobsched_workload::rng::{derive_seed, Rng, SmallRng};
use jobsched_workload::{ClassId, JobId, Time};

fn req(id: u32, submit: Time, nodes: u32, requested: Time) -> JobRequest {
    JobRequest {
        id: JobId(id),
        submit,
        nodes,
        class: ClassId(0),
        requested_time: requested,
        user: 0,
    }
}

/// The variable a scoring rule's priority responds to, and the
/// direction: `score(bumped)` must compare to `score(base)` this way.
#[derive(Clone, Copy, Debug)]
enum Governs {
    /// Bumping wait must not increase the score (priority never drops).
    WaitLowers,
    /// Bumping the estimate must not decrease the score.
    EstimateRaises,
    /// Bumping the estimate must not increase the score.
    EstimateLowers,
    /// Bumping the width must not decrease the score.
    WidthRaises,
    /// Bumping the width must not increase the score.
    WidthLowers,
}

fn governing(score: ScoreFn) -> Governs {
    match score {
        ScoreFn::Fcfs => Governs::WaitLowers,
        ScoreFn::Sjf => Governs::EstimateRaises,
        ScoreFn::Ljf => Governs::EstimateLowers,
        ScoreFn::SmallestFirst => Governs::WidthRaises,
        ScoreFn::LargestFirst => Governs::WidthLowers,
        ScoreFn::Wfp => Governs::WaitLowers,
        ScoreFn::Wfp3 => Governs::WaitLowers,
        ScoreFn::Unicef => Governs::WaitLowers,
        ScoreFn::F1 => Governs::WaitLowers,
        ScoreFn::F2 => Governs::WaitLowers,
    }
}

#[test]
fn every_rule_is_monotone_in_its_governing_variable() {
    let mut rng = SmallRng::seed_from_u64(derive_seed(0x9090_A110, 0));
    for score in ScoreFn::ALL {
        for _ in 0..2_000 {
            let wait = rng.random_range(0u64..2_000_000);
            let est = rng.random_range(1u64..2_000_000);
            let width = rng.random_range(1u32..=4_096);
            let bump_t = rng.random_range(1u64..1_000_000);
            let bump_w = rng.random_range(1u32..=4_096);
            let base = score.score(wait, est, width);
            let ctx = format!("{score:?} at wait={wait} est={est} width={width}");
            match governing(score) {
                Governs::WaitLowers => {
                    let bumped = score.score(wait + bump_t, est, width);
                    assert!(bumped <= base, "{ctx}: +{bump_t} wait raised the score");
                }
                Governs::EstimateRaises => {
                    let bumped = score.score(wait, est + bump_t, width);
                    assert!(
                        bumped >= base,
                        "{ctx}: +{bump_t} estimate lowered the score"
                    );
                }
                Governs::EstimateLowers => {
                    let bumped = score.score(wait, est + bump_t, width);
                    assert!(bumped <= base, "{ctx}: +{bump_t} estimate raised the score");
                }
                Governs::WidthRaises => {
                    let bumped = score.score(wait, est, width.saturating_add(bump_w));
                    assert!(bumped >= base, "{ctx}: +{bump_w} width lowered the score");
                }
                Governs::WidthLowers => {
                    let bumped = score.score(wait, est, width.saturating_add(bump_w));
                    assert!(bumped <= base, "{ctx}: +{bump_w} width raised the score");
                }
            }
        }
    }
}

#[test]
fn ranking_is_invariant_under_queue_permutation() {
    let mut rng = SmallRng::seed_from_u64(derive_seed(0x9090_A110, 1));
    for score in ScoreFn::ALL {
        for round in 0..200 {
            let n = rng.random_range(2usize..30);
            // Duplicate-heavy shapes: bursty submits and a narrow value
            // range force score ties, so the id tie-break carries the
            // determinism.
            let jobs: Vec<JobRequest> = (0..n as u32)
                .map(|id| {
                    req(
                        id,
                        rng.random_range(0u64..4) * 100,
                        [1u32, 2, 2, 8][rng.random_range(0usize..4)],
                        [50u64, 50, 600][rng.random_range(0usize..3)],
                    )
                })
                .collect();
            let now = 500;
            let baseline = rank(score, now, &jobs, false);

            // Fisher–Yates over the queue order.
            let mut shuffled: Vec<&JobRequest> = jobs.iter().collect();
            for i in (1..shuffled.len()).rev() {
                let j = rng.random_range(0usize..=i);
                shuffled.swap(i, j);
            }
            let permuted = rank(score, now, shuffled.iter().copied(), false);
            assert_eq!(
                baseline, permuted,
                "{score:?} round {round}: permuted queue ranked differently"
            );
        }
    }
}

#[test]
fn exact_score_ties_order_by_ascending_id() {
    // Clones of one job under every rule: the ranking must be the id
    // order, whatever order the queue presents them in.
    let jobs: Vec<JobRequest> = [9u32, 3, 7, 1]
        .iter()
        .map(|&id| req(id, 40, 4, 300))
        .collect();
    for score in ScoreFn::ALL {
        assert_eq!(
            rank(score, 100, &jobs, false),
            vec![JobId(1), JobId(3), JobId(7), JobId(9)],
            "{score:?}"
        );
    }
}

#[test]
fn fcfs_rank_is_the_submission_order() {
    let mut rng = SmallRng::seed_from_u64(derive_seed(0x9090_A110, 2));
    for _ in 0..200 {
        let n = rng.random_range(2usize..40);
        // Ids ascend with submit time — the repo-wide driver convention
        // the tie-break rule leans on.
        let mut submit = 0u64;
        let jobs: Vec<JobRequest> = (0..n as u32)
            .map(|id| {
                if rng.random_range(0u32..3) == 0 {
                    submit += rng.random_range(1u64..500);
                }
                req(id, submit, rng.random_range(1u32..64), 100)
            })
            .collect();
        let now = submit + rng.random_range(0u64..1_000);
        let expect: Vec<JobId> = jobs.iter().map(|j| j.id).collect();
        assert_eq!(rank(ScoreFn::Fcfs, now, &jobs, false), expect);
    }
}

/// The extremes grid: waits, estimates (0 exercises the ≥1 clamp) and
/// widths.
const WAITS: [Time; 5] = [0, 1, 10, u64::MAX / 2, u64::MAX];
const ESTS: [Time; 5] = [0, 1, 10, u64::MAX / 2, u64::MAX];
const WIDTHS: [u32; 5] = [1, 2, 4_096, u32::MAX / 2, u32::MAX];

#[test]
fn extremes_score_finite_for_every_rule() {
    for score in ScoreFn::ALL {
        for &wait in &WAITS {
            for &est in &ESTS {
                for &width in &WIDTHS {
                    let s = score.score(wait, est, width);
                    assert!(
                        s.is_finite(),
                        "{score:?}({wait}, {est}, {width}) = {s} is not finite"
                    );
                }
            }
        }
    }
}

#[test]
fn time_invariant_rules_ignore_the_wait_and_no_other_does() {
    for score in ScoreFn::ALL {
        let mut moves = false;
        for &est in &ESTS {
            for &width in &WIDTHS {
                let first = score.score(WAITS[0], est, width).to_bits();
                for &wait in &WAITS {
                    let bits = score.score(wait, est, width).to_bits();
                    if score.time_invariant() {
                        assert_eq!(
                            bits, first,
                            "{score:?} claims time invariance but scores ({wait}, {est}, {width}) apart"
                        );
                    }
                    moves |= bits != first;
                }
            }
        }
        assert!(
            score.time_invariant() || moves,
            "{score:?} never moves with the wait: it should claim time invariance"
        );
    }
}

#[test]
fn zero_wait_and_max_width_jobs_rank_without_panicking() {
    // The submission-instant decision round: every wait is zero, widths
    // span the extremes — ranking must still be total and id-stable
    // where scores tie.
    let jobs = vec![
        req(0, 100, u32::MAX, 1),
        req(1, 100, 1, u64::MAX),
        req(2, 100, u32::MAX, u64::MAX),
        req(3, 100, 1, 1),
    ];
    for score in ScoreFn::ALL {
        let order = rank(score, 100, &jobs, false);
        assert_eq!(order.len(), jobs.len(), "{score:?} dropped a job");
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(
            sorted,
            vec![JobId(0), JobId(1), JobId(2), JobId(3)],
            "{score:?} duplicated or lost an id"
        );
    }
}
