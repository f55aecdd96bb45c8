//! Property tests for the availability profile: the optimized sweep in
//! `Profile::earliest_start` is checked against a brute-force oracle that
//! tries every candidate instant.
//!
//! Randomization runs on the crate's own deterministic generators
//! (`jobsched_workload::rng`) — the offline build has no `proptest` —
//! so these properties run in every plain `cargo test`.

use jobsched_sim::Profile;
use jobsched_workload::rng::{derive_seed, Rng, SmallRng};
use jobsched_workload::Time;

const CASES: u64 = 256;
const TOTAL: u32 = 64;

/// Brute force: test each instant in `[from, limit]` directly via
/// `min_free` (itself trivially correct by definition).
fn brute_earliest_start(
    p: &Profile,
    nodes: u32,
    duration: Time,
    from: Time,
    limit: Time,
) -> Option<Time> {
    (from..=limit).find(|&t| p.min_free(t, t + duration.max(1)) >= nodes)
}

/// Up to 12 random (nodes, start, duration) reservation requests — the
/// shape the old proptest strategy generated.
fn arb_reservations(rng: &mut SmallRng) -> Vec<(u32, Time, Time)> {
    let len = rng.random_range(0usize..12);
    (0..len)
        .map(|_| {
            (
                rng.random_range(1u32..=16),
                rng.random_range(0u64..200),
                rng.random_range(1u64..100),
            )
        })
        .collect()
}

/// Book the requests the way real callers do: at the earliest feasible
/// start, skipping any that land beyond the test horizon.
fn booked_profile(rng: &mut SmallRng) -> Profile {
    let mut p = Profile::empty(TOTAL, 0);
    for (n, start, dur) in arb_reservations(rng) {
        let s = p.earliest_start(n, dur, start);
        if s < 1_000_000 {
            p.reserve(n, s, dur);
        }
    }
    p
}

#[test]
fn earliest_start_matches_brute_force() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(derive_seed(0xEA51, case));
        let p = booked_profile(&mut rng);
        let nodes = rng.random_range(1u32..=TOTAL);
        let duration = rng.random_range(1u64..150);
        let from = rng.random_range(0u64..250);
        let fast = p.earliest_start(nodes, duration, from);
        // All reservations end before ~1100, so search a hair past that.
        let brute = brute_earliest_start(&p, nodes, duration, from, 1_200);
        assert_eq!(Some(fast), brute, "case {case}: profile {p:?}");
    }
}

#[test]
fn reserve_never_goes_negative_when_guided() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(derive_seed(0x4E57, case));
        let mut p = Profile::empty(TOTAL, 0);
        for (n, start, dur) in arb_reservations(&mut rng) {
            let s = p.earliest_start(n, dur, start);
            p.reserve(n, s, dur); // must not panic: earliest_start vouched
            assert!(p.free_at(s) <= TOTAL, "case {case}");
        }
    }
}

#[test]
fn free_at_is_step_constant_between_breakpoints() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(derive_seed(0x57E9, case));
        let p = booked_profile(&mut rng);
        let t = rng.random_range(0u64..400);
        // min_free over a unit window equals free_at.
        assert_eq!(p.min_free(t, t + 1), p.free_at(t), "case {case}");
    }
}

#[test]
fn max_free_before_bounds_free_at() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(derive_seed(0x3A8F, case));
        let p = booked_profile(&mut rng);
        let horizon = rng.random_range(1u64..400);
        let t = rng.random_range(0u64..400);
        if t < horizon {
            assert!(p.max_free_before(horizon) >= p.free_at(t), "case {case}");
        }
    }
}
