//! Property tests for the availability profile: the optimized sweep in
//! `Profile::earliest_start` is checked against a brute-force search that
//! tries every candidate instant, on levels recomputed from the booked
//! reservations themselves.
//!
//! Randomization runs on the crate's own deterministic generators
//! (`jobsched_workload::rng`) — the offline build has no `proptest` —
//! so these properties run in every plain `cargo test`.

use jobsched_sim::Profile;
use jobsched_workload::rng::{derive_seed, Rng, SmallRng};
use jobsched_workload::Time;

const CASES: u64 = 256;
const TOTAL: u32 = 64;

/// One booked reservation: `nodes` held over `[start, end)`.
type Booking = (u32, Time, Time);

/// Free nodes at `t`, straight from the bookings.
fn level(bookings: &[Booking], t: Time) -> u32 {
    let held: u32 = bookings
        .iter()
        .filter(|&&(_, start, end)| start <= t && t < end)
        .map(|&(n, _, _)| n)
        .sum();
    TOTAL - held
}

/// Minimum free nodes over `[from, to)`: the level can only drop where a
/// booking starts, so `from` and the starts inside the window suffice.
fn min_free(bookings: &[Booking], from: Time, to: Time) -> u32 {
    bookings
        .iter()
        .map(|&(_, start, _)| start)
        .filter(|&s| from < s && s < to)
        .chain([from])
        .map(|t| level(bookings, t))
        .min()
        .expect("the window's own start")
}

/// Brute force: test each instant in `[from, limit]` directly.
fn brute_earliest_start(
    bookings: &[Booking],
    nodes: u32,
    duration: Time,
    from: Time,
    limit: Time,
) -> Option<Time> {
    (from..=limit).find(|&t| min_free(bookings, t, t + duration.max(1)) >= nodes)
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
/// start, skipping any that land beyond the test horizon. Returns the
/// profile and what was booked on it.
fn booked_profile(rng: &mut SmallRng) -> (Profile, Vec<Booking>) {
    let mut p = Profile::empty(TOTAL, 0);
    let mut bookings = Vec::new();
    for (n, start, dur) in arb_reservations(rng) {
        let s = p.earliest_start(n, dur, start);
        if s < 1_000_000 {
            p.reserve(n, s, dur);
            bookings.push((n, s, s + dur));
        }
    }
    (p, bookings)
}

#[test]
fn earliest_start_matches_brute_force() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(derive_seed(0xEA51, case));
        let (p, bookings) = booked_profile(&mut rng);
        let nodes = rng.random_range(1u32..=TOTAL);
        let duration = rng.random_range(1u64..150);
        let from = rng.random_range(0u64..250);
        let fast = p.earliest_start(nodes, duration, from);
        // All reservations end before ~1100, so search a hair past that.
        let brute = brute_earliest_start(&bookings, nodes, duration, from, 1_200);
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
        let (p, bookings) = booked_profile(&mut rng);
        let t = rng.random_range(0u64..400);
        // The step function holds exactly the level its bookings leave.
        assert_eq!(p.free_at(t), level(&bookings, t), "case {case}");
    }
}

#[test]
fn fits_from_start_is_earliest_start_at_the_start() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(derive_seed(0xF175, case));
        let (p, _) = booked_profile(&mut rng);
        let nodes = rng.random_range(1u32..=TOTAL);
        let duration = rng.random_range(1u64..150);
        assert_eq!(
            p.fits_from_start(nodes, duration),
            p.earliest_start(nodes, duration, 0) == 0,
            "case {case}: profile {p:?}"
        );
        assert_eq!(p.free_at_start(), p.free_at(0), "case {case}");
    }
}

#[test]
fn reserve_slot_books_what_reserve_books() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(derive_seed(0x5107, case));
        let (mut by_time, mut by_slot) = (Profile::empty(TOTAL, 0), Profile::empty(TOTAL, 0));
        for (n, from, dur) in arb_reservations(&mut rng) {
            let slot = by_slot.earliest_slot(n, dur, from).expect("a window opens");
            let start = by_time.earliest_start(n, dur, from);
            assert_eq!(slot.start, start, "case {case}");
            by_time.reserve(n, start, dur);
            by_slot.reserve_slot(n, slot, dur);
            assert_eq!(by_slot, by_time, "case {case}");
        }
    }
}
