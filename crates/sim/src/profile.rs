//! Future-availability profile.
//!
//! Both backfilling variants of §5.2 reason about when nodes will become
//! free: EASY needs the head job's *shadow time*; conservative backfilling
//! needs a full reservation calendar. The [`Profile`] is the shared data
//! structure: a step function `t ↦ free nodes` from "now" to infinity,
//! built from the projected ends of running jobs and refined by
//! reservations.
//!
//! All times here are *projections* based on user estimates; the paper
//! (§5.2) stresses that reality can only free resources earlier, never
//! later, so a feasible reservation stays feasible.

use jobsched_workload::Time;
use std::collections::BTreeMap;

/// Sentinel for "never" / unbounded horizon.
pub const HORIZON: Time = Time::MAX / 4;

/// Earliest-fit sweep shared by [`Profile`] and [`LiveProfile`].
///
/// `level_at_from` is the free-node level governing the instant `from`;
/// `later` yields the `(time, free)` breakpoints strictly after `from` in
/// ascending time order with **no duplicate times**. A window is feasible
/// when every step inside it offers `nodes` free; on a violation the
/// candidate jumps past the violating step, which never moves the scan
/// backwards — a single forward pass.
///
/// Both profile types delegate here, so the incremental structure answers
/// queries bit-identically to a freshly rebuilt step function (the
/// differential tests in `tests/live_profile_diff.rs` rely on this).
///
/// Returns the start and how many `later` breakpoints lie at or before it
/// (0 when the window opens at `from`), or `None` when no window ever
/// opens.
fn sweep_earliest(
    nodes: u32,
    duration: Time,
    from: Time,
    level_at_from: u32,
    later: impl Iterator<Item = (Time, u32)>,
) -> Option<(Time, usize)> {
    let duration = duration.max(1);
    let mut candidate = (level_at_from >= nodes).then_some((from, 0));
    for (k, (t, f)) in later.enumerate() {
        match candidate {
            Some((c, _)) => {
                if t >= c.saturating_add(duration) {
                    return candidate; // window [c, c+duration) clear
                }
                if f < nodes {
                    candidate = None; // violated: restart past this step
                }
            }
            None => {
                if f >= nodes {
                    candidate = Some((t, k + 1));
                }
            }
        }
    }
    candidate
}

/// A window found by [`Profile::earliest_slot`]: its start and the index
/// of the step governing that instant, so [`Profile::reserve_slot`] books
/// it without searching the steps again. Valid until the profile changes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot {
    /// Earliest feasible start.
    pub start: Time,
    step: usize,
}

/// Step function of free nodes over future time.
///
/// `steps` is a sorted list of `(time, free)` breakpoints; `free` holds from
/// that time until the next breakpoint. The first breakpoint is "now"; the
/// last extends to infinity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Profile {
    steps: Vec<(Time, u32)>,
    total: u32,
}

impl Profile {
    /// An all-free profile (empty machine) — useful for offline planning.
    pub fn empty(total: u32, now: Time) -> Self {
        Profile {
            steps: vec![(now, total)],
            total,
        }
    }

    /// Machine size.
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Free nodes at time `t` (clamped to the profile's start).
    pub fn free_at(&self, t: Time) -> u32 {
        match self.steps.binary_search_by_key(&t, |&(time, _)| time) {
            Ok(i) => self.steps[i].1,
            Err(0) => self.steps[0].1,
            Err(i) => self.steps[i - 1].1,
        }
    }

    /// Index of the step governing time `t` (clamped to the first step).
    #[inline]
    fn step_index(&self, t: Time) -> usize {
        match self.steps.binary_search_by_key(&t, |&(time, _)| time) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }

    /// Free nodes at the profile's start ("now" of a snapshot).
    #[inline]
    pub fn free_at_start(&self) -> u32 {
        self.steps[0].1
    }

    /// Whether `nodes` nodes are continuously free for `duration` seconds
    /// from the profile's start — i.e. whether
    /// [`Profile::earliest_start`] from the start would return the start.
    /// Walks from the first step and returns at the first step that
    /// decides it.
    pub fn fits_from_start(&self, nodes: u32, duration: Time) -> bool {
        let (start, level) = self.steps[0];
        if level < nodes {
            return false;
        }
        let end = start.saturating_add(duration.max(1));
        for &(t, f) in &self.steps[1..] {
            if t >= end {
                return true;
            }
            if f < nodes {
                return false;
            }
        }
        true
    }

    /// Earliest time ≥ `from` at which `nodes` nodes are continuously free
    /// for `duration` seconds.
    ///
    /// Binary search positions the scan at `from`; `sweep_earliest` then
    /// runs a single left-to-right pass over the remaining breakpoints
    /// (amortised O(P)). Because projections only ever *over*-state
    /// occupancy, the returned time is a safe (conservative) start for a
    /// reservation.
    pub fn earliest_start(&self, nodes: u32, duration: Time, from: Time) -> Time {
        self.earliest_slot(nodes, duration, from)
            .map_or(HORIZON, |slot| slot.start)
    }

    /// [`Profile::earliest_start`] with the step governing the start kept
    /// for [`Profile::reserve_slot`]; `None` where it returns
    /// [`HORIZON`] because no window ever opens.
    pub fn earliest_slot(&self, nodes: u32, duration: Time, from: Time) -> Option<Slot> {
        assert!(nodes <= self.total, "request exceeds machine size");
        let i = self.step_index(from);
        sweep_earliest(
            nodes,
            duration,
            from,
            self.steps[i].1,
            self.steps[i + 1..].iter().copied(),
        )
        .map(|(start, k)| Slot { start, step: i + k })
    }

    /// Subtract `nodes` from the profile over `[start, start + duration)`
    /// — i.e. book a reservation. Panics if the interval lacks capacity
    /// (callers must use [`Profile::earliest_start`] first).
    pub fn reserve(&mut self, nodes: u32, start: Time, duration: Time) {
        let step = self.step_index(start);
        self.book(nodes, start, step, duration);
    }

    /// Book the window [`Profile::earliest_slot`] just found, with no
    /// search: split its governing step, decrement forward, and insert
    /// the end breakpoint where the walk stops.
    pub fn reserve_slot(&mut self, nodes: u32, slot: Slot, duration: Time) {
        self.book(nodes, slot.start, slot.step, duration);
    }

    /// Book `nodes` over `[start, start + duration)`, where `at` is the
    /// step governing `start` (the first step when `start` precedes the
    /// profile).
    fn book(&mut self, nodes: u32, start: Time, mut at: usize, duration: Time) {
        let end = start.saturating_add(duration.max(1));
        if self.steps[at].0 < start {
            let level = self.steps[at].1;
            at += 1;
            self.steps.insert(at, (start, level));
        }
        let first = at;
        while let Some((t, f)) = self.steps.get_mut(at) {
            if *t >= end {
                break;
            }
            assert!(
                *f >= nodes,
                "reservation overcommit at t={t}: {f} free, {nodes} wanted"
            );
            *f -= nodes;
            at += 1;
        }
        if at > first && self.steps.get(at).is_none_or(|&(t, _)| t > end) {
            let level = self.steps[at - 1].1 + nodes;
            self.steps.insert(at, (end, level));
        }
    }

    /// Number of breakpoints (diagnostics).
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the profile has no breakpoints (never after construction).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// Persistent, incrementally-maintained availability calendar.
///
/// Instead of rebuilding the whole step function from the running set on
/// every call (collect + sort, O(R log R) per scheduling decision), a
/// `LiveProfile` lives as long as the machine and absorbs each job event
/// in O(log R): a start books `nodes` for release
/// at the job's projected end, a finish — early or on time — cancels that
/// booking. The release calendar is a sorted multimap keyed by projected
/// end, so every query positions itself with tree search instead of a
/// rebuild.
///
/// Reading the calendar "as of `now`" applies one projection rule:
/// bookings whose projected end has already passed (the job overran its estimate and must end at any moment) count
/// as releasing at `now + 1`. Queries ([`LiveProfile::free_at`],
/// [`LiveProfile::earliest_start`]) answer directly from the calendar;
/// [`LiveProfile::snapshot_into`] materialises a scratch [`Profile`] —
/// a linear merge with no sorting — for callers that need to overlay
/// reservations (the conservative backfilling calendar, EASY's
/// just-started picks). All of them are bit-identical to rebuilding from
/// scratch, which the differential tests enforce against the oracle's
/// brute-force rebuild.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LiveProfile {
    total: u32,
    free: u32,
    /// Nodes released at each future (or past-due) projected end.
    releases: BTreeMap<Time, u32>,
}

impl LiveProfile {
    /// All-free calendar for a machine of `total` nodes.
    pub fn new(total: u32) -> Self {
        LiveProfile {
            total,
            free: total,
            releases: BTreeMap::new(),
        }
    }

    /// Machine size.
    #[inline]
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Nodes free right now.
    #[inline]
    pub fn free_nodes(&self) -> u32 {
        self.free
    }

    /// A job took `nodes` nodes until `projected_end`. O(log R).
    pub fn on_start(&mut self, nodes: u32, projected_end: Time) {
        assert!(nodes <= self.free, "profile overcommit on start");
        self.free -= nodes;
        *self.releases.entry(projected_end).or_insert(0) += nodes;
    }

    /// A job holding `nodes` nodes with the given projection finished —
    /// possibly earlier than projected. Cancels its booking. O(log R).
    pub fn on_finish(&mut self, nodes: u32, projected_end: Time) {
        let entry = self
            .releases
            .get_mut(&projected_end)
            .expect("finish without matching start");
        assert!(*entry >= nodes, "finish releases more than was booked");
        *entry -= nodes;
        if *entry == 0 {
            self.releases.remove(&projected_end);
        }
        self.free += nodes;
    }

    /// The `(time, free)` breakpoints strictly after `now`, ascending,
    /// duplicate-free, with past-due bookings merged into a `now + 1`
    /// release — exactly the tail of a from-scratch rebuild's steps.
    fn steps_after(&self, now: Time) -> LiveSteps<'_> {
        let pending: u32 = self.releases.range(..=now).map(|(_, &n)| n).sum();
        LiveSteps {
            level: self.free,
            pending,
            imminent: now + 1,
            future: self.releases.range(now + 1..),
        }
    }

    /// Free nodes at time `t`, viewed from `now` (clamped like
    /// [`Profile::free_at`]: instants at or before `now` see the current
    /// level).
    pub fn free_at(&self, now: Time, t: Time) -> u32 {
        if t <= now {
            return self.free;
        }
        // Every booking with a release instant ≤ t is free by t; past-due
        // bookings release at now + 1 ≤ t and their keys are ≤ now < t, so
        // a single range sum covers both kinds.
        self.free + self.releases.range(..=t).map(|(_, &n)| n).sum::<u32>()
    }

    /// Earliest time ≥ `from` at which `nodes` nodes are continuously free
    /// for `duration` seconds, viewed from `now`. Tree-search positioning
    /// plus the same forward sweep as [`Profile::earliest_start`].
    pub fn earliest_start(&self, now: Time, nodes: u32, duration: Time, from: Time) -> Time {
        assert!(nodes <= self.total, "request exceeds machine size");
        sweep_earliest(
            nodes,
            duration,
            from,
            self.free_at(now, from),
            self.steps_after(now).skip_while(move |&(t, _)| t <= from),
        )
        .map_or(HORIZON, |(start, _)| start)
    }

    /// Materialise the step function at `now` into `out`, reusing its
    /// allocation. Linear in the number of breakpoints, no sorting —
    /// the calendar is already ordered. Bit-identical to rebuilding the
    /// step function from the running set at `now`.
    pub fn snapshot_into(&self, now: Time, out: &mut Profile) {
        out.total = self.total;
        out.steps.clear();
        out.steps.push((now, self.free));
        out.steps.extend(self.steps_after(now));
    }

    /// Materialise a fresh step function at `now`.
    pub fn snapshot(&self, now: Time) -> Profile {
        let mut out = Profile {
            steps: Vec::with_capacity(self.releases.len() + 1),
            total: self.total,
        };
        self.snapshot_into(now, &mut out);
        out
    }
}

/// Iterator behind [`LiveProfile::steps_after`]: merges the lumped
/// past-due release (at `now + 1`) with the future release entries,
/// coalescing a future entry that falls exactly on `now + 1` so no
/// duplicate breakpoint times are ever produced.
struct LiveSteps<'a> {
    level: u32,
    pending: u32,
    imminent: Time,
    future: std::collections::btree_map::Range<'a, Time, u32>,
}

impl Iterator for LiveSteps<'_> {
    type Item = (Time, u32);

    fn next(&mut self) -> Option<(Time, u32)> {
        if self.pending > 0 {
            self.level += self.pending;
            self.pending = 0;
            if let Some((&t, &n)) = self.future.clone().next() {
                if t == self.imminent {
                    self.future.next();
                    self.level += n;
                }
            }
            return Some((self.imminent, self.level));
        }
        let (&t, &n) = self.future.next()?;
        self.level += n;
        Some((t, self.level))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use jobsched_workload::JobId;

    fn machine_with(slots: &[(u32, Time)], total: u32, now: Time) -> Machine {
        let mut m = Machine::new(total);
        for (i, &(nodes, end)) in slots.iter().enumerate() {
            m.start(JobId(i as u32), nodes, now, end).unwrap();
        }
        m
    }

    #[test]
    fn past_projections_treated_as_imminent() {
        // A job that overran its projection is modelled as ending at now+1.
        let mut m = Machine::new(10);
        m.start(JobId(0), 10, 0, 5).unwrap();
        let p = m.profile().snapshot(100);
        assert_eq!(p.free_at(100), 0);
        assert_eq!(p.free_at(101), 10);
    }

    #[test]
    fn earliest_start_now_when_free() {
        let m = machine_with(&[(100, 50)], 256, 0);
        let p = m.profile().snapshot(0);
        assert_eq!(p.earliest_start(156, 1000, 0), 0);
    }

    #[test]
    fn earliest_start_waits_for_release() {
        let m = machine_with(&[(200, 50)], 256, 0);
        let p = m.profile().snapshot(0);
        assert_eq!(p.earliest_start(100, 1000, 0), 50);
        assert_eq!(p.earliest_start(56, 1000, 0), 0);
    }

    #[test]
    fn earliest_start_respects_reservations() {
        let m = machine_with(&[(200, 50)], 256, 0);
        let mut p = m.profile().snapshot(0);
        // Reserve the whole machine for [50, 150).
        p.reserve(256, 50, 100);
        assert_eq!(p.earliest_start(100, 10, 0), 150);
        // 56 nodes are still free before t=50 for a short job.
        assert_eq!(p.earliest_start(56, 50, 0), 0);
        // ... but not for a job that would overlap the full reservation.
        assert_eq!(p.earliest_start(56, 51, 0), 150);
    }

    #[test]
    fn reserve_splits_intervals_exactly() {
        let mut p = Profile::empty(100, 0);
        p.reserve(40, 10, 20);
        assert_eq!(p.free_at(9), 100);
        assert_eq!(p.free_at(10), 60);
        assert_eq!(p.free_at(29), 60);
        assert_eq!(p.free_at(30), 100);
    }

    #[test]
    fn stacked_reservations_accumulate() {
        let mut p = Profile::empty(100, 0);
        p.reserve(40, 0, 100);
        p.reserve(40, 50, 100);
        assert_eq!(p.free_at(0), 60);
        assert_eq!(p.free_at(50), 20);
        assert_eq!(p.free_at(100), 60);
        assert_eq!(p.free_at(150), 100);
        // A short job fits before the stacked window...
        assert_eq!(p.earliest_start(50, 10, 0), 0);
        // ...but one spanning t=50 must wait for the 100-breakpoint.
        assert_eq!(p.earliest_start(50, 60, 0), 100);
    }

    #[test]
    #[should_panic(expected = "overcommit")]
    fn reserve_overcommit_panics() {
        let mut p = Profile::empty(10, 0);
        p.reserve(8, 0, 10);
        p.reserve(8, 5, 10);
    }

    #[test]
    fn earliest_start_from_future_time() {
        let m = machine_with(&[(200, 50)], 256, 0);
        let p = m.profile().snapshot(0);
        assert_eq!(p.earliest_start(100, 10, 60), 60);
        assert_eq!(p.earliest_start(100, 10, 20), 50);
    }

    // ------- edge cases: the profile at its boundaries -------

    #[test]
    fn reservation_ending_exactly_at_horizon() {
        // A reservation whose end lands exactly on the HORIZON sentinel
        // must not wrap, lose its end breakpoint, or poison later queries.
        let mut p = Profile::empty(100, 0);
        p.reserve(40, HORIZON - 50, 50);
        assert_eq!(p.free_at(HORIZON - 50), 60);
        assert_eq!(p.free_at(HORIZON - 1), 60);
        assert_eq!(p.free_at(HORIZON), 100);
        // A wide job whose window would overlap the reservation can only
        // start once it clears — exactly at the sentinel.
        assert_eq!(p.earliest_start(100, HORIZON, 0), HORIZON);
        // Short or narrow jobs still fit immediately.
        assert_eq!(p.earliest_start(100, 10, 0), 0);
        assert_eq!(p.earliest_start(60, HORIZON, 0), 0);
    }

    #[test]
    fn zero_free_node_machine() {
        // Machine fully busy: the profile starts at level 0 and every
        // query must wait for the release.
        let mut m = Machine::new(64);
        m.start(JobId(0), 64, 0, 30).unwrap();
        let p = m.profile().snapshot(0);
        assert_eq!(p.free_at(0), 0);
        assert_eq!(p.earliest_start(1, 5, 0), 30);
        assert_eq!(p.earliest_start(64, 5, 0), 30);
        let live = m.profile();
        assert_eq!(live.free_nodes(), 0);
        assert_eq!(live.earliest_start(0, 1, 5, 0), 30);
        assert_eq!(live.earliest_start(0, 64, 5, 0), 30);
    }

    #[test]
    fn duplicate_breakpoints_coalesce() {
        // Three jobs projecting the same end must yield ONE breakpoint
        // carrying the combined release, in the calendar and its snapshot.
        let m = machine_with(&[(10, 40), (20, 40), (30, 40)], 100, 0);
        let p = m.profile().snapshot(0);
        assert_eq!(p.len(), 2, "coalesced to [now, release]");
        assert_eq!(p.free_at(39), 40);
        assert_eq!(p.free_at(40), 100);
        assert_eq!(m.profile().releases.len(), 1);
    }

    #[test]
    fn now_aligned_projected_ends_count_as_imminent() {
        // Projected end == now (job exactly at its limit, the kill event
        // not yet processed): treated as releasing at now + 1, exactly
        // like an overrun projection.
        let mut m = Machine::new(10);
        m.start(JobId(0), 10, 0, 70).unwrap();
        let view = m.profile().snapshot(70);
        assert_eq!(view.free_at(70), 0);
        assert_eq!(view.free_at(71), 10);
        assert_eq!(view.earliest_start(10, 5, 70), 71);
        assert_eq!(m.profile().free_at(70, 70), 0);
        assert_eq!(m.profile().free_at(70, 71), 10);
        assert_eq!(m.profile().earliest_start(70, 10, 5, 70), 71);
    }

    #[test]
    fn past_due_and_next_instant_releases_coalesce() {
        // One booking already past due (releases at now+1) and another
        // projecting exactly now+1: the snapshot must contain a single
        // now+1 breakpoint with both releases merged — duplicate step
        // times would break the earliest-fit sweep.
        let mut m = Machine::new(30);
        m.start(JobId(0), 10, 0, 5).unwrap(); // past due at now = 20
        m.start(JobId(1), 10, 0, 21).unwrap(); // releases exactly at 21
        m.start(JobId(2), 10, 0, 50).unwrap();
        let snap = m.profile().snapshot(20);
        assert_eq!(snap.len(), 3, "[now, now + 1, 50]");
        assert_eq!(snap.free_at(20), 0);
        assert_eq!(snap.free_at(21), 20);
        assert_eq!(snap.free_at(50), 30);
        assert_eq!(snap.earliest_start(20, 100, 20), 21);
        assert_eq!(m.profile().earliest_start(20, 20, 100, 20), 21);
    }

    // ------- the live calendar's own bookkeeping -------

    #[test]
    fn live_profile_tracks_start_and_finish() {
        let mut live = LiveProfile::new(100);
        live.on_start(40, 50);
        live.on_start(30, 50);
        assert_eq!(live.free_nodes(), 30);
        assert_eq!(live.releases.len(), 1);
        live.on_finish(40, 50); // early completion cancels the booking
        assert_eq!(live.free_nodes(), 70);
        assert_eq!(live.releases.len(), 1);
        live.on_finish(30, 50);
        assert_eq!(live.free_nodes(), 100);
        assert_eq!(live.releases.len(), 0);
    }

    #[test]
    #[should_panic(expected = "overcommit")]
    fn live_profile_rejects_overcommit() {
        let mut live = LiveProfile::new(10);
        live.on_start(8, 50);
        live.on_start(8, 60);
    }

    #[test]
    #[should_panic(expected = "finish without matching start")]
    fn live_profile_rejects_unmatched_finish() {
        let mut live = LiveProfile::new(10);
        live.on_start(5, 50);
        live.on_finish(5, 60);
    }
}
