//! Selection strategies: greedy list scheduling and the two backfilling
//! variants of §5.2 (Lifka \[10\], Feitelson & Weil \[4\]).
//!
//! All strategies take the current priority order of the waiting jobs —
//! their requests, walked in order and never looked up by id — and the
//! machine state, and return the jobs to start *now*:
//!
//! * [`BackfillMode::None`] — plain greedy list ("the next job in the list
//!   is started as soon as the necessary resources are available"): start
//!   from the head until the first job that does not fit.
//! * [`BackfillMode::Easy`] — "EASY backfill … will not postpone the
//!   *projected* execution of the next job in the list \[but\] may increase
//!   the completion time of jobs further down the list": compute the head
//!   job's shadow time and spare nodes from the projected ends of running
//!   jobs; backfill any later job that fits now and either ends (by its
//!   estimate) before the shadow time or uses only spare nodes.
//! * [`BackfillMode::Conservative`] — "will not increase the *projected*
//!   completion time of a job submitted before the job used for
//!   backfilling": every queued job gets a reservation in priority order;
//!   a job starts now only if its earliest reservation is now. A decision
//!   books reservations only until no job left can start now: later ones
//!   could not change it.
//!
//! Every scan covers one node-class pool (`ClassId(0)` of a single-class
//! machine is the whole machine); the list scheduler runs one per pool
//! over the jobs resolved to it.
//!
//! Both backfilling scans honour an optional [`ExclusiveWindow`]: a job
//! it does not admit now cannot start now, and a projected start is the
//! earliest *admissible* one.
//!
//! All reasoning uses user estimates; §5.2's caveat — a running job "may
//! terminate within the next 5 minutes" instead of its projected 2 hours,
//! so backfilled jobs can still delay skipped ones relative to FCFS —
//! plays out naturally in the simulator through early finish events.

use crate::switching::ExclusiveWindow;
use jobsched_sim::profile::HORIZON;
use jobsched_sim::{JobRequest, Machine, Profile};
use jobsched_workload::{ClassId, JobId, Time};

/// The earliest start ≥ `from` that both `earliest` (a profile's
/// earliest fitting start) and the window admit: alternate the two until
/// they agree.
fn earliest_admissible(
    window: Option<&ExclusiveWindow>,
    estimate: Time,
    mut from: Time,
    mut earliest: impl FnMut(Time) -> Time,
) -> Time {
    loop {
        let start = earliest(from);
        match window {
            Some(w) if start < HORIZON => from = w.admissible_from(start, estimate),
            _ => return start,
        }
        if from == start {
            return start;
        }
    }
}

/// Backfilling flavour applied on top of a priority order (§5.2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BackfillMode {
    /// Plain greedy list schedule (the paper's "Listscheduler" column).
    #[default]
    None,
    /// Conservative backfilling (the paper's "Backfilling" column).
    Conservative,
    /// EASY backfilling (the paper's "EASY-Backfilling" column).
    Easy,
}

impl BackfillMode {
    /// Column label used in reports, matching the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            BackfillMode::None => "Listscheduler",
            BackfillMode::Conservative => "Backfilling",
            BackfillMode::Easy => "EASY-Backfilling",
        }
    }
}

/// Greedy head-blocking list schedule over one node-class pool: start
/// jobs in priority order until the first that does not fit. The order
/// must contain only jobs resolved to `class`; on a single-class machine
/// `ClassId(0)` is the whole machine.
///
/// Lazy over the order: stops consuming at the first misfit, so a plain
/// list decision (FCFS, SMART, PSRS) pays O(started + 1), not O(queue) —
/// which is what makes the paper's Table 7 cost relationships (list
/// scheduling far cheaper than backfilling) measurable.
pub fn select_head_blocking_in<'a>(
    class: ClassId,
    order: impl IntoIterator<Item = &'a JobRequest>,
    machine: &Machine,
) -> Vec<JobId> {
    let mut free = machine.free_in(class);
    let mut out = Vec::new();
    for job in order {
        if job.nodes <= free {
            free -= job.nodes;
            out.push(job.id);
        } else {
            break;
        }
    }
    out
}

/// Result of a full EASY scan: the selected jobs plus the shadow state
/// that lets the scheduler test later arrivals incrementally (the blocked
/// head's projected start and the spare nodes at that instant).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EasyScan {
    /// Jobs to start now.
    pub picks: Vec<JobId>,
    /// Projected start of the blocked head job; [`jobsched_sim::profile::HORIZON`]
    /// when no job is blocked.
    pub shadow: Time,
    /// Nodes left over at the shadow instant once the head starts.
    pub extra: u32,
    /// Free nodes remaining now after the picks.
    pub free: u32,
}

/// EASY backfilling (Lifka's original method), full scan of one
/// node-class pool over its incremental [`jobsched_sim::LiveProfile`]:
/// free nodes, the profile and the shadow computation all read only that
/// pool, and the order must contain only jobs resolved to `class`.
///
/// When phase 1 starts nothing (the usual steady state: the head stays
/// blocked), the shadow time and spare nodes are answered directly from
/// the calendar — no step function is materialised at all. Otherwise the
/// calendar is merged into `scratch` (linear, no sort, reusing its
/// allocation) and the just-started picks are overlaid as reservations.
/// The requests of the phase-1 picks and of the blocked head are kept
/// from the walk, never looked up again.
///
/// Under an exclusive `window`, a job it does not admit now blocks like
/// one that does not fit, and a backfill candidate must be admissible.
pub fn scan_easy_live_in<'a>(
    class: ClassId,
    order: impl IntoIterator<Item = &'a JobRequest>,
    window: Option<&ExclusiveWindow>,
    machine: &Machine,
    now: Time,
    scratch: &mut Profile,
) -> EasyScan {
    let mut order = order.into_iter();
    let mut free = machine.free_in(class);
    let admitted = |job: &JobRequest| window.is_none_or(|w| w.admits(now, job.requested_time));

    // Phase 1: start head jobs greedily until one blocks.
    let mut started: Vec<&JobRequest> = Vec::new();
    let mut blocked_head = None;
    for job in &mut order {
        if job.nodes <= free && admitted(job) {
            free -= job.nodes;
            started.push(job);
        } else {
            blocked_head = Some(job);
            break;
        }
    }
    let mut out: Vec<JobId> = started.iter().map(|j| j.id).collect();
    let Some(head) = blocked_head else {
        return EasyScan {
            picks: out,
            shadow: HORIZON,
            extra: free,
            free,
        };
    };

    // Phase 2: compute the blocked head's shadow time from the projected
    // ends of running jobs plus the jobs just started (which also hold
    // nodes until their projected ends). Spare nodes: what remains free
    // at the shadow time once the head job has taken its share.
    let head_duration = head.requested_time.max(1);
    let live = machine.class_profile(class);
    let estimate = head.requested_time;
    let (shadow, mut extra) = if out.is_empty() {
        // Nothing started: the live calendar *is* the profile.
        let shadow = earliest_admissible(window, estimate, now, |from| {
            live.earliest_start(now, head.nodes, head_duration, from)
        });
        (shadow, live.free_at(now, shadow).saturating_sub(head.nodes))
    } else {
        live.snapshot_into(now, scratch);
        for j in &started {
            scratch.reserve(j.nodes, now, j.requested_time.max(1));
        }
        let shadow = earliest_admissible(window, estimate, now, |from| {
            scratch.earliest_start(head.nodes, head_duration, from)
        });
        (shadow, scratch.free_at(shadow).saturating_sub(head.nodes))
    };

    // Phase 3: backfill later jobs that fit now and do not push the head's
    // projected start.
    for job in order {
        if free == 0 {
            break;
        }
        if job.nodes > free || !admitted(job) {
            continue;
        }
        let ends_by_shadow = now + job.requested_time.max(1) <= shadow;
        if ends_by_shadow {
            free -= job.nodes;
            out.push(job.id);
        } else if job.nodes <= extra {
            free -= job.nodes;
            extra -= job.nodes;
            out.push(job.id);
        }
    }
    EasyScan {
        picks: out,
        shadow,
        extra,
        free,
    }
}

/// Result of a full conservative scan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConservativeScan {
    /// Jobs to start now.
    pub picks: Vec<JobId>,
    /// Free nodes left *now* after all reservations of the scan — a later
    /// arrival needing more than this cannot start now.
    pub leftover: u32,
}

/// Queue depth beyond which the conservative scan switches to the
/// horizon-truncated fast path (see [`scan_conservative_live_in`]). Depths
/// like this only arise under pathological overload (the §6.3 randomized
/// workload); the paper-relevant workloads stay on the exact path.
pub const CONSERVATIVE_TRUNCATION_DEPTH: usize = 512;

/// Conservative backfilling, one decision over one node-class pool: merge
/// the pool's incremental [`jobsched_sim::LiveProfile`] into `profile`
/// (linear, no sort, reusing its allocation), book the reservation
/// calendar (covering only that pool's capacity) there in priority
/// order, and start exactly the jobs whose reservation is `now`. The
/// order must contain only jobs resolved to `class`; `queue_len` and
/// `longest_estimate` describe the whole wait queue and set the
/// truncation below.
///
/// **The scan stops as soon as no job left in it can start now.** A
/// booking only lowers the calendar, and one that starts after `now`
/// leaves the free nodes at `now` alone; so a job that cannot start now
/// at some point of the scan never can later in it. The scan keeps a
/// *probe* — the first job at or after its position that could still
/// start now (enough nodes free now, and the calendar holds them for its
/// whole estimate) — re-tested only after a booking or once the scan
/// passes it, and advanced over the order by a cloned cursor. When no
/// such job is left, the remaining reservations could change neither a
/// pick nor the free nodes now: the picks and `leftover` are exactly
/// those of booking every job. Each booking is one pass over the steps:
/// [`Profile::earliest_slot`] keeps the step its start falls in and
/// [`Profile::reserve_slot`] books from there.
///
/// Under an exclusive `window`, a job it does not admit now cannot start
/// now; admissibility at `now` is fixed within the decision, so the early
/// stop still holds.
///
/// For queues deeper than [`CONSERVATIVE_TRUNCATION_DEPTH`] the scan
/// truncates the calendar at a horizon of `now + 4 × longest estimate`:
/// reservations landing beyond it are not booked. A "start now" window
/// always ends within one requested time of `now`, so dropped
/// reservations can never overlap one; the approximation can only make
/// the scan *less* eager in contrived window-crossing cases (a job that a
/// full calendar would admit may wait one more event), never break the
/// conservative no-delay guarantee.
#[allow(clippy::too_many_arguments)]
pub fn scan_conservative_live_in<'a, I>(
    class: ClassId,
    order: I,
    queue_len: usize,
    longest_estimate: Time,
    window: Option<&ExclusiveWindow>,
    machine: &Machine,
    now: Time,
    profile: &mut Profile,
) -> ConservativeScan
where
    I: IntoIterator<Item = &'a JobRequest>,
    I::IntoIter: Clone,
{
    machine.class_profile(class).snapshot_into(now, profile);
    // Bounded reservation lookahead on deep queues (production batch
    // schedulers do the same): only the first 2×depth priority entries
    // get reservations. Jobs beyond that window are under hours of
    // higher-priority backlog; they re-enter the window as it drains.
    let (scan_limit, horizon) = if queue_len > CONSERVATIVE_TRUNCATION_DEPTH {
        let span = longest_estimate.max(1).saturating_mul(4);
        (2 * CONSERVATIVE_TRUNCATION_DEPTH, now.saturating_add(span))
    } else {
        (usize::MAX, HORIZON)
    };
    let jobs = order.into_iter().take(scan_limit);
    let can_start_now = |p: &Profile, job: &JobRequest| {
        window.is_none_or(|w| w.admits(now, job.requested_time))
            && p.fits_from_start(job.nodes, job.requested_time)
    };

    let mut picks = Vec::new();
    let mut ahead = jobs.clone().enumerate();
    let mut probe: Option<(usize, &JobRequest)> = None;
    let mut booked = false;
    for (at, job) in jobs.enumerate() {
        let holds = probe.is_some_and(|(p, r)| p >= at && (!booked || can_start_now(profile, r)));
        if !holds {
            // Every job between the scan position and the cursor was
            // already found unable to start now, so it still is.
            probe = ahead.find(|&(_, r)| can_start_now(profile, r));
            if probe.is_none() {
                break;
            }
        }
        booked = false;
        let duration = job.requested_time.max(1);
        let from = match window {
            None => now,
            Some(_) => earliest_admissible(window, job.requested_time, now, |from| {
                profile.earliest_start(job.nodes, duration, from)
            }),
        };
        match profile.earliest_slot(job.nodes, duration, from) {
            Some(slot) if slot.start < horizon => {
                profile.reserve_slot(job.nodes, slot, duration);
                booked = true;
                if slot.start == now {
                    picks.push(job.id);
                }
            }
            _ => {} // cannot overlap any start-now window
        }
    }
    ConservativeScan {
        picks,
        leftover: profile.free_at_start(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    const POOL: ClassId = ClassId(0);

    fn select_easy(order: &[JobRequest], m: &Machine, now: Time) -> Vec<JobId> {
        scan_easy_live_in(POOL, order, None, m, now, &mut Profile::empty(1, 0)).picks
    }

    fn select_conservative(order: &[JobRequest], m: &Machine, now: Time) -> Vec<JobId> {
        let longest = order.iter().map(|r| r.requested_time).max().unwrap_or(0);
        let mut scratch = Profile::empty(1, 0);
        scan_conservative_live_in(
            POOL,
            order,
            order.len(),
            longest,
            None,
            m,
            now,
            &mut scratch,
        )
        .picks
    }

    #[test]
    fn head_blocking_stops_at_first_misfit() {
        let m = Machine::new(10);
        let order = [req(0, 4, 10), req(1, 8, 10), req(2, 1, 10)];
        // J1 does not fit after J0; J2 would, but head-blocking stops.
        assert_eq!(select_head_blocking_in(POOL, &order, &m), vec![JobId(0)]);
    }

    #[test]
    fn easy_backfills_short_job_behind_blocked_head() {
        let mut m = Machine::new(10);
        // Running job until 100. Head needs 8 nodes → shadow = 100. A
        // 4-node job with estimate 50 ends by the shadow and is backfilled.
        m.start(JobId(9), 6, 0, 100).unwrap();
        let order = [req(0, 8, 1000), req(1, 4, 50)];
        assert_eq!(select_easy(&order, &m, 0), vec![JobId(1)]);
    }

    #[test]
    fn easy_rejects_backfill_that_delays_head() {
        let mut m = Machine::new(10);
        m.start(JobId(9), 6, 0, 100).unwrap();
        // Head needs 8 → shadow 100, extra = 10 − 8 = 2 at shadow.
        // A 4-node job with estimate 200 runs past the shadow and exceeds
        // the 2 spare nodes → rejected.
        let order = [req(0, 8, 1000), req(1, 4, 200)];
        assert!(select_easy(&order, &m, 0).is_empty());
    }

    #[test]
    fn easy_allows_long_backfill_within_spare_nodes() {
        let mut m = Machine::new(10);
        m.start(JobId(9), 6, 0, 100).unwrap();
        // 2-node long job ≤ extra (2): cannot delay the 8-node head.
        let order = [req(0, 8, 1000), req(1, 2, 10_000)];
        assert_eq!(select_easy(&order, &m, 0), vec![JobId(1)]);
    }

    #[test]
    fn easy_counts_started_jobs_in_shadow() {
        let m = Machine::new(10);
        // Empty machine: J0 starts now (6 nodes, until 100). Head J1 needs
        // 8 → shadow 100 with extra 2. J2 (4 nodes, long) must not
        // backfill; J3 (2 nodes, long) may.
        let order = [
            req(0, 6, 100),
            req(1, 8, 1000),
            req(2, 4, 5000),
            req(3, 2, 5000),
        ];
        assert_eq!(select_easy(&order, &m, 0), vec![JobId(0), JobId(3)]);
    }

    #[test]
    fn conservative_starts_only_reservations_at_now() {
        let mut m = Machine::new(10);
        m.start(JobId(9), 6, 0, 100).unwrap();
        // J0 (head, 8 nodes) reserves at 100. J1 (4 nodes, est 50) fits
        // before the reservation → starts now. J2 (4 nodes, est 200) would
        // collide with J0's reservation → reserves later, does not start.
        let order = [req(0, 8, 1000), req(1, 4, 50), req(2, 4, 200)];
        assert_eq!(select_conservative(&order, &m, 0), vec![JobId(1)]);
    }

    #[test]
    fn conservative_respects_earlier_reservations() {
        let mut m = Machine::new(10);
        // Machine full until 100: nothing can start now regardless of order.
        m.start(JobId(9), 10, 0, 100).unwrap();
        let order = [req(0, 1, 10), req(1, 1, 10)];
        assert!(select_conservative(&order, &m, 0).is_empty());
    }

    #[test]
    fn conservative_chains_reservations() {
        let m = Machine::new(10);
        // Empty machine. J0 takes all 10 nodes (est 100): starts now.
        // J1 (10 nodes) reserves [100, 200). J2 (1 node, est 50): its
        // earliest window inside [0,100) is gone (J0 holds 10), so it can
        // only start at 200 — J1's full-machine reservation blocks it.
        let order = [req(0, 10, 100), req(1, 10, 100), req(2, 1, 50)];
        assert_eq!(select_conservative(&order, &m, 0), vec![JobId(0)]);
    }

    #[test]
    fn all_strategies_return_feasible_sets() {
        let mut m = Machine::new(20);
        m.start(JobId(99), 7, 0, 500).unwrap();
        let reqs: Vec<JobRequest> = (0..12)
            .map(|i| req(i, 1 + (i * 5) % 16, 50 + 100 * i as Time))
            .collect();
        let order = reqs;
        for picks in [
            select_head_blocking_in(POOL, &order, &m),
            select_easy(&order, &m, 0),
            select_conservative(&order, &m, 0),
        ] {
            let total: u32 = picks.iter().map(|id| order[id.index()].nodes).sum();
            assert!(total <= m.free_nodes(), "picks {picks:?} overcommit");
        }
    }

    #[test]
    fn empty_order_yields_nothing() {
        let m = Machine::new(10);
        let order: [JobRequest; 0] = [];
        assert!(select_head_blocking_in(POOL, &order, &m).is_empty());
        assert!(select_easy(&order, &m, 0).is_empty());
        assert!(select_conservative(&order, &m, 0).is_empty());
    }
}
