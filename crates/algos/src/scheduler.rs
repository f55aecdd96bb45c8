//! The unified list scheduler: ordering policy × selection strategy.
//!
//! Every algorithm of §5 is an instance of this scheduler: FCFS and
//! Garey & Graham use the submission order directly; SMART and PSRS keep a
//! priority order produced by their offline algorithm over the current
//! wait queue, re-run per the §5.4 trigger; jobs that arrived since the
//! last run are appended in submission order until the next run covers
//! them. The priority family ([`OrderPolicy::Score`]) ranks the queue by
//! a scoring rule: a time-invariant rule inserts each submission at its
//! ranked place, a wait-dependent one re-ranks once per decision instant.
//! Selection is head-blocking greedy, optionally upgraded with
//! conservative or EASY backfilling (§5.2); Garey & Graham instead starts
//! anything that fits (§5.3).
//!
//! The scans walk `&JobRequest`s, never ids to be looked up: FCFS and
//! Garey & Graham walk the wait queue's own values; SMART, PSRS and the
//! score orders a `MaintainedOrder` that submissions, starts and
//! cancellations keep current between decisions, so no decision rebuilds
//! it from the queue. Every scan is lazy, so a plain-list FCFS, SMART,
//! PSRS or time-invariant score decision costs O(started + 1) for the
//! scan, whatever the queue depth (a recomputation or re-rank aside).
//!
//! The §7 day/night combination is the same scheduler with a second,
//! off-peak regime ([`ListScheduler::with_off_peak`]): each regime keeps
//! its own order and §5.4 trigger over the one wait queue, and the regime
//! owning the decision instant selects, exactly as its own row would.
//! Example 4's exclusive window ([`ListScheduler::with_exclusive_window`])
//! binds every selection strategy in both regimes.

use crate::backfill::{
    scan_conservative_live_in, scan_easy_live_in, select_head_blocking_in, BackfillMode,
};
use crate::garey_graham::select_greedy_any_in;
use crate::order::{OrderPolicy, ReorderTrigger};
use crate::priority::{by_score_then_id, score_at, ScoreFn};
use crate::switching::{DailyWindow, ExclusiveWindow};
use crate::view::JobView;
use jobsched_sim::{JobRequest, Machine, Profile, Scheduler};
use jobsched_workload::{ClassId, JobId, Time};
use std::cell::Cell;

/// The wait queue: requests keyed by job id. Ids are assigned in
/// submission order by the workload, so ascending-id iteration *is*
/// submission order. An ordered map (never a dense id-indexed vector:
/// that would grow with the *trace*, and against a streamed
/// multi-million-job source the queue must stay O(backlog)) — lookups
/// are O(log q) in the queue length, which the backlog bounds.
#[derive(Clone, Debug, Default)]
struct Waiting {
    queue: std::collections::BTreeMap<JobId, JobRequest>,
    /// Longest requested time in the queue; `None` once a job holding it
    /// left, until [`Waiting::longest_estimate`] recomputes it.
    longest: Cell<Option<Time>>,
}

impl Waiting {
    /// Add a request.
    fn insert(&mut self, job: JobRequest) {
        let id = job.id;
        assert!(
            self.queue.insert(id, job).is_none(),
            "job {id} submitted twice"
        );
        if let Some(longest) = self.longest.get() {
            self.longest.set(Some(longest.max(job.requested_time)));
        }
    }

    /// Remove a request (when it starts).
    fn remove(&mut self, id: JobId) -> JobRequest {
        let job = self.queue.remove(&id).expect("removing unknown job");
        if self.longest.get() == Some(job.requested_time) {
            self.longest.set(None);
        }
        job
    }

    /// Longest requested time of any waiting job (0 when none wait).
    /// Kept as jobs arrive; recomputed over the queue only after the job
    /// that held it left.
    fn longest_estimate(&self) -> Time {
        self.longest.get().unwrap_or_else(|| {
            let longest = self.requests().map(|r| r.requested_time).max().unwrap_or(0);
            self.longest.set(Some(longest));
            longest
        })
    }

    /// Look up a waiting request. Panics on unknown ids (scheduler bug).
    #[inline]
    fn get(&self, id: JobId) -> &JobRequest {
        self.queue.get(&id).expect("unknown waiting job")
    }

    /// Whether the job is waiting.
    #[inline]
    fn contains(&self, id: JobId) -> bool {
        self.queue.contains_key(&id)
    }

    /// Number of waiting jobs.
    fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is empty.
    fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Highest waiting id — the current queue tail.
    fn max_id(&self) -> Option<JobId> {
        self.queue.keys().next_back().copied()
    }

    /// Waiting requests in submission order.
    fn requests(&self) -> impl ExactSizeIterator<Item = &JobRequest> + Clone + '_ {
        self.queue.values()
    }
}

/// The order of every policy but submission order (SMART, PSRS and the
/// score orders), kept current between decisions. It holds exactly the
/// waiting jobs: a *covered* prefix in the policy's order, then every
/// later arrival in id order (the uncovered tail). Submissions insert,
/// starts and cancellations remove and keep the relative order, so a
/// decision walks the order as it stands instead of rebuilding it from
/// the queue. What covers it depends on the policy:
///
/// - SMART and PSRS: the last [`OrderPolicy::compute`]'s order of the
///   jobs that still wait; a recomputation on the §5.4 trigger replaces
///   the whole order.
/// - A time-invariant score order ([`ScoreFn::time_invariant`]) is always
///   fully covered: a submission is inserted at its ranked `(score, id)`
///   place, and the order is never re-sorted.
/// - A wait-dependent score order is re-ranked by
///   [`MaintainedOrder::rank_at`] at a decision whose instant differs
///   from the last ranking's or that finds arrivals uncovered; another
///   round at the same instant reuses it.
#[derive(Debug, Default)]
struct MaintainedOrder {
    jobs: Vec<JobRequest>,
    /// Length of the covered prefix.
    covered: usize,
    /// Instant of the last ranking of a wait-dependent score order.
    ranked_at: Option<Time>,
    /// Reused by a re-rank: `(score, id, position)` sort keys, and the
    /// buffer the ranked order is gathered into.
    keys: Vec<(f64, JobId, u32)>,
    spare: Vec<JobRequest>,
    /// Reused by [`MaintainedOrder::remove`]: the removed ids, sorted.
    gone: Vec<JobId>,
}

impl MaintainedOrder {
    /// A newly waiting job joins the order. Under a time-invariant score
    /// it takes its ranked place. Otherwise it joins the uncovered tail in
    /// id order: a first-time submission carries the highest id so far
    /// and appends; a preempted job's remainder re-enters with its old id
    /// and is inserted by id (it left the covered prefix when it started).
    fn insert(&mut self, policy: &OrderPolicy, job: JobRequest) {
        if let OrderPolicy::Score(score) = *policy {
            if score.time_invariant() {
                // The score ignores the wait, so each job is keyed at its
                // own submission.
                let key = |r: &JobRequest| (score_at(score, r.submit, r), r.id);
                let own = key(&job);
                let at = self
                    .jobs
                    .partition_point(|r| by_score_then_id(key(r), own).is_lt());
                self.jobs.insert(at, job);
                self.covered += 1;
                return;
            }
        }
        let tail = &self.jobs[self.covered..];
        if tail.last().is_none_or(|last| last.id < job.id) {
            self.jobs.push(job);
        } else {
            let at = self.covered + tail.partition_point(|r| r.id < job.id);
            self.jobs.insert(at, job);
        }
    }

    /// Drop jobs that left the queue (started or cancelled).
    fn remove(&mut self, ids: &[JobId]) {
        if ids.is_empty() {
            return;
        }
        self.gone.clear();
        self.gone.extend_from_slice(ids);
        self.gone.sort_unstable();
        let (gone, covered, mut at, mut dropped) = (&self.gone, self.covered, 0, 0);
        self.jobs.retain(|r| {
            let keep = gone.binary_search(&r.id).is_err();
            if !keep && at < covered {
                dropped += 1;
            }
            at += 1;
            keep
        });
        debug_assert_eq!(self.jobs.len() + ids.len(), at, "removed unknown jobs");
        self.covered -= dropped;
    }

    /// Jobs that arrived since the last computation (the §5.4 trigger's
    /// "unordered" count).
    fn unordered(&self) -> usize {
        self.jobs.len() - self.covered
    }

    /// Re-run the policy's offline algorithm over the whole wait queue
    /// (views in id order, as the algorithms expect) and make its result
    /// the new, fully covered order.
    fn recompute(&mut self, policy: &OrderPolicy, waiting: &Waiting, machine_nodes: u32) {
        let views: Vec<JobView> = waiting
            .requests()
            .map(|r| JobView::of(r, policy.scheme()))
            .collect();
        let ids = policy.compute(&views, machine_nodes);
        debug_assert_eq!(ids.len(), waiting.len(), "compute must order every job");
        self.jobs.clear();
        self.jobs.extend(ids.iter().map(|&id| *waiting.get(id)));
        self.covered = self.jobs.len();
    }

    /// Rank a wait-dependent score order for a decision at `now`, unless
    /// the last ranking was at `now` and covers every job. 16-byte keys
    /// are sorted and the jobs gathered after them, into buffers kept
    /// from the last re-rank.
    /// A time-invariant order is always ranked: nothing to do.
    fn rank_at(&mut self, score: ScoreFn, now: Time) {
        if score.time_invariant()
            || (self.ranked_at == Some(now) && self.covered == self.jobs.len())
        {
            return;
        }
        self.keys.clear();
        self.keys.extend(
            self.jobs
                .iter()
                .zip(0u32..)
                .map(|(r, at)| (score_at(score, now, r), r.id, at)),
        );
        self.keys
            .sort_unstable_by(|a, b| by_score_then_id((a.0, a.1), (b.0, b.1)));
        self.spare.clear();
        self.spare
            .extend(self.keys.iter().map(|&(_, _, at)| self.jobs[at as usize]));
        std::mem::swap(&mut self.jobs, &mut self.spare);
        self.covered = self.jobs.len();
        self.ranked_at = Some(now);
    }

    /// The order as it stands.
    fn requests(&self) -> &[JobRequest] {
        &self.jobs
    }
}

/// The "nothing can start" state remembered between events so that a new
/// submission is tested in O(1) instead of re-scanning the whole queue.
///
/// Soundness: between two finish events the free-node count only shrinks
/// (starts) and absolute-time projections (the EASY shadow, conservative
/// reservations) stay valid, so a job rejected once stays rejected and a
/// later arrival can be judged against the remembered state alone. Any
/// finish event, priority re-computation of the regime it was taken
/// under, or switch to the other regime invalidates the cache. A
/// score order never enters it: wait-dependent scores reorder the queue
/// as time passes with *no* intervening event, so a remembered "nothing
/// can start" could hold back a job that has since overtaken the
/// blocked head.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BlockedCache {
    /// Head-blocking list schedule: the head does not fit, so nothing
    /// behind it may start either.
    HeadBlocked,
    /// Head-blocking list schedule with *no* blocked head (the whole queue
    /// started): arrivals start in order while they fit; the first misfit
    /// becomes the new blocked head.
    OpenList {
        /// Free nodes remaining.
        leftover: u32,
    },
    /// Garey & Graham: `leftover` free nodes remained after starting
    /// everything that fits; a new arrival starts iff it fits those.
    GreedyAny {
        /// Free nodes remaining.
        leftover: u32,
    },
    /// EASY: the blocked head's projected start and the spare capacity a
    /// new arrival may consume without postponing it.
    Easy {
        /// The head's projected start.
        shadow: Time,
        /// Nodes spare at the shadow instant.
        extra: u32,
        /// Free nodes now.
        free: u32,
    },
    /// Conservative: free nodes left *now* after the reservation
    /// calendar; an arrival needing more cannot start, one that fits
    /// forces a full re-scan (its reservation interacts with the chain).
    Conservative {
        /// Free nodes remaining now.
        leftover: u32,
    },
}

/// One ordering regime: an ordering policy, its selection strategy and
/// (every policy but submission order) its maintained order.
#[derive(Debug)]
struct Regime {
    policy: OrderPolicy,
    backfill: BackfillMode,
    order: MaintainedOrder,
    /// The §5.4 trigger fired at a submission; this regime's next
    /// decision must re-run the offline algorithm. Evaluating the trigger
    /// only at submissions (as the paper describes) keeps re-computation
    /// points identical whether or not the cache is enabled, and whichever
    /// regime is active.
    reorder_pending: bool,
}

impl Regime {
    fn new(policy: OrderPolicy, backfill: BackfillMode) -> Self {
        Regime {
            policy,
            backfill,
            order: MaintainedOrder::default(),
            reorder_pending: false,
        }
    }

    fn label(&self) -> String {
        format!("{}+{}", self.policy.label(), self.backfill.label())
    }

    /// A job entered the queue (now `queued` long). Returns whether a
    /// re-computation is pending.
    fn submit(&mut self, job: JobRequest, trigger: &ReorderTrigger, queued: usize) -> bool {
        if self.policy.is_maintained() {
            self.order.insert(&self.policy, job);
        }
        // §5.4: the trigger is evaluated as jobs are submitted.
        if self.policy.is_dynamic()
            && !self.reorder_pending
            && trigger.fires(self.order.unordered(), queued)
        {
            self.reorder_pending = true;
        }
        self.reorder_pending
    }

    /// Started or cancelled jobs leave the order.
    fn dequeue(&mut self, ids: &[JobId]) {
        if self.policy.is_maintained() {
            self.order.remove(ids);
        }
    }
}

/// A complete scheduling algorithm: ordering policy + backfilling mode,
/// optionally with a second regime that governs outside a daily window.
#[derive(Debug)]
pub struct ListScheduler {
    /// The regime of a single-regime scheduler; the day regime of a
    /// combination.
    primary: Regime,
    /// The regime that governs outside the window, if any.
    off_peak: Option<(Regime, DailyWindow)>,
    /// The exclusive window every decision honours, if any.
    window: Option<ExclusiveWindow>,
    /// Operator override of a combination: `Some(true)` pins the primary
    /// regime, `Some(false)` the off-peak one, `None` follows the clock.
    forced: Option<bool>,
    /// Whether the last decision ran the primary regime — the regime
    /// `cache` describes.
    on_primary: bool,
    trigger: ReorderTrigger,
    waiting: Waiting,
    /// Number of offline re-computations performed (diagnostics; the §5.4
    /// trigger exists to keep this low).
    recomputations: u64,
    /// Whether the incremental blocked-state cache is enabled (it is by
    /// default; differential tests run with it off).
    caching: bool,
    /// Reusable step-function buffer of the backfilling scans;
    /// overwritten (total and steps) by every snapshot.
    scratch: Profile,
    cache: Option<BlockedCache>,
    /// Jobs submitted since the cache was established.
    arrivals: Vec<JobRequest>,
}

impl ListScheduler {
    /// Build a scheduler from policy and backfill mode.
    pub fn new(policy: OrderPolicy, backfill: BackfillMode) -> Self {
        ListScheduler {
            primary: Regime::new(policy, backfill),
            off_peak: None,
            window: None,
            forced: None,
            on_primary: true,
            trigger: ReorderTrigger::default(),
            waiting: Waiting::default(),
            recomputations: 0,
            caching: true,
            scratch: Profile::empty(1, 0),
            cache: None,
            arrivals: Vec::new(),
        }
    }

    /// Combine with an off-peak regime: this scheduler's policy governs
    /// inside `window`, `policy` with `backfill` outside it (the §7
    /// day/night combination). Both regimes see every submission, start
    /// and cancellation.
    pub fn with_off_peak(
        mut self,
        policy: OrderPolicy,
        backfill: BackfillMode,
        window: DailyWindow,
    ) -> Self {
        self.off_peak = Some((Regime::new(policy, backfill), window));
        self
    }

    /// Give the machine away during `window` (Example 4) in both regimes,
    /// under [`ExclusiveWindow`]'s rule. A window that never closes is
    /// rejected.
    pub fn with_exclusive_window(mut self, window: DailyWindow) -> Result<Self, String> {
        self.window = Some(ExclusiveWindow::new(window)?);
        Ok(self)
    }

    /// Override the re-computation trigger (ablation benches).
    pub fn with_trigger(mut self, trigger: ReorderTrigger) -> Self {
        self.trigger = trigger;
        self
    }

    /// Enable or disable the incremental blocked-state cache. Disabling
    /// forces a full queue scan on every decision — semantically
    /// identical, asymptotically slower; used as the oracle in
    /// differential tests.
    pub fn with_caching(mut self, caching: bool) -> Self {
        self.caching = caching;
        if !caching {
            self.cache = None;
            self.arrivals.clear();
        }
        self
    }

    /// The ordering policy (the primary regime's).
    pub fn policy(&self) -> &OrderPolicy {
        &self.primary.policy
    }

    /// Whether the primary regime governs instant `t`, honouring a forced
    /// override.
    fn primary_at(&self, t: Time) -> bool {
        match &self.off_peak {
            Some((_, window)) => self.forced.unwrap_or_else(|| window.contains(t)),
            None => true,
        }
    }

    /// Which regime of a combination governs `t` (`"day"` / `"night"`);
    /// `None` for a single regime.
    pub fn active_regime_name(&self, t: Time) -> Option<&'static str> {
        self.off_peak.as_ref()?;
        Some(if self.primary_at(t) { "day" } else { "night" })
    }

    /// Pin a combination's regime (`Some(true)` = day, `Some(false)` =
    /// night) or return control to the clock (`None`). Takes effect at
    /// the next decision round; running jobs are never disturbed. Returns
    /// `false`, changing nothing, for a single regime.
    pub fn force_regime(&mut self, forced: Option<bool>) -> bool {
        if self.off_peak.is_none() {
            return false;
        }
        self.forced = forced;
        true
    }

    /// The current override, if any.
    pub fn forced_regime(&self) -> Option<bool> {
        self.forced
    }

    /// How many times the offline order was recomputed.
    pub fn recomputations(&self) -> u64 {
        self.recomputations
    }

    fn invalidate_cache(&mut self) {
        self.cache = None;
        self.arrivals.clear();
    }

    /// Started or cancelled jobs leave the wait queue (and the maintained
    /// orders).
    fn dequeue(&mut self, ids: &[JobId]) {
        for &id in ids {
            self.waiting.remove(id);
        }
        self.primary.dequeue(ids);
        if let Some((off_peak, _)) = &mut self.off_peak {
            off_peak.dequeue(ids);
        }
    }

    /// O(new arrivals) decision against the remembered blocked state.
    /// Returns the picks and writes the updated cache back.
    fn incremental_starts(&mut self, now: Time, cache: BlockedCache) -> Vec<JobId> {
        let mut picks = Vec::new();
        let updated = match cache {
            BlockedCache::HeadBlocked => {
                // Arrivals queue behind the blocked head; nothing starts.
                self.arrivals.clear();
                BlockedCache::HeadBlocked
            }
            BlockedCache::OpenList { mut leftover } => {
                let mut blocked = false;
                for job in &self.arrivals {
                    if blocked {
                        break;
                    }
                    if job.nodes <= leftover {
                        leftover -= job.nodes;
                        picks.push(job.id);
                    } else {
                        blocked = true;
                    }
                }
                self.arrivals.clear();
                if blocked {
                    BlockedCache::HeadBlocked
                } else {
                    BlockedCache::OpenList { leftover }
                }
            }
            BlockedCache::GreedyAny { mut leftover } => {
                for job in &self.arrivals {
                    if job.nodes <= leftover {
                        leftover -= job.nodes;
                        picks.push(job.id);
                    }
                    // Rejected arrivals stay rejected: leftover only
                    // shrinks until the next invalidation.
                }
                self.arrivals.clear();
                BlockedCache::GreedyAny { leftover }
            }
            BlockedCache::Easy {
                shadow,
                mut extra,
                mut free,
            } => {
                let open = shadow >= jobsched_sim::profile::HORIZON;
                for job in &self.arrivals {
                    let fits_now = job.nodes <= free;
                    let passes = fits_now
                        && (now + job.requested_time.max(1) <= shadow || job.nodes <= extra);
                    if passes {
                        free -= job.nodes;
                        if now + job.requested_time.max(1) > shadow {
                            extra -= job.nodes;
                        }
                        picks.push(job.id);
                    } else if open {
                        // No head was blocked when this state was taken;
                        // this rejection creates a new blocked head whose
                        // shadow the cache cannot know. The queue in this
                        // state holds only recent arrivals, so a full
                        // re-scan is cheap.
                        self.invalidate_cache();
                        return Vec::new(); // caller falls through to full scan
                    }
                    // With a real blocked head (shadow < HORIZON) a
                    // rejection is final: free and extra only shrink until
                    // the next invalidation.
                }
                self.arrivals.clear();
                BlockedCache::Easy {
                    shadow,
                    extra,
                    free,
                }
            }
            BlockedCache::Conservative { leftover } => {
                if self.arrivals.iter().any(|job| job.nodes <= leftover) {
                    // The arrival might start now; its reservation
                    // interacts with the calendar — full re-scan.
                    self.invalidate_cache();
                    return Vec::new(); // caller falls through to full scan
                }
                self.arrivals.clear();
                BlockedCache::Conservative { leftover }
            }
        };
        self.cache = Some(updated);
        picks
    }
}

/// Selection strategy of one full decision scan.
#[derive(Clone, Copy)]
struct ScanConfig<'w> {
    greedy_any: bool,
    backfill: BackfillMode,
    window: Option<&'w ExclusiveWindow>,
}

/// One full decision of `regime` over the wait queue: hand the policy's
/// order — the queue's own for FCFS and Garey & Graham, the maintained
/// order (recomputed or ranked for `now` by the caller) for the others —
/// to the selection strategy. Returns the picks and, on a single-class
/// machine, the blocked state the scan leaves behind.
fn full_decision(
    regime: &Regime,
    window: Option<&ExclusiveWindow>,
    waiting: &Waiting,
    scratch: &mut Profile,
    machine: &Machine,
    now: Time,
) -> (Vec<JobId>, Option<BlockedCache>) {
    let config = ScanConfig {
        greedy_any: matches!(regime.policy, OrderPolicy::GareyGraham),
        backfill: regime.backfill,
        window,
    };
    match regime.policy {
        OrderPolicy::Fcfs | OrderPolicy::GareyGraham => {
            scan_pools(config, scratch, waiting.requests(), waiting, machine, now)
        }
        OrderPolicy::Smart { .. } | OrderPolicy::Psrs { .. } | OrderPolicy::Score(_) => scan_pools(
            config,
            scratch,
            regime.order.requests().iter(),
            waiting,
            machine,
            now,
        ),
    }
}

/// One decision round over the machine's node-class pools. On a
/// single-class machine this is one whole-machine scan, and its blocked
/// state is returned for the cache. A partitioned machine scans each pool
/// independently over the jobs of `order` resolved to it, so a wide pick
/// can never consume thin capacity or vice versa; nothing is cached then
/// (that would need one cache per pool).
fn scan_pools<'a, I>(
    config: ScanConfig<'_>,
    scratch: &mut Profile,
    order: I,
    waiting: &Waiting,
    machine: &Machine,
    now: Time,
) -> (Vec<JobId>, Option<BlockedCache>)
where
    I: Iterator<Item = &'a JobRequest> + Clone,
{
    if machine.class_count() == 1 {
        let (picks, blocked) = full_scan(ClassId(0), config, scratch, order, waiting, machine, now);
        return (picks, Some(blocked));
    }
    let mut picks = Vec::new();
    for c in 0..machine.class_count() {
        let class = ClassId(c as u8);
        if machine.free_in(class) == 0 {
            continue;
        }
        // Classes partition the queue: a job picked for an earlier
        // pool never appears in a later pool's order.
        let class_order = order.clone().filter(|r| r.class == class);
        let (p, _) = full_scan(class, config, scratch, class_order, waiting, machine, now);
        picks.extend(p);
    }
    (picks, None)
}

/// One full decision scan over one node-class pool: dispatch the order to
/// the selection strategy and describe the blocked state it leaves
/// behind. `scratch` is the reusable profile buffer of the backfilling
/// scans; on a single-class machine `ClassId(0)` is the whole machine.
fn full_scan<'a>(
    class: ClassId,
    config: ScanConfig<'_>,
    scratch: &mut Profile,
    order: impl Iterator<Item = &'a JobRequest> + Clone,
    waiting: &Waiting,
    machine: &Machine,
    now: Time,
) -> (Vec<JobId>, BlockedCache) {
    let window = config.window;
    // A job the exclusive window does not admit now is treated as one
    // that does not fit: it blocks a head-blocking list and is skipped by
    // Garey & Graham.
    let admitted = |r: &&JobRequest| window.is_none_or(|w| w.admits(now, r.requested_time));
    if config.greedy_any {
        let picks = select_greedy_any_in(class, order.filter(admitted), machine);
        let used: u32 = picks.iter().map(|&id| waiting.get(id).nodes).sum();
        return (
            picks,
            BlockedCache::GreedyAny {
                leftover: machine.free_in(class) - used,
            },
        );
    }
    match config.backfill {
        BackfillMode::None => {
            let picks = select_head_blocking_in(class, order.take_while(admitted), machine);
            let blocked = if picks.len() < waiting.len() {
                BlockedCache::HeadBlocked
            } else {
                let used: u32 = picks.iter().map(|&id| waiting.get(id).nodes).sum();
                BlockedCache::OpenList {
                    leftover: machine.free_in(class) - used,
                }
            };
            (picks, blocked)
        }
        BackfillMode::Easy => {
            let scan = scan_easy_live_in(class, order, window, machine, now, scratch);
            (
                scan.picks,
                BlockedCache::Easy {
                    shadow: scan.shadow,
                    extra: scan.extra,
                    free: scan.free,
                },
            )
        }
        BackfillMode::Conservative => {
            let scan = scan_conservative_live_in(
                class,
                order,
                waiting.len(),
                waiting.longest_estimate(),
                window,
                machine,
                now,
                scratch,
            );
            (
                scan.picks,
                BlockedCache::Conservative {
                    leftover: scan.leftover,
                },
            )
        }
    }
}

impl Scheduler for ListScheduler {
    fn name(&self) -> String {
        let name = match &self.off_peak {
            None => self.primary.label(),
            Some((off_peak, _)) => format!(
                "switch[day: {} | night: {}]",
                self.primary.label(),
                off_peak.label()
            ),
        };
        match &self.window {
            None => name,
            Some(w) => format!("{name} exclusive[{}]", w.window),
        }
    }

    fn submit(&mut self, job: JobRequest, _now: Time) {
        // A first-time submission always carries the highest id seen so
        // far and joins the queue tail. A preempted job's remainder is
        // the exception: it re-enters with its *old* id, i.e. ahead of
        // later arrivals, and every cached blocked conclusion assumed
        // arrivals append at the tail — force a full scan for it.
        let mid_queue = self.waiting.max_id().is_some_and(|tail| job.id < tail);
        self.waiting.insert(job);
        let queued = self.waiting.len();
        // Whether the regime the cache describes must recompute.
        let mut reorder_pending = self.primary.submit(job, &self.trigger, queued);
        if let Some((off_peak, _)) = &mut self.off_peak {
            let pending = off_peak.submit(job, &self.trigger, queued);
            if !self.on_primary {
                reorder_pending = pending;
            }
        }
        if self.cache.is_some() {
            if reorder_pending || mid_queue {
                // A pending re-computation reorders the queue (and a
                // mid-queue re-entry reorders it implicitly), thereby
                // invalidating every blocked-state conclusion.
                self.invalidate_cache();
            } else {
                self.arrivals.push(job);
            }
        }
    }

    fn job_finished(&mut self, _id: JobId, _now: Time) {
        // Freed nodes enable starts the cache has ruled out.
        self.invalidate_cache();
    }

    fn cancel(&mut self, id: JobId, _now: Time) {
        if !self.waiting.contains(id) {
            return; // already started (or never submitted): nothing queued
        }
        self.dequeue(&[id]);
        // The blocked state may hinge on the retracted job (it could be
        // the blocked head, or hold a reservation in the conservative
        // calendar), and `arrivals` may still reference it — drop both.
        self.invalidate_cache();
    }

    fn capacity_changed(&mut self, _now: Time) {
        // A drain shrinks free capacity (cached leftovers overstate what
        // fits: overcommit risk), an undrain grows it (cached "blocked"
        // conclusions stall the queue) — either way the state is stale.
        self.invalidate_cache();
    }

    fn select_starts(&mut self, now: Time, machine: &Machine) -> Vec<JobId> {
        if machine.free_nodes() == 0 || self.waiting.is_empty() {
            return Vec::new();
        }
        let on_primary = self.primary_at(now);
        if on_primary != self.on_primary {
            // The clock or an override handed the queue to the other
            // regime: a blocked state taken under the last one's order
            // says nothing about this one's.
            self.invalidate_cache();
            self.on_primary = on_primary;
        }
        if let Some(cache) = self.cache {
            // Only a full decision of the regime now active leaves a
            // cache, and only where it is sound (see below).
            let picks = self.incremental_starts(now, cache);
            if self.cache.is_some() {
                self.dequeue(&picks);
                return picks;
            }
            // Cache invalidated inside: fall through to a full scan.
        }

        let regime = match &mut self.off_peak {
            Some((off_peak, _)) if !on_primary => off_peak,
            _ => &mut self.primary,
        };
        // The blocked-state cache describes one pool under an order and
        // admissibility that only events change: a multi-class machine, a
        // score order and an exclusive window (both drift with the clock)
        // take a full scan per decision, and `self.cache` stays `None` so
        // submissions never accumulate arrivals against a stale state.
        let caching = self.caching
            && machine.class_count() == 1
            && !matches!(regime.policy, OrderPolicy::Score(_))
            && self.window.is_none();
        if regime.reorder_pending {
            // The §5.4 trigger fired at a submission: this decision scans
            // a freshly computed order.
            regime.reorder_pending = false;
            regime
                .order
                .recompute(&regime.policy, &self.waiting, machine.total_nodes());
            self.recomputations += 1;
        }
        if let OrderPolicy::Score(score) = regime.policy {
            regime.order.rank_at(score, now);
        }
        let (picks, blocked) = full_decision(
            regime,
            self.window.as_ref(),
            &self.waiting,
            &mut self.scratch,
            machine,
            now,
        );
        self.dequeue(&picks);
        if caching {
            // Every full scan is complete: no further job can start until
            // an arrival (judged incrementally against this state) or a
            // finish (which invalidates it). Caching here also makes the
            // engine's confirm-empty round O(1).
            self.cache = blocked;
            self.arrivals.clear();
        }
        picks
    }

    fn queue_len(&self) -> usize {
        self.waiting.len()
    }

    fn next_wakeup(&self, now: Time) -> Option<Time> {
        // Wake at the next regime boundary, where the other regime's
        // policy takes over the backlog (a single or forced regime has
        // none), and at the next end of the exclusive window, where the
        // jobs it held back become admissible.
        if self.waiting.is_empty() {
            return None;
        }
        let regime = self
            .off_peak
            .as_ref()
            .filter(|_| self.forced.is_none())
            .and_then(|(_, window)| window.next_boundary(now));
        let window = self.window.as_ref().and_then(|w| w.next_end(now));
        regime.into_iter().chain(window).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smart::SmartVariant;
    use crate::view::WeightScheme;
    use jobsched_sim::simulate;
    use jobsched_workload::job::{DAY, HOUR};
    use jobsched_workload::{JobBuilder, Workload};

    fn workload_convoy() -> Workload {
        // Classic convoy: a running job leaves 156 free nodes; a 200-node
        // job blocks the FCFS head; many small short jobs queue behind it.
        let mut jobs = vec![
            JobBuilder::new(JobId(0))
                .submit(0)
                .nodes(100)
                .requested(10_000)
                .runtime(10_000)
                .build(),
            JobBuilder::new(JobId(0))
                .submit(1)
                .nodes(200)
                .requested(10_000)
                .runtime(10_000)
                .build(),
        ];
        for i in 0..20 {
            jobs.push(
                JobBuilder::new(JobId(0))
                    .submit(2 + i)
                    .nodes(8)
                    .requested(100)
                    .runtime(100)
                    .build(),
            );
        }
        Workload::new("convoy", 256, jobs)
    }

    fn art(w: &Workload, s: &jobsched_sim::ScheduleRecord) -> f64 {
        w.jobs()
            .iter()
            .map(|j| (s.placement(j.id).unwrap().completion - j.submit) as f64)
            .sum::<f64>()
            / w.len() as f64
    }

    #[test]
    fn all_paper_algorithms_produce_valid_schedules() {
        let w = workload_convoy();
        let policies = vec![
            OrderPolicy::Fcfs,
            OrderPolicy::GareyGraham,
            OrderPolicy::smart(SmartVariant::Ffia, WeightScheme::Unweighted),
            OrderPolicy::smart(SmartVariant::Nfiw, WeightScheme::ProjectedArea),
            OrderPolicy::psrs(WeightScheme::Unweighted),
        ];
        for policy in policies {
            for mode in [
                BackfillMode::None,
                BackfillMode::Conservative,
                BackfillMode::Easy,
            ] {
                let mut s = ListScheduler::new(policy, mode);
                let out = simulate(&w, &mut s);
                assert!(
                    out.schedule.validate(&w).is_empty(),
                    "invalid schedule from {}",
                    ListScheduler::new(policy, mode).name()
                );
            }
        }
    }

    #[test]
    fn fcfs_convoy_blocks_small_jobs() {
        let w = workload_convoy();
        let plain = simulate(
            &w,
            &mut ListScheduler::new(OrderPolicy::Fcfs, BackfillMode::None),
        );
        // 156 nodes sit free behind the blocked 200-node head job, but
        // plain FCFS never skips it: the small jobs wait 10 000 s.
        let small_start = plain.schedule.placement(JobId(2)).unwrap().start;
        assert!(small_start >= 10_000, "FCFS must not skip the head");
    }

    #[test]
    fn easy_backfill_beats_plain_fcfs_on_convoy() {
        let w = workload_convoy();
        let plain = simulate(
            &w,
            &mut ListScheduler::new(OrderPolicy::Fcfs, BackfillMode::None),
        );
        let easy = simulate(
            &w,
            &mut ListScheduler::new(OrderPolicy::Fcfs, BackfillMode::Easy),
        );
        assert!(
            art(&w, &easy.schedule) < art(&w, &plain.schedule) / 2.0,
            "EASY {} vs plain {}",
            art(&w, &easy.schedule),
            art(&w, &plain.schedule)
        );
    }

    #[test]
    fn conservative_backfill_beats_plain_fcfs_on_convoy() {
        let w = workload_convoy();
        let plain = simulate(
            &w,
            &mut ListScheduler::new(OrderPolicy::Fcfs, BackfillMode::None),
        );
        let cons = simulate(
            &w,
            &mut ListScheduler::new(OrderPolicy::Fcfs, BackfillMode::Conservative),
        );
        assert!(art(&w, &cons.schedule) < art(&w, &plain.schedule) / 2.0);
    }

    #[test]
    fn garey_graham_ignores_backfill_mode() {
        let w = workload_convoy();
        let a = simulate(
            &w,
            &mut ListScheduler::new(OrderPolicy::GareyGraham, BackfillMode::None),
        );
        let b = simulate(
            &w,
            &mut ListScheduler::new(OrderPolicy::GareyGraham, BackfillMode::Easy),
        );
        for j in w.jobs() {
            assert_eq!(a.schedule.placement(j.id), b.schedule.placement(j.id));
        }
    }

    #[test]
    fn smart_prefers_small_jobs_unweighted() {
        let w = workload_convoy();
        let smart = simulate(
            &w,
            &mut ListScheduler::new(
                OrderPolicy::smart(SmartVariant::Ffia, WeightScheme::Unweighted),
                BackfillMode::Easy,
            ),
        );
        let fcfs = simulate(
            &w,
            &mut ListScheduler::new(OrderPolicy::Fcfs, BackfillMode::Easy),
        );
        assert!(art(&w, &smart.schedule) <= art(&w, &fcfs.schedule));
    }

    #[test]
    fn dynamic_policies_recompute_sparingly() {
        // A burst of same-instant submissions arrives as one event batch:
        // the trigger recomputes once for the batch, then the covered
        // order drains without further recomputation.
        let jobs: Vec<_> = (0..100)
            .map(|i| {
                JobBuilder::new(JobId(0))
                    .submit(0)
                    .nodes(64)
                    .requested(100 + i)
                    .runtime(100 + i)
                    .build()
            })
            .collect();
        let w = Workload::new("burst", 256, jobs);
        let mut s = ListScheduler::new(
            OrderPolicy::smart(SmartVariant::Ffia, WeightScheme::Unweighted),
            BackfillMode::None,
        );
        simulate(&w, &mut s);
        assert!(s.recomputations() >= 1);
        assert!(
            s.recomputations() <= 2,
            "trigger must throttle recomputations: {}",
            s.recomputations()
        );
    }

    #[test]
    fn cancel_of_blocked_head_unblocks_queue_immediately() {
        // Running job holds 6 of 10 nodes until 100. The 8-node head
        // blocks; a 4-node job queues behind it. Cancelling the head at 50
        // must start the 4-node job *at 50* — the blocked-state cache may
        // not survive the retraction (no finish event occurs at 50).
        let w = Workload::new(
            "t",
            10,
            vec![
                JobBuilder::new(JobId(0))
                    .submit(0)
                    .nodes(6)
                    .requested(100)
                    .runtime(100)
                    .build(),
                JobBuilder::new(JobId(0))
                    .submit(1)
                    .nodes(8)
                    .requested(100)
                    .runtime(100)
                    .build(),
                JobBuilder::new(JobId(0))
                    .submit(2)
                    .nodes(4)
                    .requested(100)
                    .runtime(100)
                    .build(),
            ],
        );
        let plan = jobsched_sim::FaultPlan {
            cancels: vec![jobsched_sim::CancelFault {
                id: JobId(1),
                at: 50,
            }],
            drains: vec![],
            ..Default::default()
        };
        for caching in [true, false] {
            let mut s =
                ListScheduler::new(OrderPolicy::Fcfs, BackfillMode::None).with_caching(caching);
            let out = jobsched_sim::simulate_with_faults(&w, &mut s, &plan);
            assert_eq!(out.schedule.placement(JobId(1)), None);
            assert_eq!(
                out.schedule.placement(JobId(2)).unwrap().start,
                50,
                "caching={caching}"
            );
        }
    }

    #[test]
    fn drain_invalidates_cached_leftover_capacity() {
        // Garey&Graham caches `leftover` free nodes. A drain at 10 takes
        // them away; the job arriving at 20 must NOT be admitted against
        // the stale leftover (that would overcommit → engine panic).
        let w = Workload::new(
            "t",
            10,
            vec![
                JobBuilder::new(JobId(0))
                    .submit(0)
                    .nodes(2)
                    .requested(500)
                    .runtime(500)
                    .build(),
                JobBuilder::new(JobId(0))
                    .submit(20)
                    .nodes(8)
                    .requested(50)
                    .runtime(50)
                    .build(),
            ],
        );
        let plan = jobsched_sim::FaultPlan {
            cancels: vec![],
            drains: vec![jobsched_sim::DrainFault::new(10, 8, 300)],
            ..Default::default()
        };
        let mut s = ListScheduler::new(OrderPolicy::GareyGraham, BackfillMode::None);
        let out = jobsched_sim::simulate_with_faults(&w, &mut s, &plan);
        // The 8-node job waits for the drained nodes to come back.
        assert_eq!(out.schedule.placement(JobId(1)).unwrap().start, 300);
    }

    #[test]
    fn undrain_wakes_cached_blocked_queue() {
        // All 10 nodes drained over [0+, 80): the head-blocking cache
        // concludes HeadBlocked at submit time. The undrain at 80 must
        // invalidate it so the job starts at 80 (no job event happens
        // then).
        let w = Workload::new(
            "t",
            10,
            vec![JobBuilder::new(JobId(0))
                .submit(10)
                .nodes(10)
                .requested(50)
                .runtime(50)
                .build()],
        );
        let plan = jobsched_sim::FaultPlan {
            cancels: vec![],
            drains: vec![jobsched_sim::DrainFault::new(5, 10, 80)],
            ..Default::default()
        };
        for mode in [
            BackfillMode::None,
            BackfillMode::Conservative,
            BackfillMode::Easy,
        ] {
            let mut s = ListScheduler::new(OrderPolicy::Fcfs, mode);
            let out = jobsched_sim::simulate_with_faults(&w, &mut s, &plan);
            assert_eq!(
                out.schedule.placement(JobId(0)).unwrap().start,
                80,
                "mode={mode:?}"
            );
        }
    }

    #[test]
    fn names_follow_paper_labels() {
        let s = ListScheduler::new(OrderPolicy::Fcfs, BackfillMode::Easy);
        assert_eq!(s.name(), "FCFS+EASY-Backfilling");
        let s = ListScheduler::new(
            OrderPolicy::smart(SmartVariant::Nfiw, WeightScheme::ProjectedArea),
            BackfillMode::Conservative,
        );
        assert_eq!(s.name(), "SMART-NFIW+Backfilling");
    }

    #[test]
    fn waiting_queue_bookkeeping() {
        let mut w = Waiting::default();
        let r = JobRequest {
            id: JobId(3),
            submit: 0,
            nodes: 1,
            class: ClassId(0),
            requested_time: 10,
            user: 0,
        };
        w.insert(r);
        assert!(w.contains(JobId(3)));
        assert_eq!(w.len(), 1);
        assert_eq!(w.remove(JobId(3)).id, JobId(3));
        assert!(w.is_empty());
    }

    #[test]
    fn longest_estimate_follows_the_queue() {
        use jobsched_workload::rng::{derive_seed, Rng, SmallRng};
        let recomputed = |w: &Waiting| w.requests().map(|r| r.requested_time).max().unwrap_or(0);
        for seq in 0..64u64 {
            let mut rng = SmallRng::seed_from_u64(derive_seed(0x4E57_1046, seq));
            // `every` is asked after each step; `sparse` sees the same
            // steps but is asked only now and then, so insertions and
            // removals also meet a value that is not known.
            let (mut every, mut sparse) = (Waiting::default(), Waiting::default());
            let mut started: Vec<JobRequest> = Vec::new();
            let mut next_id = 0;
            for step in 0..300 {
                match rng.random_range(0u32..10) {
                    0..=4 => {
                        let job = JobRequest {
                            id: JobId(next_id),
                            submit: 0,
                            nodes: 1,
                            class: ClassId(0),
                            // A narrow range: the longest is often tied.
                            requested_time: rng.random_range(1u64..40),
                            user: 0,
                        };
                        next_id += 1;
                        every.insert(job);
                        sparse.insert(job);
                    }
                    5..=8 if !every.is_empty() => {
                        // A start (kept: it may be preempted) or a cancel.
                        let at = rng.random_range(0..every.len());
                        let id = every.requests().nth(at).expect("in range").id;
                        let job = every.remove(id);
                        assert_eq!(sparse.remove(id), job);
                        if rng.random_range(0u32..2) == 0 {
                            started.push(job);
                        }
                    }
                    _ if !started.is_empty() => {
                        // A preempted job's remainder re-enters with its
                        // old id, ahead of later arrivals.
                        let job = started.swap_remove(rng.random_range(0..started.len()));
                        let remainder = JobRequest {
                            requested_time: rng.random_range(1..=job.requested_time),
                            ..job
                        };
                        every.insert(remainder);
                        sparse.insert(remainder);
                    }
                    _ => {}
                }
                assert_eq!(every.longest_estimate(), recomputed(&every), "seq {seq}");
                if step % 7 == 0 {
                    assert_eq!(sparse.longest_estimate(), recomputed(&sparse), "seq {seq}");
                }
            }
            while let Some(id) = every.max_id() {
                every.remove(id);
                sparse.remove(id);
                assert_eq!(every.longest_estimate(), recomputed(&every), "seq {seq}");
            }
            assert_eq!(every.longest_estimate(), 0);
            assert_eq!(sparse.longest_estimate(), 0);
        }
    }

    #[test]
    fn huge_estimate_keeps_the_truncation_horizon_ahead_of_now() {
        // 600 queued jobs put the conservative scan on its truncated path,
        // whose horizon is `now + 4 × longest estimate`. With one estimate
        // of 2^62 (or u64::MAX / 2) that product overflowed: a panic in
        // debug builds; in release a horizon wrapped back to `now`, which
        // booked nothing and deadlocked the run.
        for huge in [1 << 62, Time::MAX / 2] {
            let mut jobs = vec![JobBuilder::new(JobId(0))
                .submit(0)
                .nodes(10)
                .requested(100)
                .runtime(100)
                .build()];
            for i in 0..600 {
                jobs.push(
                    JobBuilder::new(JobId(0))
                        .submit(1)
                        .nodes(1)
                        .requested(if i == 300 { huge } else { 50 })
                        .runtime(10)
                        .build(),
                );
            }
            let w = Workload::new("huge-estimate", 10, jobs);
            let out = simulate(
                &w,
                &mut ListScheduler::new(OrderPolicy::Fcfs, BackfillMode::Conservative),
            );
            assert!(out.schedule.validate(&w).is_empty(), "huge = {huge}");
            assert_eq!(out.schedule.placement(JobId(1)).unwrap().start, 100);
        }
    }

    #[test]
    fn maintained_order_is_computed_prefix_then_arrivals_by_id() {
        let req = |id: u32, requested: Time| JobRequest {
            id: JobId(id),
            submit: 0,
            nodes: 1,
            class: ClassId(0),
            requested_time: requested,
            user: 0,
        };
        let ids = |o: &MaintainedOrder| o.requests().iter().map(|r| r.id).collect::<Vec<_>>();
        let policy = OrderPolicy::smart(SmartVariant::Ffia, WeightScheme::Unweighted);
        let (mut waiting, mut order) = (Waiting::default(), MaintainedOrder::default());
        let enqueue = |w: &mut Waiting, o: &mut MaintainedOrder, r: JobRequest| {
            w.insert(r);
            o.insert(&policy, r);
        };
        for r in [req(0, 300), req(1, 100), req(2, 200)] {
            enqueue(&mut waiting, &mut order, r);
        }
        assert_eq!(order.unordered(), 3);
        order.recompute(&policy, &waiting, 16);
        let computed = ids(&order);
        assert_eq!(order.unordered(), 0);

        // Arrivals join the tail in id order; the computed head starts and
        // its remainder re-enters by id, ahead of the later arrivals.
        enqueue(&mut waiting, &mut order, req(5, 10));
        enqueue(&mut waiting, &mut order, req(7, 10));
        enqueue(&mut waiting, &mut order, req(6, 10));
        let head = waiting.remove(computed[0]);
        order.remove(&[head.id]);
        enqueue(&mut waiting, &mut order, head);
        assert_eq!(
            ids(&order),
            [
                computed[1],
                computed[2],
                head.id,
                JobId(5),
                JobId(6),
                JobId(7)
            ]
        );
        assert_eq!(order.unordered(), 4);

        // Removing one covered and one uncovered job shrinks both parts.
        order.remove(&[JobId(6), computed[2]]);
        assert_eq!(ids(&order), [computed[1], head.id, JobId(5), JobId(7)]);
        assert_eq!(order.unordered(), 3);
    }

    #[test]
    fn score_order_is_the_reference_ranking_at_every_decision() {
        use crate::priority::rank;
        use jobsched_workload::rng::{derive_seed, Rng, SmallRng};
        for score in ScoreFn::ALL {
            for backfill in [BackfillMode::None, BackfillMode::Easy] {
                for seq in 0..6u64 {
                    let mut rng = SmallRng::seed_from_u64(derive_seed(0x5C0E_0DE5, seq));
                    let mut s = ListScheduler::new(OrderPolicy::Score(score), backfill);
                    let mut machine = Machine::new(32);
                    // Every job as last submitted, and the started ones
                    // with their finish instants.
                    let mut submitted = std::collections::HashMap::new();
                    let mut running: Vec<(JobRequest, Time)> = Vec::new();
                    let (mut now, mut next_id) = (0, 0);
                    for step in 0..300 {
                        match rng.random_range(0u32..10) {
                            0..=3 => {
                                // A burst at one instant, from few distinct
                                // shapes: scores tie often.
                                for _ in 0..rng.random_range(1u32..=4) {
                                    let job = JobRequest {
                                        id: JobId(next_id),
                                        submit: now,
                                        nodes: [1, 2, 2, 8, 16][rng.random_range(0usize..5)],
                                        class: ClassId(0),
                                        requested_time: [1, 50, 50, 600]
                                            [rng.random_range(0usize..4)],
                                        user: 0,
                                    };
                                    next_id += 1;
                                    submitted.insert(job.id, job);
                                    s.submit(job, now);
                                }
                            }
                            4 if !s.waiting.is_empty() => {
                                let at = rng.random_range(0..s.waiting.len());
                                let id = s.waiting.requests().nth(at).expect("in range").id;
                                s.cancel(id, now);
                            }
                            5 if !running.is_empty() => {
                                // A preempted job's remainder re-enters
                                // with its old id, ahead of later arrivals.
                                let at = rng.random_range(0..running.len());
                                let (job, _) = running.swap_remove(at);
                                machine.finish(job.id).expect("running");
                                let remainder = JobRequest {
                                    requested_time: rng.random_range(1..=job.requested_time),
                                    ..job
                                };
                                submitted.insert(job.id, remainder);
                                s.submit(remainder, now);
                            }
                            6..=8 => {
                                now += rng.random_range(1u64..300);
                                running.retain(|&(job, end)| {
                                    if end > now {
                                        return true;
                                    }
                                    machine.finish(job.id).expect("running");
                                    s.job_finished(job.id, now);
                                    false
                                });
                            }
                            _ => {} // another round at the same instant
                        }
                        let decides = machine.free_nodes() > 0;
                        for id in s.select_starts(now, &machine) {
                            let job = submitted[&id];
                            let end = now + job.requested_time.max(1);
                            machine.start(id, job.nodes, now, end).expect("fits");
                            running.push((job, end));
                        }
                        if decides {
                            let order: Vec<JobId> =
                                s.primary.order.requests().iter().map(|r| r.id).collect();
                            assert_eq!(
                                order,
                                rank(score, now, s.waiting.requests(), false),
                                "{} seq {seq} step {step} at {now}",
                                s.name()
                            );
                        }
                    }
                }
            }
        }
    }

    /// Example 4's window: weekdays, 10:00–11:00.
    const CLASS: DailyWindow = DailyWindow {
        start_hour: 10,
        end_hour: 11,
        weekdays_only: true,
    };

    fn windowed(policy: OrderPolicy, backfill: BackfillMode) -> ListScheduler {
        ListScheduler::new(policy, backfill)
            .with_exclusive_window(CLASS)
            .expect("the class window closes")
    }

    /// A job on Example 4's 64-node machine.
    fn class_job(
        submit: Time,
        nodes: u32,
        requested: Time,
        runtime: Time,
    ) -> jobsched_workload::Job {
        JobBuilder::new(JobId(0))
            .submit(submit)
            .nodes(nodes)
            .requested(requested)
            .runtime(runtime)
            .build()
    }

    fn start_of(out: &jobsched_sim::SimOutcome, id: u32) -> Time {
        out.schedule.placement(JobId(id)).unwrap().start
    }

    #[test]
    fn fcfs_list_admits_a_job_finishing_exactly_at_the_window_start() {
        // Estimated completion landing exactly on 10:00 clears the window
        // (it is half-open); one second longer must wait out the class.
        let w = Workload::new(
            "class",
            64,
            vec![
                class_job(9 * HOUR, 8, HOUR, HOUR),
                class_job(9 * HOUR, 8, HOUR + 1, HOUR + 1),
            ],
        );
        let out = simulate(&w, &mut windowed(OrderPolicy::Fcfs, BackfillMode::None));
        assert_eq!(start_of(&out, 0), 9 * HOUR);
        assert_eq!(start_of(&out, 1), 11 * HOUR);
    }

    #[test]
    fn fcfs_list_holds_short_jobs_behind_a_head_the_window_blocks() {
        // At 9:00 a 2 h head cannot clear the 10:00 window: a plain list
        // blocks behind it, although a 30 min job would fit before class.
        let w = Workload::new(
            "class",
            64,
            vec![
                class_job(9 * HOUR, 32, 2 * HOUR, 2 * HOUR),
                class_job(9 * HOUR + 60, 32, 1800, 1800),
            ],
        );
        let out = simulate(&w, &mut windowed(OrderPolicy::Fcfs, BackfillMode::None));
        assert_eq!(start_of(&out, 0), 11 * HOUR);
        assert_eq!(start_of(&out, 1), 11 * HOUR);
    }

    #[test]
    fn fcfs_easy_backfills_short_jobs_into_the_windows_shadow() {
        // The same queue under EASY: the head's shadow is its earliest
        // admissible start, 11:00, and the 30 min job ends before it.
        let w = Workload::new(
            "class",
            64,
            vec![
                class_job(9 * HOUR, 32, 2 * HOUR, 2 * HOUR),
                class_job(9 * HOUR + 60, 32, 1800, 1800),
            ],
        );
        let out = simulate(&w, &mut windowed(OrderPolicy::Fcfs, BackfillMode::Easy));
        assert_eq!(start_of(&out, 1), 9 * HOUR + 60);
        assert_eq!(start_of(&out, 0), 11 * HOUR);
    }

    #[test]
    fn fcfs_conservative_books_an_overestimate_after_the_window() {
        // The Example 4 phenomenon: a job that actually runs 30 min but is
        // estimated at 4 h cannot start at 9:30 although it would finish
        // in time; its reservation is the window's end. A 20 min job
        // behind it fits before class without touching that reservation.
        let w = Workload::new(
            "class",
            64,
            vec![
                class_job(9 * HOUR + 1800, 64, 4 * HOUR, 1800),
                class_job(9 * HOUR + 1800, 64, 1200, 1200),
            ],
        );
        let out = simulate(
            &w,
            &mut windowed(OrderPolicy::Fcfs, BackfillMode::Conservative),
        );
        assert_eq!(start_of(&out, 0), 11 * HOUR);
        assert_eq!(start_of(&out, 1), 9 * HOUR + 1800);
    }

    #[test]
    fn fcfs_list_exempts_estimates_longer_than_the_longest_gap() {
        // A 100 h estimate can never clear the 71 h weekend gap: the job is
        // exempt and starts at once; the run terminates.
        let w = Workload::new(
            "class",
            64,
            vec![class_job(9 * HOUR, 8, 100 * HOUR, 30 * HOUR)],
        );
        let out = simulate(&w, &mut windowed(OrderPolicy::Fcfs, BackfillMode::None));
        assert_eq!(start_of(&out, 0), 9 * HOUR);
    }

    #[test]
    fn garey_graham_skips_what_the_window_blocks_in_each_node_class_pool() {
        use jobsched_workload::{MachineLayout, NodeClassSpec, NodeType};
        // 8 thin + 2 wide nodes, Monday 9:00. Job 0 (2 h) cannot clear the
        // window and is skipped; job 1 fills the thin pool; job 2 (thin, 2
        // nodes) must wait for it although 2 *wide* nodes sit free.
        let pool = |node_type, memory_mb, count| NodeClassSpec {
            node_type,
            memory_mb,
            count,
        };
        let layout = MachineLayout::new(vec![
            pool(NodeType::Thin, 512, 8),
            pool(NodeType::Wide, 2048, 2),
        ]);
        let thin = |submit, nodes, requested| {
            JobBuilder::new(JobId(0))
                .submit(submit)
                .nodes(nodes)
                .requested(requested)
                .runtime(requested)
                .node_type(NodeType::Thin)
                .memory_mb(256)
                .build()
        };
        let jobs = vec![
            thin(9 * HOUR, 4, 2 * HOUR),
            thin(9 * HOUR, 8, 100),
            thin(9 * HOUR + 1, 2, 100),
        ];
        let w = Workload::new("two-class", 10, jobs).with_layout(layout);
        let out = simulate(
            &w,
            &mut windowed(OrderPolicy::GareyGraham, BackfillMode::None),
        );
        assert!(out.schedule.validate(&w).is_empty());
        assert_eq!(start_of(&out, 1), 9 * HOUR);
        assert_eq!(start_of(&out, 2), 9 * HOUR + 100);
        assert_eq!(start_of(&out, 0), 11 * HOUR);
    }

    #[test]
    fn windowed_wakeups_land_on_window_ends() {
        let one_job = JobRequest {
            id: JobId(0),
            submit: 0,
            nodes: 1,
            class: ClassId(0),
            requested_time: 100,
            user: 0,
        };
        let mut s = windowed(OrderPolicy::Fcfs, BackfillMode::None);
        assert_eq!(s.next_wakeup(9 * HOUR), None, "empty queue never wakes");
        s.submit(one_job, 0);
        // Before, at the opening instant, mid-window and at the closing
        // instant: the wakeup always lands on (or beyond) a window end.
        assert_eq!(s.next_wakeup(9 * HOUR), Some(11 * HOUR));
        assert_eq!(s.next_wakeup(10 * HOUR), Some(11 * HOUR));
        assert_eq!(s.next_wakeup(10 * HOUR + 1800), Some(11 * HOUR));
        // 11:00 sharp is outside the window again: next relevant close is
        // tomorrow's.
        assert_eq!(s.next_wakeup(11 * HOUR), Some(DAY + 11 * HOUR));
        // Friday after class: the weekend gap defers to Monday 11:00.
        assert_eq!(
            s.next_wakeup(4 * DAY + 11 * HOUR),
            Some(7 * DAY + 11 * HOUR)
        );
        // A combination wakes at whichever comes first, its regime
        // boundary (20:00) or the window's end, and names both rules.
        let mut combined = ListScheduler::paper_combination()
            .with_exclusive_window(CLASS)
            .unwrap();
        combined.submit(one_job, 0);
        assert_eq!(combined.next_wakeup(9 * HOUR), Some(11 * HOUR));
        assert_eq!(combined.next_wakeup(12 * HOUR), Some(20 * HOUR));
        assert_eq!(combined.next_wakeup(21 * HOUR), Some(DAY + 7 * HOUR));
        assert!(combined.force_regime(Some(true)));
        assert_eq!(combined.next_wakeup(12 * HOUR), Some(DAY + 11 * HOUR));
        assert_eq!(
            s.name(),
            "FCFS+Listscheduler exclusive[10:00–11:00 (weekdays)]"
        );
    }

    #[test]
    #[should_panic(expected = "submitted twice")]
    fn duplicate_submission_panics() {
        let mut w = Waiting::default();
        let r = JobRequest {
            id: JobId(3),
            submit: 0,
            nodes: 1,
            class: ClassId(0),
            requested_time: 10,
            user: 0,
        };
        w.insert(r);
        w.insert(r);
    }
}
