//! Schedule invariants, checked independently of the scheduler's own
//! bookkeeping.
//!
//! The oracle wraps the scheduler under test in `OracleScheduler`,
//! which mirrors the queue from the raw engine callbacks (submission,
//! cancellation, start) and audits every decision round:
//!
//! * **Generic invariants** (all policies): picks are waiting, never
//!   cancelled, never duplicated, never before submission, and
//!   sequentially feasible against the machine's free nodes.
//! * **Exact differentials** (deterministic policies): the picks must
//!   equal — element for element, in order — an independent naive
//!   re-implementation of the published algorithm working from the
//!   machine ground truth: head-blocking FCFS, Garey & Graham any-fit,
//!   EASY's shadow/extra rule, conservative FIFO booking, and — for the
//!   whole priority family — an independent re-statement of each scoring
//!   formula re-ranking the queue before the same naive head / EASY /
//!   conservative selection. SMART and PSRS feed the same naive
//!   selections an order rebuilt from scratch every round: the mirror
//!   replays the §5.4 trigger at submissions, re-runs the offline
//!   algorithm at the first round with free nodes and a non-empty queue
//!   after it fires, and lists the jobs that computation covered (in
//!   computed order) before every later arrival (in id order).
//! * **The conservative no-delay guarantee** (§5.2): "will not increase
//!   the projected completion time of a job submitted before the job
//!   used for backfilling". In the FIFO re-booking realisation this is
//!   carried by the differential itself — the naive calendar books every
//!   job *before* seeing later-queued ones, so pick equality proves no
//!   later job displaced an earlier booking. The stronger reading —
//!   "first-sight reservations are upper bounds on actual starts" — is
//!   *not* an invariant under inexact estimates: an early finish lets an
//!   earlier-queued job backfill-start ahead of its reservation, its new
//!   projection cascades other earlier-queued reservations, and a later
//!   job's booking can legitimately move past its original promise. With
//!   exact estimates the projected calendar is the real one, nothing is
//!   ever re-booked differently, and the promise does bind — so that is
//!   exactly when the oracle enforces it.
//!
//! After the run, [`check_outcome`] audits the finished schedule from
//! first principles: a capacity sweep over placements *and* drain grants,
//! start-after-submit, Rule 2 truncation against the fault log's
//! cancellation phases, FCFS start monotonicity, and an independent
//! recomputation of ART/AWRT against `jobsched-metrics`.
//! [`check_exclusive_window`] audits a schedule against Example 4's
//! exclusive window, with the window's next opening and longest gap
//! recomputed hour by hour.

use crate::batch::simulate_batch_with_faults;
use crate::profile::from_machine;
use crate::scenario::Scenario;
use jobsched_algos::backfill::{ConservativeScan, CONSERVATIVE_TRUNCATION_DEPTH};
use jobsched_algos::spec::PolicyKind;
use jobsched_algos::switching::DailyWindow;
use jobsched_algos::{BackfillMode, JobView, OrderPolicy, ScoreFn};
use jobsched_metrics::{replay, OnlineArt, OnlineAwrt, StreamingObjective};
use jobsched_sim::profile::HORIZON;
use jobsched_sim::{
    simulate_with_faults, CancelPhase, FaultOutcome, JobRequest, Machine, ScheduleRecord,
    Scheduler, SimOutcome,
};
use jobsched_workload::job::{HOUR, WEEK};
use jobsched_workload::{ClassId, JobId, MachineLayout, Time, Workload};

/// Which exact pick-equality differential applies to a configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ExactCheck {
    /// Typed (multi-class) scenarios: generic and per-class invariants
    /// only.
    None,
    /// FCFS, plain list: head-blocking prefix of the FIFO queue.
    FcfsHead,
    /// Garey & Graham: any-fit over the FIFO queue.
    GareyAny,
    /// FCFS + EASY: shadow-time/extra-node backfill rule.
    FcfsEasy,
    /// FCFS + conservative: FIFO reservation booking.
    FcfsConservative,
    /// Priority family (any backfill): re-rank the queue by an
    /// independent re-statement of the scoring formula, then run the
    /// same naive head / EASY / conservative selection over the ranked
    /// order instead of the FIFO queue.
    Priority(ScoreFn),
    /// SMART and PSRS (any backfill): the offline order rebuilt from the
    /// mirror's trigger replay and last computation, then the same naive
    /// head / EASY / conservative selection.
    Dynamic,
}

impl ExactCheck {
    fn for_config(policy: PolicyKind, backfill: BackfillMode) -> ExactCheck {
        match (policy, backfill) {
            (PolicyKind::Fcfs, BackfillMode::None) => ExactCheck::FcfsHead,
            (PolicyKind::Fcfs, BackfillMode::Easy) => ExactCheck::FcfsEasy,
            (PolicyKind::Fcfs, BackfillMode::Conservative) => ExactCheck::FcfsConservative,
            (PolicyKind::GareyGraham, _) => ExactCheck::GareyAny,
            (PolicyKind::Priority(score), _) => ExactCheck::Priority(score),
            (PolicyKind::Psrs | PolicyKind::SmartFfia | PolicyKind::SmartNfiw, _) => {
                ExactCheck::Dynamic
            }
            (PolicyKind::Dfrs | PolicyKind::Moldable, _) => ExactCheck::None,
        }
    }
}

/// Independent re-statement of the priority scoring formulas
/// (`crates/algos/src/priority.rs` module docs; smaller = earlier). The
/// floating-point expression order deliberately mirrors the normative
/// spec so that equal inputs produce bit-equal scores — the differential
/// compares *orders*, which must therefore agree exactly.
fn naive_score(score: ScoreFn, wait: u64, estimate: u64, width: u32) -> f64 {
    let wait = wait as f64;
    let est = estimate.max(1) as f64;
    let width = width as f64;
    match score {
        ScoreFn::Fcfs => -wait,
        ScoreFn::Sjf => est,
        ScoreFn::Ljf => -est,
        ScoreFn::SmallestFirst => width,
        ScoreFn::LargestFirst => -width,
        ScoreFn::Wfp => -(wait / est) * width,
        ScoreFn::Wfp3 => {
            let r = wait / est;
            -(r * r * r) * width
        }
        ScoreFn::Unicef => -wait / ((width + 1.0).log2() * est),
        ScoreFn::F1 => est.log10() * width - 870.0 * (wait + 1.0).log10(),
        ScoreFn::F2 => est.sqrt() * width - 25_600.0 * (wait + 1.0).log10(),
    }
}

/// The auditing wrapper around the scheduler under test.
struct OracleScheduler<'a> {
    inner: Box<dyn Scheduler>,
    scenario: &'a Scenario,
    /// Typed scenarios carry their layout for per-class accounting.
    layout: Option<MachineLayout>,
    exact: ExactCheck,
    /// Whether first-sight conservative reservations are binding: exact
    /// estimates throughout and a fault-free plan.
    promises_bind: bool,
    /// Queue mirrored from raw engine callbacks, kept in ascending id
    /// order. For first-time submissions that is arrival order (ids
    /// ascend with submit time); a preempted job's remainder re-enters at
    /// its *original* position — the id-keyed wait queues serve FCFS by
    /// first arrival, so a resumed remainder outranks jobs that arrived
    /// after it.
    waiting: Vec<usize>,
    /// The request the scheduler currently sees per job: `(submit,
    /// requested, nodes)`. Initially the scenario job; a forced
    /// preemption requeues the remainder as a fresh request (submit =
    /// resume instant, requested = what's left), and every differential
    /// must score that remainder, not the original.
    view: Vec<(Time, Time, u32)>,
    started: Vec<Option<Time>>,
    cancelled: Vec<bool>,
    /// Conservative no-delay promises, booked at first sight of a job.
    /// Only binding when every projection is exact (see module docs), so
    /// only populated then.
    guarantees: Vec<Option<Time>>,
    /// Dynamic policies: the last offline computation's order.
    computed: Vec<usize>,
    /// Dynamic policies: the job waits and the last computation ordered
    /// it. Cleared when it starts (so a preempted remainder re-enters
    /// uncovered) or is cancelled.
    covered: Vec<bool>,
    /// Dynamic policies: the §5.4 trigger fired at a submission and no
    /// round has recomputed since.
    reorder_pending: bool,
    violations: Vec<String>,
}

impl<'a> OracleScheduler<'a> {
    fn new(scenario: &'a Scenario) -> Self {
        let n = scenario.jobs.len();
        OracleScheduler {
            inner: scenario.scheduler(),
            scenario,
            layout: scenario.layout(),
            // The naive re-implementations reason over the whole machine;
            // a typed scenario partitions it, so those differentials do
            // not apply — the generic and per-class invariants still do.
            exact: if scenario.classes.is_empty() {
                ExactCheck::for_config(scenario.policy, scenario.backfill)
            } else {
                ExactCheck::None
            },
            promises_bind: scenario.cancels.is_empty()
                && scenario.drains.is_empty()
                && scenario.preempts.is_empty()
                && scenario.jobs.iter().all(|j| j.runtime >= j.requested),
            waiting: Vec::new(),
            view: scenario
                .jobs
                .iter()
                .map(|j| (j.submit, j.requested, j.nodes))
                .collect(),
            started: vec![None; n],
            cancelled: vec![false; n],
            guarantees: vec![None; n],
            computed: Vec::new(),
            covered: vec![false; n],
            reorder_pending: false,
            violations: Vec::new(),
        }
    }

    fn job(&self, i: usize) -> (u32, Time) {
        let (_, requested, nodes) = self.view[i];
        (nodes, requested.max(1))
    }

    /// The queue re-ranked by `(naive score at now, job index)`
    /// ascending — the priority family's normative order, restated
    /// independently of `jobsched_algos::priority::rank`.
    fn ranked_waiting(&self, score: ScoreFn, now: Time) -> Vec<usize> {
        let mut keyed: Vec<(f64, usize)> = self
            .waiting
            .iter()
            .map(|&i| {
                let (submit, requested, nodes) = self.view[i];
                let wait = now.saturating_sub(submit);
                (naive_score(score, wait, requested, nodes), i)
            })
            .collect();
        keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        keyed.into_iter().map(|(_, i)| i).collect()
    }

    /// The dynamic policy's order as of this round, rebuilt from scratch:
    /// the covered jobs in computed order, then the uncovered waiting
    /// jobs in id order.
    fn rebuilt_order(&self) -> Vec<usize> {
        let computed = self.computed.iter().copied().filter(|&i| self.covered[i]);
        let arrivals = self.waiting.iter().copied().filter(|&i| !self.covered[i]);
        computed.chain(arrivals).collect()
    }

    /// Re-run the offline algorithm over the mirrored queue (id order)
    /// and cover every waiting job.
    fn recompute(&mut self, machine: &Machine) {
        let policy: OrderPolicy = self.scenario.policy.policy(Default::default());
        let views: Vec<JobView> = self
            .waiting
            .iter()
            .map(|&i| {
                let (submit, requested_time, nodes) = self.view[i];
                let request = JobRequest {
                    id: JobId(i as u32),
                    submit,
                    nodes,
                    class: ClassId(0),
                    requested_time,
                    user: 0,
                };
                JobView::of(&request, policy.scheme())
            })
            .collect();
        self.computed = policy
            .compute(&views, machine.total_nodes())
            .into_iter()
            .map(|id| id.index())
            .collect();
        for &i in &self.waiting {
            self.covered[i] = true;
        }
    }

    /// Head-blocking selection: greedy prefix of `order` until a job
    /// does not fit.
    fn naive_head(&self, order: &[usize], machine: &Machine) -> Vec<usize> {
        let mut free = machine.free_nodes();
        let mut picks = Vec::new();
        for &i in order {
            let (nodes, _) = self.job(i);
            if nodes <= free {
                free -= nodes;
                picks.push(i);
            } else {
                break;
            }
        }
        picks
    }

    /// Independent re-implementation of the published selection rules
    /// over the mirrored queue (FIFO or priority-ranked) and the machine
    /// ground truth.
    fn expected_picks(&self, now: Time, machine: &Machine) -> Option<Vec<usize>> {
        match self.exact {
            ExactCheck::None => None,
            ExactCheck::FcfsHead => Some(self.naive_head(&self.waiting, machine)),
            ExactCheck::GareyAny => {
                let mut free = machine.free_nodes();
                let mut picks = Vec::new();
                for &i in &self.waiting {
                    let (nodes, _) = self.job(i);
                    if nodes <= free {
                        free -= nodes;
                        picks.push(i);
                    }
                }
                Some(picks)
            }
            ExactCheck::FcfsEasy => Some(self.naive_easy(now, machine, &self.waiting)),
            ExactCheck::FcfsConservative => {
                // The real scheduler truncates its calendar on pathological
                // queue depths; the naive booking below is the exact
                // (untruncated) algorithm, so stand down beyond the limit.
                if self.waiting.len() > jobsched_algos::backfill::CONSERVATIVE_TRUNCATION_DEPTH {
                    return None;
                }
                Some(self.naive_conservative(now, machine, &self.waiting).0)
            }
            ExactCheck::Priority(_) | ExactCheck::Dynamic => {
                let order = match self.exact {
                    ExactCheck::Priority(score) => self.ranked_waiting(score, now),
                    _ => self.rebuilt_order(),
                };
                match self.scenario.backfill {
                    BackfillMode::None => Some(self.naive_head(&order, machine)),
                    BackfillMode::Easy => Some(self.naive_easy(now, machine, &order)),
                    BackfillMode::Conservative => {
                        if order.len() > jobsched_algos::backfill::CONSERVATIVE_TRUNCATION_DEPTH {
                            return None;
                        }
                        Some(self.naive_conservative(now, machine, &order).0)
                    }
                }
            }
        }
    }

    /// EASY (Lifka): greedy until a head blocks; compute the head's
    /// shadow start and spare nodes from projected ends; backfill later
    /// jobs that end by the shadow or fit the spare nodes. `order` is the
    /// queue in selection order (FIFO or priority-ranked).
    fn naive_easy(&self, now: Time, machine: &Machine, order: &[usize]) -> Vec<usize> {
        let mut free = machine.free_nodes();
        let mut picks = Vec::new();
        let mut queue = order.iter().copied();
        let mut head = None;
        for i in &mut queue {
            let (nodes, _) = self.job(i);
            if nodes <= free {
                free -= nodes;
                picks.push(i);
            } else {
                head = Some(i);
                break;
            }
        }
        let Some(head) = head else { return picks };

        let mut profile = from_machine(machine, None, now);
        for &i in &picks {
            let (nodes, dur) = self.job(i);
            profile.reserve(nodes, now, dur);
        }
        let (head_nodes, head_dur) = self.job(head);
        let shadow = profile.earliest_start(head_nodes, head_dur, now);
        let mut extra = profile.free_at(shadow).saturating_sub(head_nodes);

        for i in queue {
            if free == 0 {
                break;
            }
            let (nodes, dur) = self.job(i);
            if nodes > free {
                continue;
            }
            if now + dur <= shadow {
                free -= nodes;
                picks.push(i);
            } else if nodes <= extra {
                free -= nodes;
                extra -= nodes;
                picks.push(i);
            }
        }
        picks
    }

    /// Conservative: book a reservation for every queued job in `order`
    /// (FIFO or priority-ranked); start exactly those whose reservation
    /// is `now`. Returns the picks and each booked start (the no-delay
    /// promise — only meaningful for the FIFO order).
    fn naive_conservative(
        &self,
        now: Time,
        machine: &Machine,
        order: &[usize],
    ) -> (Vec<usize>, Vec<(usize, Time)>) {
        let mut profile = from_machine(machine, None, now);
        let mut picks = Vec::new();
        let mut booked = Vec::new();
        for &i in order {
            let (nodes, dur) = self.job(i);
            let start = profile.earliest_start(nodes, dur, now);
            profile.reserve(nodes, start, dur);
            booked.push((i, start));
            if start == now {
                picks.push(i);
            }
            if profile.free_at(now) == 0 {
                break;
            }
        }
        (picks, booked)
    }

    fn violate(&mut self, msg: String) {
        self.violations.push(msg);
    }
}

/// Conservative backfilling that books *every* job of its window: the
/// reference for [`scan_conservative_live_in`]'s early stop, under the
/// same truncation rules (a queue deeper than
/// [`CONSERVATIVE_TRUNCATION_DEPTH`] books only its first 2 × depth jobs
/// and no reservation at or beyond `now + 4 × longest estimate`). Plans
/// on the brute-force [`from_machine`] rebuild of `class`'s pool.
///
/// [`scan_conservative_live_in`]: jobsched_algos::backfill::scan_conservative_live_in
pub fn book_every_conservative<'a>(
    class: ClassId,
    order: impl IntoIterator<Item = &'a JobRequest>,
    queue_len: usize,
    longest_estimate: Time,
    machine: &Machine,
    now: Time,
) -> ConservativeScan {
    let mut profile = from_machine(machine, Some(class), now);
    let (scan_limit, horizon) = if queue_len > CONSERVATIVE_TRUNCATION_DEPTH {
        let span = longest_estimate.max(1).saturating_mul(4);
        (2 * CONSERVATIVE_TRUNCATION_DEPTH, now.saturating_add(span))
    } else {
        (usize::MAX, HORIZON)
    };
    let mut picks = Vec::new();
    for job in order.into_iter().take(scan_limit) {
        let duration = job.requested_time.max(1);
        let start = profile.earliest_start(job.nodes, duration, now);
        if start >= horizon {
            continue;
        }
        profile.reserve(job.nodes, start, duration);
        if start == now {
            picks.push(job.id);
        }
    }
    ConservativeScan {
        picks,
        leftover: profile.free_at(now),
    }
}

impl Scheduler for OracleScheduler<'_> {
    fn name(&self) -> String {
        format!("oracle({})", self.inner.name())
    }

    fn submit(&mut self, job: JobRequest, now: Time) {
        let i = job.id.index();
        if self.started[i].is_some() {
            // Remainder of a preempted job re-entering the queue: the
            // restart must not trip the double-start audit, and every
            // differential must score the remainder request.
            self.started[i] = None;
        }
        self.view[i] = (job.submit, job.requested_time, job.nodes);
        let pos = self.waiting.partition_point(|&w| w < i);
        self.waiting.insert(pos, i);
        // §5.4, replayed independently: recompute once the jobs no
        // computation covered exceed a third of the queue. Evaluated only
        // at submissions, and not again while a recomputation is pending.
        if self.exact == ExactCheck::Dynamic && !self.reorder_pending {
            let unordered = self.waiting.iter().filter(|&&w| !self.covered[w]).count();
            self.reorder_pending = 3 * unordered > self.waiting.len();
        }
        self.inner.submit(job, now);
    }

    fn job_finished(&mut self, id: JobId, now: Time) {
        self.inner.job_finished(id, now);
    }

    fn cancel(&mut self, id: JobId, now: Time) {
        self.cancelled[id.index()] = true;
        self.covered[id.index()] = false;
        self.waiting.retain(|&i| i != id.index());
        self.inner.cancel(id, now);
    }

    fn capacity_changed(&mut self, now: Time) {
        self.inner.capacity_changed(now);
    }

    fn select_starts(&mut self, now: Time, machine: &Machine) -> Vec<JobId> {
        // Book no-delay promises for first-seen jobs *before* the real
        // scheduler acts (machine state is pre-start). Binding only when
        // the projected calendar is the real one: exact estimates, no
        // faults (see module docs for why an early finish legitimately
        // breaks first-sight promises).
        if self.exact == ExactCheck::FcfsConservative
            && self.promises_bind
            && self.waiting.len() <= jobsched_algos::backfill::CONSERVATIVE_TRUNCATION_DEPTH
        {
            let (_, booked) = self.naive_conservative(now, machine, &self.waiting);
            for (i, start) in booked {
                if self.guarantees[i].is_none() {
                    self.guarantees[i] = Some(start);
                }
            }
        }

        if self.exact == ExactCheck::Dynamic
            && self.reorder_pending
            && machine.free_nodes() > 0
            && !self.waiting.is_empty()
        {
            self.reorder_pending = false;
            self.recompute(machine);
        }

        let expected = self.expected_picks(now, machine);
        let picks = self.inner.select_starts(now, machine);

        let mut free = machine.free_nodes();
        // Typed machines additionally demand per-pool feasibility: a pick
        // must fit the free nodes of the one class its hardware request
        // resolves to, not just the machine-wide total.
        let mut free_by_class: Vec<u32> = (0..machine.class_count())
            .map(|c| machine.free_in(ClassId(c as u8)))
            .collect();
        for &id in &picks {
            let i = id.index();
            let job = self.scenario.jobs[i];
            if !self.waiting.contains(&i) {
                self.violate(format!("t={now}: picked {id} which is not waiting"));
            }
            if self.cancelled[i] {
                self.violate(format!("t={now}: picked cancelled job {id}"));
            }
            if let Some(prev) = self.started[i] {
                self.violate(format!("t={now}: job {id} started twice (first t={prev})"));
            }
            if now < job.submit {
                self.violate(format!(
                    "t={now}: job {id} started before its submission at {}",
                    job.submit
                ));
            }
            if job.nodes > free {
                self.violate(format!(
                    "t={now}: job {id} needs {} nodes but only {free} remain free",
                    job.nodes
                ));
            } else {
                free -= job.nodes;
            }
            if let Some(layout) = &self.layout {
                let class = layout
                    .resolve(job.node_type, job.memory_mb, job.nodes)
                    .expect("validated scenario jobs resolve");
                let pool = &mut free_by_class[class.index()];
                if job.nodes > *pool {
                    self.violate(format!(
                        "t={now}: job {id} needs {} class-{class} nodes but only \
                         {pool} remain free in that pool",
                        job.nodes
                    ));
                } else {
                    *pool -= job.nodes;
                }
            }
            if let Some(promise) = self.guarantees[i] {
                if now > promise {
                    self.violate(format!(
                        "t={now}: job {id} starts after its conservative \
                         no-delay promise of t={promise}"
                    ));
                }
            }
        }

        if let Some(expected) = expected {
            let actual: Vec<usize> = picks.iter().map(|id| id.index()).collect();
            if expected != actual {
                self.violate(format!(
                    "t={now}: {:?} differential mismatch — naive picks {expected:?}, \
                     scheduler picked {actual:?} (queue {:?})",
                    self.exact, self.waiting
                ));
            }
        }

        for &id in &picks {
            self.started[id.index()] = Some(now);
            self.covered[id.index()] = false;
            self.waiting.retain(|&i| i != id.index());
        }
        picks
    }

    fn queue_len(&self) -> usize {
        self.inner.queue_len()
    }

    fn next_wakeup(&self, now: Time) -> Option<Time> {
        self.inner.next_wakeup(now)
    }
}

/// Run the scenario through the real engine under the auditing wrapper
/// and return every violation found (empty = clean). Panics from the
/// engine or scheduler (overcommit, deadlock, double-start, …) are
/// captured as violations.
pub fn check_scenario(scenario: &Scenario) -> Vec<String> {
    scenario
        .validate()
        .unwrap_or_else(|e| panic!("invalid scenario handed to the oracle: {e}"));
    let workload = scenario.workload();
    let plan = scenario.fault_plan();
    let mut oracle = OracleScheduler::new(scenario);

    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        simulate_with_faults(&workload, &mut oracle, &plan)
    }));
    let mut violations = std::mem::take(&mut oracle.violations);
    match outcome {
        Ok(outcome) => violations.extend(check_outcome(scenario, &workload, &outcome)),
        Err(panic) => violations.push(format!("simulation panicked: {}", panic_msg(&panic))),
    }
    violations.extend(stream_differential(scenario));
    violations
}

/// Batch-vs-stream differential: replay the scenario through the batch
/// reference loop ([`simulate_batch_with_faults`]) *and* the streaming
/// pipeline behind [`jobsched_sim::simulate_with_faults`], each with a
/// fresh scheduler instance, and demand identical outcomes — schedule,
/// fault log, event and decision-round counts, peak queue depth
/// (`scheduler_cpu` is wall-clock and excluded). Contract-violation
/// panics must also agree: both paths panic with the same message, or
/// neither panics. Runs as part of [`check_scenario`], so every fuzz
/// case and committed corpus reproducer exercises it.
pub fn stream_differential(scenario: &Scenario) -> Vec<String> {
    let workload = scenario.workload();
    let plan = scenario.fault_plan();
    let batch = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut scheduler = scenario.scheduler();
        simulate_batch_with_faults(&workload, &mut *scheduler, &plan)
    }));
    let stream = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut scheduler = scenario.scheduler();
        simulate_with_faults(&workload, &mut *scheduler, &plan)
    }));

    let mut violations = Vec::new();
    match (batch, stream) {
        (Ok(batch), Ok(stream)) => {
            if batch.schedule != stream.schedule {
                violations.push(format!(
                    "stream differential: schedules diverge — batch {:?} vs stream {:?}",
                    batch.schedule, stream.schedule
                ));
            }
            if batch.faults != stream.faults {
                violations.push(format!(
                    "stream differential: fault logs diverge — batch {:?} vs stream {:?}",
                    batch.faults, stream.faults
                ));
            }
            for (what, b, s) in [
                ("events", batch.events, stream.events),
                (
                    "decision_rounds",
                    batch.decision_rounds,
                    stream.decision_rounds,
                ),
                (
                    "peak_queue",
                    batch.peak_queue as u64,
                    stream.peak_queue as u64,
                ),
            ] {
                if b != s {
                    violations.push(format!(
                        "stream differential: {what} diverge — batch {b} vs stream {s}"
                    ));
                }
            }
        }
        (Err(batch), Err(stream)) => {
            let (b, s) = (panic_msg(&batch), panic_msg(&stream));
            if b != s {
                violations.push(format!(
                    "stream differential: panic messages diverge — batch \"{b}\" vs stream \"{s}\""
                ));
            }
        }
        (Ok(_), Err(panic)) => violations.push(format!(
            "stream differential: stream panicked where batch succeeded: {}",
            panic_msg(&panic)
        )),
        (Err(panic), Ok(_)) => violations.push(format!(
            "stream differential: batch panicked where stream succeeded: {}",
            panic_msg(&panic)
        )),
    }
    violations
}

fn panic_msg(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).into()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// First-principles audit of a finished run: capacity, lifecycle
/// consistency against the fault log, FCFS monotonicity, and objective
/// recomputation.
pub fn check_outcome(
    scenario: &Scenario,
    workload: &Workload,
    outcome: &SimOutcome,
) -> Vec<String> {
    let mut violations = Vec::new();
    let schedule = &outcome.schedule;

    // Fault log digested per job: the first cancellation outcome wins
    // (the engine silently drops duplicates of an effective cancel).
    let mut cancel_phase: Vec<Option<CancelPhase>> = vec![None; scenario.jobs.len()];
    let mut cancel_at: Vec<Option<Time>> = vec![None; scenario.jobs.len()];
    for f in &outcome.faults {
        if let FaultOutcome::Cancelled { id, at, phase } = f {
            if cancel_phase[id.index()].is_none() {
                cancel_phase[id.index()] = Some(*phase);
                cancel_at[id.index()] = Some(*at);
            }
        }
    }

    // Capacity sweep: committed nodes (job allocation spans + drain
    // grants) must never exceed the machine, applying releases before
    // acquisitions at equal instants. Charged spans, not placement
    // envelopes: a preempted job's envelope covers the gap where its
    // nodes were free (and possibly given to someone else), so sweeping
    // envelopes would report phantom overcommits.
    let mut events: Vec<(Time, i64)> = Vec::new();
    for (i, job) in scenario.jobs.iter().enumerate() {
        if let Some(spans) = schedule.charged_spans(JobId(i as u32), job.nodes) {
            for s in spans {
                events.push((s.start, s.nodes as i64));
                events.push((s.end, -(s.nodes as i64)));
            }
        }
    }
    for f in &outcome.faults {
        if let FaultOutcome::Drained {
            at, granted, until, ..
        } = f
        {
            if *granted > 0 {
                events.push((*at, *granted as i64));
                events.push((*until, -(*granted as i64)));
            }
        }
    }
    events.sort_by_key(|&(t, delta)| (t, delta));
    let mut committed: i64 = 0;
    for (t, delta) in events {
        committed += delta;
        if committed > scenario.machine_nodes as i64 {
            violations.push(format!(
                "t={t}: {committed} nodes committed on a {}-node machine",
                scenario.machine_nodes
            ));
        }
    }

    // Per-class capacity sweep (typed scenarios): each pool must hold its
    // own placements and drain grants — a machine-wide sweep cannot see a
    // wide-pool overcommit hidden by free thin nodes.
    if let Some(layout) = scenario.layout() {
        for (ci, spec) in layout.classes().iter().enumerate() {
            let class = ClassId(ci as u8);
            let mut events: Vec<(Time, i64)> = Vec::new();
            for (i, job) in scenario.jobs.iter().enumerate() {
                if layout.resolve(job.node_type, job.memory_mb, job.nodes) != Some(class) {
                    continue;
                }
                if let Some(spans) = schedule.charged_spans(JobId(i as u32), job.nodes) {
                    for s in spans {
                        events.push((s.start, s.nodes as i64));
                        events.push((s.end, -(s.nodes as i64)));
                    }
                }
            }
            for f in &outcome.faults {
                if let FaultOutcome::Drained {
                    at,
                    class: c,
                    granted,
                    until,
                    ..
                } = f
                {
                    if *c == class && *granted > 0 {
                        events.push((*at, *granted as i64));
                        events.push((*until, -(*granted as i64)));
                    }
                }
            }
            events.sort_by_key(|&(t, delta)| (t, delta));
            let mut committed: i64 = 0;
            for (t, delta) in events {
                committed += delta;
                if committed > spec.count as i64 {
                    violations.push(format!(
                        "t={t}: {committed} nodes committed in class {class} of {} nodes",
                        spec.count
                    ));
                }
            }
        }
    }

    // Preemption audit: every *applied* preemption must show up in the
    // schedule as a closed span ending exactly at the preemption instant,
    // and the span that follows it (the resume) must not start before the
    // requeue instant the engine logged. Segment well-formedness
    // (ordering, no self-overlap, positive spans) rides on the same walk.
    for f in &outcome.faults {
        let FaultOutcome::Preempted {
            id,
            at,
            applied,
            resume_at,
        } = f
        else {
            continue;
        };
        if !*applied {
            continue;
        }
        let Some(segs) = schedule.segments(*id) else {
            violations.push(format!(
                "preempt of {id} at t={at} applied but the job has no segment union"
            ));
            continue;
        };
        match segs.iter().position(|s| s.end == *at) {
            None => violations.push(format!(
                "preempt of {id} at t={at} applied but no span closes there ({segs:?})"
            )),
            Some(k) => {
                if let Some(next) = segs.get(k + 1) {
                    if next.start < *resume_at {
                        violations.push(format!(
                            "{id} resumed at t={} before its requeue instant t={resume_at}",
                            next.start
                        ));
                    }
                }
            }
        }
    }
    for (i, job) in scenario.jobs.iter().enumerate() {
        let id = JobId(i as u32);
        if let Some(segs) = schedule.segments(id) {
            if segs.is_empty() {
                violations.push(format!("{id}: empty segment union"));
            }
            for s in segs {
                if s.end <= s.start {
                    violations.push(format!("{id}: degenerate span {s:?}"));
                }
                if s.nodes == 0 || s.nodes > job.nodes {
                    violations.push(format!(
                        "{id}: span {s:?} outside the job's rigid width {}",
                        job.nodes
                    ));
                }
            }
            for w in segs.windows(2) {
                if w[1].start < w[0].end {
                    violations.push(format!(
                        "{id}: spans overlap or run backwards ({:?} then {:?})",
                        w[0], w[1]
                    ));
                }
            }
        }
    }

    // Per-job lifecycle consistency.
    for (i, job) in scenario.jobs.iter().enumerate() {
        let id = JobId(i as u32);
        let placement = schedule.placement(id);
        match cancel_phase[i] {
            Some(CancelPhase::PreSubmit) | Some(CancelPhase::Queued) => {
                if let Some(p) = placement {
                    violations.push(format!(
                        "job {id} cancelled in phase {:?} but holds placement {p:?}",
                        cancel_phase[i].unwrap()
                    ));
                }
            }
            Some(CancelPhase::Running) | Some(CancelPhase::Preempted) => match placement {
                None => violations.push(format!(
                    "job {id} cancelled in phase {:?} but unplaced",
                    cancel_phase[i].unwrap()
                )),
                Some(p) => {
                    if Some(p.completion) != cancel_at[i] {
                        violations.push(format!(
                            "job {id} killed at t={:?} but completion is {}",
                            cancel_at[i], p.completion
                        ));
                    }
                }
            },
            Some(CancelPhase::AlreadyFinished) | None => match placement {
                None => violations.push(format!("job {id} never ran")),
                Some(p) => {
                    if p.start < job.submit {
                        violations.push(format!(
                            "job {id} started at {} before its submission at {}",
                            p.start, job.submit
                        ));
                    }
                    // Rule 2 over *charged* time: a preempted job's
                    // envelope includes its suspension gaps, but the
                    // summed span durations must equal the effective
                    // runtime exactly — a resume that loses or repeats
                    // work shows up here.
                    let effective = job.runtime.min(job.requested);
                    let charged = schedule.charged_time(id).expect("placed jobs are charged");
                    if charged != effective {
                        violations.push(format!(
                            "job {id} charged {charged} but Rule 2 dictates {effective}"
                        ));
                    }
                }
            },
        }
    }

    // FCFS start monotonicity: with head-blocking selection, placed jobs
    // start in submission order (cancelled jobs drop out of the prefix).
    // On a partitioned machine each class queue advances independently, so
    // the order is only promised among jobs resolving to the same class.
    // The priority encoding of FCFS (score = -wait, ties by id) makes the
    // same promise — the bit-identity pin rides on it.
    let fcfs_like = matches!(
        scenario.policy,
        PolicyKind::Fcfs | PolicyKind::Priority(ScoreFn::Fcfs)
    );
    if fcfs_like && scenario.backfill == BackfillMode::None {
        let layout = scenario.layout();
        let class_of = |j: &crate::scenario::ScenarioJob| match &layout {
            Some(l) => l
                .resolve(j.node_type, j.memory_mb, j.nodes)
                .expect("validated scenario jobs resolve"),
            None => ClassId(0),
        };
        let mut last: Vec<Option<(JobId, Time)>> = vec![None; scenario.classes.len().max(1)];
        for (i, j) in scenario.jobs.iter().enumerate() {
            let id = JobId(i as u32);
            if let Some(p) = schedule.placement(id) {
                let c = class_of(j).index();
                if let Some((prev_id, prev_start)) = last[c] {
                    if p.start < prev_start {
                        violations.push(format!(
                            "FCFS monotonicity: {id} starts at {} before {prev_id} at {prev_start} (class {c})",
                            p.start
                        ));
                    }
                }
                last[c] = Some((id, p.start));
            }
        }
    }

    // Objective recomputation from first principles (cancellation- and
    // preemption-free runs only: the §4 objectives are defined over
    // complete schedules, and the AWRT consumption weight is specified
    // over the contiguous envelope, which preemption stretches).
    if scenario.cancels.is_empty() && scenario.preempts.is_empty() {
        let n = scenario.jobs.len() as f64;
        let mut art = 0.0;
        let mut awrt = 0.0;
        let mut complete = true;
        for (i, job) in scenario.jobs.iter().enumerate() {
            match schedule.placement(JobId(i as u32)) {
                Some(p) => {
                    let response = (p.completion - job.submit) as f64;
                    let area = job.runtime.min(job.requested) as f64 * job.nodes as f64;
                    art += response / n;
                    awrt += area * response / n;
                }
                None => complete = false,
            }
        }
        if !complete {
            violations.push("cancellation-free run left jobs unplaced".into());
        } else {
            let mut art_acc = OnlineArt::new();
            let mut awrt_acc = OnlineAwrt::new();
            replay(workload.jobs(), schedule, &mut art_acc);
            replay(workload.jobs(), schedule, &mut awrt_acc);
            for (name, naive, metric) in [
                ("ART", art, art_acc.cost()),
                ("AWRT", awrt, awrt_acc.cost()),
            ] {
                let tolerance = 1e-9 * naive.abs().max(1.0);
                if (naive - metric).abs() > tolerance {
                    violations.push(format!(
                        "{name} mismatch: first-principles {naive} vs metrics {metric}"
                    ));
                }
            }
        }
    }

    violations
}

/// Audit `schedule` against an exclusive `window` (Example 4): no job
/// starts inside it, and every start (a preempted job's resumes
/// included) whose estimate is not exempt completes, by that estimate,
/// no later than the window's next opening. A resume's estimate is what
/// is left of the job's after the spans already run; an estimate longer
/// than the longest window-free gap of the week is exempt (§2.1's
/// conflict resolution). The opening and the gap are found by stepping
/// whole hours, independently of the scheduler's calendar arithmetic.
pub fn check_exclusive_window(
    workload: &Workload,
    schedule: &ScheduleRecord,
    window: DailyWindow,
) -> Vec<String> {
    let hours = |from: Time| {
        (from / HOUR + 1..)
            .map(|h| h * HOUR)
            .take((WEEK / HOUR) as usize)
    };
    let next_opening = |t: Time| hours(t).find(|&h| window.contains(h));
    // Each gap runs from an hour at which the window closes to the next
    // opening; two weeks of closings see every gap of the week whole.
    let longest_gap = (1..2 * WEEK / HOUR)
        .map(|k| k * HOUR)
        .filter(|&h| !window.contains(h) && window.contains(h - HOUR))
        .filter_map(|h| Some(next_opening(h - 1)? - h))
        .max()
        .unwrap_or(0);

    let mut violations = Vec::new();
    for job in workload.jobs() {
        let Some(spans) = schedule.charged_spans(job.id, job.nodes) else {
            continue;
        };
        let mut estimate = job.requested_time;
        for span in spans {
            if window.contains(span.start) {
                violations.push(format!(
                    "job {} starts at {} inside the exclusive window {window}",
                    job.id, span.start
                ));
            } else if estimate <= longest_gap {
                if let Some(opens) = next_opening(span.start) {
                    if span.start + estimate.max(1) > opens {
                        violations.push(format!(
                            "job {} starts at {} with estimate {estimate}, past the window {window} \
                             opening at {opens}",
                            job.id, span.start
                        ));
                    }
                }
            }
            estimate = estimate.saturating_sub(span.end - span.start);
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{broken_scenario, random_scenario};
    use crate::scenario::{CancelSpec, DrainSpec, Mutation, PreemptSpec, ScenarioJob};

    fn job(submit: Time, nodes: u32, requested: Time, runtime: Time) -> ScenarioJob {
        ScenarioJob {
            submit,
            nodes,
            requested,
            runtime,
            node_type: jobsched_workload::NodeType::Thin,
            memory_mb: 0,
        }
    }

    fn base_scenario(policy: PolicyKind, backfill: BackfillMode) -> Scenario {
        Scenario {
            machine_nodes: 10,
            policy,
            backfill,
            caching: true,
            mutation: None,
            classes: Vec::new(),
            jobs: vec![job(0, 6, 100, 100), job(1, 8, 100, 100), job(2, 4, 40, 40)],
            cancels: Vec::new(),
            drains: Vec::new(),
            preempts: Vec::new(),
        }
    }

    /// A 12-thin + 4-wide machine with jobs in both pools: the wide head
    /// is narrower than the machine but wider than its pool, so any
    /// scheduler reasoning machine-wide would overcommit the wide pool.
    fn hetero_scenario(policy: PolicyKind, backfill: BackfillMode) -> Scenario {
        use jobsched_workload::{NodeClassSpec, NodeType};
        let mut s = base_scenario(policy, backfill);
        s.machine_nodes = 16;
        s.classes = vec![
            NodeClassSpec {
                node_type: NodeType::Thin,
                memory_mb: 512,
                count: 12,
            },
            NodeClassSpec {
                node_type: NodeType::Wide,
                memory_mb: 2048,
                count: 4,
            },
        ];
        s.jobs = vec![
            job(0, 8, 100, 100),
            {
                let mut j = job(0, 3, 200, 150);
                j.node_type = NodeType::Wide;
                j.memory_mb = 1024;
                j
            },
            {
                let mut j = job(1, 2, 50, 50);
                j.node_type = NodeType::Wide;
                j
            },
            {
                // Thin request escalating into the wide pool on memory.
                let mut j = job(2, 2, 80, 60);
                j.memory_mb = 2048;
                j
            },
            job(3, 6, 40, 40),
        ];
        s
    }

    #[test]
    fn clean_configurations_produce_no_violations() {
        for backfill in [
            BackfillMode::None,
            BackfillMode::Conservative,
            BackfillMode::Easy,
        ] {
            let s = base_scenario(PolicyKind::Fcfs, backfill);
            assert_eq!(check_scenario(&s), Vec::<String>::new(), "{backfill:?}");
        }
        let s = base_scenario(PolicyKind::GareyGraham, BackfillMode::None);
        assert_eq!(check_scenario(&s), Vec::<String>::new());
    }

    #[test]
    fn faults_do_not_trip_the_oracle_on_the_real_scheduler() {
        let mut s = base_scenario(PolicyKind::Fcfs, BackfillMode::Easy);
        s.cancels.push(CancelSpec { at: 50, job: 0 });
        s.drains.push(DrainSpec {
            at: 10,
            nodes: 2,
            until: 60,
            class: 0,
        });
        assert_eq!(check_scenario(&s), Vec::<String>::new());
    }

    #[test]
    fn hetero_configurations_produce_no_violations() {
        for backfill in [
            BackfillMode::None,
            BackfillMode::Conservative,
            BackfillMode::Easy,
        ] {
            let s = hetero_scenario(PolicyKind::Fcfs, backfill);
            assert_eq!(check_scenario(&s), Vec::<String>::new(), "{backfill:?}");
        }
        let s = hetero_scenario(PolicyKind::GareyGraham, BackfillMode::None);
        assert_eq!(check_scenario(&s), Vec::<String>::new());
        let s = hetero_scenario(PolicyKind::SmartFfia, BackfillMode::Easy);
        assert_eq!(check_scenario(&s), Vec::<String>::new());
    }

    #[test]
    fn hetero_per_class_faults_do_not_trip_the_oracle() {
        let mut s = hetero_scenario(PolicyKind::Fcfs, BackfillMode::Easy);
        // Drain the whole wide pool and cancel the scarce-class job it
        // would have hosted.
        s.drains.push(DrainSpec {
            at: 120,
            nodes: 4,
            until: 400,
            class: 1,
        });
        s.cancels.push(CancelSpec { at: 150, job: 1 });
        assert_eq!(check_scenario(&s), Vec::<String>::new());
    }

    #[test]
    fn clean_priority_configurations_produce_no_violations() {
        for score in ScoreFn::ALL {
            for backfill in [
                BackfillMode::None,
                BackfillMode::Conservative,
                BackfillMode::Easy,
            ] {
                let s = base_scenario(PolicyKind::Priority(score), backfill);
                assert_eq!(
                    check_scenario(&s),
                    Vec::<String>::new(),
                    "{score:?} {backfill:?}"
                );
            }
        }
    }

    #[test]
    fn clean_dynamic_configurations_produce_no_violations() {
        for policy in [
            PolicyKind::Psrs,
            PolicyKind::SmartFfia,
            PolicyKind::SmartNfiw,
        ] {
            for backfill in [
                BackfillMode::None,
                BackfillMode::Conservative,
                BackfillMode::Easy,
            ] {
                assert_eq!(
                    ExactCheck::for_config(policy, backfill),
                    ExactCheck::Dynamic
                );
                for caching in [true, false] {
                    let mut s = base_scenario(policy, backfill);
                    s.caching = caching;
                    assert_eq!(check_scenario(&s), Vec::<String>::new(), "{backfill:?}");
                    // The preempted remainder re-enters uncovered.
                    s.preempts.push(PreemptSpec {
                        at: 30,
                        job: 0,
                        resume_at: 120,
                    });
                    assert_eq!(check_scenario(&s), Vec::<String>::new(), "{backfill:?}");
                }
            }
        }
    }

    #[test]
    fn lifo_impostor_claiming_smart_is_caught() {
        // Three equal jobs queue behind a full-machine job. SMART orders
        // them by id; the LIFO impostor starts the latest two first.
        let mut s = base_scenario(PolicyKind::SmartFfia, BackfillMode::None);
        s.jobs = vec![
            job(0, 10, 100, 100),
            job(1, 5, 100, 100),
            job(2, 5, 100, 100),
            job(3, 5, 100, 100),
        ];
        s.mutation = Some(Mutation::Lifo);
        let violations = check_scenario(&s);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("Dynamic differential mismatch")),
            "expected a dynamic-order differential violation, got {violations:?}"
        );
    }

    #[test]
    fn priority_faults_do_not_trip_the_oracle() {
        for score in [ScoreFn::Wfp3, ScoreFn::Sjf, ScoreFn::Unicef] {
            let mut s = base_scenario(PolicyKind::Priority(score), BackfillMode::Easy);
            s.cancels.push(CancelSpec { at: 50, job: 0 });
            s.drains.push(DrainSpec {
                at: 10,
                nodes: 2,
                until: 60,
                class: 0,
            });
            assert_eq!(check_scenario(&s), Vec::<String>::new(), "{score:?}");
        }
    }

    #[test]
    fn hetero_priority_configurations_produce_no_violations() {
        for backfill in [
            BackfillMode::None,
            BackfillMode::Conservative,
            BackfillMode::Easy,
        ] {
            let s = hetero_scenario(PolicyKind::Priority(ScoreFn::Wfp), backfill);
            assert_eq!(check_scenario(&s), Vec::<String>::new(), "{backfill:?}");
        }
    }

    #[test]
    fn preemption_faults_do_not_trip_the_oracle() {
        for backfill in [
            BackfillMode::None,
            BackfillMode::Conservative,
            BackfillMode::Easy,
        ] {
            let mut s = base_scenario(PolicyKind::Fcfs, backfill);
            s.preempts.push(PreemptSpec {
                at: 30,
                job: 0,
                resume_at: 120,
            });
            assert_eq!(check_scenario(&s), Vec::<String>::new(), "{backfill:?}");
        }
        for score in [ScoreFn::Wfp3, ScoreFn::Sjf] {
            let mut s = base_scenario(PolicyKind::Priority(score), BackfillMode::Easy);
            s.preempts.push(PreemptSpec {
                at: 30,
                job: 0,
                resume_at: 120,
            });
            assert_eq!(check_scenario(&s), Vec::<String>::new(), "{score:?}");
        }
        let mut s = hetero_scenario(PolicyKind::Fcfs, BackfillMode::Easy);
        s.preempts.push(PreemptSpec {
            at: 30,
            job: 0,
            resume_at: 150,
        });
        assert_eq!(check_scenario(&s), Vec::<String>::new());
    }

    #[test]
    fn preempting_a_queued_job_is_a_recorded_no_op() {
        // Job 1 is head-blocked behind job 0 at t=30: the preemption must
        // log `applied: false` and leave the schedule untouched.
        let mut s = base_scenario(PolicyKind::Fcfs, BackfillMode::None);
        s.preempts.push(PreemptSpec {
            at: 30,
            job: 1,
            resume_at: 60,
        });
        assert_eq!(check_scenario(&s), Vec::<String>::new());
        let outcome = simulate_with_faults(&s.workload(), &mut *s.scheduler(), &s.fault_plan());
        assert!(outcome
            .faults
            .iter()
            .any(|f| matches!(f, FaultOutcome::Preempted { applied: false, .. })));
    }

    #[test]
    fn cancel_while_preempted_is_audited_clean() {
        let mut s = base_scenario(PolicyKind::Fcfs, BackfillMode::None);
        s.preempts.push(PreemptSpec {
            at: 30,
            job: 0,
            resume_at: 500,
        });
        s.cancels.push(CancelSpec { at: 60, job: 0 });
        assert_eq!(check_scenario(&s), Vec::<String>::new());
    }

    #[test]
    fn broken_resume_is_caught_by_the_outcome_audit() {
        let mut s = base_scenario(PolicyKind::Fcfs, BackfillMode::None);
        s.preempts.push(PreemptSpec {
            at: 30,
            job: 0,
            resume_at: 120,
        });
        let workload = s.workload();
        let mut outcome = simulate_with_faults(&workload, &mut *s.scheduler(), &s.fault_plan());
        assert_eq!(check_outcome(&s, &workload, &outcome), Vec::<String>::new());

        // Impostor resume: re-record every job rigidly over its envelope,
        // as an engine that forgot to close the preempted span would.
        let mut broken = ScheduleRecord::new(s.machine_nodes, s.jobs.len());
        for i in 0..s.jobs.len() {
            if let Some(p) = outcome.schedule.placement(JobId(i as u32)) {
                broken.place(JobId(i as u32), p.start, p.completion);
            }
        }
        outcome.schedule = broken;
        let violations = check_outcome(&s, &workload, &outcome);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("no span closes") || v.contains("no segment union")),
            "preempt audit silent on a span-less schedule: {violations:?}"
        );
        assert!(
            violations.iter().any(|v| v.contains("Rule 2")),
            "charged-time audit silent on an envelope charge: {violations:?}"
        );
        assert!(
            violations.iter().any(|v| v.contains("committed")),
            "capacity sweep silent on overlapping envelopes: {violations:?}"
        );
    }

    #[test]
    fn inverted_wfp_impostor_is_caught() {
        // Machine of 10: job 0 holds all of it until t=100. At t=100 the
        // real WFP ranks job 2 (tiny estimate, huge wait/est ratio) ahead
        // of job 1; the inverted impostor runs the order backwards and
        // head-blocks on job 1 instead.
        let mut s = base_scenario(PolicyKind::Priority(ScoreFn::Wfp), BackfillMode::None);
        s.jobs = vec![job(0, 10, 100, 100), job(1, 6, 100, 100), job(50, 5, 1, 1)];
        s.mutation = Some(Mutation::InvertedPriority);
        let violations = check_scenario(&s);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("differential mismatch")),
            "expected a priority differential violation, got {violations:?}"
        );
    }

    #[test]
    fn lifo_impostor_is_caught() {
        let mut s = base_scenario(PolicyKind::Fcfs, BackfillMode::None);
        s.mutation = Some(Mutation::Lifo);
        let violations = check_scenario(&s);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("differential mismatch")),
            "expected a differential violation, got {violations:?}"
        );
    }

    #[test]
    fn generated_stream_is_clean_smoke() {
        for i in 0..40 {
            let s = random_scenario(0xBEEF, i);
            let violations = check_scenario(&s);
            assert!(
                violations.is_empty(),
                "scenario {i} violated:\n{}\n{}",
                violations.join("\n"),
                s.to_text()
            );
        }
    }

    #[test]
    fn stream_differential_is_clean_across_configurations() {
        for backfill in [
            BackfillMode::None,
            BackfillMode::Conservative,
            BackfillMode::Easy,
        ] {
            let mut s = base_scenario(PolicyKind::Fcfs, backfill);
            assert_eq!(stream_differential(&s), Vec::<String>::new());
            s.cancels.push(CancelSpec { at: 50, job: 0 });
            s.drains.push(DrainSpec {
                at: 10,
                nodes: 2,
                until: 60,
                class: 0,
            });
            assert_eq!(
                stream_differential(&s),
                Vec::<String>::new(),
                "{backfill:?}"
            );
        }
    }

    #[test]
    fn stream_differential_agrees_on_panicking_schedulers() {
        // A LIFO impostor under FCFS doesn't panic, it just mis-picks —
        // batch and stream must still agree event for event on it.
        let mut s = base_scenario(PolicyKind::Fcfs, BackfillMode::None);
        s.mutation = Some(Mutation::Lifo);
        assert_eq!(stream_differential(&s), Vec::<String>::new());
    }

    #[test]
    fn generated_stream_differential_smoke() {
        for i in 0..25 {
            let s = random_scenario(0xD1FF, i);
            let violations = stream_differential(&s);
            assert!(
                violations.is_empty(),
                "scenario {i} diverged:\n{}\n{}",
                violations.join("\n"),
                s.to_text()
            );
        }
    }

    #[test]
    fn exclusive_window_audit_names_each_breach_and_spares_the_exempt() {
        use jobsched_workload::{JobBuilder, Workload};
        const H: Time = HOUR;
        // Example 4's window under plain FCFS on an idle machine: a 2 h
        // job at 9:00 crosses the 10:00 opening, a 30 min one at 9:00
        // does not, a 100 h one is exempt (longer than the 71 h weekend
        // gap), and one submitted at 10:30 starts inside the window.
        let job = |submit, requested| {
            JobBuilder::new(JobId(0))
                .submit(submit)
                .nodes(1)
                .requested(requested)
                .runtime(requested)
                .build()
        };
        let w = Workload::new(
            "class",
            8,
            vec![
                job(9 * H, 2 * H),
                job(9 * H, H / 2),
                job(9 * H, 100 * H),
                job(10 * H + H / 2, 60),
            ],
        );
        let mut fcfs = jobsched_algos::ListScheduler::new(OrderPolicy::Fcfs, BackfillMode::None);
        let out = simulate_with_faults(&w, &mut fcfs, &Default::default());
        let class = DailyWindow {
            start_hour: 10,
            end_hour: 11,
            weekdays_only: true,
        };
        let violations = check_exclusive_window(&w, &out.schedule, class);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations[0].starts_with("job 0 starts at 32400 with estimate 7200,"));
        assert!(violations[1].starts_with("job 3 starts at 37800 inside"));
    }

    #[test]
    fn broken_generated_stream_is_eventually_caught() {
        let caught = (0..20).any(|i| !check_scenario(&broken_scenario(0xBEEF, i)).is_empty());
        assert!(caught, "no generated LIFO scenario tripped the oracle");
    }
}
