//! Decorators that time a layer from outside, and the traced mirror of
//! `core::run_cell` built from them.
//!
//! Each decorator forwards to the wrapped trait object and adds two
//! clock reads per call; the calls are folded into [`Agg`]regates that
//! the mirror attaches to the cell's span. The cell span itself is filed
//! under the `sim` layer, so its self time — pipeline run minus source,
//! scheduler and observers — is exactly the event loop's own cost.

use crate::trace::{Agg, SpanId, Tracer};
use jobsched_algos::spec::PolicyKind;
use jobsched_algos::view::WeightScheme;
use jobsched_algos::{AlgorithmSpec, BackfillMode};
use jobsched_core::objective_select::ObjectiveKind;
use jobsched_metrics::{OnlineMakespan, OnlineUtilization, StreamingObserver};
use jobsched_sim::{
    simulate_time_shared, Action, JobEvent, JobRequest, Machine, Scheduler, SimObserver,
    SimPipeline, TimeSharedScheduler, TsJobView,
};
use jobsched_workload::{
    synthesize_moldable, Job, JobId, JobSource, MachineLayout, SourceError, Time, Workload,
    WorkloadSource,
};
use std::time::Instant;

pub const LAYER_WORKLOAD: &str = "workload";
pub const LAYER_SIM: &str = "sim";
pub const LAYER_ALGOS: &str = "algos";
pub const LAYER_METRICS: &str = "metrics";

#[inline]
fn since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// What a scheduler decorator saw.
#[derive(Clone, Debug)]
pub struct SchedProbe {
    /// `select_starts` / `decide`, bucketed by `queue_len` at call.
    pub select: Agg,
    pub submit: Agg,
    pub finish: Agg,
    /// `cancel` and `capacity_changed`.
    pub other: Agg,
    /// Rounds that started (or otherwise acted on) at least one job.
    pub productive: u64,
}

impl Default for SchedProbe {
    fn default() -> Self {
        SchedProbe {
            select: Agg::new("select", LAYER_ALGOS),
            submit: Agg::new("submit", LAYER_ALGOS),
            finish: Agg::new("finish", LAYER_ALGOS),
            other: Agg::new("sched_other", LAYER_ALGOS),
            productive: 0,
        }
    }
}

impl SchedProbe {
    fn fold_into(self, tracer: &mut Tracer, span: SpanId) {
        let mut productive = Agg::new("productive_rounds", LAYER_ALGOS);
        productive.count = self.productive;
        for agg in [
            self.select,
            self.submit,
            self.finish,
            self.other,
            productive,
        ] {
            tracer.fold(span, agg);
        }
    }
}

/// Times every callback of a rigid [`Scheduler`].
pub struct TimedScheduler<'a> {
    inner: &'a mut dyn Scheduler,
    pub probe: SchedProbe,
}

impl<'a> TimedScheduler<'a> {
    pub fn new(inner: &'a mut dyn Scheduler) -> Self {
        TimedScheduler {
            inner,
            probe: SchedProbe::default(),
        }
    }
}

impl Scheduler for TimedScheduler<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn submit(&mut self, job: JobRequest, now: Time) {
        let t0 = Instant::now();
        self.inner.submit(job, now);
        self.probe.submit.add(since(t0));
    }

    fn job_finished(&mut self, id: JobId, now: Time) {
        let t0 = Instant::now();
        self.inner.job_finished(id, now);
        self.probe.finish.add(since(t0));
    }

    fn cancel(&mut self, id: JobId, now: Time) {
        let t0 = Instant::now();
        self.inner.cancel(id, now);
        self.probe.other.add(since(t0));
    }

    fn capacity_changed(&mut self, now: Time) {
        let t0 = Instant::now();
        self.inner.capacity_changed(now);
        self.probe.other.add(since(t0));
    }

    fn select_starts(&mut self, now: Time, machine: &Machine) -> Vec<JobId> {
        let depth = self.inner.queue_len();
        let t0 = Instant::now();
        let starts = self.inner.select_starts(now, machine);
        self.probe.select.add_at(since(t0), depth);
        self.probe.productive += u64::from(!starts.is_empty());
        starts
    }

    fn queue_len(&self) -> usize {
        self.inner.queue_len()
    }

    fn next_wakeup(&self, now: Time) -> Option<Time> {
        self.inner.next_wakeup(now)
    }
}

/// Times every callback of a [`TimeSharedScheduler`].
pub struct TimedTsScheduler<'a> {
    inner: &'a mut dyn TimeSharedScheduler,
    pub probe: SchedProbe,
}

impl<'a> TimedTsScheduler<'a> {
    pub fn new(inner: &'a mut dyn TimeSharedScheduler) -> Self {
        TimedTsScheduler {
            inner,
            probe: SchedProbe::default(),
        }
    }
}

impl TimeSharedScheduler for TimedTsScheduler<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn submit(&mut self, job: &TsJobView, now: Time) {
        let t0 = Instant::now();
        self.inner.submit(job, now);
        self.probe.submit.add(since(t0));
    }

    fn job_finished(&mut self, id: JobId, now: Time) {
        let t0 = Instant::now();
        self.inner.job_finished(id, now);
        self.probe.finish.add(since(t0));
    }

    fn decide(&mut self, now: Time, machine: &Machine) -> Vec<Action> {
        let depth = self.inner.queue_len();
        let t0 = Instant::now();
        let actions = self.inner.decide(now, machine);
        self.probe.select.add_at(since(t0), depth);
        self.probe.productive += u64::from(!actions.is_empty());
        actions
    }

    fn queue_len(&self) -> usize {
        self.inner.queue_len()
    }

    fn next_wakeup(&self, now: Time) -> Option<Time> {
        self.inner.next_wakeup(now)
    }
}

/// Times `next_job` of a [`JobSource`].
pub struct TimedSource<'a> {
    inner: &'a mut dyn JobSource,
    pub next_job: Agg,
}

impl<'a> TimedSource<'a> {
    pub fn new(inner: &'a mut dyn JobSource) -> Self {
        TimedSource {
            inner,
            next_job: Agg::new("next_job", LAYER_WORKLOAD),
        }
    }
}

impl JobSource for TimedSource<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn machine_nodes(&self) -> u32 {
        self.inner.machine_nodes()
    }

    fn layout(&self) -> Option<&MachineLayout> {
        self.inner.layout()
    }

    fn next_job(&mut self) -> Result<Option<Job>, SourceError> {
        let t0 = Instant::now();
        let job = self.inner.next_job();
        self.next_job.add(since(t0));
        job
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

/// Times `on_event` / `on_end` of a [`SimObserver`].
pub struct TimedObserver<'a> {
    inner: &'a mut dyn SimObserver,
    pub observe: Agg,
}

impl<'a> TimedObserver<'a> {
    pub fn new(inner: &'a mut dyn SimObserver, name: &'static str) -> Self {
        TimedObserver {
            inner,
            observe: Agg::new(name, LAYER_METRICS),
        }
    }
}

impl SimObserver for TimedObserver<'_> {
    fn on_event(&mut self, event: &JobEvent) {
        let t0 = Instant::now();
        self.inner.on_event(event);
        self.observe.add(since(t0));
    }

    fn on_end(&mut self, horizon: Time) {
        let t0 = Instant::now();
        self.inner.on_end(horizon);
        self.observe.add(since(t0));
    }
}

/// The row name of a spec as the per-layer metrics spell it:
/// `fcfs-easy`, `wfp-cons`, `garey-graham`, `dfrs`.
pub fn row_tag(spec: AlgorithmSpec) -> String {
    let policy = jobsched_sweep::grid::policy_tag(spec.kind);
    if matches!(
        spec.kind,
        PolicyKind::GareyGraham | PolicyKind::Dfrs | PolicyKind::Moldable
    ) {
        return policy.to_string();
    }
    let backfill = match spec.backfill {
        BackfillMode::None => "none",
        BackfillMode::Conservative => "cons",
        BackfillMode::Easy => "easy",
    };
    format!("{policy}-{backfill}")
}

/// Is this one of the per-group fairness objectives (their accumulators
/// are reported apart from the plain streaming ones)?
pub fn is_fairness(objective: ObjectiveKind) -> bool {
    matches!(
        objective,
        ObjectiveKind::MaxUserSlowdown
            | ObjectiveKind::P95WidthSlowdown
            | ObjectiveKind::SlowdownVariance
    )
}

/// Every simulated statistic of one cell — what `sim_digest` covers,
/// plus the counters only the pipeline exposes.
#[derive(Clone, Debug, PartialEq)]
pub struct CellStats {
    pub cost: f64,
    pub makespan: Time,
    pub utilization: f64,
    pub events: u64,
    pub decision_rounds: u64,
    pub peak_queue: usize,
    /// 0 for time-shared cells (the segment engine holds the whole
    /// workload).
    pub peak_resident: usize,
    pub jobs_finished: u64,
}

/// The traced mirror of `core::run_cell`: same construction, same
/// pipeline, every trait object wrapped in its decorator. Must return
/// `run_cell`'s cost bit for bit — the traced run checks that against
/// the untraced pass.
pub fn traced_cell(
    workload: &Workload,
    objective: ObjectiveKind,
    spec: AlgorithmSpec,
    caching: bool,
    tracer: &mut Tracer,
    parent: SpanId,
    id: u64,
) -> CellStats {
    let tag = jobsched_sweep::grid::objective_tag(objective);
    if spec.kind.time_shared() {
        return traced_time_shared_cell(workload, objective, spec, tracer, parent, id);
    }
    let scheme = if objective.weighted() {
        WeightScheme::ProjectedArea
    } else {
        WeightScheme::Unweighted
    };
    let span = tracer.open(
        format!("cell:{}:{tag}", row_tag(spec)),
        LAYER_SIM,
        Some(parent),
        id,
    );
    let mut scheduler = spec.build_dyn(scheme, caching);
    let mut cost = objective.build_streaming();
    let mut makespan = OnlineMakespan::new();
    let mut utilization = OnlineUtilization::new(workload.machine_nodes());
    let observe = if is_fairness(objective) {
        "observe_fairness"
    } else {
        "observe"
    };

    let mut source = WorkloadSource::new(workload);
    let mut source = TimedSource::new(&mut source);
    let mut scheduler = TimedScheduler::new(&mut *scheduler);
    let mut cost_sink = StreamingObserver(&mut *cost);
    let mut makespan_sink = StreamingObserver(&mut makespan);
    let mut utilization_sink = StreamingObserver(&mut utilization);
    let mut cost_sink = TimedObserver::new(&mut cost_sink, observe);
    let mut makespan_sink = TimedObserver::new(&mut makespan_sink, "observe");
    let mut utilization_sink = TimedObserver::new(&mut utilization_sink, "observe");

    let out = SimPipeline::new(&mut source, &mut scheduler)
        .observe(&mut cost_sink)
        .observe(&mut makespan_sink)
        .observe(&mut utilization_sink)
        .run()
        .expect("in-memory workload sources are infallible");
    tracer.close(span);

    tracer.fold(span, cost_sink.observe);
    tracer.fold(span, makespan_sink.observe);
    tracer.fold(span, utilization_sink.observe);
    tracer.fold(span, source.next_job);
    scheduler.probe.fold_into(tracer, span);

    CellStats {
        cost: cost.cost(),
        makespan: makespan.value(),
        utilization: utilization.utilization(),
        events: out.events,
        decision_rounds: out.decision_rounds,
        peak_queue: out.peak_queue,
        peak_resident: out.peak_resident,
        jobs_finished: out.jobs_finished,
    }
}

fn traced_time_shared_cell(
    workload: &Workload,
    objective: ObjectiveKind,
    spec: AlgorithmSpec,
    tracer: &mut Tracer,
    parent: SpanId,
    id: u64,
) -> CellStats {
    let tag = jobsched_sweep::grid::objective_tag(objective);
    let mut scheduler = spec
        .build_time_shared()
        .expect("caller checked spec.kind.time_shared()");
    let molded;
    let workload = if spec.kind == PolicyKind::Moldable && !workload.is_moldable() {
        let mut w = workload.clone();
        let table = synthesize_moldable(&w);
        w.set_moldable(table);
        molded = w;
        &molded
    } else {
        workload
    };
    let span = tracer.open(
        format!("tscell:{}:{tag}", row_tag(spec)),
        LAYER_SIM,
        Some(parent),
        id,
    );
    let mut timed = TimedTsScheduler::new(&mut *scheduler);
    let out = simulate_time_shared(workload, &mut timed);
    tracer.close(span);
    timed.probe.fold_into(tracer, span);

    let metrics = tracer.open(format!("objective:{tag}"), LAYER_METRICS, Some(parent), id);
    let stats = CellStats {
        cost: objective.build().cost(workload, &out.schedule),
        makespan: out.schedule.makespan(),
        utilization: out.schedule.utilization(workload),
        events: out.events,
        decision_rounds: out.decision_rounds,
        peak_queue: out.peak_queue,
        peak_resident: 0,
        jobs_finished: out.schedule.iter().count() as u64,
    };
    tracer.close(metrics);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::HARNESS;
    use jobsched_core::experiment::run_cell;
    use jobsched_workload::ctc::prepared_ctc_workload;

    #[test]
    fn row_tags_match_the_metric_names() {
        use jobsched_algos::ScoreFn;
        let tag = |kind, backfill| row_tag(AlgorithmSpec::new(kind, backfill));
        assert_eq!(tag(PolicyKind::Fcfs, BackfillMode::None), "fcfs-none");
        assert_eq!(
            tag(PolicyKind::Fcfs, BackfillMode::Conservative),
            "fcfs-cons"
        );
        assert_eq!(
            tag(PolicyKind::SmartFfia, BackfillMode::Easy),
            "smart-ffia-easy"
        );
        assert_eq!(
            tag(PolicyKind::GareyGraham, BackfillMode::None),
            "garey-graham"
        );
        assert_eq!(tag(PolicyKind::Dfrs, BackfillMode::None), "dfrs");
        assert_eq!(
            tag(
                PolicyKind::Priority(ScoreFn::Wfp),
                BackfillMode::Conservative
            ),
            "wfp-cons"
        );
        assert_eq!(
            tag(
                PolicyKind::Priority(ScoreFn::LargestFirst),
                BackfillMode::None
            ),
            "largest-none"
        );
        for row in crate::spec::ROWS {
            assert!(
                AlgorithmSpec::atlas_matrix()
                    .into_iter()
                    .chain([AlgorithmSpec::new(PolicyKind::Dfrs, BackfillMode::None)])
                    .any(|s| row_tag(s) == row),
                "{row} names no spec"
            );
        }
    }

    #[test]
    fn the_mirror_returns_run_cells_statistics_bit_for_bit() {
        let w = prepared_ctc_workload(400, 11);
        let specs = [
            AlgorithmSpec::reference(),
            AlgorithmSpec::new(PolicyKind::Psrs, BackfillMode::Conservative),
            AlgorithmSpec::new(PolicyKind::Dfrs, BackfillMode::None),
            AlgorithmSpec::new(PolicyKind::Moldable, BackfillMode::None),
        ];
        for objective in [
            ObjectiveKind::AvgWeightedResponseTime,
            ObjectiveKind::MaxUserSlowdown,
        ] {
            for spec in specs {
                let mut tracer = Tracer::new();
                let root = tracer.open("root", HARNESS, None, 0);
                let got = traced_cell(&w, objective, spec, true, &mut tracer, root, 1);
                tracer.close(root);
                let want = run_cell(&w, objective, spec, true);
                assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "{}", spec.name());
                assert_eq!(got.makespan, want.makespan);
                assert_eq!(got.utilization.to_bits(), want.utilization.to_bits());
                assert_eq!(
                    (got.events, got.decision_rounds, got.peak_queue),
                    (want.events, want.decision_rounds, want.peak_queue)
                );
                assert_eq!(got.jobs_finished, w.len() as u64);
                // Every round was seen, and the layers partition the root.
                assert_eq!(tracer.total("select").count, want.decision_rounds);
                assert_eq!(
                    tracer.layer_self_ns().values().sum::<u64>(),
                    tracer.span(root).duration_ns()
                );
            }
        }
    }
}
