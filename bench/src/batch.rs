//! The four batch workloads: `ctc-matrix`, `deep-queue`, `stream-2m`,
//! `atlas-sweep`. Each has an untraced `run` (end-to-end numbers, output
//! checks) and a `trace` (an untraced pass for reference, then the same
//! work through the decorators of [`crate::probes`]).

use crate::harness::{
    batch_rep, finish_batch_latencies, own_peak_rss_mb, repeat, secs, Ctx, RunReport, Tally,
    TraceReport,
};
use crate::inputs::{atlas_scale, ctc_trace, fitted_model, randomized_trace, stream_source};
use crate::layers;
use crate::probes::{
    row_tag, traced_cell, CellStats, TimedObserver, TimedScheduler, TimedSource, LAYER_SIM,
    LAYER_WORKLOAD,
};
use crate::spec::{self, QUEUE_BUCKETS, REGIME_SEED, ROWS};
use crate::trace::{Agg, SpanId, Tracer, HARNESS};
use jobsched_algos::spec::PolicyKind;
use jobsched_algos::view::WeightScheme;
use jobsched_algos::{AlgorithmSpec, BackfillMode, ListScheduler, ScoreFn};
use jobsched_core::experiment::{run_cell, EvalCell};
use jobsched_core::objective_select::ObjectiveKind;
use jobsched_metrics::{
    OnlineArt, OnlineAwrt, OnlineMakespan, OnlineUtilization, StreamingObjective, StreamingObserver,
};
use jobsched_sim::{simulate, PipelineOutcome, SimPipeline};
use jobsched_sweep::grid::objective_tag;
use jobsched_sweep::hash::StableHasher;
use jobsched_sweep::RunRecord;
use jobsched_sweep::{run_campaign, Campaign, CampaignOutcome, ResultCache, SweepOptions};
use jobsched_workload::ctc::prepared_ctc_workload;
use jobsched_workload::randomized::randomized_workload;
use jobsched_workload::source::collect;
use jobsched_workload::{JobSource, ProbabilisticSource, Workload};
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const LAYER_SWEEP: &str = "sweep";
/// Cells inside `run_campaign` cannot be decorated; their wall is filed
/// under this joint layer.
pub const LAYER_CELLS: &str = "core.run_cell";

const MATRIX_OBJECTIVES: [ObjectiveKind; 2] = [
    ObjectiveKind::AvgResponseTime,
    ObjectiveKind::AvgWeightedResponseTime,
];

/// The 26 cells of one paper table pair, in run order.
fn matrix_cells() -> Vec<(ObjectiveKind, AlgorithmSpec)> {
    MATRIX_OBJECTIVES
        .into_iter()
        .flat_map(|o| {
            AlgorithmSpec::paper_matrix()
                .into_iter()
                .map(move |s| (o, s))
        })
        .collect()
}

fn cell_key(objective: ObjectiveKind, spec: AlgorithmSpec) -> String {
    format!("{}:{}", row_tag(spec), objective_tag(objective))
}

/// Fold one cell's simulated statistics into a `sim_digest` (the sweep
/// crate's stable FNV-1a-64; floats by their bits — "identical" means
/// bit-identical).
fn digest_cell(d: &mut StableHasher, key: &str, c: &CellStats) {
    d.write_str(key)
        .write_u64(c.cost.to_bits())
        .write_u64(c.makespan)
        .write_u64(c.utilization.to_bits())
        .write_u64(c.events)
        .write_u64(c.decision_rounds)
        .write_u64(c.peak_queue as u64);
}

fn cell_stats(
    cost: f64,
    makespan: u64,
    utilization: f64,
    counts: jobsched_core::experiment::EngineCounts,
) -> CellStats {
    CellStats {
        cost,
        makespan,
        utilization,
        events: counts.events,
        decision_rounds: counts.decision_rounds,
        peak_queue: counts.peak_queue,
        peak_resident: 0,
        jobs_finished: 0,
    }
}

fn stats_of(cell: &EvalCell) -> CellStats {
    let counts = jobsched_core::experiment::EngineCounts {
        events: cell.events,
        decision_rounds: cell.decision_rounds,
        peak_queue: cell.peak_queue,
    };
    cell_stats(cell.cost, cell.makespan, cell.utilization, counts)
}

fn record_stats(r: &RunRecord) -> CellStats {
    cell_stats(r.cost, r.makespan, r.utilization, r.counts)
}

/// Did a rigid cell run every job to completion? `run_cell` reports no
/// job count, but busy node-seconds do: utilization x makespan x nodes
/// must equal the workload's total effective area, and every job costs
/// at least a submit and a finish event.
fn cell_completed(w: &Workload, c: &CellStats) -> bool {
    let busy = c.utilization * c.makespan as f64 * w.machine_nodes() as f64;
    let area = w.total_area();
    c.events >= 2 * w.len() as u64 && (busy - area).abs() <= 1e-9 * area.max(1.0)
}

/// The self-consistency check every seed gets: the FCFS+EASY reference
/// cell again through the dense batch path — `simulate`, the full
/// `ScheduleRecord::validate` audit, the batch `Objective` — whose cost
/// must equal the streamed one bit for bit.
fn check_reference_cell(w: &Workload, streamed: &[(ObjectiveKind, f64)], tally: &mut Tally) {
    let mut scheduler = AlgorithmSpec::reference().build(WeightScheme::Unweighted);
    let out = simulate(w, &mut scheduler);
    let violations = out.schedule.validate(w);
    tally.check(violations.is_empty(), || {
        format!("reference schedule invalid: {:?}", violations.first())
    });
    tally.check(out.schedule.completion_ratio() == 1.0, || {
        "reference schedule left jobs unfinished".into()
    });
    for &(objective, cost) in streamed {
        let batch = objective.build().cost(w, &out.schedule);
        tally.check(batch.to_bits() == cost.to_bits(), || {
            format!(
                "{}: batch cost {batch} != streamed cost {cost}",
                objective_tag(objective)
            )
        });
    }
}

/// Which generator a matrix workload draws from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Matrix {
    Ctc,
    DeepQueue,
}

impl Matrix {
    fn def(self) -> &'static spec::WorkloadDef {
        spec::workload(match self {
            Matrix::Ctc => "ctc-matrix",
            Matrix::DeepQueue => "deep-queue",
        })
        .expect("named in spec::WORKLOADS")
    }

    fn generate(self, ctx: &Ctx) -> Workload {
        match self {
            Matrix::Ctc => ctc_trace(ctx.sizes.ctc_matrix_jobs, ctx.seed),
            Matrix::DeepQueue => randomized_trace(ctx.sizes.deep_queue_jobs, ctx.seed),
        }
    }
}

/// Set-up of a matrix workload: generate the trace, then warm allocator
/// and caches with the reference cell (charged to `setup_s`).
fn matrix_setup(kind: Matrix, ctx: &Ctx) -> (Workload, f64) {
    let t0 = Instant::now();
    let w = kind.generate(ctx);
    std::hint::black_box(run_cell(
        &w,
        ObjectiveKind::AvgResponseTime,
        AlgorithmSpec::reference(),
        true,
    ));
    (w, secs(t0))
}

/// `ctc-matrix` / `deep-queue`: 13 algorithms x {ART, AWRT} = 26 serial
/// `core::run_cell` calls, no sweep, no cache.
pub fn run_matrix(kind: Matrix, ctx: &Ctx) -> RunReport {
    let mut report = RunReport::new(kind.def(), ctx.seed);
    let cells = matrix_cells();
    let (mut w, mut setup_s) = matrix_setup(kind, ctx);
    let mut last: Vec<CellStats> = Vec::new();
    let mut digests = Vec::new();

    repeat(kind.def().min_reps, ctx.seconds, |i| {
        if i > 0 {
            (w, setup_s) = matrix_setup(kind, ctx);
        }
        let t0 = Instant::now();
        let out: Vec<EvalCell> = cells
            .iter()
            .map(|&(objective, spec)| run_cell(&w, objective, spec, true))
            .collect();
        let wall = secs(t0);
        last = out.iter().map(stats_of).collect();
        let mut d = StableHasher::new();
        for (&(o, s), c) in cells.iter().zip(&last) {
            digest_cell(&mut d, &cell_key(o, s), c);
        }
        digests.push(d.finish_hex());
        report
            .reps
            .push(batch_rep(setup_s, wall, (cells.len() * w.len()) as u64));
        wall
    });
    report.peak_rss_mb = own_peak_rss_mb();
    while report.reps.len() + report.extra_setups_s.len() < 3 {
        report.extra_setups_s.push(matrix_setup(kind, ctx).1);
    }
    finish_batch_latencies(&mut report);

    for (&(o, s), c) in cells.iter().zip(&last) {
        report.check(cell_completed(&w, c), || {
            format!("{} did not complete every job", cell_key(o, s))
        });
    }
    report.sim_digest = digests[0].clone();
    report.check(digests.iter().all(|d| *d == digests[0]), || {
        "repetitions disagree on the simulated statistics".into()
    });
    let reference: Vec<(ObjectiveKind, f64)> = cells
        .iter()
        .zip(&last)
        .filter(|((_, s), _)| *s == AlgorithmSpec::reference())
        .map(|(&(o, _), c)| (o, c.cost))
        .collect();
    check_reference_cell(&w, &reference, &mut report.tally);
    report
}

/// Per-layer numbers shared by the traced matrix and stream workloads:
/// counts, per-row and per-depth scheduler time, observer and pipeline
/// self time — all read back from the spans under `root`.
fn cell_layer_metrics(report: &mut TraceReport, stats: &[CellStats]) {
    let events: u64 = stats.iter().map(|c| c.events).sum();
    let rounds: u64 = stats.iter().map(|c| c.decision_rounds).sum();
    report.set("sim.events", events as f64);
    report.set("sim.decision_rounds", rounds as f64);
    let peak_queue = stats.iter().map(|c| c.peak_queue).max().unwrap_or(0);
    report.set("sim.peak_queue", peak_queue as f64);
    let peak_resident = stats.iter().map(|c| c.peak_resident).max().unwrap_or(0);
    report.set("sim.peak_resident", peak_resident as f64);

    let tracer = &report.tracer;
    let own = tracer.self_ns();
    let self_of = |prefix: &str| -> (u64, u64) {
        tracer
            .spans()
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name.starts_with(prefix))
            .fold((0, 0), |acc, (s, &o)| (acc.0 + o, acc.1 + s.duration_ns()))
    };
    let (rigid_self, rigid_wall) = self_of("cell:");
    let (ts_self, ts_wall) = self_of("tscell:");
    let events_of = |prefix: &str| -> u64 {
        // Span ids index `stats`: the mirror files each cell under its
        // position.
        tracer
            .spans()
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(|s| stats[s.id as usize].events)
            .sum()
    };
    let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    let mut values: Vec<(String, f64)> = vec![
        (
            "sim.pipeline_self_ns_per_event".into(),
            per(rigid_self, events_of("cell:")),
        ),
        (
            "sim.tshare_self_ns_per_event".into(),
            per(ts_self, events_of("tscell:")),
        ),
    ];

    for row in ROWS {
        let (rigid, shared) = (format!("cell:{row}:"), format!("tscell:{row}:"));
        let agg = tracer.total_where("select", |s| {
            s.name.starts_with(&rigid) || s.name.starts_with(&shared)
        });
        if agg.count > 0 {
            values.push((format!("algos.select_ns_per_round.{row}"), agg.mean_ns()));
        }
    }
    for column in ["easy", "cons"] {
        let suffix = format!("-{column}:");
        let agg = tracer.total_where("select", |s| {
            s.name.starts_with("cell:") && s.name.contains(&suffix)
        });
        for (k, &lo) in QUEUE_BUCKETS.iter().enumerate() {
            let hi = QUEUE_BUCKETS.get(k + 1).copied().unwrap_or(usize::MAX);
            let (n, ns) = agg.depth_range(lo, hi);
            if n > 0 {
                values.push((
                    format!("algos.select_ns_per_round.{column}.q{lo}"),
                    per(ns, n),
                ));
            }
        }
    }

    let (select, submit, finish, other) = (
        tracer.total("select"),
        tracer.total("submit"),
        tracer.total("finish"),
        tracer.total("sched_other"),
    );
    values.push(("algos.submit_ns_per_job".into(), submit.mean_ns()));
    values.push(("algos.finish_ns_per_job".into(), finish.mean_ns()));
    let productive = tracer.total("productive_rounds").count;
    values.push((
        "algos.productive_round_ratio".into(),
        per(productive, select.count),
    ));
    let sched_ns = select.sum_ns + submit.sum_ns + finish.sum_ns + other.sum_ns;
    values.push((
        "algos.sched_share".into(),
        per(sched_ns, rigid_wall + ts_wall),
    ));
    let observe = tracer.total("observe");
    if observe.count > 0 {
        values.push(("metrics.observe_ns_per_event".into(), observe.mean_ns()));
    }
    let fairness = tracer.total("observe_fairness");
    if fairness.count > 0 {
        values.push((
            "metrics.fairness_observe_ns_per_event".into(),
            fairness.mean_ns(),
        ));
    }
    for (name, value) in values {
        report.set(&name, value);
    }
}

/// Compare a mirrored cell with `run_cell`'s: the decorators must not
/// change one simulated statistic.
fn check_mirror(report: &mut TraceReport, key: &str, want: &CellStats, got: &CellStats) {
    let same = got.cost.to_bits() == want.cost.to_bits()
        && got.makespan == want.makespan
        && got.utilization.to_bits() == want.utilization.to_bits()
        && (got.events, got.decision_rounds, got.peak_queue)
            == (want.events, want.decision_rounds, want.peak_queue);
    report.check(same, || {
        format!("{key}: traced mirror diverged from run_cell ({got:?} vs {want:?})")
    });
}

/// Time `generate` under a workload-layer span; ns per generated job.
fn timed_generation(
    tracer: &mut Tracer,
    root: SpanId,
    name: &str,
    generate: impl FnOnce() -> Workload,
) -> f64 {
    let span = tracer.open(name, LAYER_WORKLOAD, Some(root), 0);
    let w = std::hint::black_box(generate());
    tracer.close(span);
    tracer.span(span).duration_ns() as f64 / w.len().max(1) as f64
}

/// The traced run of a matrix workload.
pub fn trace_matrix(kind: Matrix, ctx: &Ctx) -> TraceReport {
    let mut report = TraceReport::new(kind.def(), ctx.seed);
    let cells = matrix_cells();
    let (w, _) = matrix_setup(kind, ctx);

    let t0 = Instant::now();
    let untraced: Vec<CellStats> = cells
        .iter()
        .map(|&(o, s)| stats_of(&run_cell(&w, o, s, true)))
        .collect();
    report.untraced_wall_s = secs(t0);

    let root = report.tracer.open(kind.def().name, HARNESS, None, 0);
    let t0 = Instant::now();
    let traced: Vec<CellStats> = cells
        .iter()
        .enumerate()
        .map(|(i, &(o, s))| traced_cell(&w, o, s, true, &mut report.tracer, root, i as u64))
        .collect();
    report.traced_wall_s = secs(t0);

    let jobs = w.len();
    match kind {
        Matrix::Ctc => {
            let ns = timed_generation(&mut report.tracer, root, "generate:ctc", || {
                prepared_ctc_workload(jobs, REGIME_SEED)
            });
            report.set("workload.ctc_gen_ns_per_job", ns);
        }
        Matrix::DeepQueue => {
            let ns = timed_generation(&mut report.tracer, root, "generate:randomized", || {
                randomized_workload(jobs, ctx.seed + 2)
            });
            report.set("workload.randomized_gen_ns_per_job", ns);
        }
    }
    let span = report
        .tracer
        .open("replay:live-profile", LAYER_SIM, Some(root), 0);
    let profile = layers::profile_replay(&w);
    report.tracer.close(span);
    report.tracer.close(root);
    report.set("sim.profile.update_ns_per_op", profile.update_ns_per_op);
    report.set(
        "sim.profile.earliest_start_ns_per_op",
        profile.earliest_start_ns_per_op,
    );
    report.set("sim.profile.snapshot_ns_per_op", profile.snapshot_ns_per_op);

    for ((&(o, s), want), got) in cells.iter().zip(&untraced).zip(&traced) {
        let key = cell_key(o, s);
        check_mirror(&mut report, &key, want, got);
        report.check(got.jobs_finished == jobs as u64, || {
            format!("{key} finished {} of {jobs} jobs", got.jobs_finished)
        });
    }
    cell_layer_metrics(&mut report, &traced);
    report.reconcile(root, ctx);
    report
}

/// The online accumulators `stream-2m` folds the event stream into.
struct StreamSinks {
    art: OnlineArt,
    awrt: OnlineAwrt,
    makespan: OnlineMakespan,
    utilization: OnlineUtilization,
}

impl StreamSinks {
    fn new(machine_nodes: u32) -> Self {
        StreamSinks {
            art: OnlineArt::new(),
            awrt: OnlineAwrt::new(),
            makespan: OnlineMakespan::new(),
            utilization: OnlineUtilization::new(machine_nodes),
        }
    }

    fn stats(&self, out: &PipelineOutcome) -> CellStats {
        CellStats {
            cost: self.art.cost(),
            makespan: self.makespan.value(),
            utilization: self.utilization.utilization(),
            events: out.events,
            decision_rounds: out.decision_rounds,
            peak_queue: out.peak_queue,
            peak_resident: out.peak_resident,
            jobs_finished: out.jobs_finished,
        }
    }
}

fn fcfs_easy() -> ListScheduler {
    ListScheduler::new(
        PolicyKind::Fcfs.policy(WeightScheme::Unweighted),
        BackfillMode::Easy,
    )
}

/// One untraced pass of `source` through FCFS+EASY and the four online
/// accumulators.
fn stream_once(source: &mut dyn JobSource) -> (StreamSinks, PipelineOutcome) {
    let mut sinks = StreamSinks::new(source.machine_nodes());
    let mut scheduler = fcfs_easy();
    let out = {
        let mut art = StreamingObserver(&mut sinks.art);
        let mut awrt = StreamingObserver(&mut sinks.awrt);
        let mut makespan = StreamingObserver(&mut sinks.makespan);
        let mut utilization = StreamingObserver(&mut sinks.utilization);
        SimPipeline::new(source, &mut scheduler)
            .observe(&mut art)
            .observe(&mut awrt)
            .observe(&mut makespan)
            .observe(&mut utilization)
            .run()
            .expect("probabilistic sources are infallible")
    };
    (sinks, out)
}

fn digest_stream(sinks: &StreamSinks, out: &PipelineOutcome) -> String {
    let mut d = StableHasher::new();
    digest_cell(&mut d, "stream:fcfs-easy", &sinks.stats(out));
    d.write_u64(sinks.awrt.cost().to_bits())
        .write_u64(out.peak_resident as u64)
        .write_u64(out.jobs_finished);
    d.finish_hex()
}

/// Jobs of the stream prefix the self-consistency check replays through
/// the dense batch path.
const STREAM_CHECK_JOBS: usize = 100_000;

/// Set-up of `stream-2m`: fit the model, warm up on a short stream.
fn stream_setup(ctx: &Ctx) -> (ProbabilisticSource, f64) {
    let t0 = Instant::now();
    let model = fitted_model(ctx.sizes.stream_base_jobs);
    let mut warm = stream_source(model.clone(), ctx.sizes.stream_jobs / 100, ctx.seed);
    std::hint::black_box(stream_once(&mut warm));
    (
        stream_source(model, ctx.sizes.stream_jobs, ctx.seed),
        secs(t0),
    )
}

/// `stream-2m`: an unbounded-style generator through the bounded-memory
/// pipeline; no workload vector, no schedule record.
pub fn run_stream(ctx: &Ctx) -> RunReport {
    let def = spec::workload("stream-2m").expect("named in spec::WORKLOADS");
    let mut report = RunReport::new(def, ctx.seed);
    let jobs = ctx.sizes.stream_jobs as u64;
    let mut digests = Vec::new();
    let mut finished = Vec::new();

    repeat(def.min_reps, ctx.seconds, |_| {
        let (mut source, setup_s) = stream_setup(ctx);
        let t0 = Instant::now();
        let (sinks, out) = stream_once(&mut source);
        let wall = secs(t0);
        digests.push(digest_stream(&sinks, &out));
        finished.push(out.jobs_finished);
        report
            .reps
            .push(batch_rep(setup_s, wall, out.jobs_finished));
        wall
    });
    report.peak_rss_mb = own_peak_rss_mb();
    finish_batch_latencies(&mut report);

    for &n in &finished {
        report.check(n == jobs, || format!("stream finished {n} of {jobs} jobs"));
    }
    report.sim_digest = digests[0].clone();
    report.check(digests.iter().all(|d| *d == digests[0]), || {
        "repetitions disagree on the simulated statistics".into()
    });

    // Self-consistency on this seed's own data: a prefix of the stream
    // as a dense workload, streamed and batch costs bit for bit.
    let prefix = (jobs as usize).min(STREAM_CHECK_JOBS);
    let model = fitted_model(ctx.sizes.stream_base_jobs);
    let w = collect(&mut stream_source(model.clone(), prefix, ctx.seed))
        .expect("probabilistic sources are infallible");
    let (sinks, out) = stream_once(&mut stream_source(model, prefix, ctx.seed));
    report.check(out.jobs_finished == prefix as u64, || {
        "prefix stream did not drain".into()
    });
    let streamed = [
        (ObjectiveKind::AvgResponseTime, sinks.art.cost()),
        (ObjectiveKind::AvgWeightedResponseTime, sinks.awrt.cost()),
    ];
    check_reference_cell(&w, &streamed, &mut report.tally);
    report
}

/// The traced run of `stream-2m`.
pub fn trace_stream(ctx: &Ctx) -> TraceReport {
    let def = spec::workload("stream-2m").expect("named in spec::WORKLOADS");
    let mut report = TraceReport::new(def, ctx.seed);
    let jobs = ctx.sizes.stream_jobs;

    let (mut source, _) = stream_setup(ctx);
    let t0 = Instant::now();
    let (sinks, out) = stream_once(&mut source);
    report.untraced_wall_s = secs(t0);
    let want = sinks.stats(&out);
    let want_awrt = sinks.awrt.cost();

    let root = report.tracer.open(def.name, HARNESS, None, 0);
    let fit = report
        .tracer
        .open("fit:binned-model", LAYER_WORKLOAD, Some(root), 0);
    let model = fitted_model(ctx.sizes.stream_base_jobs);
    report.tracer.close(fit);
    let fit_ms = report.tracer.span(fit).duration_ns() as f64 / 1e6;
    report.set("workload.model_fit_ms", fit_ms);

    let mut source = stream_source(model, jobs, ctx.seed);
    let mut sinks = StreamSinks::new(source.machine_nodes());
    let mut scheduler = fcfs_easy();
    let t0 = Instant::now();
    let span = report
        .tracer
        .open("cell:fcfs-easy:stream", LAYER_SIM, Some(root), 0);
    let (out, aggs) = {
        let mut source = TimedSource::new(&mut source);
        let mut scheduler = TimedScheduler::new(&mut scheduler);
        let mut art = StreamingObserver(&mut sinks.art);
        let mut awrt = StreamingObserver(&mut sinks.awrt);
        let mut makespan = StreamingObserver(&mut sinks.makespan);
        let mut utilization = StreamingObserver(&mut sinks.utilization);
        let mut art = TimedObserver::new(&mut art, "observe");
        let mut awrt = TimedObserver::new(&mut awrt, "observe");
        let mut makespan = TimedObserver::new(&mut makespan, "observe");
        let mut utilization = TimedObserver::new(&mut utilization, "observe");
        let out = SimPipeline::new(&mut source, &mut scheduler)
            .observe(&mut art)
            .observe(&mut awrt)
            .observe(&mut makespan)
            .observe(&mut utilization)
            .run()
            .expect("probabilistic sources are infallible");
        let mut productive = Agg::new("productive_rounds", crate::probes::LAYER_ALGOS);
        productive.count = scheduler.probe.productive;
        let probe = scheduler.probe;
        let aggs = vec![
            source.next_job,
            probe.select,
            probe.submit,
            probe.finish,
            probe.other,
            productive,
            art.observe,
            awrt.observe,
            makespan.observe,
            utilization.observe,
        ];
        (out, aggs)
    };
    report.tracer.close(span);
    report.traced_wall_s = secs(t0);
    report.tracer.close(root);
    for agg in aggs {
        report.tracer.fold(span, agg);
    }

    let got = sinks.stats(&out);
    check_mirror(&mut report, "stream:fcfs-easy", &want, &got);
    report.check(sinks.awrt.cost().to_bits() == want_awrt.to_bits(), || {
        "traced stream changed AWRT".into()
    });
    report.check(got.jobs_finished == jobs as u64, || {
        format!("stream finished {} of {jobs} jobs", got.jobs_finished)
    });
    let next = report.tracer.total("next_job");
    report.set("workload.prob_next_ns_per_job", next.mean_ns());
    cell_layer_metrics(&mut report, &[got]);
    report.reconcile(root, ctx);
    report
}

/// The campaigns of `atlas-sweep` for this seed.
fn atlas_campaigns(ctx: &Ctx) -> [Campaign; 2] {
    let scale = atlas_scale(&ctx.sizes, ctx.seed);
    [Campaign::atlas(scale), Campaign::preempt_smoke(scale)]
}

fn sweep_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// A fresh directory under `out/` for one pass's cache.
fn cache_dir(ctx: &Ctx, tag: &str) -> PathBuf {
    let dir = ctx
        .out_dir
        .join(format!("cache-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One pass over both campaigns; wall includes everything `run_campaign`
/// does (workload generation, pool, cache writes, table assembly).
fn sweep_pass(
    campaigns: &[Campaign; 2],
    workers: usize,
    dir: &Path,
    resume: bool,
) -> (Vec<CampaignOutcome>, f64) {
    let t0 = Instant::now();
    let outcomes = campaigns
        .iter()
        .map(|c| {
            let opts = SweepOptions {
                jobs: workers,
                out: Some(dir.join(&c.name)),
                resume,
                progress: false,
            };
            run_campaign(c, &opts).expect("campaign I/O under bench/out")
        })
        .collect();
    (outcomes, secs(t0))
}

fn digest_sweep(campaigns: &[Campaign; 2], outcomes: &[CampaignOutcome]) -> String {
    let mut d = StableHasher::new();
    for (campaign, outcome) in campaigns.iter().zip(outcomes) {
        for (cell, r) in campaign.cells.iter().zip(&outcome.records) {
            let key = format!(
                "{}:{}",
                campaign.tables[cell.table].id,
                row_tag(cell.algorithm)
            );
            digest_cell(&mut d, &key, &record_stats(r));
        }
    }
    d.finish_hex()
}

/// `atlas-sweep`: the 516-cell atlas, then the 16-cell preemption smoke,
/// through `sweep::run_campaign` with a fresh cache directory.
pub fn run_atlas(ctx: &Ctx) -> RunReport {
    let def = spec::workload("atlas-sweep").expect("named in spec::WORKLOADS");
    let mut report = RunReport::new(def, ctx.seed);
    let workers = sweep_workers();
    let mut last = Vec::new();
    let mut digests = Vec::new();
    let campaigns = atlas_campaigns(ctx);
    let setup = |tag: &str| {
        let t0 = Instant::now();
        // Materialise every workload once and warm up on its reference
        // cell; the timed pass generates them again.
        for spec in campaigns.iter().flat_map(|c| c.distinct_workloads()) {
            std::hint::black_box(run_cell(
                &spec.generate(),
                ObjectiveKind::AvgResponseTime,
                AlgorithmSpec::reference(),
                true,
            ));
        }
        let dir = cache_dir(ctx, tag);
        std::fs::create_dir_all(&dir).expect("create cache dir under bench/out");
        (dir, secs(t0))
    };

    repeat(def.min_reps, ctx.seconds, |i| {
        let (dir, setup_s) = setup(&format!("rep{i}"));
        let (outcomes, wall) = sweep_pass(&campaigns, workers, &dir, false);
        let _ = std::fs::remove_dir_all(&dir);
        let jobs: u64 = outcomes
            .iter()
            .flat_map(|o| &o.records)
            .map(|r| r.jobs)
            .sum();
        digests.push(digest_sweep(&campaigns, &outcomes));
        last = outcomes;
        report.reps.push(batch_rep(setup_s, wall, jobs));
        wall
    });
    report.peak_rss_mb = own_peak_rss_mb();
    while report.reps.len() + report.extra_setups_s.len() < 3 {
        let (dir, setup_s) = setup("setup");
        let _ = std::fs::remove_dir_all(&dir);
        report.extra_setups_s.push(setup_s);
    }
    finish_batch_latencies(&mut report);

    report.sim_digest = digests[0].clone();
    report.check(digests.iter().all(|d| *d == digests[0]), || {
        "repetitions disagree on the simulated statistics".into()
    });
    for (campaign, outcome) in campaigns.iter().zip(&last) {
        report.check(outcome.simulated == campaign.cells.len(), || {
            format!(
                "{}: {} of {} cells simulated",
                campaign.name,
                outcome.simulated,
                campaign.cells.len()
            )
        });
        let specs = campaign.distinct_workloads();
        let workloads: Vec<Workload> = specs.iter().map(|s| s.generate()).collect();
        for (cell, r) in campaign.cells.iter().zip(&outcome.records) {
            let w = &workloads[specs.binary_search(&cell.workload).expect("distinct")];
            let c = record_stats(r);
            // A moldable job is charged its chosen shape, not its rigid
            // area; its cell is checked by event count alone.
            let done = if cell.algorithm.kind == PolicyKind::Moldable {
                c.events >= 2 * w.len() as u64
            } else {
                cell_completed(w, &c)
            };
            report.check(done && r.cost.is_finite(), || {
                format!(
                    "{}:{} did not complete every job",
                    campaign.tables[cell.table].id,
                    row_tag(cell.algorithm)
                )
            });
        }
        // The reference cells of this campaign, again through the dense
        // batch path.
        for (spec, w) in specs.iter().zip(&workloads) {
            let streamed: Vec<(ObjectiveKind, f64)> = campaign
                .cells
                .iter()
                .zip(&outcome.records)
                .filter(|(c, _)| c.workload == *spec && c.algorithm == AlgorithmSpec::reference())
                .map(|(c, r)| (c.objective, r.cost))
                .collect();
            check_reference_cell(w, &streamed, &mut report.tally);
        }
    }
    report
}

/// The rows `atlas-sweep` adds to the per-row scheduler timings: the
/// priority family, conservative backfill at depth, and DFRS.
fn atlas_probe_cells() -> Vec<(ObjectiveKind, AlgorithmSpec)> {
    let rows = [
        AlgorithmSpec::new(PolicyKind::Priority(ScoreFn::Sjf), BackfillMode::Easy),
        AlgorithmSpec::new(
            PolicyKind::Priority(ScoreFn::Wfp),
            BackfillMode::Conservative,
        ),
        AlgorithmSpec::new(
            PolicyKind::Priority(ScoreFn::LargestFirst),
            BackfillMode::None,
        ),
        AlgorithmSpec::new(PolicyKind::Dfrs, BackfillMode::None),
    ];
    [
        ObjectiveKind::AvgResponseTime,
        ObjectiveKind::MaxUserSlowdown,
    ]
    .into_iter()
    .flat_map(|o| rows.into_iter().map(move |s| (o, s)))
    .collect()
}

/// The traced run of `atlas-sweep`: the campaign at 2 workers, at 1
/// worker and warm, then the rows it adds through the mirror.
pub fn trace_atlas(ctx: &Ctx) -> TraceReport {
    let def = spec::workload("atlas-sweep").expect("named in spec::WORKLOADS");
    let mut report = TraceReport::new(def, ctx.seed);
    let workers = sweep_workers();
    let campaigns = atlas_campaigns(ctx);
    let cells: usize = campaigns.iter().map(|c| c.cells.len()).sum();
    let root = report.tracer.open(def.name, HARNESS, None, 0);

    // Workload generation + fingerprinting, as run_campaign does it.
    let span = report
        .tracer
        .open("generate:campaign-workloads", LAYER_WORKLOAD, Some(root), 0);
    let generated: Vec<Vec<Workload>> = campaigns
        .iter()
        .map(|c| {
            c.distinct_workloads()
                .iter()
                .map(|s| {
                    let w = s.generate();
                    std::hint::black_box(jobsched_sweep::hash::workload_fingerprint(&w));
                    w
                })
                .collect()
        })
        .collect();
    report.tracer.close(span);
    let gen_ns = report.tracer.span(span).duration_ns();
    report.set("sweep.workload_gen_ms", gen_ns as f64 / 1e6);

    // A sweep pass as a span: the cells' own wall (per worker) is an
    // aggregate on it, so the span's self time is the runner's overhead.
    let pass = |report: &mut TraceReport, name: &str, n: usize, resume: bool, dir: &Path| {
        let span = report.tracer.open(name, LAYER_SWEEP, Some(root), 0);
        let (outcomes, wall) = sweep_pass(&campaigns, n, dir, resume);
        report.tracer.close(span);
        let mut agg = Agg::new("cells", LAYER_CELLS);
        for r in outcomes.iter().flat_map(|o| &o.records) {
            if !resume {
                agg.add(r.wall_ns / n as u64);
            }
        }
        report.tracer.fold(span, agg);
        (outcomes, wall)
    };
    let dir2 = cache_dir(ctx, "w2");
    let (cold, wall2) = pass(&mut report, "campaign:cold", workers, false, &dir2);
    let (warm, warm_wall) = pass(&mut report, "campaign:warm-resume", workers, true, &dir2);
    let dir1 = cache_dir(ctx, "w1");
    let (serial, wall1) = pass(&mut report, "campaign:cold-1-worker", 1, false, &dir1);
    let _ = std::fs::remove_dir_all(&dir1);
    let _ = std::fs::remove_dir_all(&dir2);

    let simulated: usize = cold.iter().map(|o| o.simulated).sum();
    report.set("sweep.cells", cells as f64);
    report.set("sweep.cells_simulated", simulated as f64);
    report.check(simulated == cells, || {
        format!("cold pass simulated {simulated} of {cells} cells")
    });
    let cached: usize = warm.iter().map(|o| o.cached).sum();
    report.check(cached == cells, || {
        format!("warm pass served {cached} of {cells} cells from the cache")
    });
    let same = |a: &[CampaignOutcome], b: &[CampaignOutcome]| {
        a.iter()
            .flat_map(|o| &o.records)
            .zip(b.iter().flat_map(|o| &o.records))
            .all(|(x, y)| x.deterministically_eq(y))
    };
    report.check(same(&cold, &warm) && same(&cold, &serial), || {
        "records differ between the cold, warm and 1-worker passes".into()
    });
    let cell_ns: u64 = cold
        .iter()
        .flat_map(|o| &o.records)
        .map(|r| r.wall_ns)
        .sum();
    report.set(
        "sweep.runner_overhead_ms",
        (wall2 * workers as f64 * 1e3 - cell_ns as f64 / 1e6).max(0.0),
    );
    report.set(
        "sweep.cache_hit_us_per_cell",
        ((warm_wall * 1e9 - gen_ns as f64) / 1e3 / cells as f64).max(0.0),
    );
    report.set(
        "sweep.parallel_efficiency",
        wall1 / (workers as f64 * wall2),
    );

    // Cache writes, timed on their own through the public cache API.
    let dir = cache_dir(ctx, "put");
    let span = report
        .tracer
        .open("cache:put-all", LAYER_SWEEP, Some(root), 0);
    let cache = ResultCache::open(&dir).expect("open cache under bench/out");
    for r in cold.iter().flat_map(|o| &o.records) {
        cache.put(r).expect("write cache record under bench/out");
    }
    report.tracer.close(span);
    let _ = std::fs::remove_dir_all(&dir);
    report.set(
        "sweep.cache_put_us_per_cell",
        report.tracer.span(span).duration_ns() as f64 / 1e3 / cells as f64,
    );

    // Cells whose (workload, row, weight scheme) an earlier cell already
    // simulated: only the objective differs, the schedule is the same.
    let mut seen = std::collections::BTreeSet::new();
    let duplicates = campaigns
        .iter()
        .flat_map(|c| &c.cells)
        .filter(|c| {
            let scheme = c.objective.weighted() && !c.algorithm.kind.time_shared();
            !seen.insert((c.workload, row_tag(c.algorithm), scheme, c.caching))
        })
        .count();
    report.set(
        "sweep.duplicate_sim_ratio",
        duplicates as f64 / cells as f64,
    );

    // The rows this workload adds, through the mirror, on the atlas's
    // own CTC trace; run_cell first for the untraced reference.
    let w = &generated[0][0];
    let probes = atlas_probe_cells();
    let span = report
        .tracer
        .open("reference:run_cell", LAYER_CELLS, Some(root), 0);
    let t0 = Instant::now();
    let untraced: Vec<CellStats> = probes
        .iter()
        .map(|&(o, s)| stats_of(&run_cell(w, o, s, true)))
        .collect();
    report.untraced_wall_s = secs(t0);
    report.tracer.close(span);
    let t0 = Instant::now();
    let traced: Vec<CellStats> = probes
        .iter()
        .enumerate()
        .map(|(i, &(o, s))| traced_cell(w, o, s, true, &mut report.tracer, root, i as u64))
        .collect();
    report.traced_wall_s = secs(t0);
    report.tracer.close(root);
    for ((&(o, s), want), got) in probes.iter().zip(&untraced).zip(&traced) {
        check_mirror(&mut report, &cell_key(o, s), want, got);
    }
    cell_layer_metrics(&mut report, &traced);
    // The counts of this workload are the campaign's, not the probes'.
    let records = || cold.iter().flat_map(|o| &o.records);
    let events: u64 = records().map(|r| r.counts.events).sum();
    let rounds: u64 = records().map(|r| r.counts.decision_rounds).sum();
    let peak = records().map(|r| r.counts.peak_queue).max().unwrap_or(0);
    report.set("sim.events", events as f64);
    report.set("sim.decision_rounds", rounds as f64);
    report.set("sim.peak_queue", peak as f64);
    report.reconcile(root, ctx);
    report
}
