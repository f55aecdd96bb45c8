//! The evaluation harness: run the §5 algorithm matrix over a workload
//! under an objective function and tabulate costs against the paper's
//! FCFS + EASY reference.

use crate::objective_select::ObjectiveKind;
use jobsched_algos::spec::PolicyKind;
use jobsched_algos::{AlgorithmSpec, OrderPolicy};
use jobsched_metrics::{Objective, OnlineMakespan, OnlineUtilization, StreamingObserver};
use jobsched_sim::{simulate_time_shared, SimPipeline};
use jobsched_workload::{synthesize_moldable, Time, Workload, WorkloadSource};
use std::time::Duration;

/// Workload scale. The paper simulates 79,164 CTC jobs and 50,000
/// synthetic jobs; scaled-down runs keep the same distributions with
/// fewer jobs so tests and quick reproductions finish fast.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Number of CTC-like jobs (paper: 79,164).
    pub ctc_jobs: usize,
    /// Number of synthetic jobs (paper: 50,000).
    pub synthetic_jobs: usize,
    /// Base RNG seed for all generators.
    pub seed: u64,
}

impl Scale {
    /// The paper's full workload sizes (Table 1).
    pub fn paper() -> Self {
        Scale {
            ctc_jobs: jobsched_workload::CTC_JOB_COUNT,
            synthetic_jobs: jobsched_workload::SYNTHETIC_JOB_COUNT,
            seed: 1999,
        }
    }

    /// A reduced scale for interactive runs (~minutes on one core).
    pub fn standard() -> Self {
        Scale {
            ctc_jobs: 16_000,
            synthetic_jobs: 10_000,
            seed: 1999,
        }
    }

    /// A small scale for integration tests and smoke runs.
    pub fn quick() -> Self {
        Scale {
            ctc_jobs: 2_500,
            synthetic_jobs: 1_600,
            seed: 1999,
        }
    }

    /// Parse a scale name as the binaries' `--scale` flag takes it
    /// (`quick`, `standard`, `paper`; `full` is an alias of `paper`).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "quick" => Some(Scale::quick()),
            "standard" => Some(Scale::standard()),
            "paper" | "full" => Some(Scale::paper()),
            _ => None,
        }
    }
}

/// Result of one (algorithm × backfill) cell.
#[derive(Clone, Debug)]
pub struct EvalCell {
    /// Row algorithm label.
    pub algorithm: String,
    /// Column label.
    pub backfill: String,
    /// Schedule cost under the table's objective (simulated seconds).
    pub cost: f64,
    /// Percentage difference against the reference cell (0 for it).
    pub pct: f64,
    /// Wall-clock spent inside the scheduler (Tables 7–8).
    pub scheduler_cpu: Duration,
    /// Percentage difference of scheduler CPU against the reference.
    pub cpu_pct: f64,
    /// Schedule makespan.
    pub makespan: Time,
    /// Machine utilization over the makespan.
    pub utilization: f64,
    /// Number of simulator events processed during the run.
    pub events: u64,
    /// Number of scheduling decision rounds the engine invoked.
    pub decision_rounds: u64,
    /// Peak wait-queue length observed (backlog indicator, §6.1).
    pub peak_queue: usize,
    spec: AlgorithmSpec,
}

impl EvalCell {
    /// The spec that produced this cell.
    pub fn spec(&self) -> AlgorithmSpec {
        self.spec
    }

    /// Rebuild a cell from already-computed measurements (the sweep
    /// subsystem re-hydrates tables from cached `RunRecord`s through
    /// this). `pct`/`cpu_pct` start at 0 and are normalised by
    /// [`assemble_table`].
    pub fn from_parts(
        spec: AlgorithmSpec,
        cost: f64,
        scheduler_cpu: Duration,
        makespan: Time,
        utilization: f64,
        counts: EngineCounts,
    ) -> Self {
        EvalCell {
            algorithm: spec.kind.label().to_string(),
            backfill: spec.backfill.label().to_string(),
            cost,
            pct: 0.0,
            scheduler_cpu,
            cpu_pct: 0.0,
            makespan,
            utilization,
            events: counts.events,
            decision_rounds: counts.decision_rounds,
            peak_queue: counts.peak_queue,
            spec,
        }
    }
}

/// Engine-side counters of one simulation run, carried into
/// [`EvalCell`]s and the sweep subsystem's `RunRecord`s.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounts {
    /// Number of processed simulator events.
    pub events: u64,
    /// Number of `select_starts` invocations.
    pub decision_rounds: u64,
    /// Peak wait-queue length observed.
    pub peak_queue: usize,
}

/// One table: the 13-cell matrix under a single objective.
#[derive(Clone, Debug)]
pub struct EvalTable {
    /// Table title ("Table 3, unweighted case", ...).
    pub title: String,
    /// Workload the table was computed on.
    pub workload: String,
    /// The objective used.
    pub objective: ObjectiveKind,
    /// All cells, in `AlgorithmSpec::paper_matrix` order.
    pub cells: Vec<EvalCell>,
}

impl EvalTable {
    /// Cost of the FCFS + EASY reference cell.
    pub fn reference_cost(&self) -> f64 {
        self.cell(AlgorithmSpec::reference())
            .expect("matrix contains the reference")
            .cost
    }

    /// Find a cell by spec.
    pub fn cell(&self, spec: AlgorithmSpec) -> Option<&EvalCell> {
        self.cells.iter().find(|c| c.spec == spec)
    }

    /// The cell with the smallest cost.
    pub fn best(&self) -> &EvalCell {
        self.cells
            .iter()
            .min_by(|a, b| a.cost.partial_cmp(&b.cost).expect("finite costs"))
            .expect("non-empty table")
    }
}

/// Percentage difference of `x` against `reference`, as printed in the
/// paper's `pct` columns.
pub fn pct_vs(x: f64, reference: f64) -> f64 {
    if reference == 0.0 {
        return 0.0;
    }
    (x - reference) / reference * 100.0
}

/// Run the full 13-cell matrix (Tables 3–6 layout) over one workload and
/// objective, serially: the in-process evaluation behind
/// [`crate::SchedulingSystem::design`]. Campaigns of many matrices run
/// through `jobsched-sweep`'s `run_campaign`, which distributes the same
/// [`run_cell`] calls over worker threads.
pub fn evaluate_matrix(workload: &Workload, objective: ObjectiveKind, title: &str) -> EvalTable {
    let cells = AlgorithmSpec::paper_matrix()
        .into_iter()
        .map(|spec| run_cell(workload, objective, spec, true))
        .collect();
    assemble_table(title, workload.name(), objective, cells)
}

/// Run a single (algorithm × backfill) cell: one full simulation of the
/// workload under the spec, measured under `objective`. This is
/// [`run_cells`] with one objective; [`evaluate_matrix`] is a serial
/// loop over it.
pub fn run_cell(
    workload: &Workload,
    objective: ObjectiveKind,
    spec: AlgorithmSpec,
    caching: bool,
) -> EvalCell {
    run_cells(workload, &[objective], spec, caching)
        .pop()
        .expect("one objective, one cell")
}

/// The ordering policy a rigid `spec` is built with when its schedule
/// is scored under `objective`; `None` for the time-shared rows, which
/// take no weight scheme. The objective reaches the scheduler only
/// through this value, so cells of one workload, spec and `caching`
/// whose answers compare equal get the same schedule — the condition
/// under which [`run_cells`] scores them from one simulation.
pub fn schedule_policy(spec: AlgorithmSpec, objective: ObjectiveKind) -> Option<OrderPolicy> {
    (!spec.kind.time_shared()).then(|| spec.kind.policy(objective.weight_scheme()))
}

/// Run one full simulation of the workload under the spec and score its
/// schedule under each of `objectives`: one cell per objective, in
/// order. This is the unit of work the sweep subsystem distributes
/// across worker threads. Every cell carries the run's engine counts
/// and scheduler CPU, since they measure the one schedule.
///
/// Runs as a streaming pipeline: each objective, the makespan and the
/// utilization are folded online from the one event stream, so
/// evaluation never holds a dense [`jobsched_sim::ScheduleRecord`]
/// (debug builds still record one to re-audit schedule validity).
///
/// # Panics
///
/// If `objectives` is empty, or two of them build different schedulers
/// ([`schedule_policy`] differs): those are different schedules.
pub fn run_cells(
    workload: &Workload,
    objectives: &[ObjectiveKind],
    spec: AlgorithmSpec,
    caching: bool,
) -> Vec<EvalCell> {
    let (&first, rest) = objectives.split_first().expect("at least one objective");
    let policy = schedule_policy(spec, first);
    assert!(
        rest.iter().all(|&o| schedule_policy(spec, o) == policy),
        "{} builds a different scheduler per objective in {objectives:?}",
        spec.name()
    );
    if spec.kind.time_shared() {
        return run_time_shared_cells(workload, objectives, spec);
    }
    let mut scheduler = spec.build_dyn(first.weight_scheme(), caching);
    let mut costs: Vec<_> = objectives.iter().map(|o| o.build_streaming()).collect();
    let mut makespan = OnlineMakespan::new();
    let mut utilization = OnlineUtilization::new(workload.machine_nodes());

    let mut source = WorkloadSource::new(workload);
    let mut cost_sinks: Vec<_> = costs
        .iter_mut()
        .map(|cost| StreamingObserver(&mut **cost))
        .collect();
    let mut makespan_sink = StreamingObserver(&mut makespan);
    let mut utilization_sink = StreamingObserver(&mut utilization);
    #[cfg(debug_assertions)]
    let mut recorder = jobsched_sim::RecordingObserver::new();

    let mut pipeline = SimPipeline::new(&mut source, &mut *scheduler);
    for sink in &mut cost_sinks {
        pipeline = pipeline.observe(sink);
    }
    pipeline = pipeline
        .observe(&mut makespan_sink)
        .observe(&mut utilization_sink);
    #[cfg(debug_assertions)]
    {
        pipeline = pipeline.observe(&mut recorder);
    }
    let out = pipeline
        .run()
        .expect("in-memory workload sources are infallible");

    #[cfg(debug_assertions)]
    {
        let schedule = recorder.into_record(workload.machine_nodes(), workload.len());
        debug_assert!(schedule.validate(workload).is_empty());
    }

    let (makespan, utilization) = (makespan.value(), utilization.utilization());
    costs
        .iter()
        .map(|cost| {
            EvalCell::from_parts(
                spec,
                cost.cost(),
                out.scheduler_cpu,
                makespan,
                utilization,
                EngineCounts {
                    events: out.events,
                    decision_rounds: out.decision_rounds,
                    peak_queue: out.peak_queue,
                },
            )
        })
        .collect()
}

/// Evaluate a time-shared policy ([`PolicyKind::Dfrs`] /
/// [`PolicyKind::Moldable`]) through the segment engine, pricing the one
/// schedule once per objective. The moldable row synthesises execution
/// alternatives when the workload carries none, so trace workloads (CTC,
/// probabilistic) are sweepable as-is; the profile cache does not apply
/// — there is no reservation profile.
fn run_time_shared_cells(
    workload: &Workload,
    objectives: &[ObjectiveKind],
    spec: AlgorithmSpec,
) -> Vec<EvalCell> {
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
    let out = simulate_time_shared(workload, &mut *scheduler);
    debug_assert!(
        out.schedule.validate(workload).is_empty(),
        "{:?}",
        out.schedule.validate(workload)
    );
    let (makespan, utilization) = (out.schedule.makespan(), out.schedule.utilization(workload));
    objectives
        .iter()
        .map(|objective| {
            EvalCell::from_parts(
                spec,
                objective.cost(workload, &out.schedule),
                out.scheduler_cpu,
                makespan,
                utilization,
                EngineCounts {
                    events: out.events,
                    decision_rounds: out.decision_rounds,
                    peak_queue: out.peak_queue,
                },
            )
        })
        .collect()
}

/// Assemble cells into a table, normalising the `pct`/`cpu_pct` columns
/// against FCFS+EASY when present (else the first cell), as the paper
/// does in every table.
pub fn assemble_table(
    title: &str,
    workload_name: &str,
    objective: ObjectiveKind,
    mut cells: Vec<EvalCell>,
) -> EvalTable {
    assert!(!cells.is_empty(), "a table needs at least one cell");
    let reference = cells
        .iter()
        .find(|c| c.spec == AlgorithmSpec::reference())
        .unwrap_or(&cells[0]);
    let (ref_cost, ref_cpu) = (reference.cost, reference.scheduler_cpu.as_secs_f64());
    for c in &mut cells {
        c.pct = pct_vs(c.cost, ref_cost);
        c.cpu_pct = pct_vs(
            c.scheduler_cpu.as_secs_f64(),
            ref_cpu.max(f64::MIN_POSITIVE),
        );
    }

    EvalTable {
        title: title.to_string(),
        workload: workload_name.to_string(),
        objective,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jobsched_algos::spec::PolicyKind;
    use jobsched_algos::BackfillMode;
    use jobsched_workload::ctc::prepared_ctc_workload;

    fn small_table() -> EvalTable {
        let w = prepared_ctc_workload(400, 7);
        evaluate_matrix(&w, ObjectiveKind::AvgResponseTime, "test")
    }

    #[test]
    fn matrix_produces_thirteen_cells() {
        let t = small_table();
        assert_eq!(t.cells.len(), 13);
        assert!(t.cells.iter().all(|c| c.cost.is_finite() && c.cost > 0.0));
    }

    #[test]
    fn reference_cell_has_zero_pct() {
        let t = small_table();
        let r = t.cell(AlgorithmSpec::reference()).unwrap();
        assert_eq!(r.pct, 0.0);
        assert_eq!(r.cpu_pct, 0.0);
        assert_eq!(t.reference_cost(), r.cost);
    }

    #[test]
    fn best_cell_minimises_cost() {
        let t = small_table();
        let best = t.best();
        assert!(t.cells.iter().all(|c| c.cost >= best.cost));
    }

    #[test]
    fn time_shared_kinds_run_through_the_cell_pipeline() {
        let w = prepared_ctc_workload(200, 8);
        let rigid = run_cell(
            &w,
            ObjectiveKind::AvgResponseTime,
            AlgorithmSpec::new(PolicyKind::Fcfs, BackfillMode::None),
            false,
        );
        for kind in PolicyKind::TIME_SHARED {
            let cell = run_cell(
                &w,
                ObjectiveKind::AvgResponseTime,
                AlgorithmSpec::new(kind, BackfillMode::None),
                false,
            );
            assert!(cell.cost.is_finite() && cell.cost > 0.0, "{kind:?}");
            assert!(cell.utilization > 0.0 && cell.utilization <= 1.0);
            assert!(cell.makespan > 0);
            // Against a pure head-blocking FCFS both rows can only help:
            // DFRS stops short jobs queueing behind hogs, the moldable
            // row folds heads into holes FCFS would leave idle.
            assert!(
                cell.cost <= rigid.cost,
                "{kind:?} ART {} worse than rigid FCFS {}",
                cell.cost,
                rigid.cost
            );
        }
    }

    #[test]
    fn pct_helper() {
        assert_eq!(pct_vs(150.0, 100.0), 50.0);
        assert_eq!(pct_vs(50.0, 100.0), -50.0);
        assert_eq!(pct_vs(1.0, 0.0), 0.0);
    }

    #[test]
    fn evaluate_specs_subset() {
        let w = prepared_ctc_workload(200, 8);
        let objective = ObjectiveKind::AvgWeightedResponseTime;
        let cells = [BackfillMode::None, BackfillMode::Easy]
            .into_iter()
            .map(|mode| {
                run_cell(
                    &w,
                    objective,
                    AlgorithmSpec::new(PolicyKind::Fcfs, mode),
                    true,
                )
            })
            .collect();
        let t = assemble_table("sub", w.name(), objective, cells);
        assert_eq!(t.cells.len(), 2);
        // Reference present → second cell has pct 0.
        assert_eq!(t.cells[1].pct, 0.0);
    }

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::quick().ctc_jobs < Scale::standard().ctc_jobs);
        assert!(Scale::standard().ctc_jobs < Scale::paper().ctc_jobs);
        assert_eq!(Scale::paper().ctc_jobs, 79_164);
        assert_eq!(Scale::paper().synthetic_jobs, 50_000);
    }

    #[test]
    fn scale_names_parse() {
        assert_eq!(Scale::from_name("quick"), Some(Scale::quick()));
        assert_eq!(Scale::from_name("standard"), Some(Scale::standard()));
        assert_eq!(Scale::from_name("paper"), Some(Scale::paper()));
        assert_eq!(Scale::from_name("full"), Some(Scale::paper()));
        assert_eq!(Scale::from_name("bogus"), None);
    }
}
