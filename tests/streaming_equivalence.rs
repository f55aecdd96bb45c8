//! Batch-vs-streaming equivalence, end to end: for every algorithm in
//! the full scheduler atlas — the paper's 13-cell matrix plus the
//! priority family (every scoring rule × every backfill mode) — the
//! streaming pipeline must produce the same schedule as the oracle's
//! batch reference loop, and every online accumulator must produce the
//! same cost — *bit for bit*, not within a tolerance — live as it does
//! replayed over that schedule.
//!
//! The columns are every `ObjectiveKind` (its live accumulator against
//! its `Objective::cost`) plus the makespan and utilization accumulators
//! `run_cell` folds beside it. Exactness holds because both paths share
//! one arithmetic: a schedule cost replays the schedule through the same
//! integer/Q52 accumulators the stream folds events into (see
//! `jobsched-metrics::streaming`). These tests pin that contract across
//! the probabilistic workload (inexact estimates: early finishes, the
//! §5.2 backfilling regime) and the exact-estimate variant (projections
//! bind, conservative promises hold).

use jobsched::algos::view::WeightScheme;
use jobsched::algos::AlgorithmSpec;
use jobsched::core::objective_select::ObjectiveKind;
use jobsched::metrics::{
    replay, Objective, OnlineMakespan, OnlineUtilization, StreamingObjective, StreamingObserver,
};
use jobsched::sim::SimPipeline;
use jobsched::workload::ctc::prepared_ctc_workload;
use jobsched::workload::exact::with_exact_estimates;
use jobsched::workload::probabilistic::probabilistic_workload;
use jobsched::workload::{Workload, WorkloadSource};
use jobsched_oracle::simulate_batch;

const KINDS: [ObjectiveKind; 6] = [
    ObjectiveKind::AvgResponseTime,
    ObjectiveKind::AvgWeightedResponseTime,
    ObjectiveKind::AvgBoundedSlowdown,
    ObjectiveKind::MaxUserSlowdown,
    ObjectiveKind::P95WidthSlowdown,
    ObjectiveKind::SlowdownVariance,
];

fn prob_1k() -> Workload {
    let base = prepared_ctc_workload(500, 1999);
    probabilistic_workload(&base, 1000, 2000)
}

/// Stream the workload through the pipeline under `spec`, folding every
/// online accumulator, and return their costs alongside the pipeline's
/// engine counters.
fn stream_costs(workload: &Workload, spec: AlgorithmSpec) -> (Vec<f64>, u64, u64, usize) {
    let mut scheduler = spec.build_dyn(WeightScheme::Unweighted, true);
    let mut accumulators: Vec<Box<dyn StreamingObjective>> = KINDS
        .iter()
        .map(|k| k.build_streaming() as Box<dyn StreamingObjective>)
        .collect();
    accumulators.push(Box::new(OnlineMakespan::new()));
    accumulators.push(Box::new(OnlineUtilization::new(workload.machine_nodes())));

    let mut source = WorkloadSource::new(workload);
    let mut sinks: Vec<StreamingObserver> = accumulators
        .iter_mut()
        .map(|a| StreamingObserver(&mut **a))
        .collect();
    let mut pipeline = SimPipeline::new(&mut source, &mut *scheduler);
    for sink in &mut sinks {
        pipeline = pipeline.observe(sink);
    }
    let out = pipeline.run().expect("in-memory sources are infallible");
    let costs = sinks.iter().map(|s| s.0.cost()).collect();
    (costs, out.events, out.decision_rounds, out.peak_queue)
}

/// The same eight costs, computed from the finished schedule.
fn batch_costs(workload: &Workload, spec: AlgorithmSpec) -> (Vec<f64>, u64, u64, usize) {
    let mut scheduler = spec.build_dyn(WeightScheme::Unweighted, true);
    let out = simulate_batch(workload, &mut *scheduler);
    let mut costs: Vec<f64> = KINDS
        .iter()
        .map(|k| k.cost(workload, &out.schedule))
        .collect();
    let mut makespan = OnlineMakespan::new();
    let mut utilization = OnlineUtilization::new(workload.machine_nodes());
    replay(workload.jobs(), &out.schedule, &mut makespan);
    replay(workload.jobs(), &out.schedule, &mut utilization);
    costs.extend([makespan.cost(), utilization.cost()]);
    (costs, out.events, out.decision_rounds, out.peak_queue)
}

fn assert_equivalence(workload: &Workload, label: &str) {
    let names: Vec<String> = KINDS
        .iter()
        .map(|k| format!("{k:?}"))
        .chain(["makespan".into(), "utilization".into()])
        .collect();
    for spec in AlgorithmSpec::atlas_matrix() {
        let (stream, s_events, s_rounds, s_peak) = stream_costs(workload, spec);
        let (batch, b_events, b_rounds, b_peak) = batch_costs(workload, spec);
        assert_eq!((stream.len(), batch.len()), (names.len(), names.len()));
        for ((name, s), b) in names.iter().zip(&stream).zip(&batch) {
            assert_eq!(
                s.to_bits(),
                b.to_bits(),
                "{label} / {}: online {name} {s} != batch {b}",
                spec.name()
            );
        }
        assert_eq!(
            (s_events, s_rounds, s_peak),
            (b_events, b_rounds, b_peak),
            "{label} / {}: engine counters diverge between stream and batch",
            spec.name()
        );
    }
}

#[test]
fn online_costs_match_batch_bit_for_bit_on_probabilistic_workload() {
    assert_equivalence(&prob_1k(), "prob-1k");
}

#[test]
fn online_costs_match_batch_bit_for_bit_with_exact_estimates() {
    assert_equivalence(&with_exact_estimates(&prob_1k()), "prob-1k-exact");
}

#[test]
fn pipeline_schedule_matches_batch_engine_across_the_matrix() {
    // The schedules themselves — not just their scalar costs — must be
    // identical between the streaming pipeline (`simulate` is now a
    // wrapper over it) and the oracle's batch reference loop.
    let w = prob_1k();
    for spec in AlgorithmSpec::atlas_matrix() {
        let batch = simulate_batch(&w, &mut *spec.build_dyn(WeightScheme::ProjectedArea, true));
        let stream =
            jobsched::sim::simulate(&w, &mut *spec.build_dyn(WeightScheme::ProjectedArea, true));
        assert_eq!(
            batch.schedule,
            stream.schedule,
            "{}: stream schedule diverges from batch",
            spec.name()
        );
    }
}
