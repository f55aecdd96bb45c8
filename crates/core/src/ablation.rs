//! Parameter ablations — the §7/§8 "fine tune the parameters of those
//! algorithms before making the final decision" studies the paper leaves
//! as future work, plus the sensitivity analysis behind our calibration
//! notes (EXPERIMENTS.md).
//!
//! Each sweep returns `(parameter value, cost)` rows for one objective so
//! the effect of a single design choice is isolated:
//!
//! * [`gamma_sweep`] — SMART's geometric bin parameter γ (§5.4 step 1;
//!   "the parameter γ can be chosen to optimize the schedule").
//! * [`reorder_sweep`] — the online re-computation threshold (§5.4 uses
//!   ⅔ coverage; 0 = recompute on every new job, 1 = never recompute).
//! * [`wide_wait_sweep`] — PSRS's "has been waiting for some time"
//!   patience factor (§5.5).
//! * [`estimate_quality_sweep`] — uniform over-estimation factor applied
//!   to exact runtimes, interpolating between Table 6 (exact) and worse-
//!   than-Table-3 estimates.
//! * [`max_width_sweep`] — the largest job width in the CTC-like model;
//!   the lever behind Garey & Graham's weighted-case advantage (see
//!   EXPERIMENTS.md sensitivity note).

use crate::experiment::Scale;
use crate::objective_select::ObjectiveKind;
use jobsched_algos::order::{OrderPolicy, ReorderTrigger};
use jobsched_algos::psrs::PsrsParams;
use jobsched_algos::scheduler::ListScheduler;
use jobsched_algos::spec::PolicyKind;
use jobsched_algos::view::WeightScheme;
use jobsched_algos::{AlgorithmSpec, BackfillMode, SmartVariant};
use jobsched_metrics::Objective;
use jobsched_sim::simulate;
use jobsched_workload::ctc::{prepared_ctc_workload, CtcModel};
use jobsched_workload::exact::with_estimate_factor;
use jobsched_workload::Workload;

/// One sweep row: the parameter value and the resulting schedule cost.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepRow {
    /// Swept parameter value.
    pub value: f64,
    /// Schedule cost under the sweep's objective.
    pub cost: f64,
}

fn cost_of(workload: &Workload, scheduler: &mut ListScheduler, objective: ObjectiveKind) -> f64 {
    let out = simulate(workload, scheduler);
    objective.cost(workload, &out.schedule)
}

/// Sweep SMART-FFIA's γ over `gammas` with EASY backfilling.
pub fn gamma_sweep(scale: Scale, objective: ObjectiveKind, gammas: &[f64]) -> Vec<SweepRow> {
    let w = prepared_ctc_workload(scale.ctc_jobs, scale.seed);
    let scheme = objective.weight_scheme();
    gammas
        .iter()
        .map(|&gamma| {
            let mut sched = ListScheduler::new(
                OrderPolicy::Smart {
                    variant: SmartVariant::Ffia,
                    gamma,
                    scheme,
                },
                BackfillMode::Easy,
            );
            SweepRow {
                value: gamma,
                cost: cost_of(&w, &mut sched, objective),
            }
        })
        .collect()
}

/// Sweep the §5.4 re-computation trigger (max unordered fraction) for
/// SMART-FFIA + EASY. Returns `(threshold, cost)` rows; pair with the
/// scheduler CPU numbers of Tables 7–8 to see the trade-off.
pub fn reorder_sweep(
    scale: Scale,
    objective: ObjectiveKind,
    thresholds: &[f64],
) -> Vec<(SweepRow, u64)> {
    let w = prepared_ctc_workload(scale.ctc_jobs, scale.seed);
    let scheme = objective.weight_scheme();
    thresholds
        .iter()
        .map(|&th| {
            let mut sched = ListScheduler::new(
                OrderPolicy::smart(SmartVariant::Ffia, scheme),
                BackfillMode::Easy,
            )
            .with_trigger(ReorderTrigger {
                max_unordered_fraction: th,
            });
            let out = simulate(&w, &mut sched);
            let cost = objective.cost(&w, &out.schedule);
            (SweepRow { value: th, cost }, sched.recomputations())
        })
        .collect()
}

/// Sweep PSRS's wide-job patience factor with EASY backfilling.
pub fn wide_wait_sweep(scale: Scale, objective: ObjectiveKind, factors: &[f64]) -> Vec<SweepRow> {
    let w = prepared_ctc_workload(scale.ctc_jobs, scale.seed);
    let scheme = objective.weight_scheme();
    factors
        .iter()
        .map(|&factor| {
            let mut sched = ListScheduler::new(
                OrderPolicy::Psrs {
                    params: PsrsParams {
                        wide_wait_factor: factor,
                    },
                    scheme,
                },
                BackfillMode::Easy,
            );
            SweepRow {
                value: factor,
                cost: cost_of(&w, &mut sched, objective),
            }
        })
        .collect()
}

/// Sweep estimate quality: every job's requested time becomes
/// `actual × factor`. `factor = 1` is the Table 6 condition. Evaluated
/// for a chosen spec (typically SMART or PSRS with backfilling, which the
/// paper shows are estimate-sensitive).
pub fn estimate_quality_sweep(
    scale: Scale,
    objective: ObjectiveKind,
    spec: AlgorithmSpec,
    factors: &[f64],
) -> Vec<SweepRow> {
    let base = prepared_ctc_workload(scale.ctc_jobs, scale.seed);
    factors
        .iter()
        .map(|&factor| {
            let w = with_estimate_factor(&base, factor);
            let mut sched = spec.build(objective.weight_scheme());
            SweepRow {
                value: factor,
                cost: cost_of(&w, &mut sched, objective),
            }
        })
        .collect()
}

/// Sweep the CTC model's largest regular job width and report
/// Garey & Graham's weighted cost relative to FCFS+EASY — the
/// sensitivity analysis showing when the paper's "G&G wins the weighted
/// case" result holds (few near-full-machine jobs) and when it flips
/// (Table 5's randomized workload regime).
pub fn max_width_sweep(scale: Scale, widths: &[u32]) -> Vec<SweepRow> {
    widths
        .iter()
        .map(|&width| {
            let mut model = CtcModel::with_jobs(scale.ctc_jobs);
            model.max_regular_nodes = width;
            let mut w = model.generate(scale.seed);
            w.retarget(jobsched_workload::TARGET_NODES);
            w.homogenize();
            let objective = ObjectiveKind::AvgWeightedResponseTime;
            let gg = cost_of(
                &w,
                &mut AlgorithmSpec::new(PolicyKind::GareyGraham, BackfillMode::None)
                    .build(WeightScheme::ProjectedArea),
                objective,
            );
            let reference = cost_of(
                &w,
                &mut AlgorithmSpec::reference().build(WeightScheme::ProjectedArea),
                objective,
            );
            SweepRow {
                value: width as f64,
                cost: (gg - reference) / reference * 100.0, // pct vs FCFS+EASY
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            ctc_jobs: 500,
            synthetic_jobs: 200,
            seed: 1999,
        }
    }

    #[test]
    fn gamma_sweep_produces_finite_costs() {
        let rows = gamma_sweep(tiny(), ObjectiveKind::AvgResponseTime, &[1.5, 2.0, 4.0]);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.cost.is_finite() && r.cost > 0.0));
    }

    #[test]
    fn reorder_sweep_zero_threshold_recomputes_most() {
        let rows = reorder_sweep(tiny(), ObjectiveKind::AvgResponseTime, &[0.0, 1.0]);
        // threshold 0 ⇒ recompute on every arrival; threshold 1 ⇒ almost never.
        assert!(rows[0].1 > rows[1].1, "{} vs {}", rows[0].1, rows[1].1);
    }

    #[test]
    fn wide_wait_sweep_runs() {
        let rows = wide_wait_sweep(tiny(), ObjectiveKind::AvgResponseTime, &[0.25, 1.0, 4.0]);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.cost > 0.0));
    }

    #[test]
    fn estimate_quality_monotone_endpoints() {
        // Exact estimates (1.0) should not be worse than wild 20× padding
        // for the estimate-driven SMART+EASY configuration.
        let spec = AlgorithmSpec::new(PolicyKind::SmartFfia, BackfillMode::Easy);
        let rows =
            estimate_quality_sweep(tiny(), ObjectiveKind::AvgResponseTime, spec, &[1.0, 20.0]);
        assert!(
            rows[0].cost <= rows[1].cost * 1.1,
            "exact {} vs padded {}",
            rows[0].cost,
            rows[1].cost
        );
    }

    #[test]
    fn max_width_sweep_shows_gg_sensitivity() {
        let rows = max_width_sweep(tiny(), &[128, 256]);
        assert_eq!(rows.len(), 2);
        // With full-machine jobs present, G&G's weighted pct must be worse
        // (more positive) than with narrow jobs only.
        assert!(
            rows[1].cost > rows[0].cost,
            "G&G pct at width 256 ({:.1}) should exceed width 128 ({:.1})",
            rows[1].cost,
            rows[0].cost
        );
    }
}
