//! Multi-seed significance: is the atlas's Pareto structure a property
//! of the *policies* or of one lucky workload draw?
//!
//! The atlas measures every algorithm row on a single resampling of the
//! probabilistic workload. This module replays the same 43-row ×
//! 6-objective grid across `seeds` independent resamplings (via
//! [`Campaign::significance`], through the cached sweep runner — seed 0
//! is the atlas's own draw, under the atlas's cache keys), then reports per
//! (row, objective) the across-seed mean and a normal-approximation
//! 95% confidence half-width, and per row how often it lands on the
//! six-dimensional Pareto front. A row on the front in *some* seeds but
//! not others is flagged unstable: its atlas front membership is a
//! draw-level accident, not a policy-level fact.

use jobsched_core::experiment::Scale;
use jobsched_core::objective_select::ObjectiveKind;
use jobsched_sweep::atlas::{pareto_groups, ParetoGroup};
use jobsched_sweep::{run_campaign, Campaign, SweepOptions};
use jobsched_workload::stats::Summary;
use std::io;

/// Per-row across-seed statistics.
#[derive(Clone, Debug)]
pub struct RowStats {
    /// Serve-protocol scheduler label (`policy+backfill`).
    pub label: String,
    /// Display name (`SJF+EASY-Backfilling`, ...).
    pub name: String,
    /// Across-seed mean cost per objective (atlas objective order).
    pub mean: Vec<f64>,
    /// 95% confidence half-width per objective: `1.96·s/√N` with the
    /// sample standard deviation `s`. Zero when `seeds == 1`.
    pub ci: Vec<f64>,
    /// In how many seeds this row sat on the 6-D Pareto front.
    pub front_count: usize,
}

impl RowStats {
    /// Front membership is seed-stable: the row is on the front in
    /// every seed or in none.
    pub fn stable(&self, seeds: usize) -> bool {
        self.front_count == 0 || self.front_count == seeds
    }
}

/// Outcome of a significance campaign.
#[derive(Clone, Debug)]
pub struct Significance {
    /// Number of independent workload resamplings.
    pub seeds: usize,
    /// The objectives spanning the cost axes (atlas order).
    pub objectives: Vec<ObjectiveKind>,
    /// One entry per atlas matrix row, matrix order.
    pub rows: Vec<RowStats>,
}

impl Significance {
    /// Rows whose front membership varies across seeds.
    pub fn unstable(&self) -> Vec<&RowStats> {
        self.rows.iter().filter(|r| !r.stable(self.seeds)).collect()
    }
}

/// Aggregate the Pareto groups of a finished significance campaign,
/// one per resampled draw ([`pareto_groups`] of
/// [`Campaign::significance`]): per row, the across-draw mean and 95%
/// CI of every objective and the number of draws whose front holds it.
pub fn aggregate(groups: &[ParetoGroup]) -> Significance {
    let seeds = groups.len();
    let first = &groups[0];
    // The same matrix row must sit at the same index in every draw, or
    // the per-draw samples would mix policies.
    for g in groups {
        assert!(
            g.specs == first.specs && g.objectives == first.objectives,
            "significance draws must share rows and objectives"
        );
    }

    let rows = first
        .specs
        .iter()
        .enumerate()
        .map(|(r, spec)| {
            let dims = first.objectives.len();
            let mut mean = Vec::with_capacity(dims);
            let mut ci = Vec::with_capacity(dims);
            for j in 0..dims {
                let samples = Summary::from_iter(groups.iter().map(|g| g.points[r].costs[j]));
                mean.push(samples.mean());
                // 1.96·s/√N with the sample deviation s = σ·√(N/(N−1)).
                ci.push(1.96 * samples.std_dev() / ((seeds - 1).max(1) as f64).sqrt());
            }
            RowStats {
                label: crate::row_label(spec),
                name: spec.name(),
                mean,
                ci,
                front_count: groups.iter().filter(|g| g.front.contains(&r)).count(),
            }
        })
        .collect();

    Significance {
        seeds,
        objectives: first.objectives.clone(),
        rows,
    }
}

/// Run the significance campaign at `scale` across `seeds` resamplings
/// and aggregate it. Heavy: `seeds × 258` simulations (43 rows × 6
/// objectives) at the given scale, minus whatever the cache already
/// holds.
pub fn run_significance(
    scale: Scale,
    seeds: usize,
    sweep: &SweepOptions,
) -> io::Result<Significance> {
    let campaign = Campaign::significance(scale, seeds);
    let outcome = run_campaign(&campaign, sweep)?;
    Ok(aggregate(&pareto_groups(&campaign, &outcome)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            ctc_jobs: 120,
            synthetic_jobs: 80,
            seed: 42,
        }
    }

    #[test]
    fn two_seed_campaign_aggregates() {
        let sig = run_significance(tiny(), 2, &SweepOptions::default()).unwrap();
        assert_eq!(sig.seeds, 2);
        assert_eq!(sig.objectives.len(), 6);
        assert!(!sig.rows.is_empty());
        for r in &sig.rows {
            assert_eq!(r.mean.len(), 6);
            assert_eq!(r.ci.len(), 6);
            assert!(r.mean.iter().all(|m| m.is_finite()));
            assert!(r.ci.iter().all(|c| c.is_finite() && *c >= 0.0));
            assert!(r.front_count <= 2);
            // Label round-trips through the serve spec grammar.
            assert!(jobsched_serve::SchedulerSpec::parse(&r.label).is_ok());
        }
        // Someone is on the front in every seed.
        assert!(sig.rows.iter().any(|r| r.front_count == 2));
        // Unstable rows are exactly the 0 < count < seeds ones.
        for r in sig.unstable() {
            assert!(r.front_count > 0 && r.front_count < 2);
        }
    }

    #[test]
    fn single_seed_has_zero_ci_and_is_trivially_stable() {
        let sig = run_significance(tiny(), 1, &SweepOptions::default()).unwrap();
        assert!(sig.rows.iter().all(|r| r.ci.iter().all(|&c| c == 0.0)));
        assert!(sig.unstable().is_empty());
    }

    #[test]
    fn mean_ci_basics() {
        use jobsched_algos::AlgorithmSpec;

        let one_row = |cost: f64| {
            ParetoGroup::new(
                "w",
                vec![ObjectiveKind::AvgResponseTime],
                vec![AlgorithmSpec::reference()],
                vec![vec![cost]],
            )
        };
        let sig = aggregate(&[one_row(4.0)]);
        assert_eq!((sig.rows[0].mean[0], sig.rows[0].ci[0]), (4.0, 0.0));
        let sig = aggregate(&[one_row(1.0), one_row(3.0)]);
        assert!((sig.rows[0].mean[0] - 2.0).abs() < 1e-12);
        // s = sqrt(2), ci = 1.96·sqrt(2)/sqrt(2) = 1.96.
        assert!((sig.rows[0].ci[0] - 1.96).abs() < 1e-9);
    }
}
