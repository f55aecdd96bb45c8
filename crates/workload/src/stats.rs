//! Summary statistics for workloads.
//!
//! §6.2 requires a consistency check between the trace and the resampled
//! workload ("in the first simulation mainly consistence between the results
//! for the CTC and the artificial workload is checked"). These summaries are
//! what the tests compare.

use crate::job::Job;
use crate::trace::Workload;
use std::fmt;

/// Streaming univariate summary: count, mean, variance (Welford), extremes.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold in one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Build a summary from an iterator.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter(xs: impl IntoIterator<Item = f64>) -> Self {
        let mut s = Summary::new();
        for x in xs {
            s.push(x);
        }
        s
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 for an empty summary).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance.
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation (σ/μ); 0 when the mean is 0.
    pub fn cv(&self) -> f64 {
        if self.mean().abs() < f64::EPSILON {
            0.0
        } else {
            self.std_dev() / self.mean()
        }
    }

    /// Minimum observation (+∞ when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Percentile (inclusive, nearest-rank) of a data set. `p` in `[0, 100]`.
pub fn percentile(data: &mut [f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    if data.is_empty() {
        return f64::NAN;
    }
    data.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in percentile data"));
    let rank = ((p / 100.0) * (data.len() as f64 - 1.0)).round() as usize;
    data[rank.min(data.len() - 1)]
}

/// Per-workload characterisation used for §6.2 consistency checks.
#[derive(Clone, Debug)]
pub struct WorkloadStats {
    /// Workload name.
    pub name: String,
    /// Number of jobs.
    pub jobs: usize,
    /// Node-request summary.
    pub nodes: Summary,
    /// Actual-runtime summary (seconds).
    pub runtime: Summary,
    /// Requested-time summary (seconds).
    pub requested: Summary,
    /// Inter-arrival time summary (seconds).
    pub interarrival: Summary,
    /// Overestimation factor summary (requested / actual).
    pub overestimation: Summary,
    /// Offered load relative to machine capacity.
    pub offered_load: f64,
}

impl WorkloadStats {
    /// Compute statistics for a workload.
    pub fn of(w: &Workload) -> Self {
        let jobs = w.jobs();
        let nodes = Summary::from_iter(jobs.iter().map(|j| j.nodes as f64));
        let runtime = Summary::from_iter(jobs.iter().map(|j| j.effective_runtime() as f64));
        let requested = Summary::from_iter(jobs.iter().map(|j| j.requested_time as f64));
        let interarrival =
            Summary::from_iter(jobs.windows(2).map(|p| (p[1].submit - p[0].submit) as f64));
        let overestimation = Summary::from_iter(jobs.iter().map(Job::overestimation));
        WorkloadStats {
            name: w.name().to_string(),
            jobs: jobs.len(),
            nodes,
            runtime,
            requested,
            interarrival,
            overestimation,
            offered_load: w.offered_load(),
        }
    }

    /// Relative difference between two workloads' key means, as a crude
    /// distance for the §6.2 consistency check (0 = identical first-order
    /// statistics).
    pub fn distance(&self, other: &WorkloadStats) -> f64 {
        fn rel(a: f64, b: f64) -> f64 {
            if a.abs() < f64::EPSILON && b.abs() < f64::EPSILON {
                0.0
            } else {
                (a - b).abs() / a.abs().max(b.abs())
            }
        }
        let parts = [
            rel(self.nodes.mean(), other.nodes.mean()),
            rel(self.runtime.mean(), other.runtime.mean()),
            rel(self.requested.mean(), other.requested.mean()),
            rel(self.interarrival.mean(), other.interarrival.mean()),
        ];
        parts.iter().sum::<f64>() / parts.len() as f64
    }
}

impl fmt::Display for WorkloadStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "workload {:12} jobs={}", self.name, self.jobs)?;
        writeln!(
            f,
            "  nodes        mean={:8.2} cv={:5.2} max={:6.0}",
            self.nodes.mean(),
            self.nodes.cv(),
            self.nodes.max()
        )?;
        writeln!(
            f,
            "  runtime[s]   mean={:8.0} cv={:5.2} max={:8.0}",
            self.runtime.mean(),
            self.runtime.cv(),
            self.runtime.max()
        )?;
        writeln!(
            f,
            "  requested[s] mean={:8.0} cv={:5.2}",
            self.requested.mean(),
            self.requested.cv()
        )?;
        writeln!(
            f,
            "  interarrival mean={:8.1} cv={:5.2}",
            self.interarrival.mean(),
            self.interarrival.cv()
        )?;
        writeln!(
            f,
            "  overestimate mean={:6.2}x  offered load={:5.2}",
            self.overestimation.mean(),
            self.offered_load
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobBuilder, JobId};

    #[test]
    fn summary_mean_and_variance() {
        let s = Summary::from_iter([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.std_dev(), 2.0);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn summary_empty_is_zero() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.cv(), 0.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let mut data = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&mut data, 0.0), 1.0);
        assert_eq!(percentile(&mut data, 50.0), 3.0);
        assert_eq!(percentile(&mut data, 100.0), 5.0);
    }

    #[test]
    fn percentile_empty_is_nan() {
        let mut data: Vec<f64> = vec![];
        assert!(percentile(&mut data, 50.0).is_nan());
    }

    #[test]
    fn workload_stats_basic() {
        let jobs = vec![
            JobBuilder::new(JobId(0))
                .submit(0)
                .nodes(10)
                .requested(200)
                .runtime(100)
                .build(),
            JobBuilder::new(JobId(0))
                .submit(100)
                .nodes(20)
                .requested(400)
                .runtime(200)
                .build(),
        ];
        let w = Workload::new("x", 256, jobs);
        let s = WorkloadStats::of(&w);
        assert_eq!(s.jobs, 2);
        assert_eq!(s.nodes.mean(), 15.0);
        assert_eq!(s.runtime.mean(), 150.0);
        assert_eq!(s.interarrival.mean(), 100.0);
        assert_eq!(s.overestimation.mean(), 2.0);
    }

    #[test]
    fn stats_distance_zero_for_identical() {
        let jobs = vec![
            JobBuilder::new(JobId(0)).submit(0).nodes(4).build(),
            JobBuilder::new(JobId(0)).submit(60).nodes(8).build(),
        ];
        let w = Workload::new("x", 256, jobs);
        let s = WorkloadStats::of(&w);
        assert_eq!(s.distance(&s), 0.0);
    }

    #[test]
    fn stats_display_contains_name() {
        let w = Workload::new("ctc-like", 256, vec![]);
        let s = WorkloadStats::of(&w);
        assert!(format!("{s}").contains("ctc-like"));
    }
}
