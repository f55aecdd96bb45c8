//! Seeded inputs. The same seed gives the same inputs; the program under
//! test only ever sees what these functions return.
//!
//! Two rules (README, "Seeds"):
//!
//! * stages whose draws are i.i.d. — the Table 2 randomized trace, the
//!   resampling of a fitted probabilistic model — take the seed itself;
//! * the CTC-like base trace sets the *regime* (its realised load sits
//!   near 0.85 of capacity, where queue depth and with it scheduler cost
//!   diverge), so its generator seed is pinned to [`REGIME_SEED`] and the
//!   seed *shakes* it instead: every submission moves by a small random
//!   offset (Tsafrir et al., "input shaking"), which changes every
//!   schedule but not the regime.

use crate::spec::{Sizes, REGIME_SEED};
use jobsched_core::experiment::Scale;
use jobsched_workload::ctc::prepared_ctc_workload;
use jobsched_workload::probabilistic::BinnedModel;
use jobsched_workload::randomized::randomized_workload;
use jobsched_workload::rng::{derive_seed, Rng, SmallRng};
use jobsched_workload::source::collect;
use jobsched_workload::{Job, ProbabilisticSource, Workload};

/// Largest offset, in simulated seconds, a shake moves a submission by.
/// Mean inter-arrival is 360 s: most neighbours keep their order, every
/// queue still sees different instants.
pub const SHAKE_S: u64 = 10;

/// Most jobs `atlas_scale` trims off a trace's tail.
pub const TRIM_MAX: u64 = 64;

// Independent random streams derived from one `--seed`.
const STREAM_SHAKE: u64 = 1;
const STREAM_TRIM_CTC: u64 = 2;
const STREAM_TRIM_SYNTHETIC: u64 = 3;

/// Move every submission of `base` by a uniform offset in
/// `[-SHAKE_S, +SHAKE_S]` (clamped at 0), then re-sort and renumber.
pub fn shake(base: Workload, seed: u64) -> Workload {
    let mut rng = SmallRng::seed_from_u64(derive_seed(seed, STREAM_SHAKE));
    let (name, nodes) = (base.name().to_string(), base.machine_nodes());
    let mut jobs = base.into_jobs();
    for j in &mut jobs {
        let offset = rng.random_range(0..=2 * SHAKE_S);
        j.submit = (j.submit + offset).saturating_sub(SHAKE_S);
    }
    Workload::new(name, nodes, jobs)
}

/// `ctc-matrix` input: the prepared CTC-like trace of the pinned regime,
/// shaken by `seed`.
pub fn ctc_trace(jobs: usize, seed: u64) -> Workload {
    shake(prepared_ctc_workload(jobs, REGIME_SEED), seed)
}

/// `deep-queue` input: the Table 2 randomized trace (`seed + 2`, as the
/// paper harness derives it).
pub fn randomized_trace(jobs: usize, seed: u64) -> Workload {
    randomized_workload(jobs, seed + 2)
}

/// The §6.2 model fit on a CTC-like base of the pinned regime.
pub fn fitted_model(base_jobs: usize) -> BinnedModel {
    BinnedModel::fit(&prepared_ctc_workload(base_jobs, REGIME_SEED))
}

/// `stream-2m` input: `jobs` draws from `model`, arrivals stretched 2x
/// so the stream is stationary (utilization ≈ .42).
pub fn stream_source(model: BinnedModel, jobs: usize, seed: u64) -> ProbabilisticSource {
    ProbabilisticSource::new(model, seed + 1)
        .with_limit(jobs)
        .with_arrival_scale(2.0)
        .named("stream-2m")
}

/// `atlas-sweep` input. `run_campaign` materialises its workloads from
/// declarative specs, so there is no trace to shake: both generator
/// seeds stay pinned (resampling 3 200 probabilistic jobs alone moves
/// that half's cost 2x) and `seed` trims up to [`TRIM_MAX`] jobs off
/// each trace's tail.
pub fn atlas_scale(sizes: &Sizes, seed: u64) -> Scale {
    let trim = |stream, jobs: usize| {
        let cut = derive_seed(seed, stream) % TRIM_MAX.min(jobs as u64 / 4).max(1);
        jobs - cut as usize
    };
    Scale {
        ctc_jobs: trim(STREAM_TRIM_CTC, sizes.atlas_ctc_jobs),
        synthetic_jobs: trim(STREAM_TRIM_SYNTHETIC, sizes.atlas_synthetic_jobs),
        seed: REGIME_SEED,
    }
}

/// Serve input: `loadgen`'s model (fit on a `base_jobs` CTC-like base,
/// arrival scale 1) resampled by `seed`.
pub fn serve_jobs(base_jobs: usize, jobs: usize, seed: u64) -> Vec<Job> {
    let mut source = ProbabilisticSource::new(fitted_model(base_jobs), seed + 1).with_limit(jobs);
    collect(&mut source)
        .expect("probabilistic sources are infallible")
        .into_jobs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        assert_eq!(ctc_trace(300, 7).jobs(), ctc_trace(300, 7).jobs());
        assert_ne!(ctc_trace(300, 7).jobs(), ctc_trace(300, 8).jobs());
        assert_eq!(serve_jobs(200, 100, 3), serve_jobs(200, 100, 3));
        assert_ne!(serve_jobs(200, 100, 3), serve_jobs(200, 100, 4));
        let s = Sizes::full();
        assert_eq!(atlas_scale(&s, 5), atlas_scale(&s, 5));
    }

    #[test]
    fn shaking_keeps_the_regime() {
        let base = prepared_ctc_workload(2_000, REGIME_SEED);
        let shaken = ctc_trace(2_000, 42);
        assert_eq!(shaken.len(), base.len());
        assert_eq!(shaken.total_area(), base.total_area());
        let drift = shaken.last_submit().abs_diff(base.last_submit());
        assert!(drift <= SHAKE_S);
        assert!(shaken.jobs().windows(2).all(|p| p[0].submit <= p[1].submit));
    }

    #[test]
    fn atlas_trim_is_bounded_and_never_empties_a_trace() {
        for seed in 0..50 {
            let full = atlas_scale(&Sizes::full(), seed);
            assert!(full.ctc_jobs > 5_000 - TRIM_MAX as usize && full.ctc_jobs <= 5_000);
            assert_eq!(full.seed, REGIME_SEED);
            let smoke = atlas_scale(&Sizes::smoke(), seed);
            assert!(smoke.ctc_jobs >= 250 * 3 / 4 && smoke.synthetic_jobs >= 160 * 3 / 4);
        }
    }
}
