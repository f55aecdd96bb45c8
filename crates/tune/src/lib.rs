//! `jobsched-tune`: the evaluation subsystem — learn the objective the
//! atlas implies, test its stability across workload draws, and steer a
//! live daemon with it.
//!
//! The paper evaluates every algorithm under objectives chosen *a
//! priori* (§4: ART, AWRT, slowdown). The atlas mega-sweep inverted the
//! economics — it measures all 43 policy rows under six objectives at
//! once — and this crate closes the loop on that data three ways:
//!
//! * [`mod@fit`] — **objective learning**: find the scalarization weights
//!   whose induced total order agrees with the atlas's per-workload
//!   Pareto ranks (and report the rank pairs no linear weighting can
//!   separate);
//! * [`significance`] — **replication**: rerun the atlas grid over N
//!   independent resamplings of the probabilistic workload through the
//!   cached sweep runner, attach mean ± 95% CI to every cell, and flag
//!   Pareto-front memberships that are draw-level accidents;
//! * [`controller`] + [`demo`] — **the live tuner**: a deterministic
//!   control loop that watches a serve daemon's streaming metrics over
//!   a sliding window and switches the running scheduler through the
//!   `policy set` op when the learned objective predicts another atlas
//!   row would do better (hysteresis + dwell against flapping).
//!
//! All three work on the atlas's own typed model: the
//! [`ParetoGroup`](jobsched_sweep::atlas::ParetoGroup)s that
//! [`read_atlas`] reads back from the committed `bench-atlas/1`
//! artifact (recomputing ranks — stored ranks are never trusted), so
//! every row is an [`AlgorithmSpec`] and every axis an
//! [`ObjectiveKind`](jobsched_core::objective_select::ObjectiveKind).
//! [`report`] renders everything into the committed `BENCH_tune.json`
//! (`bench-tune/1`) and `TUNE.md`. [`run`] drives all of it for
//! `repro tune`.
//!
//! Everything is deterministic: the fit is a fixed grid + descent
//! schedule, the significance campaign inherits the sweep runner's
//! bit-reproducibility, and the tuner under the serve daemon's virtual
//! clock replays exactly.

pub mod controller;
pub mod demo;
pub mod fit;
pub mod report;
pub mod significance;

pub use controller::{Controller, Switch, TunerConfig};
pub use demo::{run_demo, DemoOutcome, DemoRun};
pub use fit::{fit, Fit, GroupFit};
pub use report::{build_json, build_markdown, check_clean, TUNE_SCHEMA};
pub use significance::{run_significance, RowStats, Significance};

use jobsched_algos::AlgorithmSpec;
use jobsched_core::experiment::Scale;
use jobsched_json::Json;
use jobsched_sweep::atlas::read_atlas;
use jobsched_sweep::SweepOptions;
use std::path::Path;

/// An atlas row's serve-protocol scheduler label (`sjf+conservative`,
/// `ljf+none`): what the `policy set` op and `TUNE.md` spell it as.
fn row_label(spec: &AlgorithmSpec) -> String {
    format!("{}+{}", spec.kind.tag(), spec.backfill.tag())
}

/// The tune artifacts end to end: fit the scalarization against the
/// `bench-atlas/1` document at `atlas_path`, replay the atlas grid over
/// independent workload resamplings at `scale` under `sweep`, serve the
/// demo trace tuned and static, apply [`check_clean`] and render
/// `(BENCH_tune.json, TUNE.md)`. `smoke` picks the CI slice (2 seeds, a
/// 300-job trace) over the committed one (5 seeds, 800 jobs). A gate
/// violation — the demo must have switched *and* improved — is the `Err`.
pub fn run(
    atlas_path: &Path,
    scale: Scale,
    smoke: bool,
    sweep: &SweepOptions,
) -> Result<(Json, String), String> {
    let (seeds, demo_jobs) = if smoke { (2, 300) } else { (5, 800) };
    let shown = atlas_path.display();

    let text =
        std::fs::read_to_string(atlas_path).map_err(|e| format!("cannot read {shown}: {e}"))?;
    let doc = jobsched_json::parse(&text).map_err(|e| format!("{shown} is not JSON: {e:?}"))?;
    let (atlas_scale, groups) =
        read_atlas(&doc).map_err(|e| format!("{shown} is not a usable atlas: {e}"))?;
    let fitted = fit(&groups);
    let tags: Vec<&str> = fitted.objectives.iter().map(|o| o.tag()).collect();
    eprintln!(
        "tune: learned weights {:.3?} over {tags:?} — {} rank violation(s), {} evaluations",
        fitted.weights, fitted.violations, fitted.evaluations
    );

    let sig = run_significance(scale, seeds, sweep)
        .map_err(|e| format!("significance campaign failed: {e}"))?;
    eprintln!(
        "tune: significance over {seeds} seed(s) — {} unstable front row(s)",
        sig.unstable().len()
    );

    let demo = run_demo(&groups, &fitted, demo_jobs)?;
    eprintln!(
        "tune: tuner {} → {} in {} switch(es); learned objective {:.4} vs static {:.4} ({:+.1}%)",
        demo::INITIAL,
        demo.tuned.final_scheduler,
        demo.tuned.switches.len(),
        demo.tuned.objective,
        demo.baseline.objective,
        -demo.improvement * 100.0
    );

    check_clean(&fitted, Some(&sig), Some(&demo))?;
    Ok((
        build_json(atlas_scale, &fitted, Some(&sig), Some(&demo)),
        build_markdown(atlas_scale, &fitted, Some(&sig), Some(&demo)),
    ))
}
