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
//! [`atlas`] parses the committed `bench-atlas/1` artifact back into
//! fit input (recomputing ranks — stored ranks are never trusted), and
//! [`report`] renders everything into the committed `BENCH_tune.json`
//! (`bench-tune/1`) and `TUNE.md`. The `tune` binary drives all of it.
//!
//! Everything is deterministic: the fit is a fixed grid + descent
//! schedule, the significance campaign inherits the sweep runner's
//! bit-reproducibility, and the tuner under the serve daemon's virtual
//! clock replays exactly.

pub mod atlas;
pub mod controller;
pub mod demo;
pub mod fit;
pub mod report;
pub mod significance;

pub use atlas::{parse_atlas, AtlasDoc, AtlasGroup};
pub use controller::{Controller, Switch, TunerConfig, OBSERVABLE};
pub use demo::{run_demo, DemoOptions, DemoOutcome, DemoRun};
pub use fit::{fit, Fit, FitOptions, GroupFit};
pub use report::{build_json, build_markdown, check_clean, TUNE_SCHEMA};
pub use significance::{run_significance, RowStats, Significance};
