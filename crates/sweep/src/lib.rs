//! `jobsched-sweep`: deterministic parallel campaign runner for the
//! paper's evaluation grid.
//!
//! The paper's experiments are one large sweep: every algorithm of the
//! §5 matrix × every workload of §6 × both objectives, each a full
//! event-driven simulation. This crate turns that grid into a
//! *campaign* — a declarative [`grid::Campaign`] of independent cells —
//! and runs it on a shared-queue thread pool with a content-addressed
//! on-disk result cache:
//!
//! * [`grid`] — declarative cell grid ([`grid::WorkloadSpec`],
//!   [`grid::CellSpec`], [`grid::Campaign::paper_tables`]) with
//!   position-stable derived seeds;
//! * [`pool`] — worker pool on `std::thread` + channels pulling from
//!   one shared task queue, results reassembled by task index so output
//!   order is independent of thread count;
//! * [`record`] — [`record::RunRecord`], one JSON artifact per run,
//!   split into a deterministic payload and timing metadata;
//! * [`cache`] — content-addressed result cache
//!   (`<out>/cache/<2hex>/<16hex>.json`), corrupt entries are misses;
//! * [`manifest`] — the campaign manifest tying records to tables;
//! * [`hash`] — stable FNV-1a hashing; JSON lives in the shared
//!   [`jobsched_json`] crate (the build is fully offline: no serde);
//! * [`runner`] — [`runner::run_campaign`] gluing it all together,
//!   one simulation per distinct schedule;
//! * [`progress`] — throttled stderr progress reporting;
//! * [`atlas`] — the scheduler-atlas report: `bench-atlas/1` JSON and
//!   the `ATLAS.md` Pareto summary rendered from a finished campaign
//!   (`repro atlas` / `repro preempt` call [`atlas::run`]), and
//!   [`atlas::read_atlas`], the one reader of that JSON.
//!
//! Determinism contract: for a fixed campaign definition the
//! deterministic payload of every record — and therefore every
//! assembled table — is bit-identical regardless of `jobs`, cache
//! state, or which worker thread ran which cell.

pub mod atlas;
pub mod cache;
pub mod grid;
pub mod hash;
pub mod manifest;
pub mod pool;
pub mod progress;
pub mod record;
pub mod runner;

pub use atlas::{build_report, check_clean, AtlasReport, ATLAS_SCHEMA};
pub use cache::ResultCache;
pub use grid::{Campaign, CellSpec, TableDef, WorkloadSpec};
pub use record::{RunRecord, SCHEMA_VERSION};
pub use runner::{run_campaign, CampaignOutcome, SweepOptions};
