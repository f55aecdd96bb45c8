//! The repo's one performance benchmark: six named workloads, measured
//! end to end and layer by layer, from outside, through public functions
//! only (`core::run_cell`, `SimPipeline`, `sweep::run_campaign`,
//! `jobsched_json::parse`, `protocol::parse_request`, `Engine::handle`,
//! and the wire protocol of a daemon child process).
//!
//! * [`spec`] — the normative tables: workloads, end-to-end metrics with
//!   bounds, per-layer metrics, job counts;
//! * [`stats`] — medians and the percentile rule (≥ 10 samples beyond);
//! * [`trace`] — in-memory spans with folded per-call aggregates,
//!   self-time arithmetic, Chrome trace-event output;
//! * [`probes`] — `Scheduler` / `TimeSharedScheduler` / `JobSource` /
//!   `SimObserver` decorators and the traced mirror of `run_cell`;
//! * [`harness`] — run context, report shapes, repetition loop, `/proc`
//!   readers;
//! * [`inputs`] — seeded input generation (pinned regime trace + shake);
//! * [`batch`] — `ctc-matrix`, `deep-queue`, `stream-2m`, `atlas-sweep`;
//! * [`serve`] — `serve-submit`, `serve-mixed`: op scripts, the windowed
//!   two-connection client, the daemon child, the in-process reference;
//! * [`layers`] — micro-probes of single layers (`LiveProfile` replay,
//!   the checkpoint → JSON → restore round trip);
//! * [`report`] — result files, the human tables, `check`/`compare`/
//!   `record`.
//!
//! `bench/README.md` has the rationale for every choice made here.

pub mod batch;
pub mod harness;
pub mod inputs;
pub mod layers;
pub mod probes;
pub mod report;
pub mod serve;
pub mod spec;
pub mod stats;
pub mod trace;
