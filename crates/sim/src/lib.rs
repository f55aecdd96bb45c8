//! Discrete-event simulator for space-shared parallel machines.
//!
//! This is the substrate on which the paper's evaluation (§3, §6, §7) runs:
//! Institution B's machine supports **variable partitioning, no time
//! sharing, exclusive access** for batch jobs (Example 5). The simulator
//! plays a stream of job submissions against a [`engine::Scheduler`]
//! implementation and records the resulting schedule.
//!
//! Design points:
//!
//! * **Online information hiding.** Schedulers receive [`engine::JobRequest`]
//!   views carrying only submission data (nodes, user estimate, submit
//!   time) — never the actual runtime. The machine exposes *projected*
//!   ends (`start + requested_time`); actual completions surface only as
//!   finish events. Because execution is truncated at the user limit
//!   (Rule 2), projections are upper bounds: resources can free earlier
//!   than projected but never later — exactly the situation §5.2 discusses
//!   for backfilling.
//! * **Validity by construction and by audit.** The [`machine::Machine`]
//!   refuses over-allocation at run time, and [`schedule::ScheduleRecord`]
//!   can re-audit a finished schedule against its workload (capacity sweep,
//!   start-after-submit, runtime truncation) — used heavily by the property
//!   tests.
//! * **Scheduler cost accounting.** The event loop meters wall-clock time
//!   spent inside scheduler callbacks, which is what Tables 7 and 8
//!   compare.
//! * **Fault injection.** [`simulate_with_faults`] drives the same loop
//!   while injecting job cancellations, node drains and forced
//!   preemptions from an [`engine::FaultPlan`] — the adversarial
//!   conditions the `jobsched-oracle` fuzz harness verifies schedulers
//!   under. [`SimOutcome::faults`] records the ground truth of what each
//!   fault did so external checkers can audit the schedule against it.
//! * **Incremental availability.** The machine carries a persistent
//!   [`profile::LiveProfile`] — the future-availability calendar updated in
//!   O(log R) per job event — so backfilling schedulers never rebuild
//!   the step function from the running set on a decision. Scratch
//!   [`profile::Profile`] snapshots (linear merge, no sort) serve the scans
//!   that overlay reservations.
//! * **One event loop.** [`live::LiveSim`] runs every scheduler: the
//!   bounded-memory [`pipeline::SimPipeline`] (which pulls jobs from a
//!   [`jobsched_workload::JobSource`] and retires completed-job state),
//!   the daemon, the metascheduler, and the time-shared schedulers of
//!   [`tshare`]. [`simulate`], [`simulate_with_faults`] and
//!   [`simulate_time_shared`] are thin wrappers over it.
//!
//! The references this crate is checked against — the monolithic batch
//! loop, the brute-force profile rebuild, the segment audit and the
//! rigid-to-time-shared adapter — live in `jobsched-oracle`, which the
//! integration tests under `tests/` use as a dev-dependency.

pub mod engine;
pub mod event;
pub mod gang;
pub mod live;
pub mod machine;
pub mod pipeline;
pub mod profile;
pub mod schedule;
pub mod segment;
pub mod tshare;

pub use engine::{
    CancelFault, CancelPhase, DrainFault, FaultOutcome, FaultPlan, JobRequest, PreemptFault,
    Scheduler, SimOutcome,
};
pub use live::LiveSim;
pub use machine::{DrainToken, Machine, RunningSlot};
pub use pipeline::{
    simulate, simulate_with_faults, JobEvent, JobOutcome, PipelineOutcome, RecordingObserver,
    SimObserver, SimPipeline,
};
pub use profile::{LiveProfile, Profile};
pub use schedule::{JobPlacement, ScheduleRecord};
pub use segment::Segment;
pub use tshare::{simulate_time_shared, Action, TimeSharedScheduler, TsJobView};
