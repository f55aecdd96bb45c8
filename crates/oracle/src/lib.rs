//! `jobsched-oracle`: adversarial simulation oracle for the scheduler
//! stack.
//!
//! The paper's evaluation (§3, §6) trusts the simulator and the
//! schedulers to be correct; this crate is the adversary that earns that
//! trust. It closes the loop the unit and property tests leave open:
//! randomized *fault-injected* campaigns — jobs finishing early or
//! overrunning their estimates, users retracting queued and running
//! jobs, nodes draining out of service mid-backlog — replayed through
//! the real event loop ([`jobsched_sim::LiveSim`]) and audited against
//! independent re-implementations of the published algorithms.
//!
//! * [`scenario`] — a self-contained adversarial case (workload ×
//!   algorithm configuration × fault plan) with a line-oriented replay
//!   format for committing shrunk counterexamples to `tests/corpus/`;
//! * [`gen`] — deterministic randomized scenario generation from the
//!   hand-rolled xoshiro generator (seed + index pins a scenario);
//! * [`invariants`] — the oracle proper: per-decision differentials
//!   (exact pick equality vs naive FCFS / Garey & Graham / EASY /
//!   conservative re-implementations), the §5.2 conservative no-delay
//!   guarantee, capacity sweeps over placements *and* drain grants,
//!   first-principles ART/AWRT recomputation, and the batch-vs-stream
//!   engine differential ([`invariants::stream_differential`]: the
//!   reference loop and the event loop must produce identical outcomes
//!   on every scenario), and [`check_exclusive_window`], Example 4's
//!   rule audited over a finished schedule;
//! * [`mod@shrink`] — delta-debugging reduction of violating scenarios to
//!   minimal reproducers.
//!
//! Beside them live the references production code no longer carries,
//! which the differentials and the simulator's own integration tests
//! compare against:
//!
//! * [`batch`] — the monolithic batch simulation loop, writing its
//!   schedule to an allocation tape of its own (`schedule`) that keeps
//!   the preempt / resume / cancel mutators the record no longer has;
//! * [`mod@profile`] — the brute-force availability profile rebuild the
//!   incremental calendars must snapshot to;
//! * [`book_every_conservative`] — conservative backfilling that books
//!   every job of its window, against which the production scan's early
//!   stop is checked;
//! * [`mod@segment`] — [`check_segments`], the §2 validity audit over
//!   allocation segment unions;
//! * [`adapter`] — [`RigidAdapter`], a rigid scheduler replayed through
//!   the time-shared contract.
//!
//! The fuzz harness lives in `tests/oracle_fuzz.rs` (budgeted, seed
//! logged, counterexamples shrunk and written as `.scn` files);
//! `tests/corpus_replay.rs` re-checks every committed reproducer on each
//! `cargo test` run.

pub mod adapter;
pub mod batch;
pub mod gen;
pub mod invariants;
pub mod profile;
pub mod scenario;
mod schedule;
pub mod segment;
pub mod shrink;

pub use adapter::RigidAdapter;
pub use batch::{simulate_batch, simulate_batch_with_faults};
pub use gen::{broken_priority_scenario, broken_scenario, random_scenario, random_window};
pub use invariants::{
    book_every_conservative, check_exclusive_window, check_outcome, check_scenario,
    stream_differential,
};
pub use scenario::{CancelSpec, DrainSpec, Mutation, Scenario, ScenarioJob};
pub use segment::{check_segments, SegmentViolation};
pub use shrink::{shrink, shrink_with_budget};
