//! Objective functions and multi-criteria schedule evaluation.
//!
//! §2.2 of the paper: "an objective function must be defined that assigns a
//! scalar value, the so called *schedule cost*, to each schedule. Note that
//! this property is essential for the mechanical evaluation and ranking of
//! a schedule." §4 derives two such costs from Institution B's policy:
//! *average response time* for Rule 5 (job weight always 1) and *average
//! weighted response time* for Rule 6, "where the weight is identical to
//! the resource consumption of a job, that is, the product of the execution
//! time and the number of required nodes" — after rejecting total idle
//! time (frame based, not online) and makespan (an off-line criterion).
//! Every objective is a cost: smaller is better. This crate supplies:
//!
//! * [`streaming`] — the one definition of each cost: an online one-pass
//!   accumulator ([`OnlineArt`], [`OnlineAwrt`], [`OnlineBoundedSlowdown`],
//!   [`OnlineMakespan`], [`OnlineUtilization`]) implementing
//!   [`StreamingObjective`] over the simulation pipeline's event stream.
//!   A finished schedule's cost ([`Objective`]) is its accumulator fed by
//!   [`replay`], so the batch and online paths agree bit for bit;
//! * [`fairness`] — per-user diagnostics and the three fairness
//!   accumulators (worst user, p95 width group, slowdown spread);
//! * [`pareto`] — the Pareto-front / partial-order machinery behind
//!   Figure 1's derivation of an objective function from conflicting
//!   policy criteria.

pub mod fairness;
pub mod pareto;
pub mod streaming;

pub use fairness::{OnlineMaxUserSlowdown, OnlineP95WidthSlowdown, OnlineSlowdownVariance};
pub use pareto::{pareto_front, pareto_ranks, rank_violations, Point};
pub use streaming::{
    replay, MetricsSnapshot, Objective, OnlineArt, OnlineAwrt, OnlineBoundedSlowdown,
    OnlineMakespan, OnlineMetrics, OnlineUtilization, StreamingObjective, StreamingObserver,
};
