//! Objective functions and multi-criteria schedule evaluation.
//!
//! §2.2 of the paper: "an objective function must be defined that assigns a
//! scalar value, the so called *schedule cost*, to each schedule. Note that
//! this property is essential for the mechanical evaluation and ranking of
//! a schedule." This crate supplies:
//!
//! * [`objective`] — the schedule-cost functions of §4 (average response
//!   time for Rule 5, average weighted response time with weight =
//!   resource consumption for Rule 6) plus the alternatives §4 discusses
//!   and rejects for online use (total idle time in a frame, makespan) and
//!   common auxiliaries (utilization, bounded slowdown, Σ weighted
//!   completion time);
//! * [`pareto`] — the Pareto-front / partial-order machinery behind
//!   Figure 1's derivation of an objective function from conflicting
//!   policy criteria.

//! * [`streaming`] — online one-pass accumulators ([`OnlineArt`],
//!   [`OnlineAwrt`], …) implementing [`StreamingObjective`] over the
//!   simulation pipeline's event stream; the batch [`Objective`] impls
//!   are thin wrappers over these, so both paths agree bit for bit.

pub mod fairness;
pub mod objective;
pub mod pareto;
pub mod streaming;

pub use fairness::{
    MaxUserSlowdown, OnlineMaxUserSlowdown, OnlineP95WidthSlowdown, OnlineSlowdownVariance,
    P95WidthSlowdown, SlowdownVariance,
};
pub use objective::{
    AvgBoundedSlowdown, AvgResponseTime, AvgWeightedResponseTime, Makespan, Objective,
    SumWeightedCompletion, TotalIdleTime, Utilization,
};
pub use pareto::{pareto_front, pareto_ranks, rank_violations, Point};
pub use streaming::{
    replay, MetricsSnapshot, OnlineArt, OnlineAwrt, OnlineBoundedSlowdown, OnlineIdleTime,
    OnlineMakespan, OnlineMetrics, OnlineSumWeightedCompletion, OnlineUtilization,
    StreamingObjective, StreamingObserver,
};
