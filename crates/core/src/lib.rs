//! The scheduling-system design framework of the paper, plus the units
//! its §6–§7 evaluation is built from.
//!
//! §2 splits a scheduling system into three components and this crate
//! mirrors that split:
//!
//! 1. **Scheduling policy** ([`policy`]) — the owner's rules (Examples 1
//!    and 5 are provided as ready-made [`policy::Policy`] values), with
//!    the conflict analysis §2.1 calls for.
//! 2. **Objective function** ([`objective_select`]) — the §4 derivation
//!    from policy rules to schedule costs, including the rejected
//!    intermediate candidates (total idle time, makespan) and the
//!    Pareto-based methodology of §2.2.
//! 3. **Scheduling algorithm** — provided by `jobsched-algos`; selected by
//!    evaluation ([`experiment`], [`system`]).
//!
//! The evaluation's tables are not defined here: [`experiment`] holds
//! the unit every table is made of ([`experiment::run_cell`]) and one
//! serial 13-cell matrix for the design loop, while the paper's Tables
//! 3–8, the atlas and the multi-seed replications are `jobsched-sweep`
//! campaign presets. [`paper`] keeps the two-criteria Figures 1–2.
//! [`report`] renders results in the paper's layout (scientific-notation
//! cost plus percentage against the FCFS+EASY reference).

pub mod ablation;
pub mod experiment;
pub mod extensions;
pub mod objective_select;
pub mod paper;
pub mod policy;
pub mod report;
pub mod system;

pub use experiment::{evaluate_matrix, EvalCell, EvalTable, Scale};
pub use policy::{Policy, Rule};
pub use system::SchedulingSystem;
