//! # jobsched
//!
//! Facade crate for the IPPS'99 "Design and Evaluation of Job Scheduling
//! Algorithms" reproduction. Re-exports the workspace crates:
//!
//! * [`workload`] — job model, SWF traces, synthetic workload generators.
//! * [`sim`] — discrete-event machine simulator.
//! * [`metrics`] — objective functions and multi-criteria (Pareto) tools.
//! * [`algos`] — FCFS, Garey&Graham, SMART, PSRS and backfilling.
//! * [`core`] — the scheduling-system design framework and the paper's
//!   experiment definitions.
//!
//! The full pipeline in a few lines — generate a prepared CTC-like
//! workload, schedule it with the paper's reference configuration
//! (FCFS + EASY backfilling), and evaluate both §4 objectives:
//!
//! ```
//! use jobsched::algos::{spec::PolicyKind, view::WeightScheme, AlgorithmSpec, BackfillMode};
//! use jobsched::core::objective_select::ObjectiveKind;
//! use jobsched::metrics::Objective;
//! use jobsched::sim::simulate;
//! use jobsched::workload::ctc::prepared_ctc_workload;
//!
//! let workload = prepared_ctc_workload(500, 1999);
//! let spec = AlgorithmSpec::new(PolicyKind::Fcfs, BackfillMode::Easy);
//! let outcome = simulate(&workload, &mut spec.build(WeightScheme::Unweighted));
//!
//! assert!(outcome.schedule.validate(&workload).is_empty());
//! let art = ObjectiveKind::AvgResponseTime.cost(&workload, &outcome.schedule);
//! let awrt = ObjectiveKind::AvgWeightedResponseTime.cost(&workload, &outcome.schedule);
//! assert!(art > 0.0 && awrt > 0.0);
//! ```
//!
//! Or run the complete §3–§7 design methodology in one call:
//!
//! ```
//! use jobsched::core::{Policy, SchedulingSystem};
//! use jobsched::workload::ctc::prepared_ctc_workload;
//!
//! let reference = prepared_ctc_workload(400, 7);
//! let system = SchedulingSystem::design(Policy::example5(), &reference);
//! // One algorithm decision per policy regime (daytime ART, off-peak AWRT):
//! assert_eq!(system.regimes.len(), 2);
//! println!("{}", system.summary());
//! ```

pub use jobsched_algos as algos;
pub use jobsched_core as core;
pub use jobsched_metrics as metrics;
pub use jobsched_sim as sim;
pub use jobsched_workload as workload;
