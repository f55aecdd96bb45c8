//! Job model, trace I/O and synthetic workload generators.
//!
//! This crate provides everything §3 and §6 of the paper need on the input
//! side of a scheduling-system evaluation:
//!
//! * [`job::Job`] — the rigid-job submission record of Example 5 (nodes,
//!   user-provided runtime limit, actual runtime, plus the auxiliary CTC
//!   trace fields listed in §6.1).
//! * [`trace::Workload`] — an ordered stream of jobs with the filtering
//!   operations the paper's administrator applies (drop >256-node jobs,
//!   ignore hardware heterogeneity, time-window cuts).
//! * [`swf`] — a Standard Workload Format parser/writer so real archive
//!   traces (e.g. the actual CTC trace) can be substituted for the synthetic
//!   model without touching any other code.
//! * [`ctc`] — a calibrated synthetic stand-in for the CTC SP2 trace
//!   (July 1996 – May 1997, 79,164 jobs). See DESIGN.md §2 for the
//!   substitution rationale.
//! * [`probabilistic`] — the §6.2 workload: empirical bins extracted from a
//!   base trace, Weibull-distributed submission times, resampled jobs.
//! * [`randomized`] — the §6.3 workload: uniformly random jobs per Table 2.
//! * [`exact`] — the §6.1 variant where user estimates are replaced by the
//!   exact execution times.
//! * [`distr`] — the random-variate samplers (Weibull, log-normal,
//!   empirical) implemented directly over [`rng`], the crate's
//!   self-contained deterministic generator.
//! * [`stats`] — summary statistics used to characterise and compare
//!   workloads (§6.2 consistency checking).
//! * [`source`] — pull-based [`source::JobSource`] streams for the
//!   bounded-memory simulation pipeline: in-memory workload adapters, the
//!   lazy [`swf::SwfStream`] reader, and the unbounded
//!   [`source::ProbabilisticSource`] generator.
//! * [`layout`] — node-class machine layouts, so the §6.1 heterogeneity
//!   the administrator discards can instead be kept and simulated.

pub mod archive;
pub mod ctc;
pub mod distr;
pub mod exact;
pub mod job;
pub mod layout;
pub mod moldable;
pub mod probabilistic;
pub mod randomized;
pub mod rng;
pub mod source;
pub mod stats;
pub mod swf;
pub mod trace;

pub use job::{CompletionStatus, Job, JobBuilder, JobId, NodeType, Time};
pub use layout::{ClassId, MachineLayout, NodeClassSpec};
pub use moldable::{synthesize_moldable, MoldableChoice};
pub use source::{JobSource, ProbabilisticSource, SourceError, WorkloadSource};
pub use swf::SwfStream;
pub use trace::Workload;

/// Number of batch nodes on the paper's target machine (Institution B).
pub const TARGET_NODES: u32 = 256;

/// Number of batch nodes on the machine the CTC trace was recorded on.
pub const CTC_NODES: u32 = 430;

/// Number of jobs in the paper's CTC workload (Table 1).
pub const CTC_JOB_COUNT: usize = 79_164;

/// Number of jobs in the paper's synthetic workloads (Table 1).
pub const SYNTHETIC_JOB_COUNT: usize = 50_000;
