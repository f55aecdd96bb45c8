//! The paper's scheduling algorithms (§5) and backfilling variants.
//!
//! All five algorithms are instances of one list scheduler
//! ([`scheduler::ListScheduler`]): an ordering policy produces a priority
//! order over the waiting jobs, and a selection strategy decides which
//! ordered jobs start now:
//!
//! | paper algorithm | ordering ([`order::OrderPolicy`]) | selection |
//! |---|---|---|
//! | FCFS (§5.1) | submission order | head-blocking greedy |
//! | Garey & Graham (§5.3) | submission order | start anything that fits |
//! | SMART-FFIA / SMART-NFIW (§5.4) | shelf order recomputed online | head-blocking greedy |
//! | PSRS (§5.5) | preemptive-schedule bin order recomputed online | head-blocking greedy |
//!
//! and any head-blocking selection can be upgraded with conservative or
//! EASY backfilling (§5.2, [`backfill::BackfillMode`]). Backfilling brings
//! no benefit to Garey & Graham (§5.3) because it already starts every
//! fitting job. The backfilling scans have one source of availability:
//! the machine's incrementally maintained [`jobsched_sim::LiveProfile`].
//!
//! Beyond the paper's rows, [`order::OrderPolicy::Score`] makes the
//! ordering side a scoring function over (wait, estimate, width) —
//! SJF/LJF, smallest/largest-first, WFP, WFP³, UNICEF and SC'17-style
//! F-combinations ([`priority::ScoreFn`]) — kept ranked between
//! decisions and composing with the same three selection strategies. The §7
//! day/night combination ([`switching`]) is a list scheduler with a
//! second, off-peak regime: each regime orders the one queue as its own
//! row does, and the regime owning the instant selects. Example 4's
//! exclusive window ([`switching::ExclusiveWindow`]) is a rule of the same
//! scheduler that every selection strategy honours, so
//! [`scheduler::ListScheduler`] is the one rigid scheduler.
//!
//! The offline algorithms are adapted to the online setting exactly as
//! §5.4/§5.5 describe: they only *order* the wait queue; user estimates
//! stand in for execution times; the order is recomputed when the
//! unordered fraction of the queue passes the paper's ⅓ threshold
//! ([`order::ReorderTrigger`]).

pub mod backfill;
pub mod dfrs;
pub mod garey_graham;
pub mod order;
pub mod priority;
pub mod psrs;
pub mod scheduler;
pub mod smart;
pub mod spec;
pub mod switching;
pub mod view;

pub use backfill::BackfillMode;
pub use dfrs::{DfrsScheduler, MoldableScheduler};
pub use order::OrderPolicy;
pub use priority::ScoreFn;
pub use scheduler::ListScheduler;
pub use smart::SmartVariant;
pub use spec::AlgorithmSpec;
pub use view::JobView;
