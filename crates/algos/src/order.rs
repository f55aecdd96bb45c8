//! Ordering policies and the online re-computation trigger (§5.4/§5.5).
//!
//! FCFS and Garey & Graham order by submission; SMART and PSRS are offline
//! algorithms adapted to the online setting by re-running them over the
//! wait queue. §5.4: "In order to reduce the number of recomputations …
//! the schedule is recalculated when the ratio between the already
//! scheduled jobs in the wait queue to all the jobs in this queue exceeds
//! a certain value. In the example a ratio of 2/3 is used." We read this
//! as: recompute once the *unordered* fraction of the queue exceeds ⅓
//! (equivalently, the ordered fraction has fallen below ⅔); see DESIGN.md.
//!
//! Between recomputations the schedulers keep the computed order current
//! rather than rebuilding it per decision: starts and cancellations drop
//! out of it, later arrivals queue behind it in id order, and only
//! [`OrderPolicy::compute`] replaces it. The arrivals behind it are the
//! trigger's "unordered" jobs, so the trigger reads the same counts, and
//! fires at the same points, as a per-decision rebuild would.
//!
//! The priority family ([`OrderPolicy::Score`]) is the third kind of
//! order: a scoring rule over (wait, estimate, width), kept the same way
//! but never on the §5.4 trigger. A rule that ignores the wait inserts
//! each arrival at its ranked place; one whose ranking drifts with the
//! clock is re-ranked once per decision instant.

use crate::priority::ScoreFn;
use crate::psrs::{psrs_order, PsrsParams};
use crate::smart::{smart_order, SmartVariant};
use crate::view::{JobView, WeightScheme};
use jobsched_workload::JobId;

/// How the wait queue is ordered.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OrderPolicy {
    /// Submission order; head-blocking greedy start (§5.1).
    Fcfs,
    /// Submission order; start anything that fits (§5.3).
    GareyGraham,
    /// SMART shelf order (§5.4), recomputed online.
    Smart {
        /// Packing variant.
        variant: SmartVariant,
        /// Geometric bin parameter (the paper uses γ = 2).
        gamma: f64,
        /// Weight regime.
        scheme: WeightScheme,
    },
    /// PSRS bin order (§5.5), recomputed online.
    Psrs {
        /// Adaptation parameters.
        params: PsrsParams,
        /// Weight regime.
        scheme: WeightScheme,
    },
    /// Ascending `(score, id)` under a [`ScoreFn`] — the order
    /// [`crate::priority::rank`] gives at each decision. A time-invariant
    /// rule keeps it by inserting each submission in place; a
    /// wait-dependent rule, whose scores drift as the clock advances,
    /// re-ranks it once per decision instant.
    Score(ScoreFn),
}

impl OrderPolicy {
    /// SMART with the paper's γ = 2.
    pub fn smart(variant: SmartVariant, scheme: WeightScheme) -> Self {
        OrderPolicy::Smart {
            variant,
            gamma: 2.0,
            scheme,
        }
    }

    /// PSRS with default adaptation parameters.
    pub fn psrs(scheme: WeightScheme) -> Self {
        OrderPolicy::Psrs {
            params: PsrsParams::default(),
            scheme,
        }
    }

    /// Whether the order is an offline algorithm's, recomputed on the
    /// §5.4 trigger as the queue evolves.
    pub fn is_dynamic(&self) -> bool {
        matches!(self, OrderPolicy::Smart { .. } | OrderPolicy::Psrs { .. })
    }

    /// Whether a scheduler keeps the order between decisions: every
    /// policy but submission order, which walks the queue itself.
    pub(crate) fn is_maintained(&self) -> bool {
        !matches!(self, OrderPolicy::Fcfs | OrderPolicy::GareyGraham)
    }

    /// Weight scheme used by the policy (trivial for FCFS / G&G and
    /// the scoring rules).
    pub fn scheme(&self) -> WeightScheme {
        match self {
            OrderPolicy::Fcfs | OrderPolicy::GareyGraham | OrderPolicy::Score(_) => {
                WeightScheme::Unweighted
            }
            OrderPolicy::Smart { scheme, .. } | OrderPolicy::Psrs { scheme, .. } => *scheme,
        }
    }

    /// Row label matching the paper's tables.
    pub fn label(&self) -> String {
        match self {
            OrderPolicy::Fcfs => "FCFS".into(),
            OrderPolicy::GareyGraham => "Garey&Graham".into(),
            OrderPolicy::Smart { variant, .. } => format!("SMART-{}", variant.label()),
            OrderPolicy::Psrs { .. } => "PSRS".into(),
            OrderPolicy::Score(score) => score.label().into(),
        }
    }

    /// Run the offline ordering algorithm over the given queue snapshot.
    /// Only meaningful for dynamic policies; the others (a snapshot
    /// carries no clock to score against) answer submission order.
    pub fn compute(&self, views: &[JobView], machine_nodes: u32) -> Vec<JobId> {
        match self {
            OrderPolicy::Fcfs | OrderPolicy::GareyGraham | OrderPolicy::Score(_) => {
                let mut ids: Vec<JobId> = views.iter().map(|v| v.id).collect();
                ids.sort_unstable();
                ids
            }
            OrderPolicy::Smart { variant, gamma, .. } => {
                smart_order(views, machine_nodes, *gamma, *variant)
            }
            OrderPolicy::Psrs { params, .. } => psrs_order(views, machine_nodes, *params),
        }
    }
}

/// The §5.4 re-computation trigger.
#[derive(Clone, Copy, Debug)]
pub struct ReorderTrigger {
    /// Recompute once `unordered / queue_len` exceeds this fraction
    /// (paper value: 1/3, i.e. ordered coverage below 2/3).
    pub max_unordered_fraction: f64,
}

impl Default for ReorderTrigger {
    fn default() -> Self {
        ReorderTrigger {
            max_unordered_fraction: 1.0 / 3.0,
        }
    }
}

impl ReorderTrigger {
    /// Should the order be recomputed for a queue of `queue_len` jobs of
    /// which `unordered` arrived after the last computation?
    pub fn fires(&self, unordered: usize, queue_len: usize) -> bool {
        if queue_len == 0 {
            return false;
        }
        unordered as f64 > self.max_unordered_fraction * queue_len as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_rows() {
        assert_eq!(OrderPolicy::Fcfs.label(), "FCFS");
        assert_eq!(OrderPolicy::GareyGraham.label(), "Garey&Graham");
        assert_eq!(
            OrderPolicy::smart(SmartVariant::Ffia, WeightScheme::Unweighted).label(),
            "SMART-FFIA"
        );
        assert_eq!(
            OrderPolicy::smart(SmartVariant::Nfiw, WeightScheme::Unweighted).label(),
            "SMART-NFIW"
        );
        assert_eq!(OrderPolicy::psrs(WeightScheme::Unweighted).label(), "PSRS");
    }

    #[test]
    fn dynamic_flags() {
        assert!(!OrderPolicy::Fcfs.is_dynamic());
        assert!(!OrderPolicy::GareyGraham.is_dynamic());
        assert!(!OrderPolicy::Score(ScoreFn::Wfp).is_dynamic());
        assert!(OrderPolicy::smart(SmartVariant::Ffia, WeightScheme::Unweighted).is_dynamic());
        assert!(OrderPolicy::psrs(WeightScheme::ProjectedArea).is_dynamic());
    }

    #[test]
    fn fcfs_compute_sorts_by_id() {
        let views = vec![
            JobView {
                id: JobId(5),
                nodes: 1,
                time: 10,
                weight: 1.0,
            },
            JobView {
                id: JobId(2),
                nodes: 1,
                time: 10,
                weight: 1.0,
            },
        ];
        assert_eq!(
            OrderPolicy::Fcfs.compute(&views, 10),
            vec![JobId(2), JobId(5)]
        );
    }

    #[test]
    fn trigger_fires_above_one_third() {
        let t = ReorderTrigger::default();
        assert!(!t.fires(0, 9));
        assert!(!t.fires(3, 9)); // exactly 1/3: not exceeded
        assert!(t.fires(4, 9));
        assert!(t.fires(1, 1)); // fresh queue: everything unordered
        assert!(!t.fires(0, 0));
    }

    #[test]
    fn trigger_threshold_configurable() {
        let t = ReorderTrigger {
            max_unordered_fraction: 0.0,
        };
        assert!(t.fires(1, 100)); // any new job triggers
    }
}
