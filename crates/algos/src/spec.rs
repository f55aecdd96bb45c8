//! Algorithm specifications and the paper's evaluation matrix.
//!
//! Tables 3–6 evaluate five row algorithms against three column variants
//! (plain list scheduler, conservative backfilling, EASY backfilling),
//! with Garey & Graham appearing only in the list column because
//! "application of backfilling will be of no benefit for this method"
//! (§5.3). [`AlgorithmSpec::paper_matrix`] enumerates exactly those 13
//! combinations; [`AlgorithmSpec::reference`] is the FCFS + EASY baseline
//! the paper normalises against (§7: "the administrator selects the
//! simulation of FCFS with EASY backfilling to be a reference value as
//! this algorithm is used by the CTC").

use crate::backfill::BackfillMode;
use crate::dfrs::{DfrsScheduler, MoldableScheduler};
use crate::order::OrderPolicy;
use crate::priority::ScoreFn;
use crate::psrs::PsrsParams;
use crate::scheduler::ListScheduler;
use crate::smart::SmartVariant;
use crate::view::WeightScheme;
use jobsched_sim::{Scheduler, TimeSharedScheduler};

/// Row algorithm of the evaluation tables: the paper's five rows plus
/// the priority family of the scheduler atlas.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// First-Come-First-Serve (§5.1).
    Fcfs,
    /// Preemptive Smith-Ratio Scheduling, adapted (§5.5).
    Psrs,
    /// SMART, First Fit Increasing Area (§5.4).
    SmartFfia,
    /// SMART, Next Fit Increasing Width-to-Weight (§5.4).
    SmartNfiw,
    /// Classical list scheduling (§5.3).
    GareyGraham,
    /// A priority-family row ([`OrderPolicy::Score`]) keyed by its
    /// scoring function.
    Priority(ScoreFn),
    /// DFRS-style time-shared rotation (extension; segment engine).
    Dfrs,
    /// Moldable-choice FCFS (extension; segment engine).
    Moldable,
}

impl PolicyKind {
    /// The paper's rows in table order (the priority family extends the
    /// atlas, not the paper's tables — see [`PolicyKind::atlas`]).
    pub const ALL: [PolicyKind; 5] = [
        PolicyKind::Fcfs,
        PolicyKind::Psrs,
        PolicyKind::SmartFfia,
        PolicyKind::SmartNfiw,
        PolicyKind::GareyGraham,
    ];

    /// The priority-family rows, one per scoring rule.
    pub const PRIORITY: [PolicyKind; 10] = [
        PolicyKind::Priority(ScoreFn::Fcfs),
        PolicyKind::Priority(ScoreFn::Sjf),
        PolicyKind::Priority(ScoreFn::Ljf),
        PolicyKind::Priority(ScoreFn::SmallestFirst),
        PolicyKind::Priority(ScoreFn::LargestFirst),
        PolicyKind::Priority(ScoreFn::Wfp),
        PolicyKind::Priority(ScoreFn::Wfp3),
        PolicyKind::Priority(ScoreFn::Unicef),
        PolicyKind::Priority(ScoreFn::F1),
        PolicyKind::Priority(ScoreFn::F2),
    ];

    /// The time-shared extension rows: not part of the paper matrix or
    /// the atlas (whose 43 rows are pinned), but runnable through
    /// [`AlgorithmSpec::build_time_shared`] and `core::run_cell` for
    /// preemption/moldability comparisons against the rigid baselines.
    pub const TIME_SHARED: [PolicyKind; 2] = [PolicyKind::Dfrs, PolicyKind::Moldable];

    /// Every row of the scheduler atlas: paper rows then priority rows.
    pub fn atlas() -> Vec<PolicyKind> {
        let mut out = PolicyKind::ALL.to_vec();
        out.extend(PolicyKind::PRIORITY);
        out
    }

    /// Whether this row runs on the time-shared segment engine instead
    /// of the rigid engines.
    pub fn time_shared(&self) -> bool {
        matches!(self, PolicyKind::Dfrs | PolicyKind::Moldable)
    }

    /// Row label as printed in the paper (priority rows use the scoring
    /// function's label).
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::Fcfs => "FCFS",
            PolicyKind::Psrs => "PSRS",
            PolicyKind::SmartFfia => "SMART-FFIA",
            PolicyKind::SmartNfiw => "SMART-NFIW",
            PolicyKind::GareyGraham => "Garey&Graham",
            PolicyKind::Priority(s) => s.label(),
            PolicyKind::Dfrs => "DFRS",
            PolicyKind::Moldable => "Moldable",
        }
    }

    /// Stable machine-readable tag: what cache keys, JSON records,
    /// `.scn` scenarios, the daemon's scheduler labels and the CLIs
    /// spell this row as. Priority rows use their scoring function's
    /// tag ("sjf", "wfp3", ... — and "p-fcfs", distinct from the legacy
    /// "fcfs" row).
    pub fn tag(&self) -> &'static str {
        match self {
            PolicyKind::Fcfs => "fcfs",
            PolicyKind::Psrs => "psrs",
            PolicyKind::SmartFfia => "smart-ffia",
            PolicyKind::SmartNfiw => "smart-nfiw",
            PolicyKind::GareyGraham => "garey-graham",
            PolicyKind::Priority(s) => s.tag(),
            PolicyKind::Dfrs => "dfrs",
            PolicyKind::Moldable => "moldable",
        }
    }

    /// Parse a [`PolicyKind::tag`] back. Callers that cannot run the
    /// time-shared rows check [`PolicyKind::time_shared`] themselves.
    pub fn from_tag(tag: &str) -> Option<PolicyKind> {
        PolicyKind::atlas()
            .into_iter()
            .chain(PolicyKind::TIME_SHARED)
            .find(|k| k.tag() == tag)
    }

    /// Materialise the ordering policy of a rigid row under a weight
    /// scheme.
    ///
    /// # Panics
    ///
    /// The time-shared rows run on the segment engine and have no
    /// `OrderPolicy`; build them through
    /// [`AlgorithmSpec::build_time_shared`].
    pub fn policy(&self, scheme: WeightScheme) -> OrderPolicy {
        match self {
            PolicyKind::Fcfs => OrderPolicy::Fcfs,
            PolicyKind::GareyGraham => OrderPolicy::GareyGraham,
            PolicyKind::SmartFfia => OrderPolicy::smart(SmartVariant::Ffia, scheme),
            PolicyKind::SmartNfiw => OrderPolicy::smart(SmartVariant::Nfiw, scheme),
            PolicyKind::Psrs => OrderPolicy::Psrs {
                params: PsrsParams::default(),
                scheme,
            },
            PolicyKind::Priority(score) => OrderPolicy::Score(*score),
            PolicyKind::Dfrs | PolicyKind::Moldable => panic!(
                "time-shared policy {} has no OrderPolicy; use AlgorithmSpec::build_time_shared",
                self.label()
            ),
        }
    }
}

impl BackfillMode {
    /// Stable machine-readable tag, the column counterpart of
    /// [`PolicyKind::tag`] in the one tag table: what cache keys, JSON
    /// records and `.scn` scenarios spell this mode as.
    pub fn tag(&self) -> &'static str {
        match self {
            BackfillMode::None => "none",
            BackfillMode::Conservative => "conservative",
            BackfillMode::Easy => "easy",
        }
    }

    /// Parse a [`BackfillMode::tag`] back; also accepts `cons`, the
    /// short form of the daemon's scheduler labels.
    pub fn from_tag(tag: &str) -> Option<BackfillMode> {
        match tag {
            "none" => Some(BackfillMode::None),
            "conservative" | "cons" => Some(BackfillMode::Conservative),
            "easy" => Some(BackfillMode::Easy),
            _ => None,
        }
    }
}

/// One cell of the evaluation matrix: a row algorithm and a backfill
/// column.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AlgorithmSpec {
    /// Row algorithm.
    pub kind: PolicyKind,
    /// Column variant.
    pub backfill: BackfillMode,
}

impl AlgorithmSpec {
    /// New spec.
    pub fn new(kind: PolicyKind, backfill: BackfillMode) -> Self {
        AlgorithmSpec { kind, backfill }
    }

    /// The paper's FCFS + EASY reference configuration.
    pub fn reference() -> Self {
        AlgorithmSpec::new(PolicyKind::Fcfs, BackfillMode::Easy)
    }

    /// The 13 combinations of Tables 3–6: 4 algorithms × 3 columns, plus
    /// Garey & Graham in the list column only.
    pub fn paper_matrix() -> Vec<AlgorithmSpec> {
        let mut out = Vec::with_capacity(13);
        for kind in [
            PolicyKind::Fcfs,
            PolicyKind::Psrs,
            PolicyKind::SmartFfia,
            PolicyKind::SmartNfiw,
        ] {
            for backfill in [
                BackfillMode::None,
                BackfillMode::Conservative,
                BackfillMode::Easy,
            ] {
                out.push(AlgorithmSpec::new(kind, backfill));
            }
        }
        out.push(AlgorithmSpec::new(
            PolicyKind::GareyGraham,
            BackfillMode::None,
        ));
        out
    }

    /// The scheduler-atlas matrix: the 13 paper combos plus every
    /// priority scoring rule × all three backfill columns (43 cells).
    pub fn atlas_matrix() -> Vec<AlgorithmSpec> {
        let mut out = AlgorithmSpec::paper_matrix();
        for kind in PolicyKind::PRIORITY {
            for backfill in [
                BackfillMode::None,
                BackfillMode::Conservative,
                BackfillMode::Easy,
            ] {
                out.push(AlgorithmSpec::new(kind, backfill));
            }
        }
        out
    }

    /// Build a runnable scheduler under the given weight scheme. Total
    /// over the rigid rows (the whole atlas); panics on the time-shared
    /// rows like [`PolicyKind::policy`].
    pub fn build(&self, scheme: WeightScheme) -> ListScheduler {
        ListScheduler::new(self.kind.policy(scheme), self.backfill)
    }

    /// [`AlgorithmSpec::build`], boxed. `caching` toggles the
    /// blocked-state cache (a no-op on priority rows: a score order
    /// never enters it).
    pub fn build_dyn(&self, scheme: WeightScheme, caching: bool) -> Box<dyn Scheduler> {
        Box::new(self.build(scheme).with_caching(caching))
    }

    /// Build a time-shared row for the segment engine
    /// ([`jobsched_sim::simulate_time_shared`]); `None` for the rigid
    /// rows. The backfill column is ignored — preemption subsumes it
    /// (freed capacity is repacked every quantum), so time-shared specs
    /// conventionally carry [`BackfillMode::None`].
    pub fn build_time_shared(&self) -> Option<Box<dyn TimeSharedScheduler + Send>> {
        match self.kind {
            PolicyKind::Dfrs => Some(Box::new(DfrsScheduler::default())),
            PolicyKind::Moldable => Some(Box::new(MoldableScheduler::new())),
            _ => None,
        }
    }

    /// Full display name ("PSRS+EASY-Backfilling").
    pub fn name(&self) -> String {
        format!("{}+{}", self.kind.label(), self.backfill.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_has_thirteen_cells() {
        let m = AlgorithmSpec::paper_matrix();
        assert_eq!(m.len(), 13);
        let gg: Vec<_> = m
            .iter()
            .filter(|s| s.kind == PolicyKind::GareyGraham)
            .collect();
        assert_eq!(gg.len(), 1);
        assert_eq!(gg[0].backfill, BackfillMode::None);
    }

    #[test]
    fn matrix_is_unique() {
        let m = AlgorithmSpec::paper_matrix();
        let set: std::collections::HashSet<_> = m.iter().collect();
        assert_eq!(set.len(), m.len());
    }

    #[test]
    fn reference_is_fcfs_easy() {
        let r = AlgorithmSpec::reference();
        assert_eq!(r.name(), "FCFS+EASY-Backfilling");
        assert!(AlgorithmSpec::paper_matrix().contains(&r));
    }

    #[test]
    fn build_respects_scheme() {
        let s = AlgorithmSpec::new(PolicyKind::SmartFfia, BackfillMode::Easy);
        let sched = s.build(WeightScheme::ProjectedArea);
        assert_eq!(sched.policy().scheme(), WeightScheme::ProjectedArea);
        let sched = s.build(WeightScheme::Unweighted);
        assert_eq!(sched.policy().scheme(), WeightScheme::Unweighted);
    }

    #[test]
    fn labels_cover_all_rows() {
        let labels: Vec<_> = PolicyKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(
            labels,
            vec!["FCFS", "PSRS", "SMART-FFIA", "SMART-NFIW", "Garey&Graham"]
        );
    }

    #[test]
    fn atlas_matrix_is_paper_plus_priority_family() {
        let m = AlgorithmSpec::atlas_matrix();
        assert_eq!(m.len(), 13 + 10 * 3);
        let set: std::collections::HashSet<_> = m.iter().collect();
        assert_eq!(set.len(), m.len());
        // Every scoring rule composes with all three backfill columns.
        for kind in PolicyKind::PRIORITY {
            for backfill in [
                BackfillMode::None,
                BackfillMode::Conservative,
                BackfillMode::Easy,
            ] {
                assert!(m.contains(&AlgorithmSpec::new(kind, backfill)));
            }
        }
        // The paper matrix is a strict prefix (report ordering relies on
        // it).
        assert_eq!(&m[..13], AlgorithmSpec::paper_matrix().as_slice());
    }

    #[test]
    fn build_is_total_over_the_atlas() {
        for spec in AlgorithmSpec::atlas_matrix() {
            let s = spec.build(WeightScheme::Unweighted);
            assert_eq!(s.name(), spec.name());
            assert_eq!(s.queue_len(), 0);
        }
    }

    #[test]
    fn tags_round_trip_and_stay_distinct() {
        let all: Vec<_> = PolicyKind::atlas()
            .into_iter()
            .chain(PolicyKind::TIME_SHARED)
            .collect();
        for &k in &all {
            assert_eq!(PolicyKind::from_tag(k.tag()), Some(k));
        }
        let tags: std::collections::HashSet<_> = all.iter().map(|k| k.tag()).collect();
        assert_eq!(tags.len(), all.len());
        assert_eq!(PolicyKind::from_tag("nope"), None);
        for m in [
            BackfillMode::None,
            BackfillMode::Conservative,
            BackfillMode::Easy,
        ] {
            assert_eq!(BackfillMode::from_tag(m.tag()), Some(m));
        }
        assert_eq!(
            BackfillMode::from_tag("cons"),
            Some(BackfillMode::Conservative)
        );
        assert_eq!(BackfillMode::from_tag("nope"), None);
        // The legacy FCFS row and the P-FCFS priority row are distinct.
        assert_ne!(
            PolicyKind::Fcfs.tag(),
            PolicyKind::Priority(ScoreFn::Fcfs).tag()
        );
    }

    #[test]
    fn atlas_labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            PolicyKind::atlas().iter().map(|k| k.label()).collect();
        assert_eq!(
            labels.len(),
            PolicyKind::ALL.len() + PolicyKind::PRIORITY.len()
        );
    }
}
