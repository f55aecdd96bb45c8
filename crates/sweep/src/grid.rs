//! The campaign grid: declarative descriptions of every cell of the
//! evaluation matrix.
//!
//! A *campaign* is a set of (workload × objective × algorithm × seed)
//! cells plus the table layouts that consume them. Workloads are
//! described declaratively ([`WorkloadSpec`]) rather than by value so
//! that a campaign definition is cheap to build, hashable, and
//! serialisable into the manifest; the runner materialises each distinct
//! spec exactly once and shares it across cells.

use crate::hash::StableHasher;
use jobsched_algos::spec::PolicyKind;
use jobsched_algos::{AlgorithmSpec, BackfillMode, ScoreFn};
use jobsched_core::experiment::Scale;
use jobsched_core::objective_select::ObjectiveKind;
use jobsched_json::Json;
use jobsched_workload::ctc::prepared_ctc_workload;
use jobsched_workload::exact::with_exact_estimates;
use jobsched_workload::probabilistic::probabilistic_workload;
use jobsched_workload::randomized::randomized_workload;
use jobsched_workload::rng::derive_seed;
use jobsched_workload::Workload;

/// Declarative description of one evaluation workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum WorkloadSpec {
    /// The §6.1 prepared CTC-like trace.
    Ctc {
        /// Number of jobs to generate.
        jobs: usize,
        /// Generator seed.
        seed: u64,
    },
    /// The §6.1 trace with exact execution times (Table 6).
    CtcExact {
        /// Number of jobs to generate.
        jobs: usize,
        /// Generator seed.
        seed: u64,
    },
    /// The §6.2 probability-distribution workload, fitted on a CTC base.
    Probabilistic {
        /// Jobs in the CTC base trace the model is fitted on.
        base_jobs: usize,
        /// Seed of the base trace.
        base_seed: u64,
        /// Number of jobs to resample.
        jobs: usize,
        /// Resampling seed.
        seed: u64,
    },
    /// The §6.3 totally randomized workload (Table 2).
    Randomized {
        /// Number of jobs to generate.
        jobs: usize,
        /// Generator seed.
        seed: u64,
    },
}

impl WorkloadSpec {
    /// The §6.1 prepared CTC-like trace at `scale` (Tables 3 and 7).
    pub fn ctc(scale: Scale) -> Self {
        WorkloadSpec::Ctc {
            jobs: scale.ctc_jobs,
            seed: scale.seed,
        }
    }

    /// [`WorkloadSpec::ctc`] with exact execution times (Table 6).
    pub fn ctc_exact(scale: Scale) -> Self {
        WorkloadSpec::CtcExact {
            jobs: scale.ctc_jobs,
            seed: scale.seed,
        }
    }

    /// The §6.2 probabilistic workload fitted on [`WorkloadSpec::ctc`]
    /// (Tables 4 and 8): draw 0 of [`WorkloadSpec::resampled`].
    pub fn probabilistic(scale: Scale) -> Self {
        Self::resampled(scale, 0)
    }

    /// The `k`-th independent resampling of the probabilistic workload:
    /// same base trace, same model fit, resampling stream shifted by `k`.
    pub fn resampled(scale: Scale, k: usize) -> Self {
        WorkloadSpec::Probabilistic {
            base_jobs: scale.ctc_jobs,
            base_seed: scale.seed,
            jobs: scale.synthetic_jobs,
            seed: scale.seed + 1 + k as u64,
        }
    }

    /// The §6.3 totally randomized workload (Table 5).
    pub fn randomized(scale: Scale) -> Self {
        WorkloadSpec::Randomized {
            jobs: scale.synthetic_jobs,
            seed: scale.seed + 2,
        }
    }

    /// Materialise the workload this spec describes.
    pub fn generate(&self) -> Workload {
        match *self {
            WorkloadSpec::Ctc { jobs, seed } => prepared_ctc_workload(jobs, seed),
            WorkloadSpec::CtcExact { jobs, seed } => {
                with_exact_estimates(&prepared_ctc_workload(jobs, seed))
            }
            WorkloadSpec::Probabilistic {
                base_jobs,
                base_seed,
                jobs,
                seed,
            } => {
                let base = prepared_ctc_workload(base_jobs, base_seed);
                probabilistic_workload(&base, jobs, seed)
            }
            WorkloadSpec::Randomized { jobs, seed } => randomized_workload(jobs, seed),
        }
    }

    /// Stable kind tag used in JSON artifacts and cache keys.
    pub fn kind(&self) -> &'static str {
        match self {
            WorkloadSpec::Ctc { .. } => "ctc",
            WorkloadSpec::CtcExact { .. } => "ctc-exact",
            WorkloadSpec::Probabilistic { .. } => "probabilistic",
            WorkloadSpec::Randomized { .. } => "randomized",
        }
    }

    /// The generator seed of the final sampling stage.
    pub fn seed(&self) -> u64 {
        match *self {
            WorkloadSpec::Ctc { seed, .. }
            | WorkloadSpec::CtcExact { seed, .. }
            | WorkloadSpec::Probabilistic { seed, .. }
            | WorkloadSpec::Randomized { seed, .. } => seed,
        }
    }

    /// JSON form used in the manifest.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("kind", Json::Str(self.kind().into())),
            ("seed", Json::UInt(self.seed())),
        ];
        match *self {
            WorkloadSpec::Ctc { jobs, .. }
            | WorkloadSpec::CtcExact { jobs, .. }
            | WorkloadSpec::Randomized { jobs, .. } => {
                pairs.push(("jobs", Json::UInt(jobs as u64)));
            }
            WorkloadSpec::Probabilistic {
                base_jobs,
                base_seed,
                jobs,
                ..
            } => {
                pairs.push(("jobs", Json::UInt(jobs as u64)));
                pairs.push(("base_jobs", Json::UInt(base_jobs as u64)));
                pairs.push(("base_seed", Json::UInt(base_seed)));
            }
        }
        Json::obj(pairs)
    }
}

/// Stable tag for a policy kind (cache keys, JSON): [`PolicyKind::tag`].
pub fn policy_tag(kind: PolicyKind) -> &'static str {
    kind.tag()
}

/// Stable tag for an objective (cache keys, JSON): [`ObjectiveKind::tag`].
pub fn objective_tag(objective: ObjectiveKind) -> &'static str {
    objective.tag()
}

/// One cell of a campaign: a single record. Cells that differ only in
/// an objective that builds the same scheduler share one simulation
/// (see [`crate::run_campaign`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellSpec {
    /// Index of the table this cell belongs to (into `Campaign::tables`).
    pub table: usize,
    /// Workload to simulate.
    pub workload: WorkloadSpec,
    /// Objective the cost is measured under.
    pub objective: ObjectiveKind,
    /// Algorithm configuration.
    pub algorithm: AlgorithmSpec,
    /// Whether the schedulers' incremental cache is enabled (off for the
    /// paper's computation-time Tables 7–8).
    pub caching: bool,
    /// Cell-specific RNG seed, derived from the workload seed and the
    /// cell's position so every cell owns an independent stream no
    /// matter which worker thread executes it. (The current schedulers
    /// are deterministic and do not consume it; it is part of the cache
    /// key so future randomized algorithms stay correctly keyed.)
    pub seed: u64,
}

impl CellSpec {
    /// The content-addressed cache key of this cell given the
    /// fingerprint of its materialised workload.
    ///
    /// Everything that can influence the simulation result is hashed:
    /// schema version, workload content *and* generator seed, algorithm,
    /// objective, cache toggle and the derived seed. Table membership
    /// deliberately is *not* — two tables referencing an identical run
    /// share one cache entry. The workload seed is hashed explicitly
    /// (not only through the fingerprint) so multi-seed replication
    /// cells stay distinct even under a fingerprint collision.
    pub fn cache_key(&self, workload_fingerprint: u64) -> String {
        let mut h = StableHasher::new();
        h.write_u64(crate::record::SCHEMA_VERSION as u64)
            .write_u64(workload_fingerprint)
            .write_u64(self.workload.seed())
            .write_str(policy_tag(self.algorithm.kind))
            .write_str(self.algorithm.backfill.tag())
            .write_str(self.objective.tag())
            .write_u64(self.caching as u64)
            .write_u64(self.seed);
        h.finish_hex()
    }
}

/// Layout of one rendered table: which cells belong to it and how the
/// repro driver should print it.
#[derive(Clone, Debug)]
pub struct TableDef {
    /// Stable identifier ("table3-unweighted").
    pub id: String,
    /// Human title, printed above the table.
    pub title: String,
    /// The workload all cells of this table share.
    pub workload: WorkloadSpec,
    /// The objective all cells share.
    pub objective: ObjectiveKind,
    /// Whether this is a computation-time table (Tables 7–8 rendering).
    pub cpu_table: bool,
}

/// A full campaign: table definitions plus the flat cell list.
#[derive(Clone, Debug, Default)]
pub struct Campaign {
    /// Campaign name, recorded in the manifest.
    pub name: String,
    /// Table layouts, in print order.
    pub tables: Vec<TableDef>,
    /// All cells, in deterministic definition order.
    pub cells: Vec<CellSpec>,
}

impl Campaign {
    /// Empty campaign.
    pub fn new(name: impl Into<String>) -> Self {
        Campaign {
            name: name.into(),
            tables: Vec::new(),
            cells: Vec::new(),
        }
    }

    /// Append an arbitrary spec list as a table.
    #[allow(clippy::too_many_arguments)]
    pub fn push_specs(
        &mut self,
        id: impl Into<String>,
        title: impl Into<String>,
        workload: WorkloadSpec,
        objective: ObjectiveKind,
        caching: bool,
        cpu_table: bool,
        specs: &[AlgorithmSpec],
    ) {
        let table = self.tables.len();
        self.tables.push(TableDef {
            id: id.into(),
            title: title.into(),
            workload,
            objective,
            cpu_table,
        });
        for (i, &algorithm) in specs.iter().enumerate() {
            self.cells.push(CellSpec {
                table,
                workload,
                objective,
                algorithm,
                caching,
                // Stream index = stable position of the cell within its
                // table; identical for every thread count and campaign
                // composition.
                seed: derive_seed(workload.seed(), i as u64),
            });
        }
    }

    /// The one cross-product builder behind every preset: one table per
    /// (workload row × objective row), each over `specs`. A workload row
    /// is `(id prefix, title prefix, spec)`, an objective row
    /// `(id suffix, title suffix, kind)`; a table's id is
    /// `{prefix}-{suffix}` and its title the two title parts
    /// concatenated, so the rows carry their own punctuation.
    fn cross<S: AsRef<str>>(
        mut self,
        workloads: &[(S, S, WorkloadSpec)],
        objectives: &[(&str, &str, ObjectiveKind)],
        specs: &[AlgorithmSpec],
        caching: bool,
        cpu_table: bool,
    ) -> Campaign {
        for (wid, wtitle, workload) in workloads {
            for &(oid, otitle, objective) in objectives {
                self.push_specs(
                    format!("{}-{oid}", wid.as_ref()),
                    format!("{}{otitle}", wtitle.as_ref()),
                    *workload,
                    objective,
                    caching,
                    cpu_table,
                    specs,
                );
            }
        }
        self
    }

    /// The unweighted (ART) and weighted (AWRT) sections the paper
    /// stacks in each of Tables 3–8.
    const PAPER_PAIR: [(&'static str, &'static str, ObjectiveKind); 2] = [
        (
            "unweighted",
            "(unweighted case)",
            ObjectiveKind::AvgResponseTime,
        ),
        (
            "weighted",
            "(weighted case)",
            ObjectiveKind::AvgWeightedResponseTime,
        ),
    ];

    /// Objective rows of the two smoke slices, titled by their tag.
    const SMOKE_OBJECTIVES: [(&'static str, &'static str, ObjectiveKind); 3] = [
        ("art", "(art)", ObjectiveKind::AvgResponseTime),
        ("bsld", "(bsld)", ObjectiveKind::AvgBoundedSlowdown),
        ("fair-max", "(fair-max)", ObjectiveKind::MaxUserSlowdown),
    ];

    /// The paper's Tables 3–8 for the ids in `wanted` (e.g. `"table3"`),
    /// at the given scale. Each of Tables 3–6 contributes an unweighted
    /// (ART) and a weighted (AWRT) section; Tables 7–8 re-run the CTC and
    /// probabilistic matrices with the schedulers' incremental cache
    /// disabled, which is the paper's computation-time measurement
    /// condition: the 1999 implementations re-scan the wait queue at
    /// every decision, so their relative costs track the queue depth
    /// each algorithm's own schedule produces. The schedules are
    /// identical either way.
    pub fn paper_tables(scale: Scale, wanted: &[&str]) -> Campaign {
        let ctc = WorkloadSpec::ctc(scale);
        let prob = WorkloadSpec::probabilistic(scale);
        // (id, title, workload, computation-time table); the latter run
        // with the schedulers' cache off.
        let rows = [
            ("table3", "Table 3: CTC workload ", ctc, false),
            (
                "table4",
                "Table 4: probability-distributed workload ",
                prob,
                false,
            ),
            (
                "table5",
                "Table 5: randomized workload ",
                WorkloadSpec::randomized(scale),
                false,
            ),
            (
                "table6",
                "Table 6: CTC workload, exact execution times ",
                WorkloadSpec::ctc_exact(scale),
                false,
            ),
            (
                "table7",
                "Table 7: computation time, CTC workload ",
                ctc,
                true,
            ),
            (
                "table8",
                "Table 8: computation time, probabilistic workload ",
                prob,
                true,
            ),
        ];
        wanted.iter().fold(Campaign::new("paper-tables"), |c, id| {
            let &(id, title, workload, cpu_table) = rows
                .iter()
                .find(|row| row.0 == *id)
                .unwrap_or_else(|| panic!("unknown table id '{id}'"));
            c.cross(
                &[(id, title, workload)],
                &Self::PAPER_PAIR,
                &AlgorithmSpec::paper_matrix(),
                !cpu_table,
                cpu_table,
            )
        })
    }

    /// The multi-seed replication behind `repro replicate`: the paper
    /// matrix, unweighted and weighted, over one CTC-like realisation
    /// per generator seed in `seeds` (seed-major table order). §6.2's
    /// consistency check and §7's caution against reading too much into
    /// absolute numbers both call for it: an ordering that survives the
    /// across-seed spread of each cell's percentage against its own
    /// seed's FCFS+EASY reference is a property of the workload *model*,
    /// not of one sample.
    pub fn replicate(scale: Scale, seeds: &[u64]) -> Campaign {
        assert!(!seeds.is_empty(), "need at least one seed");
        let workloads: Vec<(String, String, WorkloadSpec)> = seeds
            .iter()
            .map(|&seed| {
                (
                    format!("replicate-s{seed}"),
                    format!("Replication, CTC workload at seed {seed} "),
                    WorkloadSpec::ctc(Scale { seed, ..scale }),
                )
            })
            .collect();
        Campaign::new("replicate").cross(
            &workloads,
            &Self::PAPER_PAIR,
            &AlgorithmSpec::paper_matrix(),
            true,
            false,
        )
    }

    /// The six objectives spanning the atlas cost space, with tags and
    /// human titles: the original {ART, AWRT, bounded slowdown} triple
    /// plus the three fairness criteria the objective learner feeds on.
    pub const ATLAS_OBJECTIVES: [(&'static str, &'static str, ObjectiveKind); 6] = [
        (
            "art",
            "average response time",
            ObjectiveKind::AvgResponseTime,
        ),
        (
            "awrt",
            "average weighted response time",
            ObjectiveKind::AvgWeightedResponseTime,
        ),
        (
            "bsld",
            "average bounded slowdown",
            ObjectiveKind::AvgBoundedSlowdown,
        ),
        (
            "fair-max",
            "worst user's mean bounded slowdown",
            ObjectiveKind::MaxUserSlowdown,
        ),
        (
            "fair-p95",
            "p95 per-width bounded slowdown",
            ObjectiveKind::P95WidthSlowdown,
        ),
        (
            "fair-var",
            "bounded-slowdown variance",
            ObjectiveKind::SlowdownVariance,
        ),
    ];

    /// The scheduler-atlas campaign: the full 43-row atlas matrix
    /// (paper rows + the priority family) × {CTC, probabilistic}
    /// workloads × the six-objective cost space (ART, AWRT, bounded
    /// slowdown and the three fairness criteria) — 516 cells. This is
    /// the mega-sweep behind `ATLAS.md`/`BENCH_atlas.json`.
    pub fn atlas(scale: Scale) -> Campaign {
        Campaign::new("atlas").cross(
            &[
                (
                    "atlas-ctc",
                    "Scheduler atlas: CTC workload, ",
                    WorkloadSpec::ctc(scale),
                ),
                (
                    "atlas-prob",
                    "Scheduler atlas: probability-distributed workload, ",
                    WorkloadSpec::probabilistic(scale),
                ),
            ],
            &Self::ATLAS_OBJECTIVES,
            &AlgorithmSpec::atlas_matrix(),
            true,
            false,
        )
    }

    /// The multi-seed significance campaign behind `BENCH_tune.json`:
    /// the atlas matrix over `seeds` independent resamplings of the
    /// probabilistic workload, under the full six-objective cost space.
    /// Seed index 0 reuses the atlas campaign's resampling seed, so its
    /// cells carry [`Campaign::atlas`]'s cache keys at the same scale
    /// (one entry when both run against one cache directory); later seeds shift the resampling stream only — same base
    /// trace, same model fit, different draw.
    pub fn significance(scale: Scale, seeds: usize) -> Campaign {
        assert!(seeds >= 1, "need at least one seed");
        let workloads: Vec<(String, String, WorkloadSpec)> = (0..seeds)
            .map(|k| {
                (
                    format!("sig-s{k}"),
                    format!("Significance replicate {k}: "),
                    WorkloadSpec::resampled(scale, k),
                )
            })
            .collect();
        Campaign::new("significance").cross(
            &workloads,
            &Self::ATLAS_OBJECTIVES,
            &AlgorithmSpec::atlas_matrix(),
            true,
            false,
        )
    }

    /// The CI smoke slice of the atlas: a reduced policy×backfill set
    /// (the FCFS+EASY reference plus three priority rows across all
    /// three backfill columns) on one small CTC workload under ART,
    /// bounded slowdown and the worst-user fairness criterion — 30
    /// cells, seconds of wall-clock.
    pub fn atlas_smoke(scale: Scale) -> Campaign {
        let mut specs = vec![AlgorithmSpec::reference()];
        for score in [ScoreFn::Sjf, ScoreFn::Wfp3, ScoreFn::Unicef] {
            for backfill in [
                BackfillMode::None,
                BackfillMode::Conservative,
                BackfillMode::Easy,
            ] {
                specs.push(AlgorithmSpec::new(PolicyKind::Priority(score), backfill));
            }
        }
        Campaign::new("atlas-smoke").cross(
            &[(
                "atlas-smoke",
                "Atlas smoke slice ",
                WorkloadSpec::ctc(scale),
            )],
            &Self::SMOKE_OBJECTIVES,
            &specs,
            true,
            false,
        )
    }

    /// The preemption smoke: the two time-shared rows (DFRS rotation,
    /// moldable FCFS) against the rigid FCFS and FCFS+EASY baselines,
    /// on one small CTC trace and one probabilistic workload, under
    /// ART and bounded slowdown — 16 cells, seconds of wall-clock.
    /// Exercises the segment engine end-to-end through the sweep
    /// runner (caching off: time-shared rows have no profile cache).
    pub fn preempt_smoke(scale: Scale) -> Campaign {
        let specs = [
            AlgorithmSpec::new(PolicyKind::Fcfs, BackfillMode::None),
            AlgorithmSpec::reference(),
            AlgorithmSpec::new(PolicyKind::Dfrs, BackfillMode::None),
            AlgorithmSpec::new(PolicyKind::Moldable, BackfillMode::None),
        ];
        // Its own probabilistic draw, as long as the CTC trace: not one
        // of the paper's three workloads.
        let prob = WorkloadSpec::Probabilistic {
            base_jobs: scale.ctc_jobs,
            base_seed: scale.seed,
            jobs: scale.ctc_jobs,
            seed: scale.seed ^ 1,
        };
        Campaign::new("preempt-smoke").cross(
            &[
                (
                    "preempt-smoke-ctc",
                    "Preemption smoke, ctc workload ",
                    WorkloadSpec::ctc(scale),
                ),
                (
                    "preempt-smoke-prob",
                    "Preemption smoke, prob workload ",
                    prob,
                ),
            ],
            &Self::SMOKE_OBJECTIVES[..2],
            &specs,
            false,
            false,
        )
    }

    /// Distinct workload specs referenced by this campaign, in
    /// deterministic order.
    pub fn distinct_workloads(&self) -> Vec<WorkloadSpec> {
        let mut set: Vec<WorkloadSpec> = self.cells.iter().map(|c| c.workload).collect();
        set.sort();
        set.dedup();
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scale() -> Scale {
        Scale {
            ctc_jobs: 100,
            synthetic_jobs: 80,
            seed: 42,
        }
    }

    #[test]
    fn full_campaign_has_156_cells() {
        let c = Campaign::paper_tables(
            scale(),
            &["table3", "table4", "table5", "table6", "table7", "table8"],
        );
        assert_eq!(c.tables.len(), 12);
        assert_eq!(c.cells.len(), 12 * 13);
        // Tables 3+7 and 4+8 share workloads; 4 distinct specs total.
        assert_eq!(c.distinct_workloads().len(), 4);
    }

    #[test]
    fn atlas_campaign_covers_the_cross_product() {
        let c = Campaign::atlas(scale());
        assert_eq!(c.tables.len(), 12, "2 workloads × 6 objectives");
        assert_eq!(c.cells.len(), 12 * 43);
        assert!(c.cells.len() >= 100, "the atlas is a mega-sweep");
        assert_eq!(c.distinct_workloads().len(), 2);
        // Every table carries the full atlas matrix, reference included.
        for t in 0..c.tables.len() {
            let specs: Vec<AlgorithmSpec> = c
                .cells
                .iter()
                .filter(|cell| cell.table == t)
                .map(|cell| cell.algorithm)
                .collect();
            assert_eq!(specs, AlgorithmSpec::atlas_matrix());
        }
        // Each objective row's id suffix is the objective's tag.
        for (tag, _, o) in Campaign::ATLAS_OBJECTIVES {
            assert_eq!(o.tag(), tag);
        }
        // All 516 cells own distinct cache keys.
        let keys: std::collections::BTreeSet<String> =
            c.cells.iter().map(|cell| cell.cache_key(1)).collect();
        assert_eq!(keys.len(), c.cells.len());
    }

    #[test]
    fn atlas_smoke_is_a_reduced_slice() {
        let c = Campaign::atlas_smoke(scale());
        assert_eq!(c.cells.len(), 30, "3 objectives × 10 specs");
        assert_eq!(c.distinct_workloads().len(), 1);
        let atlas: std::collections::BTreeSet<String> = Campaign::atlas(scale())
            .cells
            .iter()
            .map(|cell| {
                format!(
                    "{}+{}",
                    policy_tag(cell.algorithm.kind),
                    cell.algorithm.backfill.tag()
                )
            })
            .collect();
        for cell in &c.cells {
            let tag = format!(
                "{}+{}",
                policy_tag(cell.algorithm.kind),
                cell.algorithm.backfill.tag()
            );
            assert!(atlas.contains(&tag), "{tag} must be an atlas combo");
        }
    }

    #[test]
    fn significance_campaign_replicates_across_seeds() {
        let c = Campaign::significance(scale(), 3);
        assert_eq!(c.tables.len(), 3 * 6, "3 seeds × 6 objectives");
        assert_eq!(c.cells.len(), 3 * 6 * 43);
        // One distinct workload per seed; seed 0 is the atlas resample.
        let workloads = c.distinct_workloads();
        assert_eq!(workloads.len(), 3);
        let atlas = Campaign::atlas(scale());
        assert!(atlas.distinct_workloads().contains(&workloads[0]));
        // Replicates of one cell differ ONLY in the workload seed, and
        // their cache keys still separate (the workload content differs,
        // and the seed is hashed explicitly).
        let seeds: std::collections::BTreeSet<u64> =
            c.cells.iter().map(|cell| cell.workload.seed()).collect();
        assert_eq!(seeds.len(), 3);
        let keys: std::collections::BTreeSet<String> =
            c.cells.iter().map(|cell| cell.cache_key(1)).collect();
        assert_eq!(keys.len(), c.cells.len());
    }

    #[test]
    fn replicate_campaign_runs_the_paper_matrix_per_seed() {
        let c = Campaign::replicate(scale(), &[31, 32, 33]);
        assert_eq!(c.tables.len(), 3 * 2, "3 seeds × (unweighted, weighted)");
        assert_eq!(c.cells.len(), 3 * 2 * 13);
        assert_eq!(c.tables[0].id, "replicate-s31-unweighted");
        assert_eq!(c.tables[5].id, "replicate-s33-weighted");
        // One CTC realisation per seed, at the scale's job count.
        assert_eq!(
            c.distinct_workloads(),
            [31, 32, 33].map(|seed| WorkloadSpec::Ctc { jobs: 100, seed })
        );
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn empty_seed_list_rejected() {
        let _ = Campaign::replicate(scale(), &[]);
    }

    #[test]
    fn workloads_have_requested_sizes() {
        let scale = Scale {
            ctc_jobs: 800,
            synthetic_jobs: 500,
            seed: 5,
        };
        let ctc = WorkloadSpec::ctc(scale).generate();
        // retarget() may drop a few >256-node jobs from the CTC trace.
        assert!(ctc.len() >= 790 && ctc.len() <= 800, "{}", ctc.len());
        assert_eq!(ctc.machine_nodes(), 256);
        assert_eq!(WorkloadSpec::ctc_exact(scale).generate().len(), ctc.len());
        assert_eq!(WorkloadSpec::probabilistic(scale).generate().len(), 500);
        assert_eq!(WorkloadSpec::randomized(scale).generate().len(), 500);
        // The three Table 1 workloads draw from three different streams.
        let seeds = [
            WorkloadSpec::ctc(scale),
            WorkloadSpec::probabilistic(scale),
            WorkloadSpec::randomized(scale),
        ]
        .map(|w| w.seed());
        assert_eq!(seeds, [5, 6, 7]);
    }

    #[test]
    fn preempt_smoke_pairs_time_shared_rows_with_rigid_baselines() {
        let c = Campaign::preempt_smoke(scale());
        assert_eq!(c.cells.len(), 16, "2 workloads × 2 objectives × 4 specs");
        assert_eq!(c.distinct_workloads().len(), 2);
        // Every table carries the FCFS+EASY reference (check_clean
        // anchors its Pareto audit there) and both time-shared rows.
        for table in 0..c.tables.len() {
            let kinds: Vec<PolicyKind> = c
                .cells
                .iter()
                .filter(|cell| cell.table == table)
                .map(|cell| cell.algorithm.kind)
                .collect();
            assert!(kinds.contains(&PolicyKind::Fcfs));
            assert!(kinds.contains(&PolicyKind::Dfrs));
            assert!(kinds.contains(&PolicyKind::Moldable));
        }
        let keys: std::collections::BTreeSet<String> =
            c.cells.iter().map(|cell| cell.cache_key(1)).collect();
        assert_eq!(keys.len(), c.cells.len(), "cache keys must not collide");
    }

    #[test]
    fn cache_key_separates_inputs() {
        let c = Campaign::paper_tables(scale(), &["table3"]);
        let keys: std::collections::BTreeSet<String> =
            c.cells.iter().map(|cell| cell.cache_key(7)).collect();
        assert_eq!(keys.len(), c.cells.len(), "13 distinct keys per matrix");
        // Same cell, different workload content → different key.
        assert_ne!(c.cells[0].cache_key(7), c.cells[0].cache_key(8));
    }

    #[test]
    fn table7_shares_workload_but_not_keys_with_table3() {
        let c = Campaign::paper_tables(scale(), &["table3", "table7"]);
        // Same workload spec...
        assert_eq!(c.tables[0].workload, c.tables[2].workload);
        // ...but caching differs, so the cells do not collide in the cache.
        assert_ne!(c.cells[0].cache_key(1), c.cells[2 * 13].cache_key(1));
    }

    #[test]
    fn generated_workloads_match_specs() {
        let w = WorkloadSpec::Randomized { jobs: 50, seed: 9 }.generate();
        assert_eq!(w.len(), 50);
        let e = WorkloadSpec::CtcExact { jobs: 60, seed: 9 }.generate();
        for j in e.jobs() {
            assert_eq!(j.requested_time, j.runtime.max(1));
        }
    }

    #[test]
    fn cell_seeds_are_position_stable() {
        let a = Campaign::paper_tables(scale(), &["table3"]);
        let b = Campaign::paper_tables(scale(), &["table4", "table3"]);
        // table3's cells carry the same derived seeds wherever the table
        // sits in the campaign.
        let a3: Vec<u64> = a.cells.iter().map(|c| c.seed).collect();
        let b3: Vec<u64> = b.cells[2 * 13..].iter().map(|c| c.seed).collect();
        assert_eq!(a3, b3);
    }
}
