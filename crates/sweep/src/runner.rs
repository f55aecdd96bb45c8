//! The campaign runner: materialise workloads, resolve cells against the
//! result cache, simulate each missing schedule once on the worker pool,
//! and assemble the paper tables from the records.

use crate::cache::ResultCache;
use crate::grid::{Campaign, WorkloadSpec};
use crate::hash::workload_fingerprint;
use crate::manifest::build_manifest;
use crate::pool;
use crate::progress::Progress;
use crate::record::RunRecord;
use jobsched_algos::{AlgorithmSpec, OrderPolicy};
use jobsched_core::experiment::{assemble_table, run_cells, schedule_policy, EvalTable};
use jobsched_core::objective_select::ObjectiveKind;
use jobsched_workload::Workload;
use std::io;
use std::path::PathBuf;
use std::time::Instant;

/// Execution options of one campaign run.
#[derive(Clone, Debug)]
pub struct SweepOptions {
    /// Worker threads (1 = inline serial execution).
    pub jobs: usize,
    /// Output directory for the result cache and manifest; `None` keeps
    /// everything in memory.
    pub out: Option<PathBuf>,
    /// Serve cells from the cache instead of re-simulating. (Writes to
    /// the cache happen whenever `out` is set, independent of this.)
    pub resume: bool,
    /// Emit progress lines and the closing simulated/cached summary on
    /// stderr.
    pub progress: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            jobs: 1,
            out: None,
            resume: false,
            progress: false,
        }
    }
}

/// What decides a cell's schedule: the workload, the spec, the cache
/// toggle and the scheduler the objective builds ([`schedule_policy`]).
type ScheduleKey = (WorkloadSpec, AlgorithmSpec, bool, Option<OrderPolicy>);

/// Everything a finished campaign produced.
#[derive(Clone, Debug)]
pub struct CampaignOutcome {
    /// One record per campaign cell, in cell-definition order —
    /// independent of `jobs` and of cache state.
    pub records: Vec<RunRecord>,
    /// Assembled tables, parallel to `Campaign::tables`.
    pub tables: Vec<EvalTable>,
    /// Number of cells computed this run, as opposed to served from the
    /// cache.
    pub simulated: usize,
    /// Number of pipeline runs that computed them: cells that differ
    /// only in an objective that builds the same scheduler share one.
    pub simulations: usize,
    /// Number of cells served from the result cache.
    pub cached: usize,
}

/// Run a campaign.
///
/// Flow: each distinct [`WorkloadSpec`] is generated exactly once and
/// fingerprinted; every cell gets its content-addressed cache key; with
/// `resume`, keyed hits are served from disk and only the misses are
/// computed. The misses are grouped by schedule, and each group is one
/// simulation: cells that differ only in the objective share a run when
/// the objective builds the same scheduler ([`schedule_policy`]), and
/// [`run_cells`] folds every objective of the group from that run's
/// event stream. So the six objectives of an atlas row cost one
/// simulation, or two for the PSRS and SMART rows, whose AWRT cells
/// order by projected area. The grouping is exact by construction: the
/// members run the same input through the same scheduler value, and the
/// objective accumulators are passive observers. A half-cached group
/// simulates once for the cells it still needs; every cell keeps its own
/// record and cache key.
///
/// The groups are distributed over [`pool::run_indexed`], so the spread
/// of runtimes (Tables 7–8 cells are orders of magnitude slower than
/// FCFS ones) is load-balanced: a free worker takes the next unclaimed
/// group. Records land in the cache as they are produced; tables and the
/// manifest are assembled at the end from the full record list.
///
/// Determinism: cell seeds are derived from grid position, records are
/// reassembled in cell order, and timing metadata is excluded from the
/// records' canonical form — so the deterministic payloads of the
/// outcome are identical for any `jobs` value.
pub fn run_campaign(campaign: &Campaign, opts: &SweepOptions) -> io::Result<CampaignOutcome> {
    let t0 = Instant::now();
    // Materialise each distinct workload once; cells share them by ref.
    let specs = campaign.distinct_workloads();
    let materialised: Vec<(Workload, u64)> = specs
        .iter()
        .map(|s| {
            let w = s.generate();
            let fp = workload_fingerprint(&w);
            (w, fp)
        })
        .collect();
    let lookup = |spec: WorkloadSpec| -> &(Workload, u64) {
        let i = specs
            .binary_search(&spec)
            .expect("every cell workload is materialised");
        &materialised[i]
    };

    let cache = match &opts.out {
        Some(dir) => Some(ResultCache::open(dir)?),
        None => None,
    };

    // Resolve every cell: cache hit (resume only) or pending simulation.
    let n = campaign.cells.len();
    let mut slots: Vec<Option<RunRecord>> = Vec::with_capacity(n);
    let mut keys: Vec<String> = Vec::with_capacity(n);
    let mut from_cache: Vec<bool> = Vec::with_capacity(n);
    let mut pending: Vec<usize> = Vec::new();
    for (i, cell) in campaign.cells.iter().enumerate() {
        let &(_, fp) = lookup(cell.workload);
        let key = cell.cache_key(fp);
        let hit = if opts.resume {
            cache.as_ref().and_then(|c| c.get(&key))
        } else {
            None
        };
        from_cache.push(hit.is_some());
        if hit.is_none() {
            pending.push(i);
        }
        slots.push(hit);
        keys.push(key);
    }

    // Group the misses by schedule, in first-appearance order. The
    // search is linear because `OrderPolicy` carries an `f64` and has no
    // `Hash`; next to one simulation it is noise.
    let mut groups: Vec<(ScheduleKey, Vec<usize>)> = Vec::new();
    for &i in &pending {
        let cell = &campaign.cells[i];
        let key = (
            cell.workload,
            cell.algorithm,
            cell.caching,
            schedule_policy(cell.algorithm, cell.objective),
        );
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(i),
            None => groups.push((key, vec![i])),
        }
    }
    let simulations = groups.len();

    // Simulate each group once; every member gets its own record.
    let progress = Progress::new(&campaign.name, pending.len(), opts.progress);
    let results: Vec<io::Result<Vec<(usize, RunRecord)>>> = pool::run_indexed(
        opts.jobs,
        groups,
        |_, ((workload, algorithm, caching, _), members)| {
            let (workload, fp) = lookup(workload);
            let objectives: Vec<ObjectiveKind> = members
                .iter()
                .map(|&i| campaign.cells[i].objective)
                .collect();
            let start = Instant::now();
            let evals = run_cells(workload, &objectives, algorithm, caching);
            // Σ wall_ns over the group stays the run's wall.
            let wall = start.elapsed() / members.len() as u32;
            members
                .into_iter()
                .zip(&evals)
                .map(|(idx, eval)| {
                    let record = RunRecord::from_cell(
                        &campaign.cells[idx],
                        keys[idx].clone(),
                        workload.name(),
                        *fp,
                        workload.len() as u64,
                        workload.machine_nodes(),
                        eval,
                        wall,
                    );
                    if let Some(c) = &cache {
                        c.put(&record)?;
                    }
                    progress.tick();
                    Ok((idx, record))
                })
                .collect()
        },
    );
    let simulated = pending.len();
    for result in results {
        for (idx, record) in result? {
            slots[idx] = Some(record);
        }
    }
    let records: Vec<RunRecord> = slots
        .into_iter()
        .map(|s| s.expect("every cell resolved"))
        .collect();

    // Assemble tables from records (cells are in paper_matrix order
    // within each table by construction).
    let tables: Vec<EvalTable> = campaign
        .tables
        .iter()
        .enumerate()
        .map(|(t, def)| {
            let cells = campaign
                .cells
                .iter()
                .zip(&records)
                .filter(|(c, _)| c.table == t)
                .map(|(_, r)| r.to_cell())
                .collect();
            let workload_name = lookup(def.workload).0.name().to_string();
            assemble_table(&def.title, &workload_name, def.objective, cells)
        })
        .collect();

    if let Some(dir) = &opts.out {
        let manifest = build_manifest(campaign, opts.jobs, &records, &from_cache);
        let path = dir.join("manifest.json");
        let tmp = dir.join(".manifest.json.tmp");
        std::fs::write(&tmp, manifest.to_string_pretty())?;
        std::fs::rename(&tmp, &path)?;
    }

    if opts.progress {
        eprintln!(
            "[{}: {n} cells ({simulated} computed in {simulations} simulations, {} cached) in {:.1?} on {} worker(s)]",
            campaign.name,
            n - simulated,
            t0.elapsed(),
            opts.jobs
        );
    }
    Ok(CampaignOutcome {
        records,
        tables,
        simulated,
        simulations,
        cached: n - simulated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jobsched_core::experiment::Scale;
    use jobsched_json::parse;
    use std::path::Path;

    fn scale() -> Scale {
        Scale {
            ctc_jobs: 120,
            synthetic_jobs: 0,
            seed: 11,
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("jobsched-runner-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn in_memory_campaign_produces_tables() {
        let c = Campaign::paper_tables(scale(), &["table3"]);
        let out = run_campaign(&c, &SweepOptions::default()).unwrap();
        assert_eq!(out.records.len(), 26);
        assert_eq!(out.tables.len(), 2);
        assert_eq!(out.simulated, 26);
        // FCFS and Garey & Graham take no weight scheme: their ART and
        // AWRT cells share one schedule (4 rows), the other 9 rows don't.
        assert_eq!(out.simulations, 13 + 9);
        assert_eq!(out.cached, 0);
        for t in &out.tables {
            assert_eq!(t.cells.len(), 13);
            // pct normalisation happened against the reference cell.
            assert!(t.cells.iter().any(|cell| cell.pct == 0.0));
        }
    }

    #[test]
    fn resume_serves_everything_from_cache() {
        let dir = tmpdir("resume");
        let c = Campaign::paper_tables(scale(), &["table3"]);
        let first = run_campaign(
            &c,
            &SweepOptions {
                out: Some(dir.clone()),
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert_eq!(first.simulated, 26);
        assert!(Path::new(&dir.join("manifest.json")).exists());

        let second = run_campaign(
            &c,
            &SweepOptions {
                out: Some(dir.clone()),
                resume: true,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            second.simulated, 0,
            "second --resume run re-simulates nothing"
        );
        assert_eq!(second.simulations, 0);
        assert_eq!(second.cached, 26);
        for (a, b) in first.records.iter().zip(&second.records) {
            assert!(a.deterministically_eq(b));
        }

        // Manifest reflects the cached run.
        let manifest = parse(&std::fs::read_to_string(dir.join("manifest.json")).unwrap()).unwrap();
        let totals = manifest.get("totals").unwrap();
        assert_eq!(totals.get("cached").unwrap().as_u64(), Some(26));
        assert_eq!(totals.get("simulated").unwrap().as_u64(), Some(0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn without_resume_cache_is_write_only() {
        let dir = tmpdir("no-resume");
        let c = Campaign::paper_tables(scale(), &["table3"]);
        let opts = SweepOptions {
            out: Some(dir.clone()),
            ..SweepOptions::default()
        };
        run_campaign(&c, &opts).unwrap();
        let again = run_campaign(&c, &opts).unwrap();
        assert_eq!(again.simulated, 26, "no --resume → full re-simulation");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
