//! Sharing a simulation between cells is invisible in the records:
//! `run_campaign` simulates each distinct schedule once, and every record
//! it writes equals the one a lone `run_cell` of that cell produces.

use jobsched_algos::spec::PolicyKind;
use jobsched_algos::view::WeightScheme;
use jobsched_algos::{AlgorithmSpec, BackfillMode, ScoreFn};
use jobsched_core::experiment::{run_cell, Scale};
use jobsched_sweep::hash::workload_fingerprint;
use jobsched_sweep::{
    run_campaign, Campaign, CampaignOutcome, ResultCache, RunRecord, SweepOptions, WorkloadSpec,
};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn scale() -> Scale {
    Scale {
        ctc_jobs: 300,
        synthetic_jobs: 200,
        seed: 1999,
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "jobsched-shared-schedule-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// FCFS, PSRS, SMART-NFIW and a scoring row under all six objectives on
/// two workloads, plus one row repeated in a second table.
fn hand_built() -> Campaign {
    let specs = [
        AlgorithmSpec::reference(),
        AlgorithmSpec::new(PolicyKind::Psrs, BackfillMode::Conservative),
        AlgorithmSpec::new(PolicyKind::SmartNfiw, BackfillMode::None),
        AlgorithmSpec::new(PolicyKind::Priority(ScoreFn::Wfp3), BackfillMode::Easy),
    ];
    let mut c = Campaign::new("shared-schedule");
    for workload in [
        WorkloadSpec::ctc(scale()),
        WorkloadSpec::randomized(scale()),
    ] {
        for (tag, title, objective) in Campaign::ATLAS_OBJECTIVES {
            let id = format!("{}-{tag}", workload.kind());
            c.push_specs(id, title, workload, objective, true, false, &specs);
        }
    }
    c.push_specs(
        "repeat",
        "the PSRS row again",
        WorkloadSpec::ctc(scale()),
        Campaign::ATLAS_OBJECTIVES[1].2,
        true,
        false,
        &specs[1..2],
    );
    c
}

/// The campaigns the sharing must be invisible in.
fn campaigns() -> Vec<Campaign> {
    vec![
        Campaign::atlas_smoke(scale()),
        Campaign::preempt_smoke(scale()),
        // Caching on (Table 3) and off (Table 7) for the same rows.
        Campaign::paper_tables(scale(), &["table3", "table7"]),
        hand_built(),
    ]
}

/// Every cell's record as a lone `run_cell` builds it.
fn lone_records(campaign: &Campaign) -> Vec<RunRecord> {
    campaign
        .cells
        .iter()
        .map(|cell| {
            let w = cell.workload.generate();
            let fp = workload_fingerprint(&w);
            let eval = run_cell(&w, cell.objective, cell.algorithm, cell.caching);
            RunRecord::from_cell(
                cell,
                cell.cache_key(fp),
                w.name(),
                fp,
                w.len() as u64,
                w.machine_nodes(),
                &eval,
                std::time::Duration::ZERO,
            )
        })
        .collect()
}

/// Distinct (workload, built scheduler, caching) values over `cells`:
/// the scheduler a rigid row builds under its objective's weight
/// scheme, the row itself for a time-shared one.
fn distinct_schedules<'a>(cells: impl Iterator<Item = &'a jobsched_sweep::CellSpec>) -> usize {
    cells
        .map(|cell| {
            let spec = cell.algorithm;
            let built = if spec.kind.time_shared() {
                format!("{:?}", spec.kind)
            } else {
                let scheme = if cell.objective.weighted() {
                    WeightScheme::ProjectedArea
                } else {
                    WeightScheme::Unweighted
                };
                format!("{:?} {:?}", spec.kind.policy(scheme), spec.backfill)
            };
            (cell.workload, built, cell.caching)
        })
        .collect::<BTreeSet<_>>()
        .len()
}

fn assert_same(campaign: &Campaign, got: &CampaignOutcome, want: &[RunRecord]) {
    assert_eq!(got.records.len(), want.len());
    for ((cell, g), w) in campaign.cells.iter().zip(&got.records).zip(want) {
        assert!(
            g.deterministically_eq(w),
            "{}: {} under {:?} differs from its lone run\n{}\n{}",
            campaign.tables[cell.table].id,
            cell.algorithm.name(),
            cell.objective,
            g.canonical_json(),
            w.canonical_json()
        );
    }
}

#[test]
fn sharing_equals_one_simulation_per_cell() {
    for campaign in campaigns() {
        let want = lone_records(&campaign);
        let schedules = distinct_schedules(campaign.cells.iter());
        assert!(schedules < campaign.cells.len(), "{}", campaign.name);
        for jobs in [1, 2] {
            let opts = SweepOptions {
                jobs,
                ..SweepOptions::default()
            };
            let got = run_campaign(&campaign, &opts).unwrap();
            assert_same(&campaign, &got, &want);
            assert_eq!(got.simulated, campaign.cells.len());
            assert_eq!(got.cached, 0);
            assert_eq!(got.simulations, schedules, "{} at {jobs}", campaign.name);
        }
    }
}

#[test]
fn the_presets_share_as_counted() {
    let count = |c: Campaign| {
        let n = c.cells.len();
        (n, distinct_schedules(c.cells.iter()))
    };
    // 43 rows × 2 workloads × 6 objectives; PSRS and the SMART pair (9
    // rows) also build a weighted scheduler for AWRT.
    assert_eq!(count(Campaign::atlas(scale())), (516, 2 * (43 + 9)));
    assert_eq!(count(Campaign::preempt_smoke(scale())), (16, 8));
    assert_eq!(count(Campaign::significance(scale(), 5)), (1290, 260));
    assert_eq!(count(hand_built()), (49, 12));
}

#[test]
fn resume_recomputes_only_the_missing_cells_of_half_cached_groups() {
    let campaign = hand_built();
    let want = lone_records(&campaign);
    let dir = tmpdir("resume");
    let opts = SweepOptions {
        jobs: 2,
        out: Some(dir.clone()),
        ..SweepOptions::default()
    };
    let first = run_campaign(&campaign, &opts).unwrap();
    assert_same(&campaign, &first, &want);

    // One cell's file from each of three groups — FCFS+EASY under AWRT
    // (its group spans all six objectives), PSRS under bounded slowdown
    // (the unweighted PSRS group), the scoring row under ART on the
    // randomized workload — and two from a fourth, the unweighted
    // SMART-NFIW group, which then computes both from one run.
    let pick = |kind: PolicyKind, table: &str| {
        campaign
            .cells
            .iter()
            .position(|c| c.algorithm.kind == kind && campaign.tables[c.table].id == table)
            .unwrap()
    };
    let gone = [
        pick(PolicyKind::Fcfs, "ctc-awrt"),
        pick(PolicyKind::Psrs, "ctc-bsld"),
        pick(PolicyKind::Priority(ScoreFn::Wfp3), "randomized-art"),
        pick(PolicyKind::SmartNfiw, "ctc-art"),
        pick(PolicyKind::SmartNfiw, "ctc-fair-var"),
    ];
    let cache = ResultCache::open(&dir).unwrap();
    for &i in &gone {
        std::fs::remove_file(cache.entry_path(&first.records[i].key)).unwrap();
    }

    let second = run_campaign(
        &campaign,
        &SweepOptions {
            resume: true,
            ..opts
        },
    )
    .unwrap();
    assert_same(&campaign, &second, &want);
    assert_eq!(second.simulated, gone.len());
    assert_eq!(second.simulations, 4);
    assert_eq!(second.cached, campaign.cells.len() - gone.len());
    for &i in &gone {
        assert!(cache.entry_path(&first.records[i].key).is_file());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
