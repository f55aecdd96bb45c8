//! The campaign manifest: one JSON document per campaign output
//! directory tying every cached [`RunRecord`]
//! back to the paper table it belongs to.
//!
//! The cache itself is content-addressed and table-agnostic (two tables
//! that need the same run share one entry), so the manifest is where
//! table structure lives: for each table its id, title, workload spec
//! and objective; for each cell the cache key to look its record up
//! under, plus whether this campaign run served it from cache or
//! simulated it fresh.

use crate::grid::{policy_tag, Campaign};
use crate::record::{RunRecord, SCHEMA_VERSION};
use jobsched_json::Json;

/// Build the manifest document for a finished campaign. `records` and
/// `cached` run parallel to `campaign.cells`.
pub fn build_manifest(
    campaign: &Campaign,
    jobs: usize,
    records: &[RunRecord],
    cached: &[bool],
) -> Json {
    assert_eq!(records.len(), campaign.cells.len());
    assert_eq!(cached.len(), campaign.cells.len());

    let tables: Vec<Json> = campaign
        .tables
        .iter()
        .map(|t| {
            Json::obj(vec![
                ("id", Json::Str(t.id.clone())),
                ("title", Json::Str(t.title.clone())),
                ("workload", t.workload.to_json()),
                ("objective", Json::Str(t.objective.tag().into())),
                ("cpu_table", Json::Bool(t.cpu_table)),
            ])
        })
        .collect();

    let cells: Vec<Json> = campaign
        .cells
        .iter()
        .zip(records.iter().zip(cached))
        .map(|(cell, (record, &was_cached))| {
            Json::obj(vec![
                ("table", Json::Str(campaign.tables[cell.table].id.clone())),
                (
                    "algorithm",
                    Json::Str(policy_tag(cell.algorithm.kind).into()),
                ),
                ("backfill", Json::Str(cell.algorithm.backfill.tag().into())),
                ("objective", Json::Str(cell.objective.tag().into())),
                ("caching", Json::Bool(cell.caching)),
                ("seed", Json::UInt(cell.seed)),
                ("key", Json::Str(record.key.clone())),
                (
                    "workload_fingerprint",
                    Json::Str(record.workload_fingerprint.clone()),
                ),
                ("cached", Json::Bool(was_cached)),
            ])
        })
        .collect();

    let simulated = cached.iter().filter(|&&c| !c).count();
    Json::obj(vec![
        ("schema", Json::UInt(SCHEMA_VERSION as u64)),
        ("campaign", Json::Str(campaign.name.clone())),
        ("jobs", Json::UInt(jobs as u64)),
        ("tables", Json::Arr(tables)),
        ("cells", Json::Arr(cells)),
        (
            "totals",
            Json::obj(vec![
                ("cells", Json::UInt(campaign.cells.len() as u64)),
                ("simulated", Json::UInt(simulated as u64)),
                ("cached", Json::UInt((cached.len() - simulated) as u64)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use jobsched_core::experiment::{EngineCounts, EvalCell, Scale};
    use std::time::Duration;

    #[test]
    fn manifest_ties_cells_to_tables() {
        let scale = Scale {
            ctc_jobs: 50,
            synthetic_jobs: 40,
            seed: 5,
        };
        let c = Campaign::paper_tables(scale, &["table3"]);
        let records: Vec<RunRecord> = c
            .cells
            .iter()
            .map(|cell| {
                let eval = EvalCell::from_parts(
                    cell.algorithm,
                    1.0,
                    Duration::ZERO,
                    10,
                    0.5,
                    EngineCounts::default(),
                );
                RunRecord::from_cell(
                    cell,
                    cell.cache_key(9),
                    "w",
                    9,
                    50,
                    430,
                    &eval,
                    Duration::ZERO,
                )
            })
            .collect();
        let mut cached = vec![false; c.cells.len()];
        cached[0] = true;

        let m = build_manifest(&c, 4, &records, &cached);
        assert_eq!(m.get("campaign").unwrap().as_str(), Some("paper-tables"));
        assert_eq!(m.get("jobs").unwrap().as_u64(), Some(4));
        let tables = m.get("tables").unwrap().as_arr().unwrap();
        assert_eq!(tables.len(), 2);
        assert_eq!(
            tables[0].get("id").unwrap().as_str(),
            Some("table3-unweighted")
        );
        let cells = m.get("cells").unwrap().as_arr().unwrap();
        assert_eq!(cells.len(), 26);
        // First 13 cells belong to the unweighted table, rest weighted.
        assert_eq!(
            cells[0].get("table").unwrap().as_str(),
            Some("table3-unweighted")
        );
        assert_eq!(
            cells[13].get("table").unwrap().as_str(),
            Some("table3-weighted")
        );
        assert_eq!(cells[0].get("cached").unwrap().as_bool(), Some(true));
        assert_eq!(cells[1].get("cached").unwrap().as_bool(), Some(false));
        assert_eq!(
            cells[0].get("key").unwrap().as_str(),
            Some(records[0].key.as_str())
        );
        let totals = m.get("totals").unwrap();
        assert_eq!(totals.get("cells").unwrap().as_u64(), Some(26));
        assert_eq!(totals.get("simulated").unwrap().as_u64(), Some(25));
        assert_eq!(totals.get("cached").unwrap().as_u64(), Some(1));
    }
}
