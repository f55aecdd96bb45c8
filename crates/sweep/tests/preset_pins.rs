//! Pins of the campaign presets: what each one *describes* must not
//! move when the way it is written down does.
//!
//! A digest covers, per preset at `Scale::quick()`: the campaign name,
//! every table's id, title, workload description, objective and
//! `cpu_table` flag, and every cell's table index, cache key (over the
//! real fingerprint of its generated workload, so the seed recipe is
//! pinned by content) and derived seed. The five digests below were
//! generated at the commit before the presets became data tables over
//! one cross-product builder and are asserted unchanged since.
//!
//! `Campaign::replicate` is pinned differently: its tables must equal
//! the serial `evaluate_matrix` over `prepared_ctc_workload(jobs, seed)`
//! cell for cell — the loop `repro replicate` used to run itself.

use jobsched_core::experiment::{evaluate_matrix, Scale};
use jobsched_core::objective_select::ObjectiveKind;
use jobsched_sweep::grid::objective_tag;
use jobsched_sweep::hash::{workload_fingerprint, StableHasher};
use jobsched_sweep::{run_campaign, Campaign, SweepOptions};
use jobsched_workload::ctc::prepared_ctc_workload;

fn digest(c: &Campaign) -> String {
    let fingerprints: Vec<_> = c
        .distinct_workloads()
        .into_iter()
        .map(|w| (w, workload_fingerprint(&w.generate())))
        .collect();
    let fingerprint = |w| {
        fingerprints
            .iter()
            .find(|(spec, _)| *spec == w)
            .expect("cell workloads are a subset of distinct_workloads")
            .1
    };
    let mut h = StableHasher::new();
    h.write_str(&c.name).write_u64(c.tables.len() as u64);
    for t in &c.tables {
        h.write_str(&t.id)
            .write_str(&t.title)
            .write_str(&t.workload.to_json().to_string_compact())
            .write_str(objective_tag(t.objective))
            .write_u64(t.cpu_table as u64);
    }
    h.write_u64(c.cells.len() as u64);
    for cell in &c.cells {
        h.write_u64(cell.table as u64)
            .write_str(&cell.cache_key(fingerprint(cell.workload)))
            .write_u64(cell.seed);
    }
    h.finish_hex()
}

#[test]
fn preset_digests_are_unchanged() {
    let scale = Scale::quick();
    let all_tables = ["table3", "table4", "table5", "table6", "table7", "table8"];
    // Out of order and partial: table order follows `wanted`.
    let some_tables = ["table8", "table5"];
    for (what, campaign, pinned) in [
        (
            "paper_tables(all)",
            Campaign::paper_tables(scale, &all_tables),
            "3db7373c05574ed1",
        ),
        (
            "paper_tables(table8, table5)",
            Campaign::paper_tables(scale, &some_tables),
            "762934e181b84d8d",
        ),
        ("atlas", Campaign::atlas(scale), "ae54f5545445a426"),
        (
            "significance(3)",
            Campaign::significance(scale, 3),
            "8cbe9bf917a49dd1",
        ),
        (
            "atlas_smoke",
            Campaign::atlas_smoke(scale),
            "28c4932d0b1cae81",
        ),
        (
            "preempt_smoke",
            Campaign::preempt_smoke(scale),
            "a5cacfacde48e809",
        ),
    ] {
        assert_eq!(digest(&campaign), pinned, "{what}");
    }
}

#[test]
fn replicate_tables_equal_the_serial_matrix() {
    let scale = Scale {
        ctc_jobs: 300,
        synthetic_jobs: 0,
        seed: 1999,
    };
    let seeds = [31, 32];
    let campaign = Campaign::replicate(scale, &seeds);
    let out = run_campaign(&campaign, &SweepOptions::default()).unwrap();
    assert_eq!(out.tables.len(), 2 * seeds.len());
    // Seed-major, (unweighted, weighted)-minor.
    let mut tables = out.tables.iter();
    for seed in seeds {
        let w = prepared_ctc_workload(scale.ctc_jobs, seed);
        for objective in [
            ObjectiveKind::AvgResponseTime,
            ObjectiveKind::AvgWeightedResponseTime,
        ] {
            let serial = evaluate_matrix(&w, objective, "serial");
            let swept = tables.next().unwrap();
            assert_eq!(swept.objective, objective);
            assert_eq!(swept.cells.len(), serial.cells.len());
            for (a, b) in swept.cells.iter().zip(&serial.cells) {
                assert_eq!(a.spec(), b.spec());
                assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "{}", a.spec().name());
                assert_eq!(a.pct.to_bits(), b.pct.to_bits(), "{}", a.spec().name());
            }
        }
    }
}
