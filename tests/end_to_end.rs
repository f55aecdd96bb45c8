//! Cross-crate integration: workload generation → simulation → metrics →
//! experiment harness, with the paper's qualitative orderings asserted at
//! a reduced scale.

use jobsched::algos::spec::PolicyKind;
use jobsched::algos::view::WeightScheme;
use jobsched::algos::{AlgorithmSpec, BackfillMode};
use jobsched::core::experiment::{evaluate_matrix, Scale};
use jobsched::core::objective_select::ObjectiveKind;
use jobsched::sim::simulate;
use jobsched::workload::ctc::prepared_ctc_workload;
use jobsched_sweep::{run_campaign, Campaign, SweepOptions};

fn cell(table: &jobsched::core::EvalTable, kind: PolicyKind, mode: BackfillMode) -> f64 {
    table
        .cell(AlgorithmSpec::new(kind, mode))
        .expect("cell")
        .cost
}

#[test]
fn every_matrix_algorithm_yields_a_valid_complete_schedule() {
    let w = prepared_ctc_workload(700, 1999);
    for spec in AlgorithmSpec::paper_matrix() {
        for scheme in [WeightScheme::Unweighted, WeightScheme::ProjectedArea] {
            let mut sched = spec.build(scheme);
            let out = simulate(&w, &mut sched);
            assert_eq!(out.schedule.completion_ratio(), 1.0, "{}", spec.name());
            assert!(
                out.schedule.validate(&w).is_empty(),
                "schedule violations from {}",
                spec.name()
            );
        }
    }
}

#[test]
fn every_policy_mode_workload_combination_validates_cleanly() {
    // The §2 validity audit over the full cross product: every ordering
    // policy × every backfill mode × every workload family (trace-derived
    // CTC, probabilistic model, §6.3 randomized stress). Zero
    // `ScheduleViolation`s and full completion everywhere — exercised on
    // the default incremental availability profile, so any drift between
    // the live calendar and real machine capacity surfaces here.
    let ctc = prepared_ctc_workload(400, 1999);
    let workloads = [
        jobsched::workload::probabilistic::probabilistic_workload(&ctc, 300, 2000),
        jobsched::workload::randomized::randomized_workload(300, 42),
        ctc,
    ];
    for w in &workloads {
        for kind in PolicyKind::ALL {
            for mode in [
                BackfillMode::None,
                BackfillMode::Conservative,
                BackfillMode::Easy,
            ] {
                let spec = AlgorithmSpec::new(kind, mode);
                let mut sched = spec.build(WeightScheme::Unweighted);
                let out = simulate(w, &mut sched);
                assert_eq!(
                    out.schedule.completion_ratio(),
                    1.0,
                    "{} on {}",
                    spec.name(),
                    w.name()
                );
                let violations = out.schedule.validate(w);
                assert!(
                    violations.is_empty(),
                    "{} on {}: {violations:?}",
                    spec.name(),
                    w.name()
                );
            }
        }
    }
}

#[test]
fn simulations_are_deterministic() {
    let w = prepared_ctc_workload(400, 7);
    let spec = AlgorithmSpec::new(PolicyKind::SmartFfia, BackfillMode::Easy);
    let a = simulate(&w, &mut spec.build(WeightScheme::Unweighted));
    let b = simulate(&w, &mut spec.build(WeightScheme::Unweighted));
    for j in w.jobs() {
        assert_eq!(a.schedule.placement(j.id), b.schedule.placement(j.id));
    }
}

#[test]
fn unweighted_shape_fcfs_worst_and_backfill_helps() {
    // The paper's headline qualitative results (Table 3, unweighted):
    // plain FCFS is worst by a wide margin; every algorithm beats it;
    // backfilling improves PSRS and SMART substantially.
    let w = prepared_ctc_workload(1_500, 1999);
    let t = evaluate_matrix(&w, ObjectiveKind::AvgResponseTime, "shape");
    let fcfs_plain = cell(&t, PolicyKind::Fcfs, BackfillMode::None);
    for spec in AlgorithmSpec::paper_matrix() {
        if spec.backfill != BackfillMode::None || spec.kind != PolicyKind::Fcfs {
            let c = t.cell(spec).unwrap().cost;
            assert!(
                c < fcfs_plain,
                "{} ({c:.3e}) should beat plain FCFS ({fcfs_plain:.3e})",
                spec.name()
            );
        }
    }
    for kind in [
        PolicyKind::Psrs,
        PolicyKind::SmartFfia,
        PolicyKind::SmartNfiw,
    ] {
        let plain = cell(&t, kind, BackfillMode::None);
        let easy = cell(&t, kind, BackfillMode::Easy);
        let cons = cell(&t, kind, BackfillMode::Conservative);
        assert!(easy < plain, "{kind:?}: EASY must improve the plain list");
        assert!(
            cons < plain,
            "{kind:?}: conservative must improve the plain list"
        );
    }
}

#[test]
fn weighted_shape_garey_graham_wins() {
    // Table 3, weighted: the classical list scheduler clearly outperforms
    // the other algorithms, and PSRS/SMART do not beat FCFS+EASY by much.
    let w = prepared_ctc_workload(1_500, 1999);
    let t = evaluate_matrix(&w, ObjectiveKind::AvgWeightedResponseTime, "shape");
    let gg = cell(&t, PolicyKind::GareyGraham, BackfillMode::None);
    let reference = t.reference_cost();
    assert!(
        gg < reference,
        "G&G ({gg:.3e}) must beat FCFS+EASY ({reference:.3e})"
    );
    for kind in [
        PolicyKind::Psrs,
        PolicyKind::SmartFfia,
        PolicyKind::SmartNfiw,
    ] {
        for mode in [BackfillMode::Conservative, BackfillMode::Easy] {
            let c = cell(&t, kind, mode);
            assert!(
                c > gg,
                "{kind:?}+{mode:?} ({c:.3e}) should not beat G&G ({gg:.3e})"
            );
        }
    }
}

#[test]
fn exact_estimates_improve_dynamic_algorithms() {
    // Table 6 vs Table 3: with exact runtimes, SMART's unweighted results
    // improve (the paper reports nearly 2×).
    let scale = Scale {
        ctc_jobs: 1_200,
        synthetic_jobs: 400,
        seed: 1999,
    };
    let campaign = Campaign::paper_tables(scale, &["table3", "table6"]);
    let out = run_campaign(&campaign, &SweepOptions::default()).unwrap();
    // Table order follows `wanted`; each table is an (unweighted,
    // weighted) pair.
    let (estimated, exact) = (&out.tables[0], &out.tables[2]);
    for kind in [
        PolicyKind::SmartFfia,
        PolicyKind::SmartNfiw,
        PolicyKind::Psrs,
    ] {
        let est = cell(estimated, kind, BackfillMode::Easy);
        let exa = cell(exact, kind, BackfillMode::Easy);
        assert!(
            exa < est,
            "{kind:?}: exact runtimes should improve EASY ({exa:.3e} vs {est:.3e})"
        );
    }
}

#[test]
fn fcfs_plain_is_insensitive_to_estimates() {
    // FCFS without backfilling never looks at estimates: the schedule must
    // be identical under Table 3 and Table 6 conditions.
    let w = prepared_ctc_workload(600, 3);
    let exact = jobsched::workload::exact::with_exact_estimates(&w);
    let spec = AlgorithmSpec::new(PolicyKind::Fcfs, BackfillMode::None);
    let a = simulate(&w, &mut spec.build(WeightScheme::Unweighted));
    let b = simulate(&exact, &mut spec.build(WeightScheme::Unweighted));
    for j in w.jobs() {
        assert_eq!(
            a.schedule.placement(j.id),
            b.schedule.placement(j.id),
            "FCFS placement changed with estimate quality"
        );
    }
}

#[test]
fn table_pairs_cover_all_paper_tables() {
    let scale = Scale {
        ctc_jobs: 350,
        synthetic_jobs: 250,
        seed: 5,
    };
    let ids = ["table3", "table4", "table5", "table6", "table7", "table8"];
    let campaign = Campaign::paper_tables(scale, &ids);
    let out = run_campaign(&campaign, &SweepOptions::default()).unwrap();
    assert_eq!(out.tables.len(), 2 * ids.len());
    for ((defs, pair), id) in campaign.tables.chunks(2).zip(out.tables.chunks(2)).zip(ids) {
        assert_eq!(defs[0].id, format!("{id}-unweighted"));
        assert_eq!(defs[1].id, format!("{id}-weighted"));
        assert_eq!(pair[0].cells.len(), 13, "{id}");
        assert_eq!(pair[1].cells.len(), 13, "{id}");
        assert_eq!(pair[0].objective, ObjectiveKind::AvgResponseTime);
        assert_eq!(pair[1].objective, ObjectiveKind::AvgWeightedResponseTime);
    }
}

#[test]
fn makespan_never_below_lower_bound() {
    let w = prepared_ctc_workload(500, 11);
    let lb = w.makespan_lower_bound();
    for spec in AlgorithmSpec::paper_matrix() {
        let mut sched = spec.build(WeightScheme::Unweighted);
        let out = simulate(&w, &mut sched);
        assert!(
            out.schedule.makespan() as f64 >= lb - 1.0,
            "{}: makespan {} below bound {lb}",
            spec.name(),
            out.schedule.makespan()
        );
    }
}
