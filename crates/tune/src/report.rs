//! Rendering the tune subsystem's artifacts: the `bench-tune/1` JSON
//! document (`BENCH_tune.json`) and the `TUNE.md` markdown report.
//!
//! Like the atlas renderer in `jobsched-sweep`, everything here is a
//! pure function of the computed results — same fit, same significance
//! aggregate, same demo outcome ⇒ bit-identical artifacts.

use crate::controller::Switch;
use crate::demo::DemoOutcome;
use crate::fit::Fit;
use crate::significance::Significance;
use jobsched_core::experiment::Scale;
use jobsched_core::objective_select::ObjectiveKind;
use jobsched_json::Json;

/// Schema tag of the JSON artifact (documented in `EXPERIMENTS.md`).
pub const TUNE_SCHEMA: &str = "bench-tune/1";

fn tags_json(objectives: &[ObjectiveKind]) -> Json {
    Json::Arr(
        objectives
            .iter()
            .map(|o| Json::Str(o.tag().into()))
            .collect(),
    )
}

fn fit_json(fit: &Fit) -> Json {
    let groups: Vec<Json> = fit
        .groups
        .iter()
        .map(|g| {
            let inseparable: Vec<Json> = g
                .inseparable
                .iter()
                .map(|&(i, j)| {
                    Json::obj([
                        ("better", Json::UInt(i as u64)),
                        ("worse", Json::UInt(j as u64)),
                    ])
                })
                .collect();
            Json::obj([
                ("workload", Json::Str(g.workload.clone())),
                (
                    "order",
                    Json::Arr(g.order.iter().map(|&i| Json::UInt(i as u64)).collect()),
                ),
                ("inseparable", Json::Arr(inseparable)),
            ])
        })
        .collect();
    Json::obj([
        ("objectives", tags_json(&fit.objectives)),
        (
            "weights",
            Json::Arr(fit.weights.iter().map(|&w| Json::Num(w)).collect()),
        ),
        ("violations", Json::UInt(fit.violations as u64)),
        ("evaluations", Json::UInt(fit.evaluations as u64)),
        ("groups", Json::Arr(groups)),
    ])
}

fn significance_json(sig: &Significance) -> Json {
    let rows: Vec<Json> = sig
        .rows
        .iter()
        .map(|r| {
            Json::obj([
                ("label", Json::Str(r.label.clone())),
                ("name", Json::Str(r.name.clone())),
                (
                    "mean",
                    Json::Arr(r.mean.iter().map(|&m| Json::Num(m)).collect()),
                ),
                (
                    "ci95",
                    Json::Arr(r.ci.iter().map(|&c| Json::Num(c)).collect()),
                ),
                ("front_count", Json::UInt(r.front_count as u64)),
                ("stable", Json::Bool(r.stable(sig.seeds))),
            ])
        })
        .collect();
    Json::obj([
        ("seeds", Json::UInt(sig.seeds as u64)),
        ("objectives", tags_json(&sig.objectives)),
        ("rows", Json::Arr(rows)),
    ])
}

fn switch_json(s: &Switch) -> Json {
    Json::obj([
        ("at", Json::UInt(s.at)),
        ("from", Json::Str(s.from.clone())),
        ("to", Json::Str(s.to.clone())),
        ("predicted_current", Json::Num(s.predicted_current)),
        ("predicted_best", Json::Num(s.predicted_best)),
    ])
}

fn demo_json(demo: &DemoOutcome) -> Json {
    let run = |r: &crate::demo::DemoRun| {
        Json::obj([
            ("final_scheduler", Json::Str(r.final_scheduler.clone())),
            (
                "switches",
                Json::Arr(r.switches.iter().map(switch_json).collect()),
            ),
            ("objective", Json::Num(r.objective)),
            ("art", Json::Num(r.snapshot.art)),
            ("awrt", Json::Num(r.snapshot.awrt)),
            ("bounded_slowdown", Json::Num(r.snapshot.bounded_slowdown)),
            ("utilization", Json::Num(r.snapshot.utilization)),
            ("makespan", Json::UInt(r.snapshot.makespan)),
            ("jobs_finished", Json::UInt(r.snapshot.jobs_finished)),
        ])
    };
    Json::obj([
        ("objectives", tags_json(&demo.objectives)),
        (
            "weights",
            Json::Arr(demo.weights.iter().map(|&w| Json::Num(w)).collect()),
        ),
        ("tuned", run(&demo.tuned)),
        ("baseline", run(&demo.baseline)),
        ("improvement", Json::Num(demo.improvement)),
    ])
}

/// Assemble the `bench-tune/1` document. `sig` and `demo` sections are
/// optional — the fit alone still renders a valid document.
pub fn build_json(
    scale: Scale,
    fit: &Fit,
    sig: Option<&Significance>,
    demo: Option<&DemoOutcome>,
) -> Json {
    let mut fields = vec![
        ("schema", Json::Str(TUNE_SCHEMA.into())),
        (
            "scale",
            Json::obj([
                ("ctc_jobs", Json::UInt(scale.ctc_jobs as u64)),
                ("synthetic_jobs", Json::UInt(scale.synthetic_jobs as u64)),
                ("seed", Json::UInt(scale.seed)),
            ]),
        ),
        ("fit", fit_json(fit)),
    ];
    if let Some(s) = sig {
        fields.push(("significance", significance_json(s)));
    }
    if let Some(d) = demo {
        fields.push(("tuner", demo_json(d)));
    }
    Json::obj(fields)
}

fn fmt_g(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1000.0 || x.abs() < 0.01 {
        format!("{x:.3e}")
    } else {
        format!("{x:.4}")
    }
}

/// Render `TUNE.md`.
pub fn build_markdown(
    scale: Scale,
    fit: &Fit,
    sig: Option<&Significance>,
    demo: Option<&DemoOutcome>,
) -> String {
    let mut md = String::new();
    md.push_str("# TUNE — learning the objective from the scheduler atlas\n\n");
    md.push_str(&format!(
        "Source atlas scale: {} CTC jobs, {} synthetic jobs, seed {}.\n\n",
        scale.ctc_jobs, scale.synthetic_jobs, scale.seed
    ));

    md.push_str("## Learned scalarization\n\n");
    md.push_str(
        "Weights minimising Pareto-rank violations across all workload \
         groups (costs mean-normalised per axis, weights sum to 1):\n\n",
    );
    md.push_str("| objective | weight |\n|---|---:|\n");
    for (o, w) in fit.objectives.iter().zip(&fit.weights) {
        md.push_str(&format!("| {} | {} |\n", o.tag(), fmt_g(*w)));
    }
    md.push_str(&format!(
        "\nRank violations at the optimum: **{}** ({} candidate evaluations).\n",
        fit.violations, fit.evaluations
    ));
    for g in &fit.groups {
        if g.inseparable.is_empty() {
            md.push_str(&format!(
                "\n- `{}`: ranks linearly separated — the induced total \
                 order agrees with every rank comparison.\n",
                g.workload
            ));
        } else {
            md.push_str(&format!(
                "\n- `{}`: {} rank pair(s) no linear scalarization of \
                 these axes separates:\n",
                g.workload,
                g.inseparable.len()
            ));
            for &(i, j) in &g.inseparable {
                md.push_str(&format!(
                    "  - row {i} outranks row {j} but scores no better\n"
                ));
            }
        }
    }

    if let Some(sig) = sig {
        md.push_str(&format!(
            "\n## Multi-seed significance ({} seeds)\n\n\
             Across-seed mean ± 95% CI per objective; `front` counts the \
             seeds whose 6-D Pareto front contains the row. Rows on the \
             front in some seeds but not all are **unstable** — their \
             atlas front membership is a draw-level accident.\n\n",
            sig.seeds
        ));
        md.push_str("| row | ");
        for o in &sig.objectives {
            md.push_str(&format!("{} | ", o.tag()));
        }
        md.push_str("front |\n|---|");
        for _ in &sig.objectives {
            md.push_str("---:|");
        }
        md.push_str("---:|\n");
        for r in &sig.rows {
            md.push_str(&format!("| `{}` | ", r.label));
            for (m, c) in r.mean.iter().zip(&r.ci) {
                md.push_str(&format!("{} ± {} | ", fmt_g(*m), fmt_g(*c)));
            }
            let mark = if r.stable(sig.seeds) { "" } else { " ⚠" };
            md.push_str(&format!("{}/{}{} |\n", r.front_count, sig.seeds, mark));
        }
        let unstable = sig.unstable();
        if unstable.is_empty() {
            md.push_str("\nEvery front membership is seed-stable.\n");
        } else {
            md.push_str(&format!(
                "\n{} row(s) with seed-unstable front membership: {}.\n",
                unstable.len(),
                unstable
                    .iter()
                    .map(|r| format!("`{}`", r.label))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
    }

    if let Some(d) = demo {
        md.push_str("\n## Live tuner demonstration\n\n");
        md.push_str(&format!(
            "Identical CTC trace served twice under the virtual clock; \
             the tuned daemon lets the controller switch schedulers via \
             the `policy set` op, the baseline stays on the initial row. \
             Learned objective (streamable axes {}, weights {}):\n\n",
            d.objectives
                .iter()
                .map(|o| o.tag())
                .collect::<Vec<_>>()
                .join("/"),
            d.weights
                .iter()
                .map(|w| fmt_g(*w))
                .collect::<Vec<_>>()
                .join("/")
        ));
        md.push_str("| run | final scheduler | objective | ART | bounded slowdown |\n");
        md.push_str("|---|---|---:|---:|---:|\n");
        for (name, r) in [("tuned", &d.tuned), ("baseline", &d.baseline)] {
            md.push_str(&format!(
                "| {name} | {} | {} | {} | {} |\n",
                r.final_scheduler,
                fmt_g(r.objective),
                fmt_g(r.snapshot.art),
                fmt_g(r.snapshot.bounded_slowdown)
            ));
        }
        md.push_str(&format!(
            "\nImprovement of the learned objective: **{:.1}%**.\n",
            d.improvement * 100.0
        ));
        if d.tuned.switches.is_empty() {
            md.push_str("\nThe controller decided no switch.\n");
        } else {
            md.push_str("\nSwitches:\n\n");
            for s in &d.tuned.switches {
                md.push_str(&format!(
                    "- t={}: `{}` → `{}` (predicted {} → {})\n",
                    s.at,
                    s.from,
                    s.to,
                    fmt_g(s.predicted_current),
                    fmt_g(s.predicted_best)
                ));
            }
        }
    }
    md
}

/// Structural sanity of a finished tune run, mirroring the atlas's
/// `check_clean`: weights form a distribution, the reported violations
/// match the per-group lists, significance rows carry finite stats, and
/// the tuner demo actually switched and improved.
pub fn check_clean(
    fit: &Fit,
    sig: Option<&Significance>,
    demo: Option<&DemoOutcome>,
) -> Result<(), String> {
    let sum: f64 = fit.weights.iter().sum();
    if (sum - 1.0).abs() > 1e-9 || fit.weights.iter().any(|w| !(0.0..=1.0).contains(w)) {
        return Err(format!(
            "fit weights are not a distribution: {:?}",
            fit.weights
        ));
    }
    let listed: usize = fit.groups.iter().map(|g| g.inseparable.len()).sum();
    if listed != fit.violations {
        return Err(format!(
            "fit reports {} violations but lists {listed}",
            fit.violations
        ));
    }
    if let Some(sig) = sig {
        for r in &sig.rows {
            if r.mean.iter().chain(&r.ci).any(|x| !x.is_finite()) {
                return Err(format!("significance row '{}': non-finite stats", r.label));
            }
            if r.front_count > sig.seeds {
                return Err(format!(
                    "significance row '{}': front count {} > {} seeds",
                    r.label, r.front_count, sig.seeds
                ));
            }
        }
        if !sig.rows.iter().any(|r| r.front_count == sig.seeds) {
            return Err("no row is on the front in every seed".into());
        }
    }
    if let Some(d) = demo {
        if d.tuned.switches.is_empty() {
            return Err("tuner demo fired no switch".into());
        }
        if d.improvement <= 0.0 {
            return Err(format!(
                "tuner demo did not improve the learned objective ({} vs {})",
                d.tuned.objective, d.baseline.objective
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::{Fit, GroupFit};

    fn scale() -> Scale {
        Scale {
            ctc_jobs: 100,
            synthetic_jobs: 50,
            seed: 7,
        }
    }

    fn fit_fixture() -> Fit {
        Fit {
            objectives: vec![
                ObjectiveKind::AvgResponseTime,
                ObjectiveKind::AvgBoundedSlowdown,
            ],
            weights: vec![0.75, 0.25],
            violations: 1,
            evaluations: 99,
            groups: vec![GroupFit {
                workload: "ctc".into(),
                scalars: vec![1.0, 2.0, 3.0],
                order: vec![0, 1, 2],
                inseparable: vec![(1, 2)],
            }],
        }
    }

    #[test]
    fn json_document_has_the_schema_and_fit_sections() {
        let doc = build_json(scale(), &fit_fixture(), None, None);
        assert_eq!(
            doc.get("schema").and_then(|s| s.as_str()),
            Some("bench-tune/1")
        );
        let fit = doc.get("fit").unwrap();
        assert_eq!(fit.get("violations").and_then(|v| v.as_u64()), Some(1));
        assert!(doc.get("significance").is_none());
        assert!(doc.get("tuner").is_none());
        // Round-trips through the parser.
        let text = doc.to_string_pretty();
        let back = jobsched_json::parse(&text).unwrap();
        assert_eq!(
            back.get("schema").and_then(|s| s.as_str()),
            Some("bench-tune/1")
        );
    }

    #[test]
    fn markdown_mentions_weights_and_inseparable_pairs() {
        let md = build_markdown(scale(), &fit_fixture(), None, None);
        assert!(md.contains("| art | 0.7500 |"));
        assert!(md.contains("row 1 outranks row 2"));
    }

    #[test]
    fn check_clean_rejects_inconsistent_reports() {
        let mut f = fit_fixture();
        assert!(check_clean(&f, None, None).is_ok());
        f.violations = 5;
        assert!(check_clean(&f, None, None).is_err());
        f.violations = 1;
        f.weights = vec![0.9, 0.3];
        assert!(check_clean(&f, None, None).is_err());
    }
}
