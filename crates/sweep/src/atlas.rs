//! The scheduler-atlas report: turn a finished atlas campaign into the
//! committed artifacts — the `bench-atlas/1` JSON document and the
//! `ATLAS.md` markdown report with its Pareto summary.
//!
//! The campaign itself is declared in [`crate::grid`]
//! ([`Campaign::atlas`] / [`Campaign::atlas_smoke`] /
//! [`Campaign::preempt_smoke`]) and executed by
//! [`crate::runner::run_campaign`]; [`run`] strings the three steps
//! together — simulate, render, gate — for `repro atlas` and
//! `repro preempt`. The rendering is a pure function of the records, so
//! the artifacts are bit-reproducible from the manifest: same campaign,
//! same scale, same report.
//!
//! The Pareto summary applies the paper's §2.2 recipe to the atlas
//! itself: for each workload, every algorithm row becomes a point in
//! objective space (ART, AWRT, bounded slowdown — all minimised), and
//! [`jobsched_metrics::pareto`] peels the non-domination layers. Rank-1
//! rows are the frontier an operator would actually choose from; the
//! rank column in `ATLAS.md` orders the rest.

use crate::grid::{objective_tag, policy_tag, Campaign};
use crate::runner::{run_campaign, CampaignOutcome, SweepOptions};
use jobsched_algos::AlgorithmSpec;
use jobsched_core::experiment::Scale;
use jobsched_core::objective_select::ObjectiveKind;
use jobsched_json::Json;
use jobsched_metrics::pareto::{pareto_front, pareto_ranks, Point};

/// Schema tag written into the JSON artifact (documented in
/// `EXPERIMENTS.md`).
pub const ATLAS_SCHEMA: &str = "bench-atlas/1";

/// One workload's slice of the Pareto analysis: every algorithm as a
/// point in objective space, plus the non-domination structure.
#[derive(Clone, Debug)]
pub struct ParetoGroup {
    /// Workload kind tag ("ctc", "probabilistic", ...).
    pub workload: String,
    /// The objectives spanning the cost space, in table order.
    pub objectives: Vec<ObjectiveKind>,
    /// The algorithm behind each point, in atlas-matrix order.
    pub specs: Vec<AlgorithmSpec>,
    /// One point per algorithm; `costs` parallel to `objectives`.
    pub points: Vec<Point>,
    /// Indices (into `points`) of the Pareto front.
    pub front: Vec<usize>,
    /// Non-domination rank of every point (1 = on the front).
    pub ranks: Vec<usize>,
}

/// The rendered artifacts of one atlas run.
#[derive(Clone, Debug)]
pub struct AtlasReport {
    /// The `bench-atlas/1` JSON document.
    pub json: Json,
    /// The `ATLAS.md` markdown report.
    pub markdown: String,
    /// The Pareto analysis the renderings were derived from.
    pub pareto: Vec<ParetoGroup>,
}

/// Group the campaign's tables by workload kind and lift every
/// algorithm into a point of the per-workload objective space.
fn pareto_groups(campaign: &Campaign, outcome: &CampaignOutcome) -> Vec<ParetoGroup> {
    // Workload kinds in first-appearance order.
    let mut kinds: Vec<&'static str> = Vec::new();
    for t in &campaign.tables {
        let k = t.workload.kind();
        if !kinds.contains(&k) {
            kinds.push(k);
        }
    }

    kinds
        .into_iter()
        .map(|kind| {
            let tables: Vec<usize> = (0..campaign.tables.len())
                .filter(|&i| campaign.tables[i].workload.kind() == kind)
                .collect();
            let objectives: Vec<ObjectiveKind> = tables
                .iter()
                .map(|&i| campaign.tables[i].objective)
                .collect();
            // Every table of one workload carries the same spec list in
            // the same order; take it from the first.
            let specs: Vec<AlgorithmSpec> = outcome.tables[tables[0]]
                .cells
                .iter()
                .map(|c| c.spec())
                .collect();
            let points: Vec<Point> = specs
                .iter()
                .enumerate()
                .map(|(row, spec)| {
                    let costs = tables
                        .iter()
                        .map(|&t| {
                            let cell = &outcome.tables[t].cells[row];
                            assert_eq!(
                                cell.spec(),
                                *spec,
                                "atlas tables of one workload must share row order"
                            );
                            cell.cost
                        })
                        .collect();
                    Point::new(spec.name(), costs)
                })
                .collect();
            let front = pareto_front(&points);
            let ranks = pareto_ranks(&points);
            ParetoGroup {
                workload: kind.to_string(),
                objectives,
                specs,
                points,
                front,
                ranks,
            }
        })
        .collect()
}

fn table_json(campaign: &Campaign, outcome: &CampaignOutcome, t: usize) -> Json {
    let def = &campaign.tables[t];
    let table = &outcome.tables[t];
    let reference = table.reference_cost();
    let cells: Vec<Json> = table
        .cells
        .iter()
        .map(|cell| {
            let spec = cell.spec();
            Json::obj([
                ("algorithm", Json::Str(policy_tag(spec.kind).into())),
                ("backfill", Json::Str(spec.backfill.tag().into())),
                ("name", Json::Str(spec.name())),
                ("cost", Json::Num(cell.cost)),
                ("pct_of_reference", Json::Num(100.0 * cell.cost / reference)),
                ("makespan", Json::UInt(cell.makespan)),
                ("utilization", Json::Num(cell.utilization)),
            ])
        })
        .collect();
    Json::obj([
        ("id", Json::Str(def.id.clone())),
        ("title", Json::Str(def.title.clone())),
        ("workload", def.workload.to_json()),
        ("objective", Json::Str(objective_tag(def.objective).into())),
        ("reference_cost", Json::Num(reference)),
        ("cells", Json::Arr(cells)),
    ])
}

fn pareto_json(groups: &[ParetoGroup]) -> Json {
    let arr = groups
        .iter()
        .map(|g| {
            let objectives: Vec<Json> = g
                .objectives
                .iter()
                .map(|&o| Json::Str(objective_tag(o).into()))
                .collect();
            let points: Vec<Json> = g
                .specs
                .iter()
                .zip(&g.points)
                .zip(&g.ranks)
                .enumerate()
                .map(|(i, ((spec, point), &rank))| {
                    Json::obj([
                        ("algorithm", Json::Str(policy_tag(spec.kind).into())),
                        ("backfill", Json::Str(spec.backfill.tag().into())),
                        ("name", Json::Str(spec.name())),
                        (
                            "costs",
                            Json::Arr(point.costs.iter().map(|&c| Json::Num(c)).collect()),
                        ),
                        ("rank", Json::UInt(rank as u64)),
                        ("on_front", Json::Bool(g.front.contains(&i))),
                    ])
                })
                .collect();
            Json::obj([
                ("workload", Json::Str(g.workload.clone())),
                ("objectives", Json::Arr(objectives)),
                ("points", Json::Arr(points)),
            ])
        })
        .collect();
    Json::Arr(arr)
}

fn markdown(
    campaign: &Campaign,
    outcome: &CampaignOutcome,
    groups: &[ParetoGroup],
    scale: Scale,
) -> String {
    let mut md = String::new();
    // (heading and lead-in, the `repro` arguments that regenerate it)
    let (intro, args) = match campaign.name.as_str() {
        "preempt-smoke" => (
            "# Preemption slice\n\n\
             The time-shared rows — DFRS slice rotation and the moldable FCFS variant, both \
             running through the preemptible segment engine — against their rigid FCFS and \
             FCFS+EASY baselines, over the paper's workload models and objectives.",
            "preempt",
        ),
        name => (
            "# Scheduler atlas\n\n\
             Every priority policy × backfill variant of the scheduler family, swept over the \
             paper's workload models and objectives in one campaign.",
            if name == "atlas" {
                "atlas"
            } else {
                "--smoke atlas"
            },
        ),
    };
    md.push_str(&format!(
        "{intro} Generated by `cargo run --release --bin repro -- {args}`; the run is \
         deterministic, so regenerating at the same scale reproduces this file byte for byte \
         (see the sweep manifest for the cache keys).\n\n",
    ));
    md.push_str(&format!(
        "- campaign: `{}` — {} tables, {} cells\n- scale: {} CTC jobs, {} synthetic jobs, seed {}\n- costs: simulated seconds (lower is better); `% ref` is relative to the FCFS+EASY reference row\n\n",
        campaign.name,
        campaign.tables.len(),
        campaign.cells.len(),
        scale.ctc_jobs,
        scale.synthetic_jobs,
        scale.seed,
    ));

    md.push_str("## Pareto summary\n\n");
    md.push_str(
        "Per workload, each algorithm is a point in objective space; rank 1 is the \
         non-dominated frontier (§2.2 recipe, applied to the atlas itself).\n\n",
    );
    for g in groups {
        let objs: Vec<&str> = g.objectives.iter().map(|&o| objective_tag(o)).collect();
        md.push_str(&format!(
            "### {} workload — objectives ({})\n\n",
            g.workload,
            objs.join(", ")
        ));
        md.push_str(&format!(
            "Pareto front: {} of {} configurations.\n\n",
            g.front.len(),
            g.points.len()
        ));
        md.push_str(&format!("| rank | algorithm | {} |\n", objs.join(" | ")));
        md.push_str(&format!("|---|---|{}\n", "---|".repeat(objs.len())));
        // Frontier first, then by rank; ties in the original atlas order.
        let mut order: Vec<usize> = (0..g.points.len()).collect();
        order.sort_by_key(|&i| (g.ranks[i], i));
        for i in order {
            let costs: Vec<String> = g.points[i]
                .costs
                .iter()
                .map(|c| format!("{c:.1}"))
                .collect();
            let marker = if g.front.contains(&i) { " ⭐" } else { "" };
            md.push_str(&format!(
                "| {}{} | {} | {} |\n",
                g.ranks[i],
                marker,
                g.points[i].label,
                costs.join(" | ")
            ));
        }
        md.push('\n');
    }

    md.push_str("## Tables\n\n");
    for t in 0..campaign.tables.len() {
        let def = &campaign.tables[t];
        let table = &outcome.tables[t];
        let reference = table.reference_cost();
        md.push_str(&format!("### {}\n\n", def.title));
        md.push_str("| algorithm | cost | % ref | utilization |\n|---|---|---|---|\n");
        for cell in &table.cells {
            md.push_str(&format!(
                "| {} | {:.1} | {:.1} | {:.3} |\n",
                cell.spec().name(),
                cell.cost,
                100.0 * cell.cost / reference,
                cell.utilization,
            ));
        }
        md.push('\n');
    }
    md
}

/// Render the artifacts of a finished atlas campaign. The document's
/// `smoke` field marks the reduced slices: every campaign but
/// [`Campaign::atlas`] itself.
pub fn build_report(campaign: &Campaign, outcome: &CampaignOutcome, scale: Scale) -> AtlasReport {
    assert_eq!(
        campaign.tables.len(),
        outcome.tables.len(),
        "outcome must belong to this campaign"
    );
    let groups = pareto_groups(campaign, outcome);
    let tables: Vec<Json> = (0..campaign.tables.len())
        .map(|t| table_json(campaign, outcome, t))
        .collect();
    let json = Json::obj([
        ("schema", Json::Str(ATLAS_SCHEMA.into())),
        ("campaign", Json::Str(campaign.name.clone())),
        ("smoke", Json::Bool(campaign.name != "atlas")),
        (
            "scale",
            Json::obj([
                ("ctc_jobs", Json::UInt(scale.ctc_jobs as u64)),
                ("synthetic_jobs", Json::UInt(scale.synthetic_jobs as u64)),
                ("seed", Json::UInt(scale.seed)),
            ]),
        ),
        // Deliberately no simulated/cached provenance counters: the
        // artifact must be byte-identical whether cells ran fresh or
        // came from the cache (those counts go to stderr instead).
        ("cells", Json::UInt(campaign.cells.len() as u64)),
        ("tables", Json::Arr(tables)),
        ("pareto", pareto_json(&groups)),
    ]);
    let markdown = markdown(campaign, outcome, &groups, scale);
    AtlasReport {
        json,
        markdown,
        pareto: groups,
    }
}

/// The structural gate of a finished atlas run.
///
/// Checks that every cell cost is finite and positive, that every table
/// carries the FCFS+EASY reference row, and that each workload's Pareto
/// front is non-empty and only holds rank-1 points. Returns the first
/// failure as a message; [`run`] refuses to hand out a report on it.
pub fn check_clean(
    campaign: &Campaign,
    outcome: &CampaignOutcome,
    report: &AtlasReport,
) -> Result<(), String> {
    if outcome.records.len() != campaign.cells.len() {
        return Err(format!(
            "expected {} records, got {}",
            campaign.cells.len(),
            outcome.records.len()
        ));
    }
    for (t, table) in outcome.tables.iter().enumerate() {
        let def = &campaign.tables[t];
        if table.cell(AlgorithmSpec::reference()).is_none() {
            return Err(format!("table {}: no FCFS+EASY reference row", def.id));
        }
        if !table.reference_cost().is_finite() || table.reference_cost() <= 0.0 {
            return Err(format!(
                "table {}: reference cost {} unusable for normalisation",
                def.id,
                table.reference_cost()
            ));
        }
        for cell in &table.cells {
            let name = cell.spec().name();
            // The variance objective can legitimately reach 0.0 (all
            // slowdowns equal); every other cost must be positive.
            let floor_ok = if def.objective == ObjectiveKind::SlowdownVariance {
                cell.cost >= 0.0
            } else {
                cell.cost > 0.0
            };
            if !cell.cost.is_finite() || !floor_ok {
                return Err(format!("table {}: {name}: bad cost {}", def.id, cell.cost));
            }
            if !(0.0..=1.0).contains(&cell.utilization) {
                return Err(format!(
                    "table {}: {name}: utilization {} out of range",
                    def.id, cell.utilization
                ));
            }
        }
    }
    for g in &report.pareto {
        if g.front.is_empty() {
            return Err(format!("{} workload: empty Pareto front", g.workload));
        }
        for &i in &g.front {
            if g.ranks[i] != 1 {
                return Err(format!(
                    "{} workload: front point {} has rank {}",
                    g.workload, g.points[i].label, g.ranks[i]
                ));
            }
        }
    }
    Ok(())
}

/// One atlas-family artifact end to end: run `campaign` (the atlas, its
/// smoke slice or the preemption slice) under `sweep`, render the
/// report and apply [`check_clean`]. The Pareto fronts go to stderr; a
/// gate violation is the `Err`.
pub fn run(campaign: &Campaign, scale: Scale, sweep: &SweepOptions) -> Result<AtlasReport, String> {
    let outcome = run_campaign(campaign, sweep)
        .map_err(|e| format!("campaign '{}' failed: {e}", campaign.name))?;
    let report = build_report(campaign, &outcome, scale);
    for g in &report.pareto {
        eprintln!(
            "{}: {} workload — Pareto front {} of {} configurations",
            campaign.name,
            g.workload,
            g.front.len(),
            g.points.len()
        );
        for &i in &g.front {
            eprintln!("    ⭐ {}", g.points[i].label);
        }
    }
    check_clean(campaign, &outcome, &report)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            ctc_jobs: 120,
            synthetic_jobs: 80,
            seed: 42,
        }
    }

    fn smoke_run() -> (Campaign, CampaignOutcome) {
        let campaign = Campaign::atlas_smoke(tiny());
        let outcome = run_campaign(
            &campaign,
            &SweepOptions {
                jobs: 1,
                out: None,
                resume: false,
                progress: false,
            },
        )
        .expect("in-memory campaign");
        (campaign, outcome)
    }

    #[test]
    fn report_carries_the_schema_and_every_cell() {
        let (campaign, outcome) = smoke_run();
        let report = build_report(&campaign, &outcome, tiny());
        let text = report.json.to_string_pretty();
        let doc = jobsched_json::parse(&text).expect("artifact must re-parse");
        assert_eq!(doc.get("schema").unwrap().as_str().unwrap(), ATLAS_SCHEMA);
        assert_eq!(
            doc.get("cells").unwrap().as_u64().unwrap(),
            campaign.cells.len() as u64
        );
        let tables = match doc.get("tables").unwrap() {
            Json::Arr(a) => a,
            _ => panic!("tables must be an array"),
        };
        assert_eq!(tables.len(), campaign.tables.len());
        let total: usize = tables
            .iter()
            .map(|t| match t.get("cells").unwrap() {
                Json::Arr(a) => a.len(),
                _ => panic!("cells must be an array"),
            })
            .sum();
        assert_eq!(total, campaign.cells.len());
    }

    #[test]
    fn pareto_groups_span_the_objective_space() {
        let (campaign, outcome) = smoke_run();
        let report = build_report(&campaign, &outcome, tiny());
        assert_eq!(report.pareto.len(), 1, "smoke runs one workload");
        let g = &report.pareto[0];
        assert_eq!(g.workload, "ctc");
        assert_eq!(
            g.objectives,
            vec![
                ObjectiveKind::AvgResponseTime,
                ObjectiveKind::AvgBoundedSlowdown,
                ObjectiveKind::MaxUserSlowdown,
            ]
        );
        assert_eq!(g.points.len(), 10, "reference + 3 rules × 3 backfills");
        assert!(!g.front.is_empty());
        // Rank-1 points are exactly the front.
        let rank1: Vec<usize> = (0..g.points.len()).filter(|&i| g.ranks[i] == 1).collect();
        assert_eq!(rank1, g.front);
    }

    #[test]
    fn clean_check_accepts_a_real_run_and_rejects_a_poisoned_one() {
        let (campaign, mut outcome) = smoke_run();
        let report = build_report(&campaign, &outcome, tiny());
        assert_eq!(check_clean(&campaign, &outcome, &report), Ok(()));

        // Poison one cost; the structural gate must trip.
        let broken = outcome.tables[0].cells[3].clone();
        outcome.tables[0].cells[3] = jobsched_core::experiment::EvalCell::from_parts(
            broken.spec(),
            f64::NAN,
            std::time::Duration::ZERO,
            broken.makespan,
            broken.utilization,
            jobsched_core::experiment::EngineCounts::default(),
        );
        let err = check_clean(&campaign, &outcome, &report).unwrap_err();
        assert!(err.contains("bad cost"), "{err}");
    }

    #[test]
    fn markdown_report_names_every_configuration() {
        let (campaign, outcome) = smoke_run();
        let report = build_report(&campaign, &outcome, tiny());
        for cell in &outcome.tables[0].cells {
            assert!(
                report.markdown.contains(&cell.spec().name()),
                "ATLAS.md must mention {}",
                cell.spec().name()
            );
        }
        assert!(report.markdown.contains("## Pareto summary"));
        assert!(report.markdown.contains("% ref"));
    }
}
