//! The scheduler-atlas report: turn a finished atlas campaign into the
//! committed artifacts — the `bench-atlas/1` JSON document and the
//! `ATLAS.md` markdown report with its Pareto summary — and read the
//! document back ([`read_atlas`], the schema's only reader).
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

use crate::grid::{policy_tag, Campaign, WorkloadSpec};
use crate::runner::{run_campaign, CampaignOutcome, SweepOptions};
use jobsched_algos::spec::PolicyKind;
use jobsched_algos::{AlgorithmSpec, BackfillMode};
use jobsched_core::experiment::Scale;
use jobsched_core::objective_select::ObjectiveKind;
use jobsched_json::Json;
use jobsched_metrics::pareto::{pareto_front, pareto_ranks, Point};

/// Schema tag written into the JSON artifact (documented in
/// `EXPERIMENTS.md`).
pub const ATLAS_SCHEMA: &str = "bench-atlas/1";

/// One workload's slice of the Pareto analysis: every algorithm as a
/// point in objective space, plus the non-domination structure.
#[derive(Clone, Debug, PartialEq)]
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

impl ParetoGroup {
    /// Lift every algorithm of `specs` into a point of the objective
    /// space spanned by `objectives` (`costs[row]` parallel to
    /// `objectives`), labelled by [`AlgorithmSpec::name`], and peel the
    /// non-domination layers.
    pub fn new(
        workload: impl Into<String>,
        objectives: Vec<ObjectiveKind>,
        specs: Vec<AlgorithmSpec>,
        costs: Vec<Vec<f64>>,
    ) -> ParetoGroup {
        assert_eq!(specs.len(), costs.len(), "one cost vector per algorithm");
        let points: Vec<Point> = specs
            .iter()
            .zip(costs)
            .map(|(spec, costs)| Point::new(spec.name(), costs))
            .collect();
        ParetoGroup {
            workload: workload.into(),
            objectives,
            specs,
            front: pareto_front(&points),
            ranks: pareto_ranks(&points),
            points,
        }
    }
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

/// Group the campaign's tables by workload and lift every algorithm
/// into a point of the per-workload objective space: one group per
/// distinct [`WorkloadSpec`], in first-appearance order, named by its
/// kind. A campaign over several draws of one workload kind (the
/// significance campaign) gives one group per draw.
pub fn pareto_groups(campaign: &Campaign, outcome: &CampaignOutcome) -> Vec<ParetoGroup> {
    let mut workloads: Vec<WorkloadSpec> = Vec::new();
    for t in &campaign.tables {
        if !workloads.contains(&t.workload) {
            workloads.push(t.workload);
        }
    }

    workloads
        .into_iter()
        .map(|workload| {
            let tables: Vec<usize> = (0..campaign.tables.len())
                .filter(|&i| campaign.tables[i].workload == workload)
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
            let costs: Vec<Vec<f64>> = specs
                .iter()
                .enumerate()
                .map(|(row, spec)| {
                    tables
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
                        .collect()
                })
                .collect();
            ParetoGroup::new(workload.kind(), objectives, specs, costs)
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
        ("objective", Json::Str(def.objective.tag().into())),
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
                .map(|o| Json::Str(o.tag().into()))
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
        let objs: Vec<&str> = g.objectives.iter().map(|o| o.tag()).collect();
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

/// `j[key]` through the accessor `get`, or an error naming the field.
fn field<'a, T>(j: &'a Json, key: &str, get: fn(&'a Json) -> Option<T>) -> Result<T, String> {
    j.get(key)
        .and_then(get)
        .ok_or_else(|| format!("missing or mistyped field '{key}'"))
}

/// `tag` parsed by `from_tag`, or an error naming it.
fn parse_tag<T>(tag: &str, what: &str, from_tag: fn(&str) -> Option<T>) -> Result<T, String> {
    from_tag(tag).ok_or_else(|| format!("unknown {what} tag '{tag}'"))
}

/// One `pareto` entry of a `bench-atlas/1` document.
fn read_group(g: &Json) -> Result<ParetoGroup, String> {
    let workload = field(g, "workload", Json::as_str)?;
    let objectives = field(g, "objectives", Json::as_arr)?
        .iter()
        .map(|o| {
            let tag = o.as_str().ok_or("objective tags must be strings")?;
            parse_tag(tag, "objective", ObjectiveKind::from_tag)
        })
        .collect::<Result<Vec<_>, String>>()?;
    let points = field(g, "points", Json::as_arr)?;
    if objectives.is_empty() || points.is_empty() {
        return Err(format!("workload '{workload}': no objectives or no points"));
    }
    let mut specs = Vec::with_capacity(points.len());
    let mut costs = Vec::with_capacity(points.len());
    for p in points {
        let spec = AlgorithmSpec::new(
            parse_tag(
                field(p, "algorithm", Json::as_str)?,
                "policy",
                PolicyKind::from_tag,
            )?,
            parse_tag(
                field(p, "backfill", Json::as_str)?,
                "backfill",
                BackfillMode::from_tag,
            )?,
        );
        let row: Vec<f64> = field(p, "costs", Json::as_arr)?
            .iter()
            .map(|c| c.as_f64().filter(|c| c.is_finite() && *c >= 0.0))
            .collect::<Option<_>>()
            .filter(|row: &Vec<f64>| row.len() == objectives.len())
            .ok_or_else(|| {
                format!(
                    "point '{}': costs must be one finite, non-negative number per objective",
                    spec.name()
                )
            })?;
        specs.push(spec);
        costs.push(row);
    }
    Ok(ParetoGroup::new(workload, objectives, specs, costs))
}

/// Read a `bench-atlas/1` document back into the scale it was generated
/// at and its Pareto groups — the only reader of what [`build_report`]
/// writes. The document is input from disk, so every field is checked
/// and an unknown policy, backfill or objective tag is an error naming
/// it. Ranks and fronts are recomputed from the costs, never read: a
/// hand-edited or truncated document cannot smuggle an inconsistent
/// order into what reads it.
pub fn read_atlas(doc: &Json) -> Result<(Scale, Vec<ParetoGroup>), String> {
    let schema = field(doc, "schema", Json::as_str)?;
    if schema != ATLAS_SCHEMA {
        return Err(format!("unsupported atlas schema '{schema}'"));
    }
    let scale = doc.get("scale").ok_or("missing 'scale'")?;
    let scale = Scale {
        ctc_jobs: field(scale, "ctc_jobs", Json::as_u64)? as usize,
        synthetic_jobs: field(scale, "synthetic_jobs", Json::as_u64)? as usize,
        seed: field(scale, "seed", Json::as_u64)?,
    };
    let groups = field(doc, "pareto", Json::as_arr)?
        .iter()
        .map(read_group)
        .collect::<Result<Vec<_>, _>>()?;
    let first = groups.first().ok_or("atlas has no pareto groups")?;
    // Every group must span the same objective axes in the same order:
    // the objective learner fits one weight vector across workloads.
    if let Some(g) = groups.iter().find(|g| g.objectives != first.objectives) {
        return Err(format!(
            "workload '{}' spans other objectives than '{}'",
            g.workload, first.workload
        ));
    }
    Ok((scale, groups))
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
    fn read_atlas_returns_what_the_report_was_built_from() {
        let (campaign, outcome) = smoke_run();
        let report = build_report(&campaign, &outcome, tiny());
        let doc = jobsched_json::parse(&report.json.to_string_pretty()).unwrap();
        assert_eq!(read_atlas(&doc), Ok((tiny(), report.pareto)));
    }

    fn sample() -> String {
        r#"{
          "schema": "bench-atlas/1",
          "scale": {"ctc_jobs": 100, "synthetic_jobs": 50, "seed": 7},
          "pareto": [
            {
              "workload": "ctc",
              "objectives": ["art", "bsld"],
              "points": [
                {"algorithm":"fcfs","backfill":"easy","name":"FCFS+EASY","costs":[10.0,2.0],"rank":1,"on_front":true},
                {"algorithm":"sjf","backfill":"easy","name":"SJF+EASY","costs":[8.0,3.0],"rank":1,"on_front":true},
                {"algorithm":"fcfs","backfill":"none","name":"FCFS","costs":[12.0,4.0],"rank":2,"on_front":false}
              ]
            }
          ]
        }"#
        .to_string()
    }

    fn read(text: &str) -> Result<(Scale, Vec<ParetoGroup>), String> {
        read_atlas(&jobsched_json::parse(text).unwrap())
    }

    #[test]
    fn parses_and_recomputes_ranks() {
        let (scale, groups) = read(&sample()).unwrap();
        assert_eq!(
            scale,
            Scale {
                ctc_jobs: 100,
                synthetic_jobs: 50,
                seed: 7
            }
        );
        assert_eq!(groups.len(), 1);
        let g = &groups[0];
        assert_eq!(
            g.objectives,
            vec![
                ObjectiveKind::AvgResponseTime,
                ObjectiveKind::AvgBoundedSlowdown
            ]
        );
        assert_eq!(g.specs[0], AlgorithmSpec::reference());
        let sjf_easy = AlgorithmSpec::new(
            PolicyKind::Priority(jobsched_algos::ScoreFn::Sjf),
            BackfillMode::Easy,
        );
        assert_eq!(g.specs[1], sjf_easy);
        assert_eq!(g.points[1].label, sjf_easy.name());
        assert_eq!(g.ranks, vec![1, 1, 2]);
        assert_eq!(g.front, vec![0, 1]);
    }

    #[test]
    fn stored_ranks_are_ignored() {
        // Corrupt the stored rank field: recomputation must not care.
        let (_, groups) = read(&sample().replace("\"rank\":1", "\"rank\":9")).unwrap();
        assert_eq!(groups[0].ranks, vec![1, 1, 2]);
    }

    #[test]
    fn malformed_documents_are_structured_errors() {
        assert!(read(&sample().replace("bench-atlas/1", "bench-atlas/9")).is_err());
        let short = read(&sample().replace("[12.0,4.0]", "[12.0]"));
        assert!(short.unwrap_err().contains("costs"));
        assert!(read(&sample().replace("[12.0,4.0]", "[-1.0,4.0]")).is_err());
        // An unknown tag is an error that names it.
        for (from, to) in [
            ("\"sjf\"", "\"sjf9\""),
            ("\"none\"", "\"none9\""),
            ("\"bsld\"", "\"bsld9\""),
        ] {
            let err = read(&sample().replace(from, to)).unwrap_err();
            assert!(err.contains(to.trim_matches('"')), "{err}");
        }
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
