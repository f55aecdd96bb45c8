//! `repro` — regenerate every table, figure and committed artifact of
//! the study: the one experiment binary.
//!
//! Usage:
//!
//! ```text
//! repro [--scale quick|standard|paper] [--csv DIR] [--jobs N] [--out DIR] [--resume]
//!       [--smoke] [--artifacts DIR] [item ...]
//! ```
//!
//! Items: `workloads` (Table 1), `table3` … `table8`, `fig1`, `fig2`,
//! `ablations` (γ / re-computation / PSRS patience / estimate quality /
//! max-width sweeps), `combined` (the §7 day/night scheduler), `gang`
//! (FCFS + gang scheduling, ref \[15\]), `heterogeneity` (the §6.1
//! hardware-request simplification), `drain` (Example 4's exclusive
//! window), `all` (default: everything so far), and the explicit-only
//! items, never part of `all`: `replicate` (multi-seed stability) and
//! the four artifact items `atlas`, `preempt`, `tune`, `meta`. Tables are
//! printed in the paper's layout; CSV files for them are written when
//! `--csv DIR` is given.
//!
//! An artifact item writes its committed files under `--artifacts DIR`
//! (default `.`): `BENCH_atlas.json` + `ATLAS.md` (the 516-cell
//! scheduler atlas), `BENCH_preempt.json` + `PREEMPT.md` (the time-shared
//! slice), `BENCH_tune.json` + `TUNE.md` (objective fit against
//! `./BENCH_atlas.json`, multi-seed significance, live tuner demo) and
//! `BENCH_meta.json` (single- vs two-site metasystem; no campaign, so
//! `--scale` does not apply). Each runs its structural gate first — a
//! violation exits 1 with nothing of that item written — and every
//! document is parsed back with `jobsched_json` before it lands on
//! disk. `--smoke` switches them to the reduced slices CI runs (30-cell
//! atlas, quick scale unless `--scale` is given, 2 significance seeds,
//! 300-job demo, 1 500-job meta traces); schemas are unchanged.
//!
//! Every matrix runs as a `jobsched-sweep` campaign: `--jobs N`
//! simulates cells on N worker threads (results are bit-identical to
//! `--jobs 1`), `--out DIR` persists per-run JSON records into a
//! content-addressed cache plus a `manifest.json`, and `--resume` serves
//! already-cached cells instead of re-simulating them. One rule for all
//! campaigns (`paper-tables`, `replicate`, `atlas` / `atlas-smoke`,
//! `preempt-smoke`, `significance`): each keeps its cache and manifest
//! in `DIR/<campaign name>/`, so none overwrites another's.

use jobsched_core::ablation;
use jobsched_core::experiment::{EvalTable, Scale};
use jobsched_core::objective_select::ObjectiveKind;
use jobsched_core::paper;
use jobsched_core::report::{render_cpu_table, render_table, to_csv};
use jobsched_json::Json;
use jobsched_sweep::{run_campaign, Campaign, CampaignOutcome, SweepOptions, WorkloadSpec};
use jobsched_workload::stats::{Summary, WorkloadStats};
use std::path::{Path, PathBuf};
use std::time::Instant;

struct Options {
    scale: Scale,
    items: Vec<String>,
    csv_dir: Option<String>,
    jobs: usize,
    out: Option<PathBuf>,
    resume: bool,
    smoke: bool,
    artifacts: PathBuf,
}

impl Options {
    /// The command line's sweep flags for the campaign named `campaign`:
    /// --jobs workers, records cached under `<out>/<campaign>`, cached
    /// cells skipped with --resume.
    fn sweep(&self, campaign: &str) -> SweepOptions {
        SweepOptions {
            jobs: self.jobs,
            out: self.out.as_ref().map(|dir| dir.join(campaign)),
            resume: self.resume,
            progress: true,
        }
    }

    /// Whether `item` was named on the command line.
    fn names(&self, item: &str) -> bool {
        self.items.iter().any(|i| i == item)
    }
}

const USAGE: &str = "repro [--scale quick|standard|paper] [--csv DIR] [--jobs N] [--out DIR] \
                     [--resume] [--smoke] [--artifacts DIR] [item ...]";

/// Items `all` expands to.
const ALL_ITEMS: [&str; 14] = [
    "workloads",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "fig1",
    "fig2",
    "ablations",
    "combined",
    "drain",
    "gang",
    "heterogeneity",
];

/// Explicit-only items that write committed artifacts.
const ARTIFACT_ITEMS: [&str; 4] = ["atlas", "preempt", "tune", "meta"];

const FLAG_HELP: &str = "  \
  --jobs N         simulate campaign cells on N worker threads (default 1)
  --out DIR        persist RunRecords + manifest.json under DIR/<campaign>
  --resume         serve cells already cached under DIR instead of re-simulating
  --smoke          artifact items run their reduced CI slices (quick scale)
  --artifacts DIR  where artifact items write BENCH_*.json and *.md (default .)
";

/// Message, usage, exit 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("usage: {USAGE}");
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut scale = None;
    let mut items = Vec::new();
    let mut csv_dir = None;
    let mut jobs = 1;
    let mut out = None;
    let mut resume = false;
    let mut smoke = false;
    let mut artifacts = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage_error(&format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--scale" => {
                let name = value();
                scale = Some(Scale::from_name(&name).unwrap_or_else(|| {
                    usage_error(&format!("unknown scale '{name}' (quick|standard|paper)"))
                }));
            }
            "--csv" => csv_dir = Some(value()),
            "--jobs" => {
                let n = value();
                jobs = n.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
                    usage_error(&format!("--jobs wants a positive integer, got '{n}'"))
                });
            }
            "--out" => out = Some(PathBuf::from(value())),
            "--resume" => resume = true,
            "--smoke" => smoke = true,
            "--artifacts" => artifacts = Some(PathBuf::from(value())),
            "--help" | "-h" => {
                println!("{USAGE}");
                println!("items: {} all", ALL_ITEMS.join(" "));
                println!("explicit only: replicate {}", ARTIFACT_ITEMS.join(" "));
                print!("{FLAG_HELP}");
                std::process::exit(0);
            }
            flag if flag.starts_with("--") => usage_error(&format!("unknown flag '{flag}'")),
            item if ["all", "replicate"].contains(&item)
                || ALL_ITEMS.contains(&item)
                || ARTIFACT_ITEMS.contains(&item) =>
            {
                items.push(arg)
            }
            item => usage_error(&format!("unknown item '{item}'")),
        }
    }
    if items.is_empty() {
        items.push("all".into());
    }
    if resume && out.is_none() {
        usage_error("--resume needs --out DIR (the cache to resume from)");
    }
    if (smoke || artifacts.is_some()) && !items.iter().any(|i| ARTIFACT_ITEMS.contains(&&**i)) {
        usage_error("--smoke and --artifacts need an artifact item (atlas preempt tune meta)");
    }
    Options {
        // The CI slices default to quick scale; an explicit --scale still
        // wins so a slice can be stress-tested locally.
        scale: scale.unwrap_or(if smoke {
            Scale::quick()
        } else {
            Scale::standard()
        }),
        items,
        csv_dir,
        jobs,
        out,
        resume,
        smoke,
        artifacts: artifacts.unwrap_or_else(|| PathBuf::from(".")),
    }
}

fn print_table(table: &EvalTable, cpu: bool, csv_dir: &Option<String>, stem: &str) {
    if cpu {
        println!("{}", render_cpu_table(table));
    } else {
        println!("{}", render_table(table));
    }
    if let Some(dir) = csv_dir {
        let path = format!("{dir}/{stem}.csv");
        std::fs::write(&path, to_csv(table)).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
    }
}

/// Run one campaign under the command line's sweep flags.
fn run(campaign: &Campaign, opts: &Options) -> CampaignOutcome {
    run_campaign(campaign, &opts.sweep(&campaign.name)).unwrap_or_else(|e| {
        eprintln!("campaign failed: {e}");
        std::process::exit(1);
    })
}

/// The last step of every artifact item: parse the document back with
/// the repo's own reader — a file on disk is one `jobsched_json` accepts
/// — then write `BENCH_<item>.json` and, if the item has one, its
/// `<ITEM>.md` report under `dir`.
fn write_artifact(dir: &Path, item: &str, json: &Json, markdown: Option<&str>) {
    let text = json.to_string_pretty() + "\n";
    jobsched_json::parse(&text).expect("artifact JSON must parse");
    let mut files = vec![(dir.join(format!("BENCH_{item}.json")), text.as_str())];
    if let Some(md) = markdown {
        files.push((dir.join(format!("{}.md", item.to_uppercase())), md));
    }
    for (path, content) in files {
        std::fs::write(&path, content).unwrap_or_else(|e| {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        });
        eprintln!("wrote {}", path.display());
    }
}

/// Heading the repro output prints above each paper table.
fn table_heading(id: &str) -> &'static str {
    match id {
        "table3" => "## Table 3 / Figures 3–4: CTC workload",
        "table4" => "## Table 4 / Figure 5: probability-distributed workload",
        "table5" => "## Table 5: randomized workload",
        "table6" => "## Table 6 / Figure 6: CTC workload with exact execution times",
        "table7" => "## Table 7: computation time, CTC workload",
        "table8" => "## Table 8: computation time, probabilistic workload",
        other => panic!("no heading for '{other}'"),
    }
}

fn main() {
    let opts = parse_args();
    let wants = |name: &str| opts.names(name) || opts.names("all");
    // Before any simulation: an unusable --csv or --artifacts target
    // must not cost a campaign first.
    let csv = opts.csv_dir.as_ref().map(|dir| ("--csv", Path::new(dir)));
    for (flag, dir) in csv.into_iter().chain([("--artifacts", &*opts.artifacts)]) {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| {
            eprintln!("cannot create {flag} directory {}: {e}", dir.display());
            std::process::exit(1);
        });
    }
    println!(
        "# IPPS'99 scheduling-algorithm evaluation — {} CTC-like jobs, {} synthetic jobs, seed {}",
        opts.scale.ctc_jobs, opts.scale.synthetic_jobs, opts.scale.seed
    );
    println!();

    if wants("workloads") {
        println!("## Table 1: workloads");
        let t0 = Instant::now();
        for spec in [
            WorkloadSpec::ctc(opts.scale),
            WorkloadSpec::probabilistic(opts.scale),
            WorkloadSpec::randomized(opts.scale),
        ] {
            println!("{}", WorkloadStats::of(&spec.generate()));
        }
        println!("(generated in {:.1?})\n", t0.elapsed());
    }

    let wanted_tables: Vec<&str> = ["table3", "table4", "table5", "table6", "table7", "table8"]
        .into_iter()
        .filter(|t| wants(t))
        .collect();
    if !wanted_tables.is_empty() {
        let campaign = Campaign::paper_tables(opts.scale, &wanted_tables);
        let outcome = run(&campaign, &opts);
        // Each paper table contributes an adjacent (unweighted, weighted)
        // pair of campaign tables.
        for (defs, tables) in campaign.tables.chunks(2).zip(outcome.tables.chunks(2)) {
            let base = defs[0].id.trim_end_matches("-unweighted");
            println!("{}", table_heading(base));
            for (def, table) in defs.iter().zip(tables) {
                print_table(table, def.cpu_table, &opts.csv_dir, &def.id);
            }
        }
    }
    if wants("fig1") {
        println!("## Figure 1: Pareto-optimal schedules");
        let f = paper::figure1();
        println!(
            "{:44} {:>14} {:>12} {:>5}",
            "schedule", "unavailability", "ART[min]", "rank"
        );
        for (p, r) in f.points.iter().zip(&f.ranks) {
            println!(
                "{:44} {:>14.4} {:>12.1} {:>5}{}",
                p.label,
                p.costs[0],
                p.costs[1],
                r,
                if *r == 1 { "  ← Pareto-optimal" } else { "" }
            );
        }
        println!();
    }
    if wants("ablations") {
        // Ablations run at a reduced job count: each sweep point is a full
        // simulation.
        let mut scale = opts.scale;
        scale.ctc_jobs = scale.ctc_jobs.min(8_000);
        println!("## Ablations (CTC-like workload, {} jobs)", scale.ctc_jobs);

        println!("\nSMART γ sweep (FFIA + EASY, unweighted ART):");
        for r in ablation::gamma_sweep(
            scale,
            ObjectiveKind::AvgResponseTime,
            &[1.25, 1.5, 2.0, 3.0, 4.0, 8.0],
        ) {
            println!("  γ = {:>5.2}  ART = {:.4E}", r.value, r.cost);
        }

        println!("\nre-computation threshold sweep (SMART-FFIA + EASY):");
        println!("  (paper value: unordered fraction 1/3 ≈ 0.33)");
        for (r, recomputes) in ablation::reorder_sweep(
            scale,
            ObjectiveKind::AvgResponseTime,
            &[0.0, 0.1, 1.0 / 3.0, 0.6, 0.9],
        ) {
            println!(
                "  threshold = {:>5.2}  ART = {:.4E}  recomputations = {recomputes}",
                r.value, r.cost
            );
        }

        println!("\nPSRS wide-job patience sweep (PSRS + EASY, unweighted ART):");
        for r in ablation::wide_wait_sweep(
            scale,
            ObjectiveKind::AvgResponseTime,
            &[0.25, 0.5, 1.0, 2.0, 4.0],
        ) {
            println!("  factor = {:>5.2}  ART = {:.4E}", r.value, r.cost);
        }

        println!("\nestimate-quality sweep (SMART-FFIA + EASY, unweighted ART):");
        println!("  (factor 1 = Table 6's exact estimates)");
        let spec = jobsched_algos::AlgorithmSpec::new(
            jobsched_algos::spec::PolicyKind::SmartFfia,
            jobsched_algos::BackfillMode::Easy,
        );
        for r in ablation::estimate_quality_sweep(
            scale,
            ObjectiveKind::AvgResponseTime,
            spec,
            &[1.0, 1.5, 2.0, 5.0, 10.0, 20.0],
        ) {
            println!("  factor = {:>5.1}  ART = {:.4E}", r.value, r.cost);
        }

        println!("\nmax job-width sweep (G&G weighted pct vs FCFS+EASY):");
        println!("  (shows when the paper's 'G&G wins the weighted case' holds)");
        for r in ablation::max_width_sweep(scale, &[96, 128, 160, 192, 224, 256]) {
            println!(
                "  max width = {:>3}  G&G = {:+.1}% vs FCFS+EASY",
                r.value, r.cost
            );
        }
        println!();
    }
    if wants("combined") {
        println!("## Extension: combining the selected algorithms (§7 open item)");
        let mut scale = opts.scale;
        scale.ctc_jobs = scale.ctc_jobs.min(16_000);
        let candidates = [
            jobsched_algos::AlgorithmSpec::new(
                jobsched_algos::spec::PolicyKind::SmartFfia,
                jobsched_algos::BackfillMode::Easy,
            ),
            jobsched_algos::AlgorithmSpec::new(
                jobsched_algos::spec::PolicyKind::GareyGraham,
                jobsched_algos::BackfillMode::None,
            ),
            jobsched_algos::AlgorithmSpec::reference(),
        ];
        let rows = jobsched_core::extensions::combined_comparison(scale, &candidates);
        println!(
            "{:58} {:>14} {:>14}",
            "scheduler", "day ART [s]", "night AWRT"
        );
        for r in &rows {
            println!("{:58} {:>14.0} {:>14.3E}", r.name, r.day_art, r.night_awrt);
        }
        println!();
    }
    if wants("heterogeneity") {
        println!("## Extension: the §6.1 hardware-request simplification");
        let mut scale = opts.scale;
        scale.ctc_jobs = scale.ctc_jobs.min(16_000);
        let c = jobsched_core::extensions::heterogeneity_comparison(scale);
        println!("FCFS on the heterogeneous 430-node partition (raw trace):");
        println!("  honouring types/memory : ART = {:.4E} s", c.typed_art);
        println!("  type-blind (paper §6.1): ART = {:.4E} s", c.blind_art);
        println!("  infeasible requests    : {}", c.rejected);
        println!(
            "  relative error of the simplification: {:.1}%\n",
            100.0 * c.relative_error()
        );
    }
    if wants("drain") {
        println!("## Extension: Example 4's exclusive window under bad estimates");
        let mut scale = opts.scale;
        scale.ctc_jobs = scale.ctc_jobs.min(8_000);
        println!(
            "{:<32} {:>10} {:>14} {:>14} {:>10}",
            "algorithm", "estimate ×", "plain ART [s]", "window ART", "penalty"
        );
        let rows = jobsched_core::extensions::drain_window_cost(
            scale,
            &jobsched_algos::AlgorithmSpec::paper_matrix(),
            &[1.0, 2.0, 4.0, 8.0, 16.0],
        );
        for r in rows {
            println!(
                "{:<32} {:>10.1} {:>14.0} {:>14.0} {:>9.1}%",
                r.spec.name(),
                r.estimate_factor,
                r.plain_art,
                r.drained_art,
                100.0 * r.penalty()
            );
        }
        println!();
    }
    if wants("gang") {
        println!("## Extension: FCFS + gang scheduling ([15]) vs space sharing");
        let mut scale = opts.scale;
        scale.ctc_jobs = scale.ctc_jobs.min(16_000);
        let rows = jobsched_core::extensions::gang_comparison(scale, &[60, 300, 600, 1800, 3600]);
        println!(
            "{:>12} {:>14} {:>14}",
            "slice [s]", "ART [s]", "makespan [d]"
        );
        for r in &rows {
            let label = if r.time_slice == 0 {
                "space-FCFS".to_string()
            } else {
                r.time_slice.to_string()
            };
            println!(
                "{:>12} {:>14.0} {:>14.1}",
                label,
                r.art,
                r.makespan as f64 / 86_400.0
            );
        }
        println!();
    }
    // Replication is explicit-only (not part of `all`): it multiplies the
    // whole matrix by the seed count.
    if opts.names("replicate") {
        const SEEDS: [u64; 5] = [101, 102, 103, 104, 105];
        println!("## Replication: mean ± std of pct vs FCFS+EASY over 5 seeds");
        let mut scale = opts.scale;
        scale.ctc_jobs = scale.ctc_jobs.min(8_000);
        let campaign = Campaign::replicate(scale, &SEEDS);
        let outcome = run(&campaign, &opts);
        // Tables are seed-major: every `sections`-th one is the same
        // objective on the next seed's trace.
        let sections = outcome.tables.len() / SEEDS.len();
        for (j, first) in outcome.tables[..sections].iter().enumerate() {
            println!("\n{:?}:", first.objective);
            for (row, cell) in first.cells.iter().enumerate() {
                let per_seed = outcome.tables.iter().skip(j).step_by(sections);
                let pct = Summary::from_iter(per_seed.map(|t| t.cells[row].pct));
                // Distinguishable from the per-seed FCFS+EASY reference
                // at roughly two standard deviations.
                let significant = pct.mean().abs() > 2.0 * pct.std_dev().max(1e-9);
                println!(
                    "  {:36} {:>+8.1}% ± {:>5.1}%{}",
                    cell.spec().name(),
                    pct.mean(),
                    pct.std_dev(),
                    if significant {
                        ""
                    } else {
                        "   (not significant)"
                    }
                );
            }
        }
        println!();
    }
    if wants("fig2") {
        println!("## Figure 2: online vs offline achievable schedules");
        let f = paper::figure2();
        let on = paper::ideal(&f.online);
        let off = paper::ideal(&f.offline);
        println!(
            "online  ideal point: ART {:>10.1} s, unavailability {:.4}",
            on[0], on[1]
        );
        println!(
            "offline ideal point: ART {:>10.1} s, unavailability {:.4}",
            off[0], off[1]
        );
        println!(
            "offline knowledge widens the achievable region by {:.1}% in ART",
            (on[0] - off[0]) / on[0] * 100.0
        );
        println!();
    }
    // The artifact items, explicit only: each library entry point runs,
    // gates and renders; atlas before tune, which fits against it.
    for item in ARTIFACT_ITEMS.into_iter().filter(|item| opts.names(item)) {
        let rendered = match item {
            "tune" => jobsched_tune::run(
                Path::new("BENCH_atlas.json"),
                opts.scale,
                opts.smoke,
                &opts.sweep("significance"),
            )
            .map(|(json, markdown)| (json, Some(markdown))),
            "meta" => jobsched_meta::report::run(opts.smoke).map(|json| (json, None)),
            _ => {
                let campaign = match (item, opts.smoke) {
                    ("atlas", false) => Campaign::atlas(opts.scale),
                    ("atlas", true) => Campaign::atlas_smoke(opts.scale),
                    _ => Campaign::preempt_smoke(opts.scale),
                };
                jobsched_sweep::atlas::run(&campaign, opts.scale, &opts.sweep(&campaign.name))
                    .map(|report| (report.json, Some(report.markdown)))
            }
        };
        let (json, markdown) = rendered.unwrap_or_else(|e| {
            eprintln!("{item}: {e}");
            std::process::exit(1);
        });
        write_artifact(&opts.artifacts, item, &json, markdown.as_deref());
    }
}
