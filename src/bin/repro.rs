//! `repro` — regenerate every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! repro [--scale quick|standard|paper] [--jobs N] [--out DIR] [--resume] [item ...]
//! ```
//!
//! Items: `workloads` (Table 1), `table3` … `table8`, `fig1`, `fig2`,
//! `ablations` (γ / re-computation / PSRS patience / estimate quality /
//! max-width sweeps), `combined` (the §7 day/night scheduler), `gang`
//! (FCFS + gang scheduling, ref \[15\]), `heterogeneity` (the §6.1
//! hardware-request simplification), `drain` (Example 4's exclusive
//! window), `replicate` (multi-seed stability; explicit only), `all`
//! (default, everything except `replicate`). Output is printed in the
//! paper's layout; CSV files for the figures are written when
//! `--csv DIR` is given.
//!
//! Tables 3–8 run as one `jobsched-sweep` campaign: `--jobs N` simulates
//! cells on N worker threads (results are bit-identical to `--jobs 1`),
//! `--out DIR` persists per-run JSON records into a content-addressed
//! cache plus a `manifest.json`, and `--resume` serves already-cached
//! cells from DIR instead of re-simulating them. `replicate` is a second
//! campaign under the same flags; its records go to `DIR/replicate`.

use jobsched_core::ablation;
use jobsched_core::experiment::{EvalTable, Scale};
use jobsched_core::objective_select::ObjectiveKind;
use jobsched_core::paper;
use jobsched_core::report::{render_cpu_table, render_table, to_csv};
use jobsched_sweep::{run_campaign, Campaign, CampaignOutcome, SweepOptions, WorkloadSpec};
use jobsched_workload::stats::{Summary, WorkloadStats};
use std::path::PathBuf;
use std::time::Instant;

struct Options {
    scale: Scale,
    items: Vec<String>,
    csv_dir: Option<String>,
    jobs: usize,
    out: Option<PathBuf>,
    resume: bool,
}

const USAGE: &str =
    "repro [--scale quick|standard|paper] [--csv DIR] [--jobs N] [--out DIR] [--resume] [item ...]";

/// The value of `flag`, or usage and exit 2 when the command line ends
/// before it.
fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        eprintln!("usage: {USAGE}");
        std::process::exit(2);
    })
}

fn parse_args() -> Options {
    let mut scale = Scale::standard();
    let mut items = Vec::new();
    let mut csv_dir = None;
    let mut jobs = 1;
    let mut out = None;
    let mut resume = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let name = value(&mut args, "--scale");
                scale = Scale::from_name(&name).unwrap_or_else(|| {
                    eprintln!("unknown scale '{name}' (quick|standard|paper)");
                    std::process::exit(2);
                });
            }
            "--csv" => csv_dir = Some(value(&mut args, "--csv")),
            "--jobs" => {
                let n = value(&mut args, "--jobs");
                jobs = n.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
                    eprintln!("--jobs wants a positive integer, got '{n}'");
                    std::process::exit(2);
                });
            }
            "--out" => out = Some(PathBuf::from(value(&mut args, "--out"))),
            "--resume" => resume = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                println!("items: workloads table3 table4 table5 table6 table7 table8 fig1 fig2 ablations combined drain gang heterogeneity replicate all");
                println!("  --jobs N    simulate campaign cells on N worker threads (default 1)");
                println!("  --out DIR   persist RunRecords + manifest.json under DIR");
                println!(
                    "  --resume    serve cells already in DIR's cache instead of re-simulating"
                );
                std::process::exit(0);
            }
            other => items.push(other.to_string()),
        }
    }
    if items.is_empty() {
        items.push("all".into());
    }
    if resume && out.is_none() {
        eprintln!("--resume needs --out DIR (the cache to resume from)");
        std::process::exit(2);
    }
    Options {
        scale,
        items,
        csv_dir,
        jobs,
        out,
        resume,
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

/// Run one campaign under the command line's sweep flags: shared
/// workloads generated once, cells distributed over --jobs workers,
/// records cached under `out`, cached cells skipped with --resume.
fn run(campaign: &Campaign, opts: &Options, out: Option<PathBuf>) -> CampaignOutcome {
    let sweep = SweepOptions {
        jobs: opts.jobs,
        out,
        resume: opts.resume,
        progress: true,
    };
    let t0 = Instant::now();
    let outcome = run_campaign(campaign, &sweep).unwrap_or_else(|e| {
        eprintln!("campaign failed: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "[campaign: {} cells ({} simulated, {} cached) in {:.1?} on {} worker(s)]",
        outcome.records.len(),
        outcome.simulated,
        outcome.cached,
        t0.elapsed(),
        opts.jobs
    );
    outcome
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
    let wants = |name: &str| opts.items.iter().any(|i| i == name || i == "all");
    // Before any simulation: an unusable --csv target must not cost a
    // campaign first.
    if let Some(dir) = &opts.csv_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| {
            eprintln!("cannot create --csv directory {dir}: {e}");
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
        let outcome = run(&campaign, &opts, opts.out.clone());
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
            "{:>16} {:>14} {:>14} {:>10}",
            "estimate ×", "plain ART [s]", "drained ART", "penalty"
        );
        for r in jobsched_core::extensions::drain_window_cost(scale, &[1.0, 2.0, 4.0, 8.0, 16.0]) {
            println!(
                "{:>16.1} {:>14.0} {:>14.0} {:>9.1}%",
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
    if opts.items.iter().any(|i| i == "replicate") {
        const SEEDS: [u64; 5] = [101, 102, 103, 104, 105];
        println!("## Replication: mean ± std of pct vs FCFS+EASY over 5 seeds");
        let mut scale = opts.scale;
        scale.ctc_jobs = scale.ctc_jobs.min(8_000);
        let campaign = Campaign::replicate(scale, &SEEDS);
        let out = opts.out.as_ref().map(|dir| dir.join(&campaign.name));
        let outcome = run(&campaign, &opts, out);
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
}
