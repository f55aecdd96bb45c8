//! The scheduler-atlas mega-sweep driver.
//!
//! Runs the full atlas campaign — every priority policy × backfill
//! variant plus the paper matrix, over the CTC and probabilistic
//! workloads under the six atlas objectives (516 cells) — and
//! writes the committed artifacts: the `bench-atlas/1` JSON document
//! and the `ATLAS.md` markdown report with its Pareto summary. The
//! schema is documented in `EXPERIMENTS.md`.
//!
//! Usage:
//!   atlas [--smoke | --preempt-smoke] [--scale quick|standard|paper]
//!         [--jobs N] [--out FILE] [--report FILE] [--cache DIR]
//!         [--assert-clean]
//!
//! `--smoke` runs the reduced 30-cell CI slice at quick scale instead —
//! seconds of wall-clock, same artifact schema. `--preempt-smoke` runs
//! the 16-cell time-shared slice (DFRS and moldable rows against the
//! rigid FCFS / FCFS+EASY baselines) instead. `--cache DIR` keeps the
//! content-addressed result cache and manifest on disk so interrupted
//! runs resume and re-runs are cheap. `--assert-clean` applies the
//! structural gate (finite positive costs, reference row present,
//! non-empty rank-consistent Pareto fronts) and exits non-zero on the
//! first violation; CI runs the smoke slice under it.

use jobsched_core::experiment::Scale;
use jobsched_sweep::atlas::{build_report, check_clean};
use jobsched_sweep::{run_campaign, Campaign, SweepOptions};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    smoke: bool,
    preempt_smoke: bool,
    scale: Scale,
    scale_name: String,
    scale_explicit: bool,
    jobs: usize,
    out: String,
    report: String,
    cache: Option<PathBuf>,
    assert_clean: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: atlas [--smoke | --preempt-smoke] [--scale quick|standard|paper] \
         [--jobs N] [--out FILE] [--report FILE] [--cache DIR] [--assert-clean]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        preempt_smoke: false,
        scale: Scale::standard(),
        scale_name: "standard".to_string(),
        scale_explicit: false,
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        out: "BENCH_atlas.json".to_string(),
        report: "ATLAS.md".to_string(),
        cache: None,
        assert_clean: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |argv: &[String], i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--smoke" => args.smoke = true,
            "--preempt-smoke" => args.preempt_smoke = true,
            "--assert-clean" => args.assert_clean = true,
            "--scale" => {
                args.scale_explicit = true;
                args.scale_name = value(&argv, &mut i);
                args.scale = Scale::from_name(&args.scale_name).unwrap_or_else(|| usage());
            }
            "--jobs" => {
                args.jobs = value(&argv, &mut i).parse().unwrap_or_else(|_| usage());
                if args.jobs == 0 {
                    usage();
                }
            }
            "--out" => args.out = value(&argv, &mut i),
            "--report" => args.report = value(&argv, &mut i),
            "--cache" => args.cache = Some(PathBuf::from(value(&argv, &mut i))),
            _ => usage(),
        }
        i += 1;
    }
    if args.smoke && args.preempt_smoke {
        usage();
    }
    if (args.smoke || args.preempt_smoke) && !args.scale_explicit {
        // The CI slices default to quick scale; an explicit --scale
        // still wins so a slice can be stress-tested locally.
        args.scale = Scale::quick();
        args.scale_name = "quick".to_string();
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let campaign = if args.smoke {
        Campaign::atlas_smoke(args.scale)
    } else if args.preempt_smoke {
        Campaign::preempt_smoke(args.scale)
    } else {
        Campaign::atlas(args.scale)
    };
    eprintln!(
        "atlas: campaign '{}' — {} cells at {} scale on {} thread(s)",
        campaign.name,
        campaign.cells.len(),
        args.scale_name,
        args.jobs,
    );

    let opts = SweepOptions {
        jobs: args.jobs,
        out: args.cache.clone(),
        resume: args.cache.is_some(),
        progress: true,
    };
    let outcome = match run_campaign(&campaign, &opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("atlas: campaign failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "atlas: {} simulated, {} from cache",
        outcome.simulated, outcome.cached
    );

    let report = build_report(
        &campaign,
        &outcome,
        args.scale,
        args.smoke || args.preempt_smoke,
    );
    for g in &report.pareto {
        eprintln!(
            "atlas: {} workload — Pareto front {} of {} configurations",
            g.workload,
            g.front.len(),
            g.points.len()
        );
        for &i in &g.front {
            eprintln!("    ⭐ {}", g.points[i].label);
        }
    }

    if args.assert_clean {
        if let Err(msg) = check_clean(&campaign, &outcome, &report) {
            eprintln!("atlas: --assert-clean FAILED: {msg}");
            return ExitCode::FAILURE;
        }
        eprintln!("atlas: --assert-clean passed");
    }

    let text = report.json.to_string_pretty();
    // The artifact must stay consumable by the repo's own JSON reader.
    jobsched_json::parse(&text).expect("atlas JSON must parse");
    if let Err(e) = std::fs::write(&args.out, text + "\n") {
        eprintln!("atlas: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&args.report, &report.markdown) {
        eprintln!("atlas: cannot write {}: {e}", args.report);
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {} and {}", args.out, args.report);
    ExitCode::SUCCESS
}
