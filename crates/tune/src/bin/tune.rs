//! The evaluation-subsystem driver: objective learning, multi-seed
//! significance, and the live tuner demonstration in one run.
//!
//! Reads the committed `bench-atlas/1` artifact, fits the scalarization
//! weights against its Pareto ranks, replays the atlas grid across N
//! workload resamplings for confidence intervals, then serves a CTC
//! trace twice through an in-process daemon — once with the learned
//! controller switching schedulers over the `policy set` op, once
//! static — and writes `BENCH_tune.json` (`bench-tune/1`, schema in
//! `EXPERIMENTS.md`) plus the `TUNE.md` report.
//!
//! Usage:
//!   tune [--smoke] [--atlas FILE] [--seeds N] [--no-significance]
//!        [--scale quick|standard|paper] [--jobs N] [--demo-jobs N]
//!        [--initial LABEL] [--out FILE] [--report FILE] [--cache DIR]
//!        [--assert-clean]
//!
//! `--smoke` is the CI slice: 2 significance seeds at quick scale, a
//! short tuner trace — minutes of wall-clock, same artifact schema.
//! `--seeds 0` / `--no-significance` skips the replication campaign
//! (the fit and tuner only need the atlas file). `--assert-clean`
//! applies the structural gate — weights form a distribution, reported
//! violations match the listed pairs, finite significance stats, and
//! the tuner must have switched *and* improved — and exits non-zero on
//! the first violation.

use jobsched_core::experiment::Scale;
use jobsched_sweep::SweepOptions;
use jobsched_tune::{
    build_json, build_markdown, check_clean, fit, parse_atlas, run_demo, run_significance,
    DemoOptions, FitOptions, TunerConfig,
};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    smoke: bool,
    atlas: String,
    seeds: usize,
    scale: Scale,
    scale_name: String,
    scale_explicit: bool,
    jobs: usize,
    demo_jobs: usize,
    initial: String,
    out: String,
    report: String,
    cache: Option<PathBuf>,
    assert_clean: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: tune [--smoke] [--atlas FILE] [--seeds N] [--no-significance] \
         [--scale quick|standard|paper] [--jobs N] [--demo-jobs N] \
         [--initial LABEL] [--out FILE] [--report FILE] [--cache DIR] \
         [--assert-clean]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        atlas: "BENCH_atlas.json".to_string(),
        seeds: 5,
        scale: Scale::standard(),
        scale_name: "standard".to_string(),
        scale_explicit: false,
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        demo_jobs: 800,
        initial: "ljf+none".to_string(),
        out: "BENCH_tune.json".to_string(),
        report: "TUNE.md".to_string(),
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
            "--assert-clean" => args.assert_clean = true,
            "--no-significance" => args.seeds = 0,
            "--atlas" => args.atlas = value(&argv, &mut i),
            "--seeds" => {
                args.seeds = value(&argv, &mut i).parse().unwrap_or_else(|_| usage());
            }
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
            "--demo-jobs" => {
                args.demo_jobs = value(&argv, &mut i).parse().unwrap_or_else(|_| usage());
                if args.demo_jobs == 0 {
                    usage();
                }
            }
            "--initial" => args.initial = value(&argv, &mut i),
            "--out" => args.out = value(&argv, &mut i),
            "--report" => args.report = value(&argv, &mut i),
            "--cache" => args.cache = Some(PathBuf::from(value(&argv, &mut i))),
            _ => usage(),
        }
        i += 1;
    }
    if args.smoke {
        if !args.scale_explicit {
            args.scale = Scale::quick();
            args.scale_name = "quick".to_string();
        }
        args.seeds = args.seeds.min(2);
        args.demo_jobs = args.demo_jobs.min(300);
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();

    // 1. Objective learning from the committed atlas.
    let text = match std::fs::read_to_string(&args.atlas) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tune: cannot read {}: {e}", args.atlas);
            return ExitCode::FAILURE;
        }
    };
    let doc = match jobsched_json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("tune: {} is not valid JSON: {e:?}", args.atlas);
            return ExitCode::FAILURE;
        }
    };
    let atlas = match parse_atlas(&doc) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tune: {} is not a usable atlas: {e}", args.atlas);
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "tune: atlas '{}' — {} workload group(s), {} objectives, {} rows",
        args.atlas,
        atlas.groups.len(),
        atlas.groups[0].objectives.len(),
        atlas.groups[0].points.len()
    );
    let fitted = fit(&atlas, &FitOptions::default());
    eprintln!(
        "tune: learned weights {:?} over {:?} — {} rank violation(s), {} evaluations",
        fitted
            .weights
            .iter()
            .map(|w| (w * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>(),
        fitted.objectives,
        fitted.violations,
        fitted.evaluations
    );
    for g in &fitted.groups {
        if !g.inseparable.is_empty() {
            eprintln!(
                "tune: {} workload — {} rank pair(s) not linearly separable",
                g.workload,
                g.inseparable.len()
            );
        }
    }

    // 2. Multi-seed significance through the cached sweep runner.
    let sig = if args.seeds == 0 {
        None
    } else {
        eprintln!(
            "tune: significance campaign — {} seed(s) at {} scale on {} thread(s)",
            args.seeds, args.scale_name, args.jobs
        );
        let opts = SweepOptions {
            jobs: args.jobs,
            out: args.cache.clone(),
            resume: args.cache.is_some(),
            progress: true,
        };
        match run_significance(args.scale, args.seeds, &opts) {
            Ok(s) => {
                eprintln!(
                    "tune: significance — {} simulated, {} from cache, {} unstable front row(s)",
                    s.simulated,
                    s.cached,
                    s.unstable().len()
                );
                Some(s)
            }
            Err(e) => {
                eprintln!("tune: significance campaign failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    // 3. The live tuner demonstration.
    let demo_opts = DemoOptions {
        jobs: args.demo_jobs,
        initial: args.initial.clone(),
        tuner: TunerConfig::default(),
        ..DemoOptions::default()
    };
    let demo = match run_demo(&atlas, &fitted, &demo_opts) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("tune: tuner demo failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "tune: tuner {} → {} in {} switch(es); learned objective {:.4} vs static {:.4} ({:+.1}%)",
        args.initial,
        demo.tuned.final_scheduler,
        demo.tuned.switches.len(),
        demo.tuned.objective,
        demo.baseline.objective,
        -demo.improvement * 100.0
    );

    if args.assert_clean {
        if let Err(msg) = check_clean(&fitted, sig.as_ref(), Some(&demo)) {
            eprintln!("tune: --assert-clean FAILED: {msg}");
            return ExitCode::FAILURE;
        }
        eprintln!("tune: --assert-clean passed");
    }

    let json = build_json(atlas.scale, &fitted, sig.as_ref(), Some(&demo));
    let text = json.to_string_pretty();
    // The artifact must stay consumable by the repo's own JSON reader.
    jobsched_json::parse(&text).expect("tune JSON must parse");
    if let Err(e) = std::fs::write(&args.out, text + "\n") {
        eprintln!("tune: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    let md = build_markdown(atlas.scale, &fitted, sig.as_ref(), Some(&demo));
    if let Err(e) = std::fs::write(&args.report, md) {
        eprintln!("tune: cannot write {}: {e}", args.report);
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {} and {}", args.out, args.report);
    ExitCode::SUCCESS
}
