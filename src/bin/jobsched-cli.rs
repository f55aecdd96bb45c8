//! `jobsched-cli` — schedule a Standard Workload Format trace with any of
//! the paper's algorithms and report the §4 objectives.
//!
//! ```text
//! jobsched-cli simulate --swf trace.swf [--algo fcfs|psrs|smart-ffia|smart-nfiw|gg|sjf|wfp3|...]
//!              [--backfill none|conservative|easy] [--weighted]
//!              [--nodes N] [--clean]
//! jobsched-cli generate --out trace.swf [--jobs N] [--seed S]
//! jobsched-cli stats --swf trace.swf
//! ```
//!
//! `--algo` takes any rigid row's `PolicyKind::tag` (`gg` is short for
//! `garey-graham`). `simulate` prepares the trace exactly as §6.1 does when `--nodes` is
//! below the trace's machine (delete wider jobs, retarget), optionally
//! applies the archive cleaning rules (`--clean`), runs the online
//! simulation and prints ART, AWRT, utilization, makespan and fairness.

use jobsched::algos::spec::PolicyKind;
use jobsched::algos::view::WeightScheme;
use jobsched::algos::{AlgorithmSpec, BackfillMode};
use jobsched::core::objective_select::ObjectiveKind;
use jobsched::metrics::fairness::{user_fairness, worst_to_mean};
use jobsched::metrics::Objective;
use jobsched::sim::simulate;
use jobsched::workload::archive::{clean, SwfHeader};
use jobsched::workload::ctc::CtcModel;
use jobsched::workload::stats::WorkloadStats;
use jobsched::workload::Workload;
use std::collections::HashMap;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: jobsched-cli <simulate|generate|stats> [options]");
    eprintln!("  simulate --swf FILE [--algo fcfs|psrs|smart-ffia|smart-nfiw|gg|sjf|wfp3|...]");
    eprintln!("           [--backfill none|conservative|easy] [--weighted] [--nodes N] [--clean]");
    eprintln!("  generate --out FILE [--jobs N] [--seed S]");
    eprintln!("  stats    --swf FILE");
    ExitCode::from(2)
}

/// Parse `args` against a subcommand's flag table of `(name, takes a
/// value)` rows: an unknown flag, or a value flag at the end of the line
/// or followed by another flag, is a usage error.
fn parse_flags(
    args: &[String],
    allowed: &[(&str, bool)],
) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let &(key, takes_value) = arg
            .strip_prefix("--")
            .and_then(|key| allowed.iter().find(|(name, _)| *name == key))
            .ok_or_else(|| format!("unknown flag '{arg}'"))?;
        let value = if takes_value {
            args.next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{arg} needs a value"))?
                .clone()
        } else {
            "true".into()
        };
        flags.insert(key.to_string(), value);
    }
    Ok(flags)
}

fn load(flags: &HashMap<String, String>) -> Result<Workload, String> {
    let path = flags.get("swf").ok_or("missing --swf FILE")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let header = SwfHeader::parse(&text);
    if let Some(site) = &header.installation {
        eprintln!("# trace from: {site}");
    }
    Workload::from_swf(&text, path).map_err(|e| e.to_string())
}

fn cmd_simulate(flags: HashMap<String, String>) -> Result<(), String> {
    let mut workload = load(&flags)?;
    if flags.contains_key("clean") {
        let report = clean(&workload, 24 * 3600);
        eprintln!(
            "# cleaning removed/repaired {} anomalies",
            report.anomalies.len()
        );
        workload = report.workload;
    }
    if let Some(n) = flags.get("nodes") {
        let nodes: u32 = n.parse().map_err(|_| "--nodes expects an integer")?;
        let dropped = workload.retarget(nodes);
        workload.homogenize();
        eprintln!("# retargeted to {nodes} nodes ({dropped} too-wide jobs deleted, §6.1)");
    }
    workload.validate().map_err(|e| e.to_string())?;

    // Any rigid row by its tag; the time-shared rows need another engine.
    let kind = match flags.get("algo").map(String::as_str).unwrap_or("fcfs") {
        "gg" => PolicyKind::GareyGraham,
        tag => PolicyKind::from_tag(tag)
            .filter(|k| !k.time_shared())
            .ok_or_else(|| format!("unknown --algo '{tag}'"))?,
    };
    let backfill = flags.get("backfill").map(String::as_str).unwrap_or("easy");
    let backfill = BackfillMode::from_tag(backfill)
        .ok_or_else(|| format!("unknown --backfill '{backfill}'"))?;
    let scheme = if flags.contains_key("weighted") {
        WeightScheme::ProjectedArea
    } else {
        WeightScheme::Unweighted
    };

    let spec = AlgorithmSpec::new(kind, backfill);
    eprintln!("# scheduling {} jobs with {}", workload.len(), spec.name());
    let mut scheduler = spec.build_dyn(scheme, true);
    let outcome = simulate(&workload, scheduler.as_mut());
    assert!(outcome.schedule.validate(&workload).is_empty());

    let s = &outcome.schedule;
    println!("jobs                : {}", workload.len());
    println!("machine nodes       : {}", workload.machine_nodes());
    println!(
        "avg response time   : {:.1} s",
        ObjectiveKind::AvgResponseTime.cost(&workload, s)
    );
    println!(
        "avg weighted resp.  : {:.4e}",
        ObjectiveKind::AvgWeightedResponseTime.cost(&workload, s)
    );
    println!(
        "makespan            : {:.2} days",
        s.makespan() as f64 / 86_400.0
    );
    println!(
        "utilization         : {:.1}%",
        100.0 * s.utilization(&workload)
    );
    println!("user fairness (Jain): {:.3}", user_fairness(&workload, s));
    println!("worst/mean user ART : {:.2}", worst_to_mean(&workload, s));
    println!("peak wait queue     : {}", outcome.peak_queue);
    println!("scheduler CPU       : {:.3?}", outcome.scheduler_cpu);
    Ok(())
}

fn cmd_generate(flags: HashMap<String, String>) -> Result<(), String> {
    let out = flags.get("out").ok_or("missing --out FILE")?;
    let jobs: usize = flags
        .get("jobs")
        .map(|s| s.parse().map_err(|_| "--jobs expects an integer"))
        .transpose()?
        .unwrap_or(10_000);
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse().map_err(|_| "--seed expects an integer"))
        .transpose()?
        .unwrap_or(1999);
    let w = CtcModel::with_jobs(jobs).generate(seed);
    std::fs::write(out, w.to_swf()).map_err(|e| format!("{out}: {e}"))?;
    eprintln!(
        "# wrote {} jobs ({} nodes) to {out}",
        w.len(),
        w.machine_nodes()
    );
    Ok(())
}

fn cmd_stats(flags: HashMap<String, String>) -> Result<(), String> {
    let w = load(&flags)?;
    print!("{}", WorkloadStats::of(&w));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    type Command = fn(HashMap<String, String>) -> Result<(), String>;
    let (allowed, run): (&[(&str, bool)], Command) = match cmd.as_str() {
        "simulate" => (
            &[
                ("swf", true),
                ("algo", true),
                ("backfill", true),
                ("weighted", false),
                ("nodes", true),
                ("clean", false),
            ],
            cmd_simulate,
        ),
        "generate" => (
            &[("out", true), ("jobs", true), ("seed", true)],
            cmd_generate,
        ),
        "stats" => (&[("swf", true)], cmd_stats),
        _ => return usage(),
    };
    let result = match parse_flags(&args[1..], allowed) {
        Ok(flags) => run(flags),
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
