//! `bench`: the repo's one performance benchmark.
//!
//! ```text
//! bench run     [--all | --workload W]... [--seed S] [--smoke] [--seconds N] [--write-baseline]
//! bench trace   [--all | --workload W]... [--seed S] [--smoke]
//! bench check   [--seed S] [--smoke] [--seconds N]
//! bench compare A.json B.json
//! bench record  [RESULT.json]
//! bench driver  --workload W --seed S --seconds N --trace 0|1      (one process = one workload)
//! ```
//!
//! `run` and `trace` re-execute this binary once per workload
//! (`bench driver …`), so every workload's `peak_rss_mb` is its own
//! process's high-water mark. `bench daemon …` is the child the serve
//! workloads talk to. Everything is written under `bench/out/`.

use jobsched_json::Json;
use jobsched_perfbench::batch::{self, Matrix};
use jobsched_perfbench::harness::{Ctx, RunReport, TraceReport};
use jobsched_perfbench::report;
use jobsched_perfbench::serve::{self, Plan};
use jobsched_perfbench::spec::{Sizes, DEFAULT_SEED, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Budget of a workload's timed phase when `--seconds` is not given;
/// equals `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

fn all_workloads() -> Vec<String> {
    WORKLOADS.iter().map(|w| w.name.to_string()).collect()
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench run|trace [--all | --workload W]... [--seed S] [--smoke] [--seconds N]\n       \
         bench check [--seed S] [--smoke] [--seconds N]\n       \
         bench compare A.json B.json\n       \
         bench record [RESULT.json]\n       \
         bench driver --workload W --seed S --seconds N --trace 0|1 [--smoke]\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

/// `bench/` of the checkout this binary was built from.
fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `bench/out/`, or `$BENCH_OUT_DIR` (tests running side by side).
fn out_dir() -> PathBuf {
    let dir =
        std::env::var_os("BENCH_OUT_DIR").map_or_else(|| bench_dir().join("out"), PathBuf::from);
    std::fs::create_dir_all(&dir).expect("create bench/out");
    dir
}

#[derive(Clone, Debug)]
struct Options {
    workloads: Vec<String>,
    seed: u64,
    smoke: bool,
    seconds: Option<f64>,
    trace: bool,
    write_baseline: bool,
    positional: Vec<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        smoke: false,
        seconds: None,
        trace: false,
        write_baseline: false,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--all" => o.workloads = all_workloads(),
            "--workload" => {
                let w = value("a workload name")?;
                if !WORKLOADS.iter().any(|d| d.name == w) {
                    return Err(format!("unknown workload '{w}'"));
                }
                o.workloads.push(w);
            }
            "--seed" => {
                o.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                o.seconds = Some(s);
            }
            "--trace" => {
                o.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--smoke" => o.smoke = true,
            "--write-baseline" => o.write_baseline = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => o.positional.push(arg.clone()),
        }
    }
    Ok(o)
}

impl Options {
    fn ctx(&self) -> Ctx {
        Ctx {
            seed: self.seed,
            sizes: if self.smoke {
                Sizes::smoke()
            } else {
                Sizes::full()
            },
            // A smoke run makes each workload's minimum repetitions only.
            seconds: self
                .seconds
                .unwrap_or(if self.smoke { 0.0 } else { DEFAULT_SECONDS }),
            out_dir: out_dir(),
        }
    }
}

fn run_workload(name: &str, ctx: &Ctx) -> RunReport {
    match name {
        "ctc-matrix" => batch::run_matrix(Matrix::Ctc, ctx),
        "deep-queue" => batch::run_matrix(Matrix::DeepQueue, ctx),
        "stream-2m" => batch::run_stream(ctx),
        "atlas-sweep" => batch::run_atlas(ctx),
        "serve-submit" => serve::run(&Plan::submit(&ctx.sizes), ctx),
        "serve-mixed" => serve::run(&Plan::mixed(&ctx.sizes), ctx),
        other => unreachable!("parse_options admitted {other}"),
    }
}

fn trace_workload(name: &str, ctx: &Ctx) -> TraceReport {
    match name {
        "ctc-matrix" => batch::trace_matrix(Matrix::Ctc, ctx),
        "deep-queue" => batch::trace_matrix(Matrix::DeepQueue, ctx),
        "stream-2m" => batch::trace_stream(ctx),
        "atlas-sweep" => batch::trace_atlas(ctx),
        "serve-submit" => serve::trace(&Plan::submit(&ctx.sizes), ctx),
        "serve-mixed" => serve::trace(&Plan::mixed(&ctx.sizes), ctx),
        other => unreachable!("parse_options admitted {other}"),
    }
}

fn write_json(path: &Path, doc: &Json) {
    std::fs::write(path, doc.to_string_pretty() + "\n")
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// `bench driver`: one workload in this process. Detail goes to
/// `bench/out/`, the result line — last on stdout — to the caller.
fn driver(o: &Options) -> ExitCode {
    let [name] = o.workloads.as_slice() else {
        eprintln!("bench driver: exactly one --workload");
        return ExitCode::from(2);
    };
    let ctx = o.ctx();
    let line = if o.trace {
        let report = trace_workload(name, &ctx);
        write_json(
            &ctx.out_dir.join(format!("layers-{name}.json")),
            &report::trace_json(&report),
        );
        report
            .tracer
            .write_chrome(&ctx.out_dir.join(format!("trace-{name}.json")))
            .expect("write trace under bench/out");
        report::driver_trace_line(&report)
    } else {
        let mut report = run_workload(name, &ctx);
        // At the default seed the simulated statistics are pinned to the
        // committed digest; any other seed has had its self-consistency
        // checks inside the workload.
        if ctx.seed == DEFAULT_SEED && !o.write_baseline {
            let want = report::committed_digest(name, o.smoke);
            let got = report.sim_digest.clone();
            report.check(want.as_deref() == Some(got.as_str()), || {
                format!("sim_digest {got} != committed {want:?}")
            });
        }
        write_json(
            &ctx.out_dir.join(format!("run-{name}.json")),
            &report::run_json(&report),
        );
        report::driver_run_line(&report)
    };
    println!("{line}");
    ExitCode::SUCCESS
}

/// Run `bench driver` for one workload in a child process; its detail
/// document on success.
fn spawn_driver(name: &str, o: &Options, trace: bool) -> Result<Json, String> {
    let ctx = o.ctx();
    let mut cmd = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    cmd.args(["driver", "--workload", name])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &ctx.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if o.smoke {
        cmd.arg("--smoke");
    }
    if o.write_baseline {
        cmd.arg("--write-baseline");
    }
    let out = cmd.output().map_err(|e| format!("spawn {name}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{name}: driver exited with {}", out.status));
    }
    let file = if trace { "layers" } else { "run" };
    let path = ctx.out_dir.join(format!("{file}-{name}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    jobsched_json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One full set: every selected workload, each in its own process.
/// `None` if a workload could not be run at all.
fn run_set(o: &Options, trace: bool, quiet: bool) -> Option<Json> {
    let mut docs = Vec::new();
    for name in &o.workloads {
        match spawn_driver(name, o, trace) {
            Ok(doc) => {
                if !quiet {
                    if trace {
                        report::print_trace(&doc);
                    } else {
                        report::print_run(&doc);
                    }
                }
                docs.push((name.clone(), doc));
            }
            Err(e) => {
                eprintln!("bench: {e}");
                return None;
            }
        }
    }
    Some(report::suite_json(o.seed, o.smoke, docs))
}

fn all_correct(suite: &Json) -> bool {
    let Some(Json::Obj(workloads)) = suite.get("workloads") else {
        return false;
    };
    workloads
        .iter()
        .all(|(_, w)| w.get("correct").and_then(Json::as_bool) == Some(true))
}

fn run_or_trace(mut o: Options, trace: bool) -> ExitCode {
    if o.workloads.is_empty() {
        o.workloads = all_workloads();
    }
    let Some(suite) = run_set(&o, trace, false) else {
        return ExitCode::FAILURE;
    };
    let file = if trace {
        "trace-result.json"
    } else {
        "result.json"
    };
    let path = out_dir().join(file);
    write_json(&path, &suite);
    println!("wrote {}", path.display());
    if o.write_baseline && !trace {
        let path = bench_dir().join("baseline.json");
        // The file on disk may be newer than the copy compiled in.
        let old = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| jobsched_json::parse(&text).ok())
            .unwrap_or(Json::Null);
        write_json(&path, &report::baseline_json(&old, &suite));
        println!("wrote {}", path.display());
    }
    if all_correct(&suite) {
        ExitCode::SUCCESS
    } else {
        eprintln!("bench: output checks failed");
        ExitCode::FAILURE
    }
}

/// `bench check`: two full sets back to back; the same code must agree
/// with itself within the benchmark's own bounds.
fn check(mut o: Options) -> ExitCode {
    o.workloads = all_workloads();
    let mut sets = Vec::new();
    for k in 1..=2 {
        println!("-- set {k} of 2 --");
        let Some(suite) = run_set(&o, false, false) else {
            return ExitCode::FAILURE;
        };
        write_json(&out_dir().join(format!("check-set{k}.json")), &suite);
        sets.push(suite);
    }
    let deltas = report::compare(&sets[0], &sets[1], !o.smoke);
    let within = report::print_compare(&deltas, ("set 1", "set 2"));
    let correct = sets.iter().all(all_correct);
    if o.smoke {
        println!("--smoke: bounds not enforced");
    }
    if correct && (within || o.smoke) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn read_suite(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    jobsched_json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `bench compare A B`: B against A, regression direction from `better`.
fn compare(o: &Options) -> ExitCode {
    let [a, b] = o.positional.as_slice() else {
        return usage();
    };
    match (read_suite(a), read_suite(b)) {
        (Ok(base), Ok(new)) => {
            let deltas = report::compare(&base, &new, false);
            if report::print_compare(&deltas, (a, b)) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("bench compare: {e}");
            }
            ExitCode::from(2)
        }
    }
}

/// `bench record`: append this commit's medians to `history.jsonl`.
fn record(o: &Options) -> ExitCode {
    let default = out_dir().join("result.json");
    let path = o
        .positional
        .first()
        .cloned()
        .unwrap_or_else(|| default.display().to_string());
    let result = match read_suite(&path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench record: {e} (run `bench run --all` first)");
            return ExitCode::from(2);
        }
    };
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .current_dir(bench_dir())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let commit = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty = git(&["status", "--porcelain"]).is_none_or(|s| !s.is_empty());
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let line = report::history_line(&result, &commit, dirty, now);
    let history = bench_dir().join("history.jsonl");
    match report::append_history(&history, &line) {
        Ok(()) => {
            println!("appended {commit} to {}", history.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench record: {}: {e}", history.display());
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return usage();
    };
    if command == "daemon" {
        serve::daemon_main(rest);
    }
    let options = match parse_options(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bench: {e}");
            return usage();
        }
    };
    match command.as_str() {
        "run" => run_or_trace(options, false),
        "trace" => run_or_trace(options, true),
        "check" => check(options),
        "compare" => compare(&options),
        "record" => record(&options),
        "driver" => driver(&options),
        _ => usage(),
    }
}
