//! The benchmark's own tests: the whole suite at `--smoke` size through
//! the identical code path with every output check on, and the rules the
//! numbers rest on — the percentile rule, span self-time arithmetic,
//! digest stability, the op script as a pure function of the seed, and
//! `BENCHMARK.json` staying in step with `spec.rs`.

use jobsched_json::Json;
use jobsched_perfbench::serve::{script, Plan};
use jobsched_perfbench::spec::{Sizes, END_TO_END, PER_LAYER, WORKLOADS};
use jobsched_perfbench::stats::{highest_tail, p99_or_highest};
use jobsched_perfbench::trace::{Agg, Tracer, HARNESS};
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

/// A fresh output directory for one test, under `bench/out/`.
fn out_dir(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bench(out: &PathBuf, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .env("BENCH_OUT_DIR", out)
        .output()
        .expect("run the bench binary")
}

fn read_json(path: PathBuf) -> Json {
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    jobsched_json::parse(&text).unwrap()
}

#[test]
fn smoke_suite_passes_every_check_on_every_workload() {
    let out = out_dir("suite");
    let t0 = Instant::now();
    let run = bench(&out, &["run", "--all", "--smoke"]);
    assert!(
        run.status.success(),
        "{}{}",
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&run.stderr)
    );
    let traced = bench(&out, &["trace", "--all", "--smoke"]);
    assert!(
        traced.status.success(),
        "{}{}",
        String::from_utf8_lossy(&traced.stdout),
        String::from_utf8_lossy(&traced.stderr)
    );
    // The 20 s budget is for the optimised build the benchmark measures.
    if !cfg!(debug_assertions) {
        assert!(t0.elapsed() < Duration::from_secs(20), "{:?}", t0.elapsed());
    }

    let result = read_json(out.join("result.json"));
    let layers = read_json(out.join("trace-result.json"));
    for w in &WORKLOADS {
        let doc = result.get("workloads").unwrap().get(w.name).unwrap();
        assert_eq!(
            doc.get("correct").unwrap().as_bool(),
            Some(true),
            "{}",
            w.name
        );
        assert_eq!(doc.get("failed").unwrap().as_u64(), Some(0));
        let reps = doc.get("reps").unwrap().as_arr().unwrap();
        assert!(reps.len() >= w.min_reps, "{}: every rep is printed", w.name);
        let e2e = doc.get("end_to_end").unwrap();
        for m in END_TO_END.iter().filter(|m| m.defined_on(w.name)) {
            let v = e2e.get(m.name).unwrap().get("value").unwrap().as_f64();
            assert!(v.is_some(), "{}: {} missing", w.name, m.name);
            if m.in_benchmark_json {
                assert!(v.unwrap() > 0.0, "{}: {} is zero", w.name, m.name);
            }
        }
        let traced = layers.get("workloads").unwrap().get(w.name).unwrap();
        assert_eq!(
            traced.get("correct").unwrap().as_bool(),
            Some(true),
            "{}",
            w.name
        );
        assert!(out.join(format!("trace-{}.json", w.name)).exists());
    }
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn driver_prints_exactly_the_contracted_result_line() {
    let out = out_dir("driver");
    for (trace, names) in [
        (
            "0",
            END_TO_END
                .iter()
                .filter(|m| m.in_benchmark_json)
                .map(|m| (m.name, m.unit))
                .collect::<Vec<_>>(),
        ),
        ("1", PER_LAYER.iter().map(|m| (m.0, m.1)).collect()),
    ] {
        let run = bench(
            &out,
            &[
                "driver",
                "--workload",
                "deep-queue",
                "--seed",
                "5",
                "--seconds",
                "0",
                "--trace",
                trace,
                "--smoke",
            ],
        );
        assert!(run.status.success());
        let stdout = String::from_utf8(run.stdout).unwrap();
        let line = jobsched_json::parse(stdout.lines().last().unwrap()).unwrap();
        let Json::Obj(keys) = &line else { panic!() };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").unwrap().as_bool(), Some(true));
        assert!(line.get("attempted").unwrap().as_u64().unwrap() >= 1);
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!()
        };
        let got: Vec<(&str, &str)> = metrics
            .iter()
            .map(|(k, v)| (k.as_str(), v.get("unit").unwrap().as_str().unwrap()))
            .collect();
        assert_eq!(got, names, "--trace {trace}");
        assert!(metrics
            .iter()
            .all(|(_, v)| v.get("value").unwrap().as_f64().is_some()));
    }
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn sim_digest_is_stable_across_runs_and_moves_with_the_seed() {
    let out = out_dir("digest");
    let digest_of = |seed: &str| {
        let run = bench(
            &out,
            &[
                "driver",
                "--workload",
                "ctc-matrix",
                "--seed",
                seed,
                "--seconds",
                "0",
                "--trace",
                "0",
                "--smoke",
            ],
        );
        assert!(run.status.success());
        let doc = read_json(out.join("run-ctc-matrix.json"));
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
        doc.get("sim_digest").unwrap().as_str().unwrap().to_string()
    };
    let (a, b, c) = (digest_of("7"), digest_of("7"), digest_of("8"));
    assert_eq!(a, b, "same seed, same simulated statistics");
    assert_ne!(a, c, "another seed shakes the trace");
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn a_tail_percentile_needs_ten_samples_beyond_it() {
    let ten: Vec<u64> = (1..=10).collect();
    assert_eq!(highest_tail(&ten), None);
    let eleven: Vec<u64> = (1..=11).collect();
    assert_eq!(highest_tail(&eleven).unwrap().value, 1);
    let many: Vec<u64> = (1..=100_000).collect();
    let t = highest_tail(&many).unwrap();
    assert_eq!(t.value, 99_990);
    assert!((t.percentile - 99.99).abs() < 1e-9);
    assert_eq!(many.iter().filter(|&&x| x > t.value).count(), 10);

    // "p99" is only called p99 when ten samples lie beyond it.
    let k: Vec<u64> = (1..=1000).collect();
    let t = p99_or_highest(&k).unwrap();
    assert_eq!((t.percentile, t.value), (99.0, 990));
    let t = p99_or_highest(&k[..999]).unwrap();
    assert!(t.percentile < 99.0);
    assert_eq!(t.value, 989);
    assert_eq!(p99_or_highest(&[5, 7, 9]), None, "a handful states no tail");
}

#[test]
fn span_self_time_is_span_minus_children_minus_aggregates() {
    // root 0..1000 (harness); child a 100..500 (layer x) holding
    // grandchild 200..300 (layer y) and an aggregate of 150 ns (layer
    // z); child b 600..900 (layer x).
    let mut t = Tracer::new();
    let base = Instant::now();
    let at = |ns: u64| base + Duration::from_nanos(ns);
    let root = t.record("root", HARNESS, None, 0, at(0), at(1000));
    let a = t.record("a", "x", Some(root), 1, at(100), at(500));
    let g = t.record("g", "y", Some(a), 1, at(200), at(300));
    let b = t.record("b", "x", Some(root), 2, at(600), at(900));
    let mut calls = Agg::new("call", "z");
    calls.add_at(100, 0);
    calls.add_at(50, 300);
    t.fold(a, calls);

    let own = t.self_ns();
    assert_eq!(own[root], 1000 - 400 - 300);
    assert_eq!(own[a], 400 - 100 - 150);
    assert_eq!((own[g], own[b]), (100, 300));
    // Self times and aggregates partition the root exactly.
    let layers = t.layer_self_ns();
    assert_eq!(layers.values().sum::<u64>(), 1000);
    assert_eq!((layers["x"], layers["y"], layers["z"]), (450, 100, 150));
    assert_eq!(layers[HARNESS], 300);
    assert!((t.unattributed_ratio(root) - 0.3).abs() < 1e-12);
    assert_eq!(t.unattributed_ratio(b), 0.0);

    // A child whose own clock reads overshoot the parent floors it at 0.
    let p = t.record("p", HARNESS, None, 0, at(2000), at(2100));
    t.record("c", "x", Some(p), 0, at(2000), at(2105));
    assert_eq!(t.self_ns()[p], 0);
}

#[test]
fn the_op_script_is_a_pure_function_of_the_seed() {
    let sizes = Sizes {
        serve_submit_jobs: 700,
        serve_mixed_jobs: 700,
        serve_block: 128,
        ..Sizes::smoke()
    };
    for plan in [Plan::submit(&sizes), Plan::mixed(&sizes)] {
        assert_eq!(script(&plan, 9), script(&plan, 9), "{}", plan.name);
        assert_ne!(script(&plan, 9), script(&plan, 10), "{}", plan.name);
    }
}

#[test]
fn benchmark_json_is_in_step_with_the_spec() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let doc = read_json(root.join("BENCHMARK.json"));
    let names = |key: &str, field: &str| -> Vec<String> {
        doc.get(key)
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|e| e.get(field).unwrap().as_str().unwrap().to_string())
            .collect()
    };
    assert_eq!(
        names("workloads", "name"),
        WORKLOADS.map(|w| w.name.to_string())
    );
    assert_eq!(
        names("workloads", "why"),
        WORKLOADS.map(|w| w.why.to_string())
    );
    let e2e: Vec<_> = END_TO_END.iter().filter(|m| m.in_benchmark_json).collect();
    assert_eq!(
        names("end_to_end", "name"),
        e2e.iter().map(|m| m.name).collect::<Vec<_>>()
    );
    for (entry, m) in doc
        .get("end_to_end")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .zip(&e2e)
    {
        assert_eq!(entry.get("unit").unwrap().as_str(), Some(m.unit));
        assert_eq!(
            entry.get("better").unwrap().as_str(),
            Some(m.better.label())
        );
        assert_eq!(entry.get("bound").unwrap().as_f64(), Some(m.bound));
    }
    assert_eq!(
        names("per_layer", "name"),
        PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
    );
    for (entry, m) in doc
        .get("per_layer")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .zip(PER_LAYER)
    {
        assert_eq!(entry.get("unit").unwrap().as_str(), Some(m.1));
        assert_eq!(entry.get("better").unwrap().as_str(), Some(m.2.label()));
    }
    assert_eq!(doc.get("run_seconds").unwrap().as_u64(), Some(10));
}
