//! Single-cluster vs. multi-cluster metascheduling benchmark.
//!
//! For each paper workload (the CTC-like trace of §6.1 and the
//! probabilistic model of §6.2), runs the same jobs through
//!
//! * a single cluster holding all nodes (the paper's configuration), and
//! * a K-site metasystem of equal shares, once per routing policy, with
//!   degradation-triggered forwarding enabled,
//!
//! with FCFS+EASY as the local scheduler everywhere, and reports ART,
//! AWRT, utilization, bounded slowdown, and makespan per configuration.
//! The comparison quantifies the fragmentation cost of partitioning a
//! machine into independent sites — and how much of it each routing
//! policy buys back.
//!
//! Writes `BENCH_meta.json` (schema `bench-meta/1`, see EXPERIMENTS.md).
//!
//! Usage: `meta_bench [--jobs N] [--clusters K] [--seed S] [--smoke]
//!                    [--assert-clean] [--out PATH]`

use jobsched_algos::spec::PolicyKind;
use jobsched_algos::view::WeightScheme;
use jobsched_algos::{BackfillMode, ListScheduler};
use jobsched_json::Json;
use jobsched_meta::{ClusterSpec, MetaOutcome, MetaScheduler, RoutingPolicy};
use jobsched_metrics::{
    AvgBoundedSlowdown, AvgResponseTime, AvgWeightedResponseTime, Objective, Utilization,
};
use jobsched_workload::ctc::prepared_ctc_workload;
use jobsched_workload::probabilistic::probabilistic_workload;
use jobsched_workload::{Workload, TARGET_NODES};
use std::time::Instant;

/// Base seed shared with the paper harness.
const SEED: u64 = 1999;

struct Args {
    jobs: usize,
    clusters: u32,
    seed: u64,
    assert_clean: bool,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        jobs: 5_000,
        clusters: 2,
        seed: SEED,
        assert_clean: false,
        out: "BENCH_meta.json".to_string(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = |i: usize| {
            argv.get(i + 1).unwrap_or_else(|| {
                eprintln!("{} needs a value", argv[i]);
                std::process::exit(2);
            })
        };
        match argv[i].as_str() {
            "--jobs" => {
                args.jobs = value(i).parse().expect("--jobs N");
                i += 2;
            }
            "--clusters" => {
                args.clusters = value(i).parse().expect("--clusters K");
                i += 2;
            }
            "--seed" => {
                args.seed = value(i).parse().expect("--seed S");
                i += 2;
            }
            "--smoke" => {
                args.jobs = 1_500;
                i += 1;
            }
            "--assert-clean" => {
                args.assert_clean = true;
                i += 1;
            }
            "--out" => {
                args.out = value(i).clone();
                i += 2;
            }
            bad => {
                eprintln!(
                    "unknown argument: {bad}\nusage: meta_bench [--jobs N] [--clusters K] \
                     [--seed S] [--smoke] [--assert-clean] [--out PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    assert!(args.clusters >= 1, "--clusters must be at least 1");
    args
}

fn fcfs_easy() -> ListScheduler {
    ListScheduler::new(
        PolicyKind::Fcfs.policy(WeightScheme::Unweighted),
        BackfillMode::Easy,
    )
}

fn equal_sites(k: u32, nodes: u32) -> Vec<(ClusterSpec, ListScheduler)> {
    (0..k)
        .map(|i| {
            (
                ClusterSpec::homogeneous(format!("site-{i}"), nodes),
                fcfs_easy(),
            )
        })
        .collect()
}

/// One configuration's metrics as a JSON object.
fn report(
    label: &str,
    forwarding: bool,
    workload: &Workload,
    out: &MetaOutcome,
    clean: &mut bool,
) -> Json {
    let violations = out.schedule.validate(workload);
    if !violations.is_empty() {
        *clean = false;
        eprintln!("  {label}: INVALID schedule:");
        for v in &violations {
            eprintln!("    {v}");
        }
    }
    let art = AvgResponseTime.cost(workload, &out.schedule);
    let awrt = AvgWeightedResponseTime.cost(workload, &out.schedule);
    let utilization = -Utilization.cost(workload, &out.schedule);
    let slowdown = AvgBoundedSlowdown.cost(workload, &out.schedule);
    eprintln!(
        "  {label:<24} ART {art:>12.1}  AWRT {awrt:>12.1}  util {utilization:.3}  \
         bsld {slowdown:>8.2}  forwards {}",
        out.forwards
    );
    Json::obj([
        ("policy", Json::Str(label.to_string())),
        ("forwarding", Json::Bool(forwarding)),
        ("art", Json::Num(art)),
        ("awrt", Json::Num(awrt)),
        ("utilization", Json::Num(utilization)),
        ("bounded_slowdown", Json::Num(slowdown)),
        ("makespan", Json::UInt(out.schedule.makespan())),
        ("forwards", Json::UInt(out.forwards)),
        (
            "per_cluster_jobs",
            Json::Arr(
                out.per_cluster_jobs
                    .iter()
                    .map(|&n| Json::UInt(n))
                    .collect(),
            ),
        ),
    ])
}

fn main() {
    let args = parse_args();
    let site_nodes = TARGET_NODES / args.clusters;
    let total_nodes = site_nodes * args.clusters;
    let mut clean = true;

    // Both workloads are retargeted to the *site* size so every job fits
    // every site — the metasystem comparison isolates routing quality
    // from feasibility (jobs wider than a site are dropped identically
    // for the single-cluster baseline).
    let ctc_base = prepared_ctc_workload(args.jobs, args.seed);
    let mut ctc = ctc_base.clone();
    ctc.retarget(site_nodes);
    let mut prob = probabilistic_workload(&ctc_base, args.jobs, args.seed + 1);
    prob.retarget(site_nodes);

    let t0 = Instant::now();
    let mut workload_docs = Vec::new();
    for (name, w) in [("ctc", &ctc), ("probabilistic", &prob)] {
        eprintln!(
            "{name}: {} jobs on {} x {site_nodes} nodes (FCFS+EASY local)",
            w.len(),
            args.clusters
        );
        // The paper's configuration: all nodes in one site. With one
        // site, routing and forwarding are inert (pinned by the meta
        // crate's K=1 differential test).
        let single = MetaScheduler::new(
            RoutingPolicy::RoundRobin,
            false,
            equal_sites(1, total_nodes),
        )
        .run(w);
        let baseline = report("single-cluster", false, w, &single, &mut clean);

        let mut policy_docs = Vec::new();
        for policy in RoutingPolicy::all() {
            let meta = MetaScheduler::new(policy, true, equal_sites(args.clusters, site_nodes));
            let out = meta.run(w);
            policy_docs.push(report(policy.label(), true, w, &out, &mut clean));
        }

        workload_docs.push(Json::obj([
            ("name", Json::Str(name.to_string())),
            ("jobs", Json::UInt(w.len() as u64)),
            ("offered_load", Json::Num(w.offered_load())),
            ("single_cluster", baseline),
            ("policies", Json::Arr(policy_docs)),
        ]));
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;

    let doc = Json::obj([
        ("schema", Json::Str("bench-meta/1".to_string())),
        ("seed", Json::UInt(args.seed)),
        ("clusters", Json::UInt(args.clusters as u64)),
        ("site_nodes", Json::UInt(site_nodes as u64)),
        ("total_nodes", Json::UInt(total_nodes as u64)),
        (
            "local_scheduler",
            Json::Str("FCFS+EASY-Backfilling".to_string()),
        ),
        ("wall_ns", Json::UInt(wall_ns)),
        ("clean", Json::Bool(clean)),
        ("workloads", Json::Arr(workload_docs)),
    ]);
    let text = doc.to_string_pretty();
    jobsched_json::parse(&text).expect("bench JSON must parse");
    std::fs::write(&args.out, text + "\n").expect("write bench output");
    eprintln!("wrote {} in {:.1}s", args.out, wall_ns as f64 / 1e9);

    if args.assert_clean && !clean {
        std::process::exit(1);
    }
}
