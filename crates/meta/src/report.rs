//! The single-cluster vs. multi-cluster comparison behind
//! `BENCH_meta.json` (schema `bench-meta/1`, see EXPERIMENTS.md).
//!
//! For each paper workload (the CTC-like trace of §6.1 and the
//! probabilistic model of §6.2), runs the same jobs through
//!
//! * a single cluster holding all nodes (the paper's configuration), and
//! * a two-site metasystem of equal shares, once per routing policy,
//!   with degradation-triggered forwarding enabled,
//!
//! with FCFS+EASY as the local scheduler everywhere, and reports ART,
//! AWRT, utilization, bounded slowdown, and makespan per configuration.
//! The comparison quantifies the fragmentation cost of partitioning a
//! machine into independent sites — and how much of it each routing
//! policy buys back.

use crate::{ClusterSpec, MetaOutcome, MetaScheduler, RoutingPolicy};
use jobsched_algos::spec::PolicyKind;
use jobsched_algos::view::WeightScheme;
use jobsched_algos::{BackfillMode, ListScheduler};
use jobsched_core::experiment::Scale;
use jobsched_core::objective_select::ObjectiveKind;
use jobsched_json::Json;
use jobsched_metrics::{replay, Objective, OnlineUtilization};
use jobsched_sweep::WorkloadSpec;
use jobsched_workload::{Workload, TARGET_NODES};
use std::time::Instant;

/// Schema tag of the JSON artifact (documented in `EXPERIMENTS.md`).
pub const META_SCHEMA: &str = "bench-meta/1";

/// Sites the machine is partitioned into.
const CLUSTERS: u32 = 2;

/// Base seed shared with the paper harness.
const SEED: u64 = 1999;

fn equal_sites(k: u32, nodes: u32) -> Vec<(ClusterSpec, ListScheduler)> {
    (0..k)
        .map(|i| {
            (
                ClusterSpec::homogeneous(format!("site-{i}"), nodes),
                ListScheduler::new(
                    PolicyKind::Fcfs.policy(WeightScheme::Unweighted),
                    BackfillMode::Easy,
                ),
            )
        })
        .collect()
}

/// One configuration's metrics as a JSON object; a schedule that fails
/// validation from first principles is the `Err`.
fn config_json(
    label: &str,
    forwarding: bool,
    workload: &Workload,
    out: &MetaOutcome,
) -> Result<Json, String> {
    let violations = out.schedule.validate(workload);
    if !violations.is_empty() {
        let listed: Vec<String> = violations.iter().map(|v| format!("    {v}")).collect();
        return Err(format!(
            "{label} on {}: invalid schedule:\n{}",
            workload.name(),
            listed.join("\n")
        ));
    }
    let art = ObjectiveKind::AvgResponseTime.cost(workload, &out.schedule);
    let awrt = ObjectiveKind::AvgWeightedResponseTime.cost(workload, &out.schedule);
    let mut util = OnlineUtilization::new(out.schedule.machine_nodes());
    replay(workload.jobs(), &out.schedule, &mut util);
    let utilization = util.utilization();
    let slowdown = ObjectiveKind::AvgBoundedSlowdown.cost(workload, &out.schedule);
    eprintln!(
        "  {label:<24} ART {art:>12.1}  AWRT {awrt:>12.1}  util {utilization:.3}  \
         bsld {slowdown:>8.2}  forwards {}",
        out.forwards
    );
    Ok(Json::obj([
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
    ]))
}

/// The `bench-meta/1` document end to end. `smoke` picks the CI slice
/// (1 500-job traces) over the committed one (5 000). Every finished
/// schedule is validated from first principles; the first invalid one is
/// the `Err`.
pub fn run(smoke: bool) -> Result<Json, String> {
    let jobs = if smoke { 1_500 } else { 5_000 };
    let scale = Scale {
        ctc_jobs: jobs,
        synthetic_jobs: jobs,
        seed: SEED,
    };
    let site_nodes = TARGET_NODES / CLUSTERS;
    let total_nodes = site_nodes * CLUSTERS;

    let t0 = Instant::now();
    let mut workload_docs = Vec::new();
    for spec in [WorkloadSpec::ctc(scale), WorkloadSpec::probabilistic(scale)] {
        // Both workloads are retargeted to the *site* size so every job
        // fits every site — the metasystem comparison isolates routing
        // quality from feasibility (jobs wider than a site are dropped
        // identically for the single-cluster baseline).
        let mut w = spec.generate();
        w.retarget(site_nodes);
        eprintln!(
            "{}: {} jobs on {CLUSTERS} x {site_nodes} nodes (FCFS+EASY local)",
            spec.kind(),
            w.len()
        );
        // The paper's configuration: all nodes in one site. With one
        // site, routing and forwarding are inert (pinned by this
        // crate's K=1 differential test).
        let single = MetaScheduler::new(
            RoutingPolicy::RoundRobin,
            false,
            equal_sites(1, total_nodes),
        )
        .run(&w);
        let baseline = config_json("single-cluster", false, &w, &single)?;

        let mut policy_docs = Vec::new();
        for policy in RoutingPolicy::all() {
            let out = MetaScheduler::new(policy, true, equal_sites(CLUSTERS, site_nodes)).run(&w);
            policy_docs.push(config_json(policy.label(), true, &w, &out)?);
        }

        workload_docs.push(Json::obj([
            ("name", Json::Str(spec.kind().to_string())),
            ("jobs", Json::UInt(w.len() as u64)),
            ("offered_load", Json::Num(w.offered_load())),
            ("single_cluster", baseline),
            ("policies", Json::Arr(policy_docs)),
        ]));
    }

    // Timing is not an output of the comparison: the artifact stays a
    // pure function of the seed.
    eprintln!("meta: {:.1?} wall", t0.elapsed());
    Ok(Json::obj([
        ("schema", Json::Str(META_SCHEMA.to_string())),
        ("seed", Json::UInt(SEED)),
        ("clusters", Json::UInt(CLUSTERS as u64)),
        ("site_nodes", Json::UInt(site_nodes as u64)),
        ("total_nodes", Json::UInt(total_nodes as u64)),
        (
            "local_scheduler",
            Json::Str("FCFS+EASY-Backfilling".to_string()),
        ),
        // Kept for schema stability: an unclean run never renders.
        ("clean", Json::Bool(true)),
        ("workloads", Json::Arr(workload_docs)),
    ]))
}
