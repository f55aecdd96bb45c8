//! Sharding preserves the determinism contract, shard-wise.
//!
//! Shard k of N owns exactly the job ids `≡ k (mod N)` and schedules
//! them on its own `machine_nodes`-node machine. So the differential
//! oracle is batch [`simulate`]: the same trace served through 1, 2,
//! and 4 shards must place every job at *exactly* the start/completion
//! a batch run of its residue-class subtrace produces — and the merged
//! `metrics` reply must be the per-shard parts folded with the
//! documented rules (counters summed, makespan the max).

use jobsched_json::Json;
use jobsched_serve::client::Client;
use jobsched_serve::server::Server;
use jobsched_serve::{SchedulerSpec, ServeConfig};
use jobsched_sim::simulate;
use jobsched_workload::ctc::prepared_ctc_workload;
use jobsched_workload::{Job, Time, Workload};

fn submit_request(job: &Job) -> Json {
    Json::obj([
        ("op", Json::Str("submit".into())),
        ("id", Json::UInt(job.id.0 as u64)),
        ("at", Json::UInt(job.submit)),
        ("nodes", Json::UInt(job.nodes as u64)),
        ("requested", Json::UInt(job.requested_time)),
        ("runtime", Json::UInt(job.runtime)),
        ("user", Json::UInt(job.user as u64)),
    ])
}

fn op(name: &str) -> Json {
    Json::obj([("op", Json::Str(name.into()))])
}

/// Batch oracle: simulate each residue-class subtrace on its own
/// machine, returning every job's (start, completion) in the id order
/// of `workload`, plus each shard's batch makespan.
///
/// `Workload::new` renumbers the subtrace to 0..m in submit order; the
/// original trace's ids also follow submit order, so the renumbering is
/// order-preserving within the residue class and the batch tie-breaks
/// match the shard engine's id-order admissions.
fn batch_sharded(spec: &str, workload: &Workload, shards: usize) -> (Vec<(Time, Time)>, Vec<Time>) {
    let mut starts = vec![(0, 0); workload.len()];
    let mut makespans = Vec::with_capacity(shards);
    for k in 0..shards {
        let originals: Vec<&Job> = workload
            .jobs()
            .iter()
            .filter(|j| j.id.0 as usize % shards == k)
            .collect();
        let sub = Workload::new(
            "shard",
            workload.machine_nodes(),
            originals.iter().map(|j| (*j).clone()).collect(),
        );
        // Every spec the daemon accepts, priority rows included, builds
        // the ListScheduler the engine runs.
        let mut scheduler = SchedulerSpec::parse(spec).expect("spec parses").build();
        let out = simulate(&sub, &mut scheduler);
        makespans.push(out.schedule.makespan());
        for (pos, orig) in originals.iter().enumerate() {
            let p = out
                .schedule
                .placement(sub.jobs()[pos].id)
                .expect("every subtrace job is placed");
            starts[orig.id.index()] = (p.start, p.completion);
        }
    }
    (starts, makespans)
}

/// Served run: `clients` racing connections, then advance to
/// quiescence; returns placements plus the final merged metrics reply.
fn served_sharded(
    spec: &str,
    workload: &Workload,
    shards: usize,
    clients: usize,
) -> (Vec<(Time, Time)>, Json) {
    let config = ServeConfig {
        machine_nodes: workload.machine_nodes(),
        scheduler: SchedulerSpec::parse(spec).expect("spec parses"),
        virtual_clock: true,
        queue_bound: workload.len() + 1,
        max_connections: clients + 2,
        shards,
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).expect("bind loopback");
    let addr = server.addr();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let jobs = workload.jobs();
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for job in jobs.iter().skip(c).step_by(clients) {
                    client.expect_ok(submit_request(job)).expect("submit");
                }
            });
        }
    });
    let mut control = Client::connect(addr).expect("connect control");
    control.expect_ok(op("advance")).expect("advance");
    let placements = workload
        .jobs()
        .iter()
        .map(|job| {
            let r = control
                .expect_ok(Json::obj([
                    ("op", Json::Str("status".into())),
                    ("id", Json::UInt(job.id.0 as u64)),
                ]))
                .expect("status");
            assert_eq!(
                r.get("state").and_then(|v| v.as_str()),
                Some("done"),
                "job {} not done under {shards} shard(s): {}",
                job.id.0,
                r.to_string_compact()
            );
            (
                r.get("start").and_then(|v| v.as_u64()).expect("start"),
                r.get("completion")
                    .and_then(|v| v.as_u64())
                    .expect("completion"),
            )
        })
        .collect();
    let metrics = control.expect_ok(op("metrics")).expect("metrics");
    control.expect_ok(op("shutdown")).expect("shutdown");
    server.join();
    (placements, metrics)
}

fn get_u64(j: &Json, k: &str) -> u64 {
    j.get(k)
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("missing {k} in {}", j.to_string_compact()))
}

fn assert_shard_identical(spec: &str, workload: &Workload) {
    for shards in [1usize, 2, 4] {
        let (batch, batch_makespans) = batch_sharded(spec, workload, shards);
        let (served, metrics) = served_sharded(spec, workload, shards, 4);
        assert_eq!(
            served, batch,
            "'{spec}' over {shards} shard(s) diverged from per-residue batch runs"
        );

        // Merged metrics: counters sum, makespan is the shard max.
        let total = workload.len() as u64;
        assert_eq!(
            get_u64(&metrics, "jobs_submitted"),
            total,
            "{spec}/{shards}"
        );
        assert_eq!(get_u64(&metrics, "jobs_finished"), total, "{spec}/{shards}");
        let max_makespan = batch_makespans.iter().copied().max().unwrap_or(0);
        assert_eq!(
            get_u64(&metrics, "makespan"),
            max_makespan,
            "{spec}/{shards}"
        );

        if shards == 1 {
            // Single shard replies verbatim: no per-shard breakdown.
            assert!(metrics.get("shards").is_none());
            continue;
        }
        // The per-shard parts must each match their batch subtrace.
        let parts = match metrics.get("shards") {
            Some(Json::Arr(parts)) => parts,
            other => panic!("merged metrics lack a shards array: {other:?}"),
        };
        assert_eq!(parts.len(), shards);
        let mut finished_sum = 0;
        for (k, part) in parts.iter().enumerate() {
            let expect = workload
                .jobs()
                .iter()
                .filter(|j| j.id.0 as usize % shards == k)
                .count() as u64;
            assert_eq!(
                get_u64(part, "jobs_finished"),
                expect,
                "shard {k} of {shards} finished-count diverged for '{spec}'"
            );
            assert_eq!(
                get_u64(part, "makespan"),
                batch_makespans[k],
                "shard {k} of {shards} makespan diverged for '{spec}'"
            );
            finished_sum += get_u64(part, "jobs_finished");
        }
        assert_eq!(finished_sum, total);
    }
}

#[test]
fn sharded_serving_matches_batch_for_paper_combos() {
    let workload = prepared_ctc_workload(120, 1999);
    // Three cells of the paper matrix spanning the policy families.
    for spec in ["fcfs+easy", "psrs+cons", "garey-graham+none"] {
        assert_shard_identical(spec, &workload);
    }
}

#[test]
fn sharded_serving_matches_batch_for_a_priority_atlas_row() {
    let workload = prepared_ctc_workload(120, 2024);
    assert_shard_identical("sjf+easy", &workload);
}
