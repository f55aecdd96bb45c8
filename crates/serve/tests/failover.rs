//! Killing a shard mid-trace is invisible in the schedule.
//!
//! With `replica: true` every shard's input log is its warm standby
//! (see `serve::replica`). The `crash` op kills a shard exactly as a
//! fault would; the reactor promotes the replica by replaying the dead
//! shard's log before it reads the next request. These tests pin the
//! contract end to end over TCP: all placements, cancellation outcomes,
//! and final counters of a run with a mid-trace crash — also one with
//! requests pipelined behind the crash — equal those of a run that
//! never crashed.

use jobsched_json::Json;
use jobsched_serve::client::Client;
use jobsched_serve::server::Server;
use jobsched_serve::{SchedulerSpec, ServeConfig};
use jobsched_workload::ctc::prepared_ctc_workload;
use jobsched_workload::{Job, Workload};

fn config(shards: usize, nodes: u32) -> ServeConfig {
    ServeConfig {
        machine_nodes: nodes,
        scheduler: SchedulerSpec::parse("fcfs+easy").expect("spec"),
        virtual_clock: true,
        queue_bound: 10_000,
        shards,
        replica: true,
        ..ServeConfig::default()
    }
}

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

/// Drive one daemon through `workload`, optionally crashing `shard`
/// after the first half was submitted and time advanced midway. Returns
/// every job's status reply plus the final merged metrics.
fn run(workload: &Workload, shards: usize, crash_shard: Option<u32>) -> (Vec<Json>, Json) {
    let server =
        Server::start("127.0.0.1:0", config(shards, workload.machine_nodes())).expect("bind");
    let mut c = Client::connect(server.addr()).expect("connect");

    let half = workload.len() / 2;
    let midpoint = workload.jobs()[half].submit;
    for job in &workload.jobs()[..half] {
        c.expect_ok(submit_request(job)).expect("submit");
    }
    // Cancel one queued job per shard so cancellations replay too.
    for k in 0..shards as u64 {
        let victim = workload.jobs()[..half]
            .iter()
            .rev()
            .find(|j| j.id.0 as u64 % shards as u64 == k)
            .expect("each shard got jobs");
        c.expect_ok(Json::obj([
            ("op", Json::Str("cancel".into())),
            ("id", Json::UInt(victim.id.0 as u64)),
        ]))
        .expect("cancel");
    }
    c.expect_ok(Json::obj([
        ("op", Json::Str("advance".into())),
        ("to", Json::UInt(midpoint)),
    ]))
    .expect("advance to midpoint");

    if let Some(shard) = crash_shard {
        let r = c
            .expect_ok(Json::obj([
                ("op", Json::Str("crash".into())),
                ("shard", Json::UInt(shard as u64)),
            ]))
            .expect("crash acknowledged");
        assert_eq!(r.get("crashed").and_then(|v| v.as_bool()), Some(true));
    }

    for job in &workload.jobs()[half..] {
        c.expect_ok(submit_request(job))
            .expect("submit after crash");
    }
    c.expect_ok(op("advance")).expect("advance to quiescence");

    let statuses = workload
        .jobs()
        .iter()
        .map(|job| {
            c.expect_ok(Json::obj([
                ("op", Json::Str("status".into())),
                ("id", Json::UInt(job.id.0 as u64)),
            ]))
            .expect("status")
        })
        .collect();
    let metrics = c.expect_ok(op("metrics")).expect("metrics");
    c.expect_ok(op("shutdown")).expect("shutdown");
    server.join();
    (statuses, metrics)
}

#[test]
fn a_crashed_shard_fails_over_with_an_identical_schedule() {
    let workload = prepared_ctc_workload(80, 1999);
    let shards = 2;
    let (clean_status, clean_metrics) = run(&workload, shards, None);
    let (crashed_status, crashed_metrics) = run(&workload, shards, Some(1));

    for (job, (a, b)) in workload
        .jobs()
        .iter()
        .zip(clean_status.iter().zip(crashed_status.iter()))
    {
        assert_eq!(
            a.to_string_compact(),
            b.to_string_compact(),
            "job {} diverged after failover",
            job.id.0
        );
    }
    for key in [
        "jobs_submitted",
        "jobs_finished",
        "jobs_cancelled",
        "makespan",
    ] {
        assert_eq!(
            clean_metrics.get(key).and_then(|v| v.as_u64()),
            crashed_metrics.get(key).and_then(|v| v.as_u64()),
            "final counter '{key}' diverged after failover"
        );
    }
}

#[test]
fn crashing_both_shards_in_sequence_still_converges() {
    let workload = prepared_ctc_workload(60, 2024);
    let (clean_status, _) = run(&workload, 2, None);

    // Crash shard 0, then shard 1, in the same run.
    let server = Server::start("127.0.0.1:0", config(2, workload.machine_nodes())).expect("bind");
    let mut c = Client::connect(server.addr()).expect("connect");
    let half = workload.len() / 2;
    let midpoint = workload.jobs()[half].submit;
    for job in &workload.jobs()[..half] {
        c.expect_ok(submit_request(job)).expect("submit");
    }
    for k in 0..2u64 {
        let victim = workload.jobs()[..half]
            .iter()
            .rev()
            .find(|j| j.id.0 as u64 % 2 == k)
            .expect("each shard got jobs");
        c.expect_ok(Json::obj([
            ("op", Json::Str("cancel".into())),
            ("id", Json::UInt(victim.id.0 as u64)),
        ]))
        .expect("cancel");
    }
    c.expect_ok(Json::obj([
        ("op", Json::Str("advance".into())),
        ("to", Json::UInt(midpoint)),
    ]))
    .expect("advance");
    for shard in [0u64, 1] {
        c.expect_ok(Json::obj([
            ("op", Json::Str("crash".into())),
            ("shard", Json::UInt(shard)),
        ]))
        .expect("crash");
    }
    for job in &workload.jobs()[half..] {
        c.expect_ok(submit_request(job)).expect("submit");
    }
    c.expect_ok(op("advance")).expect("advance");
    for (job, clean) in workload.jobs().iter().zip(clean_status.iter()) {
        let r = c
            .expect_ok(Json::obj([
                ("op", Json::Str("status".into())),
                ("id", Json::UInt(job.id.0 as u64)),
            ]))
            .expect("status");
        assert_eq!(
            r.to_string_compact(),
            clean.to_string_compact(),
            "job {} diverged after double failover",
            job.id.0
        );
    }
    c.expect_ok(op("shutdown")).expect("shutdown");
    server.join();
}

#[test]
fn crash_without_a_replica_fails_the_shard_loudly() {
    let mut cfg = config(2, 256);
    cfg.replica = false;
    let server = Server::start("127.0.0.1:0", cfg).expect("bind");
    let mut c = Client::connect(server.addr()).expect("connect");
    c.expect_ok(Json::obj([
        ("op", Json::Str("crash".into())),
        ("shard", Json::UInt(1)),
    ]))
    .expect("crash still acknowledged");
    // Shard 1's jobs are gone (odd ids); shard 0 keeps serving.
    let r = c
        .request(Json::obj([
            ("op", Json::Str("submit".into())),
            ("id", Json::UInt(1)),
            ("nodes", Json::UInt(1)),
            ("requested", Json::UInt(10)),
            ("runtime", Json::UInt(10)),
        ]))
        .expect("reply");
    assert_eq!(
        r.get("error").and_then(|v| v.as_str()),
        Some("unavailable"),
        "dead shard without replica must answer unavailable: {}",
        r.to_string_compact()
    );
    c.expect_ok(Json::obj([
        ("op", Json::Str("submit".into())),
        ("id", Json::UInt(2)),
        ("nodes", Json::UInt(1)),
        ("requested", Json::UInt(10)),
        ("runtime", Json::UInt(10)),
    ]))
    .expect("surviving shard keeps serving");
    // The dead shard cannot veto a cluster shutdown: the merged reply
    // folds the survivors and reports success.
    let r = c
        .expect_ok(op("shutdown"))
        .expect("shutdown with a dead shard");
    assert_eq!(r.get("graceful").and_then(|v| v.as_bool()), Some(true));
    server.join();
}

fn status_request(job: &Job) -> Json {
    Json::obj([
        ("op", Json::Str("status".into())),
        ("id", Json::UInt(job.id.0 as u64)),
    ])
}

/// Submit the first half of `workload` and advance to its midpoint one
/// request at a time, then pipeline the rest in a single write:
/// optionally `crash` for shard 1 of 2, then the second half's submits
/// interleaved with status requests for first-half jobs of both shards,
/// then `advance` to quiescence. Returns the pipelined replies in order
/// (the crash acknowledgement checked and left out), every job's final
/// status and the final merged metrics.
fn run_pipelined(workload: &Workload, crash: bool) -> (Vec<Json>, Vec<Json>, Json) {
    let server = Server::start("127.0.0.1:0", config(2, workload.machine_nodes())).expect("bind");
    let mut c = Client::connect(server.addr()).expect("connect");
    let (first, second) = workload.jobs().split_at(workload.len() / 2);
    for job in first {
        c.expect_ok(submit_request(job)).expect("submit");
    }
    c.expect_ok(Json::obj([
        ("op", Json::Str("advance".into())),
        ("to", Json::UInt(second[0].submit)),
    ]))
    .expect("advance to midpoint");

    let mut lines = Vec::new();
    if crash {
        lines.push(Json::obj([
            ("op", Json::Str("crash".into())),
            ("shard", Json::UInt(1)),
        ]));
    }
    for (i, job) in second.iter().enumerate() {
        lines.push(submit_request(job));
        lines.push(status_request(&first[i % first.len()]));
    }
    lines.push(op("advance"));
    let shards_asked: std::collections::BTreeSet<u32> = first[..second.len().min(first.len())]
        .iter()
        .map(|j| j.id.0 % 2)
        .collect();
    assert_eq!(
        shards_asked.len(),
        2,
        "status requests must reach both shards"
    );
    assert!(second.len() >= 20, "pipeline at least 20 submits");

    let batch: Vec<String> = lines.iter().map(Json::to_string_compact).collect();
    let mut replies = vec![c.raw_line(&batch.join("\n")).expect("first reply")];
    while replies.len() < lines.len() {
        replies.push(c.read_reply().expect("pipelined reply"));
    }
    if crash {
        let ack = replies.remove(0);
        assert_eq!(ack.get("crashed").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(ack.get("shard").and_then(|v| v.as_u64()), Some(1));
    }
    for (job, r) in second.iter().zip(replies.chunks(2)) {
        assert_eq!(
            r[0].get("id").and_then(|v| v.as_u64()),
            Some(job.id.0 as u64),
            "submit reply out of order: {}",
            r[0].to_string_compact()
        );
    }
    for r in &replies {
        assert_eq!(
            r.get("ok").and_then(|v| v.as_bool()),
            Some(true),
            "{}",
            r.to_string_compact()
        );
    }

    let statuses = workload
        .jobs()
        .iter()
        .map(|job| c.expect_ok(status_request(job)).expect("status"))
        .collect();
    let metrics = c.expect_ok(op("metrics")).expect("metrics");
    c.expect_ok(op("shutdown")).expect("shutdown");
    server.join();
    (replies, statuses, metrics)
}

#[test]
fn requests_pipelined_behind_a_crash_reach_the_promoted_shard() {
    let workload = prepared_ctc_workload(80, 31);
    let (clean_replies, clean_status, clean_metrics) = run_pipelined(&workload, false);
    let (crashed_replies, crashed_status, crashed_metrics) = run_pipelined(&workload, true);

    assert_eq!(clean_replies.len(), crashed_replies.len());
    for (a, b) in clean_replies.iter().zip(&crashed_replies) {
        assert_eq!(a.to_string_compact(), b.to_string_compact());
    }
    for (job, (a, b)) in workload
        .jobs()
        .iter()
        .zip(clean_status.iter().zip(&crashed_status))
    {
        assert_eq!(
            a.to_string_compact(),
            b.to_string_compact(),
            "job {} diverged after a pipelined crash",
            job.id.0
        );
    }
    // The promoted shard counts requests from zero; everything else in
    // the merged metrics, per-shard parts included, must match.
    assert_eq!(
        without_requests(&clean_metrics).to_string_compact(),
        without_requests(&crashed_metrics).to_string_compact()
    );
}

/// `reply` with every `requests` counter dropped, at any depth.
fn without_requests(reply: &Json) -> Json {
    match reply {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| k != "requests")
                .map(|(k, v)| (k.clone(), without_requests(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(without_requests).collect()),
        other => other.clone(),
    }
}
