//! The daemon runs jobs to completion under a *wall* clock.
//!
//! Every other suite here sets `virtual_clock: true`, so time moves
//! only through `advance`. This one is the only place the scaled
//! [`jobsched_sim::WallClock`] and the reactor's poll timeout, bounded
//! by the delay until each engine's next event, carry a whole trace:
//! many racing connections submit a probabilistic workload dated at its
//! own arrival instants, the daemon injects each job as real time
//! reaches it, and a graceful shutdown must then report all of them
//! finished — nothing rejected, nothing errored, nothing left behind. No
//! assertion depends on how the submissions interleave with the clock.

use jobsched_json::Json;
use jobsched_serve::client::Client;
use jobsched_serve::server::Server;
use jobsched_serve::ServeConfig;
use jobsched_workload::ctc::prepared_ctc_workload;
use jobsched_workload::probabilistic::probabilistic_workload;
use jobsched_workload::Job;

const JOBS: usize = 2_000;

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

/// Serve `jobs` over `connections` racing clients against `shards`
/// engine shards, then shut down gracefully.
fn serve_to_completion(jobs: &[Job], connections: usize, shards: usize) {
    let config = ServeConfig {
        // The queue bound admits the whole run: this checks serving, not
        // admission policy.
        queue_bound: jobs.len() + 1,
        max_connections: connections + 4,
        // The trace spans ~8 simulated days: under 0.1 s of real time.
        time_scale: 1e7,
        shards,
        ..ServeConfig::default()
    };
    assert!(!config.virtual_clock);
    let server = Server::start("127.0.0.1:0", config).expect("bind loopback");
    let addr = server.addr();
    let what = format!("{connections} connections x {shards} shard(s)");

    std::thread::scope(|scope| {
        for c in 0..connections {
            let what = &what;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for job in jobs.iter().skip(c).step_by(connections) {
                    let reply = client.request(submit_request(job)).expect("submit");
                    assert_eq!(
                        reply.get("ok").and_then(|v| v.as_bool()),
                        Some(true),
                        "{what}: job {} not admitted: {}",
                        job.id.0,
                        reply.to_string_compact()
                    );
                }
            });
        }
    });

    let mut control = Client::connect(addr).expect("connect control");
    let reply = control
        .expect_ok(Json::obj([
            ("op", Json::Str("shutdown".into())),
            ("graceful", Json::Bool(true)),
        ]))
        .expect("graceful shutdown");
    server.join();

    let get = |j: &Json, k: &str| {
        j.get(k)
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("{what}: missing {k} in {}", j.to_string_compact()))
    };
    assert_eq!(get(&reply, "unfinished"), 0, "{what}");
    let metrics = reply.get("metrics").expect("final metrics");
    assert_eq!(get(metrics, "jobs_submitted"), jobs.len() as u64, "{what}");
    assert_eq!(get(metrics, "jobs_finished"), jobs.len() as u64, "{what}");
    assert_eq!(get(metrics, "rejected"), 0, "{what}");
}

#[test]
fn wall_clock_daemon_finishes_every_job() {
    let base = prepared_ctc_workload(3_000, 1999);
    let workload = probabilistic_workload(&base, JOBS, 2000);
    serve_to_completion(workload.jobs(), 8, 1);
    serve_to_completion(workload.jobs(), 64, 2);
}
