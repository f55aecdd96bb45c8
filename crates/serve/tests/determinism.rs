//! Served schedules are bit-identical to batch simulation.
//!
//! The daemon's whole determinism story: under a virtual clock, N
//! concurrent TCP clients racing submissions produce *exactly* the
//! schedule a batch [`simulate`] run produces for the same workload —
//! every start and completion instant equal — for all 13 cells of the
//! paper's algorithm matrix and for the §7 day/night switching
//! combination across a regime boundary.

use jobsched_algos::view::WeightScheme;
use jobsched_algos::{AlgorithmSpec, ListScheduler};
use jobsched_json::Json;
use jobsched_serve::client::Client;
use jobsched_serve::server::Server;
use jobsched_serve::{SchedulerSpec, ServeConfig};
use jobsched_sim::{simulate, Scheduler};
use jobsched_workload::ctc::prepared_ctc_workload;
use jobsched_workload::{Job, JobBuilder, JobId, Time, Workload};

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

/// Run `workload` through a daemon: `clients` concurrent connections
/// submit interleaved slices while virtual time sits at 0, then one
/// control connection advances to quiescence and reads every placement.
fn served_placements(spec: &str, workload: &Workload, clients: usize) -> Vec<(Time, Time)> {
    let config = ServeConfig {
        machine_nodes: workload.machine_nodes(),
        scheduler: SchedulerSpec::parse(spec).expect("spec parses"),
        virtual_clock: true,
        queue_bound: workload.len() + 1,
        max_connections: clients + 2,
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).expect("bind loopback");
    let addr = server.addr();

    // Round-robin the jobs across clients so every connection races
    // submissions from across the whole timeline.
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
    control
        .expect_ok(Json::obj([("op", Json::Str("advance".into()))]))
        .expect("advance to quiescence");
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
                "job {} not done after quiescence: {}",
                job.id.0,
                r.to_string_compact()
            );
            let start = r.get("start").and_then(|v| v.as_u64()).expect("start");
            let completion = r
                .get("completion")
                .and_then(|v| v.as_u64())
                .expect("completion");
            (start, completion)
        })
        .collect();
    control
        .expect_ok(Json::obj([("op", Json::Str("shutdown".into()))]))
        .expect("shutdown");
    server.join();
    placements
}

fn batch_placements(scheduler: &mut dyn Scheduler, workload: &Workload) -> Vec<(Time, Time)> {
    let out = simulate(workload, scheduler);
    workload
        .jobs()
        .iter()
        .map(|job| {
            let p = out.schedule.placement(job.id).expect("placed");
            (p.start, p.completion)
        })
        .collect()
}

fn assert_identical(spec: &str, workload: &Workload, batch: &[(Time, Time)]) {
    // Status queries are cheap, so daemons with few completed-job slots
    // would forget old placements: retain_completed default covers all.
    let served = served_placements(spec, workload, 4);
    assert_eq!(
        served, *batch,
        "served schedule diverged from batch for '{spec}'"
    );
}

#[test]
fn all_paper_combinations_serve_identically_to_batch() {
    let workload = prepared_ctc_workload(150, 1999);
    for spec in AlgorithmSpec::paper_matrix() {
        let label = SchedulerSpec::List(spec).label();
        let mut scheduler = spec.build(WeightScheme::Unweighted);
        let batch = batch_placements(&mut scheduler, &workload);
        assert_identical(&label, &workload, &batch);
    }
}

#[test]
fn switching_combination_serves_identically_across_a_regime_boundary() {
    // Submissions straddle the 07:00 Monday day-regime boundary
    // (t = 25_200): half arrive in the night regime, half in the day
    // regime, so the served run must flip regimes at exactly the same
    // instant the batch run does.
    let mut jobs = Vec::new();
    let mut state = 0x2545F4914F6CDD1Du64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in 0..120u32 {
        let submit = 21_600 + (rng() % 7_200); // 06:00..08:00
        let runtime = 300 + (rng() % 5_400);
        let nodes = 1 + (rng() % 96) as u32;
        jobs.push(
            JobBuilder::new(JobId(i))
                .submit(submit)
                .nodes(nodes)
                .requested(runtime + (rng() % 1_800))
                .runtime(runtime)
                .user((rng() % 20) as u32)
                .build(),
        );
    }
    let workload = Workload::new("boundary", 256, jobs);
    let boundary = 25_200;
    assert!(
        workload.jobs().iter().any(|j| j.submit < boundary)
            && workload.jobs().iter().any(|j| j.submit >= boundary),
        "workload must straddle the regime boundary"
    );
    let mut scheduler = ListScheduler::paper_combination();
    let batch = batch_placements(&mut scheduler, &workload);
    assert_identical("paper-switch", &workload, &batch);
}
