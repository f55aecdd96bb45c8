//! Load generator for the serving daemon.
//!
//! Replays a probabilistic CTC workload (§6.2 model) against a daemon at
//! a scaled arrival rate over many concurrent connections, then asks for
//! a graceful shutdown and reports sustained throughput and submit
//! latency percentiles to `BENCH_serve.json` (`bench-serve/2` schema,
//! documented in `EXPERIMENTS.md`).
//!
//! Each measurement is one *cell*: a (connections × shards) pair run
//! against a fresh in-process daemon on a loopback port (wall clock at
//! `--time-scale`). `--curve` runs several cells back to back — the
//! conns × shards scaling curve of the serve bench. Point `--addr` at a
//! running daemon to load an external one instead (single cell only;
//! the shutdown request is skipped because the daemon is not ours).
//!
//! Usage:
//! ```text
//! loadgen [--jobs N] [--connections C] [--shards S] [--curve CxS,CxS,...]
//!         [--time-scale X] [--scheduler SPEC] [--nodes N] [--seed S]
//!         [--addr HOST:PORT] [--out PATH] [--assert-clean]
//! ```
//!
//! `--assert-clean` exits non-zero unless, in every cell, every job was
//! admitted, finished, and zero requests errored — the CI smoke gate.

use jobsched_json::Json;
use jobsched_serve::client::Client;
use jobsched_serve::server::Server;
use jobsched_serve::{SchedulerSpec, ServeConfig};
use jobsched_workload::ctc::prepared_ctc_workload;
use jobsched_workload::probabilistic::BinnedModel;
use jobsched_workload::source::collect;
use jobsched_workload::{Job, ProbabilisticSource};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Base seed shared with the paper harness; the probabilistic stream
/// derives from seed + 1, as in `core::paper`.
const SEED: u64 = 1999;

struct Args {
    jobs: usize,
    /// The (connections, shards) cells to measure, in order.
    cells: Vec<(usize, usize)>,
    time_scale: f64,
    scheduler: String,
    nodes: u32,
    seed: u64,
    addr: Option<String>,
    out: String,
    assert_clean: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--jobs N] [--connections C] [--shards S] \
         [--curve CxS,CxS,...] [--time-scale X] [--scheduler SPEC] \
         [--nodes N] [--seed S] [--addr HOST:PORT] [--out PATH] \
         [--assert-clean]"
    );
    std::process::exit(2);
}

/// Parse `"8x1,64x2,128x4"` into [(8,1), (64,2), (128,4)].
fn parse_curve(s: &str) -> Vec<(usize, usize)> {
    s.split(',')
        .map(|cell| {
            let (c, sh) = cell.trim().split_once('x').unwrap_or_else(|| {
                eprintln!("--curve cells look like CONNSxSHARDS, got '{cell}'");
                std::process::exit(2);
            });
            let conns: usize = c.trim().parse().expect("--curve connections");
            let shards: usize = sh.trim().parse().expect("--curve shards");
            if conns == 0 || shards == 0 {
                eprintln!("--curve cells need at least 1 connection and 1 shard");
                std::process::exit(2);
            }
            (conns, shards)
        })
        .collect()
}

fn parse_args() -> Args {
    let mut args = Args {
        jobs: 10_000,
        cells: Vec::new(),
        time_scale: 1_000_000.0,
        scheduler: "fcfs+easy".to_string(),
        nodes: 256,
        seed: SEED,
        addr: None,
        out: "BENCH_serve.json".to_string(),
        assert_clean: false,
    };
    let (mut connections, mut shards) = (8usize, 1usize);
    let mut curve: Option<Vec<(usize, usize)>> = None;
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
            "--jobs" => args.jobs = value(i).parse().expect("--jobs N"),
            "--connections" => connections = value(i).parse().expect("--connections C"),
            "--shards" => shards = value(i).parse().expect("--shards S"),
            "--curve" => curve = Some(parse_curve(value(i))),
            "--time-scale" => args.time_scale = value(i).parse().expect("--time-scale X"),
            "--scheduler" => args.scheduler = value(i).clone(),
            "--nodes" => args.nodes = value(i).parse().expect("--nodes N"),
            "--seed" => args.seed = value(i).parse().expect("--seed S"),
            "--addr" => args.addr = Some(value(i).clone()),
            "--out" => args.out = value(i).clone(),
            "--assert-clean" => {
                args.assert_clean = true;
                i += 1;
                continue;
            }
            _ => usage(),
        }
        i += 2;
    }
    args.cells = curve.unwrap_or_else(|| vec![(connections.max(1), shards.max(1))]);
    if args.addr.is_some() && args.cells.len() > 1 {
        eprintln!("--curve needs in-process daemons; it cannot be combined with --addr");
        std::process::exit(2);
    }
    args
}

/// The workload to replay: the §6.2 probabilistic model fit on a
/// prepared CTC trace, deterministic in the seed.
fn generate_jobs(n: usize, seed: u64) -> Vec<Job> {
    let base = prepared_ctc_workload(3_000, seed);
    let model = BinnedModel::fit(&base);
    let mut source = ProbabilisticSource::new(model, seed + 1).with_limit(n);
    collect(&mut source)
        .expect("probabilistic source cannot fail")
        .jobs()
        .to_vec()
}

struct WorkerStats {
    latencies_us: Vec<u64>,
    submitted: u64,
    rejected: u64,
    errors: u64,
}

/// One connection: pop jobs, pace them to their scaled arrival instants,
/// submit, and time each round trip.
fn worker(
    addr: std::net::SocketAddr,
    queue: Arc<Mutex<VecDeque<Job>>>,
    origin: Instant,
    time_scale: f64,
) -> WorkerStats {
    let mut stats = WorkerStats {
        latencies_us: Vec::new(),
        submitted: 0,
        rejected: 0,
        errors: 0,
    };
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            stats.errors += 1;
            return stats;
        }
    };
    loop {
        let job = {
            let mut q = queue.lock().expect("queue lock");
            match q.pop_front() {
                Some(j) => j,
                None => break,
            }
        };
        // Pace: simulated `submit` maps to origin + submit/scale real time.
        let due = Duration::from_secs_f64(job.submit as f64 / time_scale);
        if let Some(sleep) = due.checked_sub(origin.elapsed()) {
            std::thread::sleep(sleep);
        }
        let req = Json::obj([
            ("op", Json::Str("submit".into())),
            ("id", Json::UInt(job.id.0 as u64)),
            ("at", Json::UInt(job.submit)),
            ("nodes", Json::UInt(job.nodes as u64)),
            ("requested", Json::UInt(job.requested_time)),
            ("runtime", Json::UInt(job.runtime)),
            ("user", Json::UInt(job.user as u64)),
        ]);
        let sent = Instant::now();
        match client.request(req) {
            Ok(reply) => {
                stats
                    .latencies_us
                    .push(sent.elapsed().as_micros().min(u64::MAX as u128) as u64);
                match reply.get("ok").and_then(|v| v.as_bool()) {
                    Some(true) => stats.submitted += 1,
                    _ if reply.get("error").and_then(|v| v.as_str()) == Some("rejected") => {
                        stats.rejected += 1
                    }
                    _ => stats.errors += 1,
                }
            }
            Err(_) => stats.errors += 1,
        }
    }
    stats
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Run one (connections × shards) cell and report it as a JSON object
/// plus its clean verdict.
fn run_cell(args: &Args, jobs: &[Job], connections: usize, shards: usize) -> (Json, bool) {
    eprintln!(
        "loadgen: {} jobs over {connections} connections x {shards} shard(s) \
         at x{} ({})",
        args.jobs, args.time_scale, args.scheduler
    );

    // An in-process daemon unless pointed at an external one. The queue
    // bound admits the whole run: loadgen measures serving overhead, not
    // admission policy.
    let own_server = if args.addr.is_none() {
        let spec = SchedulerSpec::parse(&args.scheduler).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
        let config = ServeConfig {
            machine_nodes: args.nodes,
            scheduler: spec,
            queue_bound: args.jobs + 1,
            max_connections: connections + 4,
            time_scale: args.time_scale,
            shards,
            ..ServeConfig::default()
        };
        Some(Server::start("127.0.0.1:0", config).expect("bind loopback"))
    } else {
        None
    };
    let addr = match (&own_server, &args.addr) {
        (Some(s), _) => s.addr(),
        (None, Some(a)) => a.parse().expect("--addr HOST:PORT"),
        (None, None) => unreachable!(),
    };

    let queue = Arc::new(Mutex::new(jobs.iter().cloned().collect::<VecDeque<_>>()));
    let origin = Instant::now();
    let workers: Vec<_> = (0..connections.max(1))
        .map(|_| {
            let queue = Arc::clone(&queue);
            let scale = args.time_scale;
            std::thread::spawn(move || worker(addr, queue, origin, scale))
        })
        .collect();
    let mut latencies: Vec<u64> = Vec::with_capacity(args.jobs);
    let (mut submitted, mut rejected, mut errors) = (0u64, 0u64, 0u64);
    for w in workers {
        let s = w.join().expect("worker panicked");
        latencies.extend(s.latencies_us);
        submitted += s.submitted;
        rejected += s.rejected;
        errors += s.errors;
    }
    let submit_wall = origin.elapsed();

    // Graceful shutdown: the daemon finishes the backlog and hands back
    // its final metrics (only meaningful for a daemon we own).
    let shutdown_reply = if own_server.is_some() {
        let mut c = Client::connect(addr).expect("connect for shutdown");
        let r = c
            .request(Json::obj([
                ("op", Json::Str("shutdown".into())),
                ("graceful", Json::Bool(true)),
            ]))
            .unwrap_or_else(|e| {
                eprintln!("shutdown failed: {e}");
                Json::obj([("ok", Json::Bool(false))])
            });
        if let Some(s) = own_server {
            s.join();
        }
        Some(r)
    } else {
        None
    };
    let wall = origin.elapsed();

    latencies.sort_unstable();
    let p50 = percentile(&latencies, 0.50);
    let p90 = percentile(&latencies, 0.90);
    let p99 = percentile(&latencies, 0.99);
    let max = latencies.last().copied().unwrap_or(0);
    let throughput = submitted as f64 / submit_wall.as_secs_f64().max(1e-9);

    let empty = Json::obj([]);
    let final_metrics = shutdown_reply
        .as_ref()
        .and_then(|r| r.get("metrics"))
        .unwrap_or(&empty);
    let metric_u64 = |k: &str| final_metrics.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
    let metric_f64 = |k: &str| final_metrics.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
    let graceful = shutdown_reply
        .as_ref()
        .map(|r| r.get("ok").and_then(|v| v.as_bool()) == Some(true))
        .unwrap_or(false);
    let unfinished = shutdown_reply
        .as_ref()
        .and_then(|r| r.get("unfinished"))
        .and_then(|v| v.as_u64())
        .unwrap_or(0);
    let finished = metric_u64("jobs_finished");
    let clean = submitted == args.jobs as u64
        && finished == args.jobs as u64
        && rejected == 0
        && errors == 0
        && unfinished == 0
        && graceful;

    eprintln!(
        "loadgen: {connections}x{shards}: {submitted} submitted, {finished} finished, \
         {rejected} rejected, {errors} errors in {:.2}s \
         ({throughput:.0} req/s; submit p50 {p50}us p99 {p99}us)",
        wall.as_secs_f64(),
    );

    let cell = Json::obj([
        ("connections", Json::UInt(connections as u64)),
        ("shards", Json::UInt(shards as u64)),
        ("wall_seconds", Json::Num(wall.as_secs_f64())),
        ("submit_wall_seconds", Json::Num(submit_wall.as_secs_f64())),
        ("submitted", Json::UInt(submitted)),
        ("rejected", Json::UInt(rejected)),
        ("request_errors", Json::UInt(errors)),
        ("finished", Json::UInt(finished)),
        ("throughput_rps", Json::Num(throughput)),
        (
            "submit_latency_us",
            Json::obj([
                ("p50", Json::UInt(p50)),
                ("p90", Json::UInt(p90)),
                ("p99", Json::UInt(p99)),
                ("max", Json::UInt(max)),
            ]),
        ),
        (
            "online",
            Json::obj([
                ("art", Json::Num(metric_f64("art"))),
                ("awrt", Json::Num(metric_f64("awrt"))),
                ("utilization", Json::Num(metric_f64("utilization"))),
                ("makespan", Json::UInt(metric_u64("makespan"))),
            ]),
        ),
        ("graceful_shutdown", Json::Bool(graceful)),
        ("unfinished", Json::UInt(unfinished)),
        ("clean", Json::Bool(clean)),
    ]);
    (cell, clean)
}

fn main() {
    let args = parse_args();
    let jobs = generate_jobs(args.jobs, args.seed);

    let mut cells = Vec::with_capacity(args.cells.len());
    let mut all_clean = true;
    for &(connections, shards) in &args.cells {
        let (cell, clean) = run_cell(&args, &jobs, connections, shards);
        cells.push(cell);
        all_clean &= clean;
    }

    let report = Json::obj([
        ("schema", Json::Str("bench-serve/2".into())),
        (
            "config",
            Json::obj([
                ("jobs", Json::UInt(args.jobs as u64)),
                ("time_scale", Json::Num(args.time_scale)),
                ("scheduler", Json::Str(args.scheduler.clone())),
                ("machine_nodes", Json::UInt(args.nodes as u64)),
                ("seed", Json::UInt(args.seed)),
            ]),
        ),
        ("cells", Json::Arr(cells)),
    ]);
    std::fs::write(&args.out, report.to_string_pretty() + "\n").expect("write report");
    eprintln!(
        "loadgen: wrote {} cell(s) -> {}",
        args.cells.len(),
        args.out
    );

    if args.assert_clean {
        if !all_clean {
            eprintln!("loadgen: NOT CLEAN (see per-cell lines above)");
            std::process::exit(1);
        }
        eprintln!("loadgen: clean run");
    }
}
