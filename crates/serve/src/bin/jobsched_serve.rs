//! The scheduling daemon.
//!
//! Serves one scheduler over newline-delimited JSON on TCP (protocol in
//! `serve::protocol`; walkthrough in the README). Runs until a client
//! sends `{"op":"shutdown"}`.
//!
//! Usage:
//! ```text
//! jobsched-serve [--listen ADDR] [--nodes N] [--scheduler SPEC]
//!                [--time-scale X | --virtual]
//!                [--queue-bound N] [--max-connections N]
//!                [--read-timeout-ms MS] [--restore PATH]
//!                [--shards N] [--replica]
//! ```
//!
//! `SPEC` is a policy (`fcfs`, `psrs`, `smart-ffia`, `smart-nfiw`,
//! `garey-graham`) with an optional backfill suffix (`+none`, `+cons`,
//! `+easy`), or `paper-switch` for the §7 day/night combination.
//! `--restore` loads a checkpoint file (the `state` object returned by
//! `checkpoint` or `shutdown --checkpoint`, or the whole reply) of any
//! size and replays it before the port is bound; a file that does not
//! decode exits 1.
//! `--shards N` runs N engine shards (each an independent `--nodes`
//! machine owning the job ids in its residue class `id % N`), all served
//! by one thread; `--replica` keeps every shard promotable, so a shard
//! that dies (the `crash` op, or a panic inside its engine) fails over
//! with exact state by replaying its input log.

use jobsched_json::Json;
use jobsched_serve::server::Server;
use jobsched_serve::{SchedulerSpec, ServeConfig};
use std::time::Duration;

struct Args {
    listen: String,
    config: ServeConfig,
    restore: Option<String>,
}

/// Message, usage, exit 2.
fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: jobsched-serve [--listen ADDR] [--nodes N] [--scheduler SPEC] \
         [--time-scale X | --virtual] [--queue-bound N] [--max-connections N] \
         [--read-timeout-ms MS] [--restore PATH] [--shards N] [--replica]"
    );
    std::process::exit(2);
}

/// `text` as the numeric value of `flag`, accepted by `valid`.
fn number<T: std::str::FromStr>(flag: &str, text: &str, valid: impl Fn(&T) -> bool) -> T {
    text.parse()
        .ok()
        .filter(valid)
        .unwrap_or_else(|| usage(&format!("{flag}: '{text}' is not a valid value")))
}

fn parse_args() -> Args {
    let mut args = Args {
        listen: "127.0.0.1:7463".to_string(),
        config: ServeConfig::default(),
        restore: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || {
            argv.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        let config = &mut args.config;
        match flag.as_str() {
            "--listen" => args.listen = value(),
            "--nodes" => config.machine_nodes = number(&flag, &value(), |&n| n >= 1),
            "--scheduler" => {
                config.scheduler = SchedulerSpec::parse(&value()).unwrap_or_else(|e| usage(&e))
            }
            "--time-scale" => {
                config.time_scale = number(&flag, &value(), |x: &f64| x.is_finite() && *x > 0.0)
            }
            "--virtual" => config.virtual_clock = true,
            "--queue-bound" => config.queue_bound = number(&flag, &value(), |_| true),
            "--max-connections" => config.max_connections = number(&flag, &value(), |_| true),
            "--read-timeout-ms" => {
                config.read_timeout = Duration::from_millis(number(&flag, &value(), |_| true))
            }
            "--restore" => args.restore = Some(value()),
            "--shards" => config.shards = number(&flag, &value(), |&n| n >= 1),
            "--replica" => config.replica = true,
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let label = args.config.scheduler.label();
    let nodes = args.config.machine_nodes;
    let shards = args.config.shards;
    let replica = if args.config.replica {
        " with replica failover"
    } else {
        ""
    };
    let clock = if args.config.virtual_clock {
        "virtual".to_string()
    } else {
        format!("wall x{}", args.config.time_scale)
    };
    let checkpoint: Option<Json> = args.restore.as_ref().map(|path| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read checkpoint {path}: {e}");
            std::process::exit(1);
        });
        jobsched_json::parse(text.trim()).unwrap_or_else(|e| {
            eprintln!("checkpoint {path} is not valid JSON: {e}");
            std::process::exit(1);
        })
    });
    let started = match &checkpoint {
        Some(state) => Server::start_restored(&args.listen, args.config, state),
        None => Server::start(&args.listen, args.config),
    };
    let server = started.unwrap_or_else(|e| {
        match e.kind() {
            std::io::ErrorKind::InvalidData => eprintln!("restore failed: {e}"),
            _ => eprintln!("cannot listen on {}: {e}", args.listen),
        }
        std::process::exit(1);
    });
    if let Some(path) = &args.restore {
        eprintln!("jobsched-serve: restored from {path}");
    }
    eprintln!(
        "jobsched-serve: {label} on {shards} x {nodes}-node shard(s){replica}, \
         {clock} clock, listening on {}",
        server.addr()
    );

    server.join();
    eprintln!("jobsched-serve: shut down");
}
