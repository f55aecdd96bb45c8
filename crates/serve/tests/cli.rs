//! `jobsched-serve` must turn a malformed command line into a message,
//! the usage line and exit 2 — not a panic with a backtrace (exit 101)
//! from a `.expect(..)` or from an assert deep inside the machine model
//! or the wall clock.

use std::process::Command;

#[test]
fn malformed_flags_are_usage_errors_not_panics() {
    for (args, complaint) in [
        (&["--nodes", "abc"][..], "--nodes: 'abc'"),
        (&["--nodes", "0"][..], "--nodes: '0'"),
        (&["--time-scale", "0"][..], "--time-scale: '0'"),
        (&["--time-scale", "inf"][..], "--time-scale: 'inf'"),
        (&["--queue-bound", "-1"][..], "--queue-bound: '-1'"),
        (&["--shards", "0"][..], "--shards: '0'"),
        (&["--scheduler", "nonsense"][..], "nonsense"),
        (&["--nodes"][..], "--nodes needs a value"),
        (&["--frobnicate"][..], "unknown argument '--frobnicate'"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_jobsched-serve"))
            .args(args)
            .output()
            .expect("jobsched-serve runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(complaint), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: jobsched-serve"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// A daemon child that does not outlive a failed assertion. Holds the
/// read end of its stderr so the child's later messages have somewhere
/// to go.
struct Daemon {
    child: std::process::Child,
    _stderr: std::io::BufReader<std::process::ChildStderr>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The built daemon started with `args`, and the address it printed
/// once its listener was live.
fn spawn_daemon(args: &[&str]) -> (Daemon, String) {
    use std::io::{BufRead, BufReader};
    let mut child = Command::new(env!("CARGO_BIN_EXE_jobsched-serve"))
        .args(args)
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("jobsched-serve runs");
    let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let mut seen = String::new();
    let addr = loop {
        let mut line = String::new();
        if stderr.read_line(&mut line).unwrap_or(0) == 0 {
            let _ = child.kill();
            panic!("daemon exited before listening: {seen}");
        }
        match line.rsplit_once("listening on ") {
            Some((_, addr)) => break addr.trim().to_string(),
            None => seen.push_str(&line),
        }
    };
    let daemon = Daemon {
        child,
        _stderr: stderr,
    };
    (daemon, addr)
}

/// `--restore` replays the file inside the daemon before the port
/// opens, so its size is not bounded by the wire's 64 KiB frame limit:
/// ~2 000 jobs checkpoint to ~190 KB, which the self-connecting restore
/// this replaced refused with `request line exceeds 65536 bytes`.
#[test]
fn restore_flag_loads_a_checkpoint_larger_than_a_request_line() {
    use jobsched_json::Json;
    use jobsched_serve::client::Client;
    use jobsched_serve::server::Server;
    use jobsched_serve::{SchedulerSpec, ServeConfig};
    use jobsched_workload::ctc::prepared_ctc_workload;

    let op = |name: &str| Json::obj([("op", Json::Str(name.into()))]);
    // `metrics` minus the request counter, which counts wire traffic
    // rather than scheduling state.
    let snapshot = |c: &mut Client| {
        let queue = c.expect_ok(op("queue")).expect("queue");
        let Json::Obj(metrics) = c.expect_ok(op("metrics")).expect("metrics") else {
            panic!("metrics reply is an object")
        };
        let metrics: Vec<_> = metrics
            .into_iter()
            .filter(|(k, _)| k != "requests")
            .collect();
        (queue, metrics)
    };

    let workload = prepared_ctc_workload(2_000, 11);
    let nodes = workload.machine_nodes();
    let original = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            machine_nodes: nodes,
            scheduler: SchedulerSpec::parse("fcfs+easy").expect("spec"),
            virtual_clock: true,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let mut a = Client::connect(original.addr()).expect("connect");
    for job in workload.jobs() {
        a.expect_ok(Json::obj([
            ("op", Json::Str("submit".into())),
            ("id", Json::UInt(job.id.0 as u64)),
            ("at", Json::UInt(job.submit)),
            ("nodes", Json::UInt(job.nodes as u64)),
            ("requested", Json::UInt(job.requested_time)),
            ("runtime", Json::UInt(job.runtime)),
            ("user", Json::UInt(job.user as u64)),
        ]))
        .expect("submit");
    }
    let midpoint = workload.jobs()[workload.len() / 2].submit;
    a.expect_ok(Json::obj([
        ("op", Json::Str("advance".into())),
        ("to", Json::UInt(midpoint)),
    ]))
    .expect("advance");
    let reply = a.expect_ok(op("checkpoint")).expect("checkpoint");
    let text = reply.get("state").expect("state").to_string_compact();
    assert!(
        text.len() > 2 * 65_536,
        "checkpoint is only {} bytes",
        text.len()
    );
    let expected = snapshot(&mut a);
    original.stop();

    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let file = dir.join(format!("restore-{}.json", std::process::id()));
    std::fs::write(&file, &text).expect("write checkpoint");
    let nodes = nodes.to_string();
    let args = [
        "--listen",
        "127.0.0.1:0",
        "--virtual",
        "--scheduler",
        "fcfs+easy",
        "--nodes",
        &nodes,
        "--restore",
        file.to_str().expect("utf-8 path"),
    ];
    let (mut daemon, addr) = spawn_daemon(&args);
    let mut b = Client::connect(addr.as_str()).expect("connect to restored daemon");
    assert_eq!(snapshot(&mut b), expected, "restored state diverged");
    // The restored daemon carries on: running the clock out finishes
    // every job.
    b.expect_ok(op("advance")).expect("advance to quiescence");
    let m = b.expect_ok(op("metrics")).expect("metrics");
    assert_eq!(
        m.get("jobs_finished").unwrap().as_u64(),
        Some(workload.len() as u64),
        "{m:?}"
    );
    assert_eq!(m.get("backlog").unwrap().as_u64(), Some(0));
    assert_eq!(m.get("running").unwrap().as_u64(), Some(0));
    b.expect_ok(op("shutdown")).expect("shutdown");
    assert!(daemon.child.wait().expect("daemon exits").success());

    // A file that does not decode exits 1 without ever opening a port.
    std::fs::write(
        &file,
        text.replace("serve-checkpoint/1", "serve-checkpoint/0"),
    )
    .expect("write bad checkpoint");
    let out = Command::new(env!("CARGO_BIN_EXE_jobsched-serve"))
        .args(args)
        .output()
        .expect("jobsched-serve runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("restore failed"), "{stderr}");
    assert!(stderr.contains("serve-checkpoint/0"), "{stderr}");
    assert!(!stderr.contains("listening on"), "{stderr}");
    let _ = std::fs::remove_file(&file);
}

/// A checkpoint the `submit` op could never have produced — here a job
/// wider than the machine — is refused while decoding: exit 1 with
/// `restore failed`, never a panic during replay, never a port.
#[test]
fn restore_flag_refuses_a_job_wider_than_the_machine() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let file = dir.join(format!("restore-wide-{}.json", std::process::id()));
    std::fs::write(
        &file,
        r#"{"schema":"serve-checkpoint/1","scheduler":"fcfs+easy","machine_nodes":16,"now":10,"draining":false,"next_auto_id":1,"inputs":[{"at":0,"op":"submit","id":0,"submit":0,"nodes":17,"requested":10,"runtime":10,"user":0}]}"#,
    )
    .expect("write checkpoint");
    let out = Command::new(env!("CARGO_BIN_EXE_jobsched-serve"))
        .args([
            "--listen",
            "127.0.0.1:0",
            "--virtual",
            "--scheduler",
            "fcfs+easy",
        ])
        .args([
            "--nodes",
            "16",
            "--restore",
            file.to_str().expect("utf-8 path"),
        ])
        .output()
        .expect("jobsched-serve runs");
    let _ = std::fs::remove_file(&file);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("restore failed"), "{stderr}");
    assert!(
        stderr.contains("job needs 17 nodes but the machine has 16"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains("listening on"), "{stderr}");
}
