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
