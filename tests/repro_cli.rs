//! The root binaries must not swallow command-line and I/O errors: a
//! flag without its value, an unknown flag or an unknown item is a usage
//! error (exit 2), an unwritable `--csv` target a failure (exit 1) — not
//! a silent success that ran something else or wrote nothing. And the
//! artifact items of `repro` must write exactly the committed file set,
//! under `--artifacts` only.

use std::path::{Path, PathBuf};
use std::process::Command;

fn run(exe: &str, cwd: &Path, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(exe)
        .current_dir(cwd)
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn repro(args: &[&str]) -> (Option<i32>, String) {
    run(env!("CARGO_BIN_EXE_repro"), Path::new("."), args)
}

/// A fresh empty directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn repro_reports_missing_values_and_unwritable_csv_targets() {
    for flag in ["--csv", "--out", "--scale", "--jobs", "--artifacts"] {
        let (code, stderr) = repro(&["--scale", "quick", "fig1", flag]);
        assert_eq!(code, Some(2), "{flag} without a value: {stderr}");
        assert!(
            stderr.contains(&format!("{flag} needs a value")),
            "{stderr}"
        );
        assert!(stderr.contains("usage: repro"), "{stderr}");
    }
    // /dev/null is not a directory, so nothing can be created below it.
    let (code, stderr) = repro(&["--scale", "quick", "--csv", "/dev/null/csv", "table5"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("/dev/null/csv"), "{stderr}");
}

#[test]
fn repro_rejects_unknown_items_and_flags() {
    // A typo used to print the header, run nothing (or run the rest at
    // the default scale) and exit 0.
    for (args, complaint) in [
        (&["tabel3"][..], "unknown item 'tabel3'"),
        (&["--scal", "quick", "fig1"][..], "unknown flag '--scal'"),
        // The artifact flags mean nothing to the table items.
        (&["--smoke", "fig1"][..], "need an artifact item"),
        (&["--artifacts", "x", "fig1"][..], "need an artifact item"),
    ] {
        let (code, stderr) = repro(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(complaint), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
    }
}

#[test]
fn jobsched_cli_rejects_unknown_flags_and_missing_values() {
    let cli = |args: &[&str]| run(env!("CARGO_BIN_EXE_jobsched-cli"), Path::new("."), args);
    // `--bakfill none` used to be kept, ignored, and EASY run instead.
    for (args, complaint) in [
        (
            &["simulate", "--swf", "f.swf", "--bakfill", "none"][..],
            "unknown flag '--bakfill'",
        ),
        // A flag of another subcommand is unknown to this one.
        (
            &["stats", "--swf", "f.swf", "--algo", "sjf"][..],
            "unknown flag '--algo'",
        ),
        (&["simulate", "--swf"][..], "--swf needs a value"),
        (&["simulate", "--swf", "--clean"][..], "--swf needs a value"),
        (&["generate", "out.swf"][..], "unknown flag 'out.swf'"),
    ] {
        let (code, stderr) = cli(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(complaint), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: jobsched-cli"), "{args:?}: {stderr}");
    }
    // Well-formed flags still reach the subcommand (whose own failure
    // is exit 1).
    let (code, stderr) = cli(&["simulate", "--swf", "/nonexistent.swf", "--weighted"]);
    assert_eq!(code, Some(1), "{stderr}");
}

#[test]
fn smoke_artifacts_land_under_the_artifacts_dir_only() {
    let cwd = scratch("cwd");
    let dir = scratch("artifacts");
    let (code, stderr) = run(
        env!("CARGO_BIN_EXE_repro"),
        &cwd,
        &[
            "--smoke",
            "--artifacts",
            dir.to_str().unwrap(),
            "atlas",
            "preempt",
            "meta",
        ],
    );
    assert_eq!(code, Some(0), "{stderr}");
    for (file, schema) in [
        ("BENCH_atlas.json", Some("bench-atlas/1")),
        ("ATLAS.md", None),
        ("BENCH_preempt.json", Some("bench-atlas/1")),
        ("PREEMPT.md", None),
        ("BENCH_meta.json", Some("bench-meta/1")),
    ] {
        let text = std::fs::read_to_string(dir.join(file))
            .unwrap_or_else(|e| panic!("{file} missing: {e}\n{stderr}"));
        assert!(!text.is_empty(), "{file} is empty");
        if let Some(schema) = schema {
            let doc = jobsched_json::parse(&text).unwrap_or_else(|e| panic!("{file}: {e:?}"));
            assert_eq!(
                doc.get("schema").and_then(|s| s.as_str()),
                Some(schema),
                "{file}"
            );
        }
    }
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 5);
    assert_eq!(
        std::fs::read_dir(&cwd).unwrap().count(),
        0,
        "nothing may be written outside --artifacts"
    );
    let _ = std::fs::remove_dir_all(&cwd);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_campaign_keeps_its_own_cache_and_resumes_from_it() {
    let out = scratch("out");
    let first = scratch("first");
    let second = scratch("second");
    let go = |artifacts: &Path| {
        repro(&[
            "--smoke",
            "--out",
            out.to_str().unwrap(),
            "--resume",
            "--artifacts",
            artifacts.to_str().unwrap(),
            "atlas",
            "preempt",
        ])
    };
    let (code, stderr) = go(&first);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("[atlas-smoke: 30 cells (30 computed in 10 simulations, 0 cached)"));
    // One rule: DIR/<campaign name>/{cache/, manifest.json}.
    for campaign in ["atlas-smoke", "preempt-smoke"] {
        assert!(out.join(campaign).join("manifest.json").is_file());
        assert!(out.join(campaign).join("cache").is_dir());
    }
    assert!(!out.join("manifest.json").exists());

    let (code, stderr) = go(&second);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(
        stderr.contains("[atlas-smoke: 30 cells (0 computed in 0 simulations, 30 cached)"),
        "{stderr}"
    );
    assert!(
        stderr.contains("[preempt-smoke: 16 cells (0 computed in 0 simulations, 16 cached)"),
        "{stderr}"
    );
    for file in [
        "BENCH_atlas.json",
        "ATLAS.md",
        "BENCH_preempt.json",
        "PREEMPT.md",
    ] {
        assert_eq!(
            std::fs::read(first.join(file)).unwrap(),
            std::fs::read(second.join(file)).unwrap(),
            "{file} differs between a fresh and a resumed run"
        );
    }
    for dir in [out, first, second] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
