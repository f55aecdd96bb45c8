//! `repro` must not swallow command-line and I/O errors: a flag without
//! its value is a usage error (exit 2), an unwritable `--csv` target a
//! failure (exit 1) — not a silent success that wrote nothing.

use std::process::Command;

fn repro(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn repro_reports_missing_values_and_unwritable_csv_targets() {
    for flag in ["--csv", "--out", "--scale", "--jobs"] {
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
