//! Validate that a file parses with the repo's own JSON reader
//! (`jobsched_json`). CI uses this to gate benchmark artifacts:
//! anything the sweep subsystem could not re-read later fails the build.
//!
//! Usage: `json_check FILE...` — exits non-zero on the first file that is
//! missing, unreadable or malformed.

use std::process::ExitCode;

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: json_check FILE...");
        return ExitCode::from(2);
    }
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match jobsched_json::parse(&text) {
            Ok(doc) => {
                let kind = match doc {
                    jobsched_json::Json::Obj(ref m) => format!("object, {} keys", m.len()),
                    jobsched_json::Json::Arr(ref a) => format!("array, {} items", a.len()),
                    _ => "scalar".to_string(),
                };
                eprintln!("{path}: ok ({kind})");
            }
            Err(e) => {
                eprintln!("{path}: parse error: {e:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
