//! Integration: the adaptive tuner against a real in-process serve
//! daemon, steered by the committed atlas artifact.
//!
//! The acceptance bar for the tune subsystem: starting the daemon on a
//! deliberately poor atlas row, the controller must (a) switch the
//! scheduler mid-trace through the public `policy set` op, (b) end the
//! trace with a better learned objective than the static baseline run
//! over the identical job stream, and (c) do both bit-reproducibly
//! under the daemon's virtual clock.

use jobsched_core::experiment::Scale;
use jobsched_sweep::atlas::{read_atlas, ParetoGroup};
use jobsched_tune::{build_json, fit, run_demo};

fn committed_atlas() -> (Scale, Vec<ParetoGroup>) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_atlas.json");
    let text = std::fs::read_to_string(path).expect("committed BENCH_atlas.json present");
    let doc = jobsched_json::parse(&text).expect("atlas parses as JSON");
    read_atlas(&doc).expect("atlas is a well-formed bench-atlas document")
}

/// Demo trace length: the `--smoke` slice's.
const JOBS: usize = 300;

#[test]
fn controller_switches_mid_trace_and_improves_the_learned_objective() {
    let (_, atlas) = committed_atlas();
    let fitted = fit(&atlas);
    let outcome = run_demo(&atlas, &fitted, JOBS).expect("demo runs");

    // (a) At least one live switch, strictly inside the trace.
    assert!(
        !outcome.tuned.switches.is_empty(),
        "controller never switched"
    );
    let first = &outcome.tuned.switches[0];
    assert_eq!(first.from, "ljf+none");
    assert!(first.at > 0 && first.at < outcome.tuned.snapshot.makespan);
    assert!(first.predicted_best < first.predicted_current);

    // The daemon really changed schedulers: its own metrics op reports
    // a different scheduler than the static run's.
    assert_ne!(
        outcome.tuned.final_scheduler,
        outcome.baseline.final_scheduler
    );
    assert_eq!(outcome.baseline.final_scheduler, "LJF+Listscheduler");

    // Both runs completed the whole trace (the §6.1 filter may trim the
    // generated job count below the requested 300; every admitted job
    // must reach a terminal state).
    let done = |s: &jobsched_metrics::MetricsSnapshot| s.jobs_finished + s.jobs_cancelled;
    assert_eq!(
        done(&outcome.tuned.snapshot),
        outcome.tuned.snapshot.jobs_submitted
    );
    assert_eq!(
        done(&outcome.baseline.snapshot),
        outcome.baseline.snapshot.jobs_submitted
    );
    assert!(outcome.tuned.snapshot.jobs_submitted >= 250);
    assert_eq!(
        outcome.tuned.snapshot.jobs_submitted,
        outcome.baseline.snapshot.jobs_submitted
    );

    // (b) The learned objective improved over the static baseline.
    assert!(
        outcome.tuned.objective < outcome.baseline.objective,
        "tuned {} vs baseline {}",
        outcome.tuned.objective,
        outcome.baseline.objective
    );
    assert!(outcome.improvement > 0.0);
}

#[test]
fn tuner_demo_is_bit_reproducible() {
    let (scale, atlas) = committed_atlas();
    let fitted = fit(&atlas);
    let a = run_demo(&atlas, &fitted, JOBS).expect("first run");
    let b = run_demo(&atlas, &fitted, JOBS).expect("second run");
    // Rendering to the artifact JSON compares every field — switches,
    // final metrics, objectives — with exact float formatting.
    let render = |o: &jobsched_tune::DemoOutcome| {
        build_json(scale, &fitted, None, Some(o)).to_string_pretty()
    };
    assert_eq!(render(&a), render(&b));
    assert_eq!(a.tuned.switches, b.tuned.switches);
}

#[test]
fn static_run_stays_on_the_initial_row() {
    let (_, atlas) = committed_atlas();
    let fitted = fit(&atlas);
    let outcome = run_demo(&atlas, &fitted, JOBS).expect("demo runs");
    assert!(outcome.baseline.switches.is_empty());
    assert_eq!(outcome.baseline.final_scheduler, "LJF+Listscheduler");
}
