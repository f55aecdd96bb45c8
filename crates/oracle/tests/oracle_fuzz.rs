//! The fuzz harness: replay a budget of randomized fault-injected
//! scenarios through the real engine and fail loudly — with a shrunk,
//! replayable counterexample — on any invariant violation.
//!
//! Knobs (environment variables, all optional):
//!
//! * `ORACLE_FUZZ_COUNT` — scenarios to run (default 500; the nightly CI
//!   job raises this);
//! * `ORACLE_FUZZ_SEED` — base seed (default 0x0DD5EED; logged so a
//!   nightly failure is regenerable);
//! * `ORACLE_REPRO_DIR` — where to write `.scn` counterexamples
//!   (default: the target tmpdir; CI points this at an artifact dir).

use jobsched_algos::{AlgorithmSpec, ListScheduler};
use jobsched_oracle::{
    broken_priority_scenario, broken_scenario, check_exclusive_window, check_outcome,
    check_scenario, check_segments, random_scenario, random_window, shrink, Scenario,
};
use jobsched_sim::{simulate_with_faults, FaultOutcome, SimOutcome};
use jobsched_sweep::pool::run_indexed;

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn repro_dir() -> std::path::PathBuf {
    match std::env::var_os("ORACLE_REPRO_DIR") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => std::env::temp_dir().join("jobsched-oracle-repro"),
    }
}

/// Write the shrunk counterexample and its provenance, returning the
/// path (best effort: the panic message carries the scenario regardless).
fn write_repro(name: &str, seed: u64, index: u64, scenario: &jobsched_oracle::Scenario) -> String {
    let dir = repro_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("{name}-seed{seed:#x}-{index}.scn"));
    let body = format!(
        "# shrunk counterexample: {name}, base seed {seed:#x}, index {index}\n\
         # regenerate: ORACLE_FUZZ_SEED={seed} cargo test -p jobsched-oracle --test oracle_fuzz\n\
         {}",
        scenario.to_text()
    );
    let _ = std::fs::write(&path, body);
    path.display().to_string()
}

#[test]
fn randomized_fault_injected_scenarios_hold_all_invariants() {
    let count = env_u64("ORACLE_FUZZ_COUNT", 500);
    let seed = env_u64("ORACLE_FUZZ_SEED", 0x0DD5EED);
    let jobs = std::thread::available_parallelism().map_or(4, |n| n.get());
    eprintln!("oracle_fuzz: {count} scenarios, base seed {seed:#x}, {jobs} workers");

    let failures: Vec<(u64, Vec<String>)> =
        run_indexed(jobs, (0..count).collect::<Vec<u64>>(), |_task, index| {
            let scenario = random_scenario(seed, index);
            let violations = check_scenario(&scenario);
            (index, violations)
        })
        .into_iter()
        .filter(|(_, v)| !v.is_empty())
        .collect();

    if let Some((index, violations)) = failures.first() {
        let scenario = random_scenario(seed, *index);
        let small = shrink(&scenario);
        let remaining = check_scenario(&small);
        let path = write_repro("fuzz", seed, *index, &small);
        panic!(
            "{} of {count} scenarios violated invariants; first: index {index}\n\
             original violations:\n  {}\n\
             shrunk reproducer ({} jobs, {} cancels, {} drains) written to {path}\n\
             shrunk violations:\n  {}\n\
             scenario:\n{}",
            failures.len(),
            violations.join("\n  "),
            small.jobs.len(),
            small.cancels.len(),
            small.drains.len(),
            remaining.join("\n  "),
            small.to_text()
        );
    }
}

#[test]
fn broken_priority_scheduler_is_caught_and_shrunk() {
    // Same teeth-check for the priority family: an inverted-order WFP
    // impostor must trip the priority pick-equality differential.
    let seed = env_u64("ORACLE_FUZZ_SEED", 0x0DD5EED);
    let caught: Vec<u64> = (0..25)
        .filter(|&i| !check_scenario(&broken_priority_scenario(seed, i)).is_empty())
        .collect();
    assert!(
        caught.len() >= 20,
        "inverted-WFP impostor evaded the oracle in most runs (caught {}/25)",
        caught.len()
    );
    let small = shrink(&broken_priority_scenario(seed, caught[0]));
    assert!(
        !check_scenario(&small).is_empty(),
        "shrinking lost the violation"
    );
    assert!(
        small.jobs.len() <= 6,
        "reproducer still has {} jobs:\n{}",
        small.jobs.len(),
        small.to_text()
    );
}

#[test]
fn broken_scheduler_is_caught_and_shrunk() {
    // The self-test that proves the harness has teeth: a deliberately
    // broken scheduler (LIFO claiming to be FCFS) must be caught by the
    // differential checks and shrink to a ≤ 5-job reproducer.
    let seed = env_u64("ORACLE_FUZZ_SEED", 0x0DD5EED);
    let caught: Vec<u64> = (0..25)
        .filter(|&i| !check_scenario(&broken_scenario(seed, i)).is_empty())
        .collect();
    assert!(
        caught.len() >= 20,
        "LIFO impostor evaded the oracle in most runs (caught {}/25)",
        caught.len()
    );
    let small = shrink(&broken_scenario(seed, caught[0]));
    assert!(
        !check_scenario(&small).is_empty(),
        "shrinking lost the violation"
    );
    assert!(
        small.jobs.len() <= 5,
        "reproducer still has {} jobs:\n{}",
        small.jobs.len(),
        small.to_text()
    );
}

/// Run `scenario` with its policy and backfill replaced by `spec`'s,
/// under `window` when one is given. Returns the run's outcome, or the
/// panic's message.
fn run_row(
    scenario: &Scenario,
    spec: AlgorithmSpec,
    window: Option<jobsched_algos::switching::DailyWindow>,
) -> Result<SimOutcome, String> {
    let workload = scenario.workload();
    let plan = scenario.fault_plan();
    let mut scheduler = ListScheduler::new(spec.kind.policy(Default::default()), spec.backfill)
        .with_caching(scenario.caching);
    if let Some(window) = window {
        scheduler = scheduler.with_exclusive_window(window)?;
    }
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        simulate_with_faults(&workload, &mut scheduler, &plan)
    }))
    .map_err(|panic| match panic.downcast::<String>() {
        Ok(message) => *message,
        Err(panic) => panic.downcast_ref::<&str>().unwrap_or(&"?").to_string(),
    })
}

#[test]
fn every_paper_row_honours_an_exclusive_window() {
    // Example 4's rule over every row of the paper matrix, on generated
    // scenarios with their fault plans and a window drawn inside each
    // scenario's span: nothing starts inside the window, no estimate that
    // is not exempt crosses its opening, every job completes (or was
    // cancelled), and the segment audit holds. The same rows without the
    // window must break the rule somewhere, or the check proves nothing.
    // 40 scenarios × 13 rows × with and without the window: ~1 s.
    let count = 40;
    let seed = env_u64("ORACLE_FUZZ_SEED", 0x0DD5EED);
    let jobs = std::thread::available_parallelism().map_or(4, |n| n.get());
    let results: Vec<(u64, Vec<String>, bool)> =
        run_indexed(jobs, (0..count).collect::<Vec<u64>>(), |_task, index| {
            let base = random_scenario(seed, index);
            let window = random_window(seed, index, &base);
            let workload = base.workload();
            let (mut violations, mut tripped_without) = (Vec::new(), false);
            for spec in AlgorithmSpec::paper_matrix() {
                let row = Scenario {
                    policy: spec.kind,
                    backfill: spec.backfill,
                    ..base.clone()
                };
                let label = format!("{} under {window}", spec.name());
                match run_row(&row, spec, Some(window)) {
                    Err(panic) => violations.push(format!("{label}: panicked: {panic}")),
                    Ok(out) => {
                        let audit = |v: String| format!("{label}: {v}");
                        violations
                            .extend(check_outcome(&row, &workload, &out).into_iter().map(audit));
                        violations.extend(
                            check_exclusive_window(&workload, &out.schedule, window)
                                .into_iter()
                                .map(audit),
                        );
                        let cancelled: Vec<_> = out
                            .faults
                            .iter()
                            .filter_map(|f| match f {
                                FaultOutcome::Cancelled { id, .. } => Some(*id),
                                _ => None,
                            })
                            .collect();
                        let spans: Vec<_> = workload
                            .jobs()
                            .iter()
                            .filter_map(|j| Some((j, out.schedule.charged_spans(j.id, j.nodes)?)))
                            .collect();
                        let never_ran = workload.jobs().iter().filter(|j| {
                            out.schedule.placement(j.id).is_none() && !cancelled.contains(&j.id)
                        });
                        violations
                            .extend(never_ran.map(|j| audit(format!("{} never completed", j.id))));
                        let charged: Vec<_> = spans
                            .iter()
                            .map(|(j, s)| {
                                let expected =
                                    (!cancelled.contains(&j.id)).then(|| j.effective_runtime());
                                (j.id, s.as_slice(), expected)
                            })
                            .collect();
                        violations.extend(
                            check_segments(workload.machine_nodes(), &charged)
                                .into_iter()
                                .map(|v| audit(format!("{v:?}"))),
                        );
                    }
                }
                if let Ok(out) = run_row(&row, spec, None) {
                    tripped_without |=
                        !check_exclusive_window(&workload, &out.schedule, window).is_empty();
                }
            }
            (index, violations, tripped_without)
        });

    let failures: Vec<_> = results.iter().filter(|(_, v, _)| !v.is_empty()).collect();
    if let Some((index, violations, _)) = failures.first() {
        panic!(
            "{} of {count} windowed scenarios violated invariants; first: index {index} \
             (base seed {seed:#x})\n  {}\nscenario:\n{}",
            failures.len(),
            violations.join("\n  "),
            random_scenario(seed, *index).to_text()
        );
    }
    let tripped = results.iter().filter(|(_, _, t)| *t).count();
    assert!(
        tripped > 0,
        "no scenario breaks the window without it: the invariant has no teeth"
    );
    eprintln!("exclusive window: {tripped} of {count} scenarios break it without the rule");
}
