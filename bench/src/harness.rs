//! What every workload shares: the run context, the shape of a report,
//! the repetition loop and the `/proc` readers.

use crate::spec::{Sizes, WorkloadDef};
use crate::stats::{median, p99_or_highest, Tail};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Arguments of one workload run.
#[derive(Clone, Debug)]
pub struct Ctx {
    pub seed: u64,
    pub sizes: Sizes,
    /// Budget of the timed phase: after the workload's minimum,
    /// repetitions are added while the next one still fits.
    pub seconds: f64,
    /// Where trace files, result files and the sweep's cache go.
    pub out_dir: PathBuf,
}

impl Ctx {
    pub fn is_smoke(&self) -> bool {
        self.sizes == Sizes::smoke()
    }
}

/// One repetition of a workload's timed phase. On batch workloads a
/// repetition is one request and its latency is its wall.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    pub setup_s: f64,
    /// Host seconds of the timed phase.
    pub wall_s: f64,
    /// Simulated jobs completed in it.
    pub jobs: u64,
    /// Requests answered in it.
    pub requests: u64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Daemon child's `VmHWM` (serve); 0 on batch workloads, whose
    /// figure is the bench process's own and read once.
    pub peak_rss_mb: f64,
    /// `crash` sent → first reply of a shard-0 request (`serve-mixed`).
    pub failover_s: Option<f64>,
}

impl Rep {
    pub fn jobs_per_s(&self) -> f64 {
        self.jobs as f64 / self.wall_s
    }

    pub fn requests_per_s(&self) -> f64 {
        self.requests as f64 / self.wall_s
    }
}

/// Operations attempted and failed: cells or requests, jobs that should
/// have finished, and output checks. `failed / attempted` is the
/// `failed_ratio` metric.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check (the first twenty).
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one checked operation; `problem` describes it when it failed.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.bulk(1, u64::from(!ok), problem);
    }

    /// Count `attempted` operations of which `failed` failed.
    pub fn bulk(&mut self, attempted: u64, failed: u64, problem: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.failures.len() < 20 {
            self.failures.push(problem());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The untraced result of one workload: every repetition, the checks'
/// verdict, and the medians that are the end-to-end metrics.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    pub workload: String,
    pub seed: u64,
    pub reps: Vec<Rep>,
    /// Set-ups made without a timed repetition (batch workloads set up
    /// at least three times).
    pub extra_setups_s: Vec<f64>,
    pub peak_rss_mb: f64,
    pub tally: Tally,
    pub sim_digest: String,
    /// The highest percentile with ten samples beyond it, over the
    /// request latencies of all repetitions.
    pub tail: Option<Tail>,
}

impl RunReport {
    pub fn new(def: &WorkloadDef, seed: u64) -> Self {
        RunReport {
            workload: def.name.to_string(),
            seed,
            ..RunReport::default()
        }
    }

    /// Shorthand for `self.tally.check`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.tally.check(ok, problem);
    }

    fn med(&self, f: impl Fn(&Rep) -> f64) -> f64 {
        median(&self.reps.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    }

    /// The eight end-to-end metrics by name; `failover_s` only where a
    /// repetition measured one.
    pub fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        let setups: Vec<f64> = self
            .reps
            .iter()
            .map(|r| r.setup_s)
            .chain(self.extra_setups_s.iter().copied())
            .collect();
        let mut out = BTreeMap::new();
        out.insert("setup_s", median(&setups).unwrap_or(0.0));
        out.insert("jobs_per_s", self.med(Rep::jobs_per_s));
        out.insert("requests_per_s", self.med(Rep::requests_per_s));
        out.insert("request_p50_us", self.med(|r| r.p50_us));
        out.insert("request_p99_us", self.med(|r| r.p99_us));
        let failovers: Vec<f64> = self.reps.iter().filter_map(|r| r.failover_s).collect();
        if let Some(f) = median(&failovers) {
            out.insert("failover_s", f);
        }
        out.insert("peak_rss_mb", self.peak_rss_mb);
        out.insert("failed_ratio", self.tally.failed_ratio());
        out
    }
}

/// A batch repetition is one request: its latency is its wall.
pub fn batch_rep(setup_s: f64, wall_s: f64, jobs: u64) -> Rep {
    Rep {
        setup_s,
        wall_s,
        jobs,
        requests: 1,
        p50_us: wall_s * 1e6,
        p99_us: wall_s * 1e6,
        ..Rep::default()
    }
}

/// For batch workloads the request latencies are the repetition walls:
/// p50 is their median, "p99" what [`p99_or_highest`] allows — with a
/// handful of repetitions no tail can be stated and it repeats the
/// median rather than dress the slowest run up as a percentile.
pub fn finish_batch_latencies(report: &mut RunReport) {
    let mut walls: Vec<u64> = report
        .reps
        .iter()
        .map(|r| (r.wall_s * 1e9) as u64)
        .collect();
    walls.sort_unstable();
    let p50 = median(&walls.iter().map(|&w| w as f64 / 1e3).collect::<Vec<_>>());
    let p99 = p99_or_highest(&walls).map(|t| t.value as f64 / 1e3);
    for rep in &mut report.reps {
        rep.p50_us = p50.unwrap_or(0.0);
        rep.p99_us = p99.or(p50).unwrap_or(0.0);
    }
}

/// Run `rep` the workload's minimum number of times, then again while
/// the budget still holds another one.
pub fn repeat(min_reps: usize, seconds: f64, mut rep: impl FnMut(usize) -> f64) {
    let mut spent = 0.0;
    let mut last = 0.0;
    let mut done = 0;
    while done < min_reps || spent + last <= seconds {
        last = rep(done);
        spent += last;
        done += 1;
    }
}

/// The traced result of one workload.
#[derive(Debug)]
pub struct TraceReport {
    pub workload: String,
    pub seed: u64,
    /// Per-layer metrics this workload exercises (the rest print as 0).
    pub layers: BTreeMap<&'static str, f64>,
    pub tracer: Tracer,
    pub untraced_wall_s: f64,
    pub traced_wall_s: f64,
    pub tally: Tally,
}

impl TraceReport {
    pub fn new(def: &WorkloadDef, seed: u64) -> Self {
        TraceReport {
            workload: def.name.to_string(),
            seed,
            layers: BTreeMap::new(),
            tracer: Tracer::new(),
            untraced_wall_s: 0.0,
            traced_wall_s: 0.0,
            tally: Tally::default(),
        }
    }

    /// Shorthand for `self.tally.check`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.tally.check(ok, problem);
    }

    /// Report a per-layer metric; the name must be one of `PER_LAYER`.
    pub fn set(&mut self, name: &str, value: f64) {
        let known = crate::spec::PER_LAYER
            .iter()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.layers.insert(known.0, value);
    }

    /// Close the books: overhead ratio, and the 5 % rule — time the
    /// spans below `root` leave on the harness layer is unaccounted for.
    pub fn reconcile(&mut self, root: crate::trace::SpanId, ctx: &Ctx) {
        let overhead = if self.untraced_wall_s > 0.0 {
            self.traced_wall_s / self.untraced_wall_s
        } else {
            0.0
        };
        self.set("trace.overhead_ratio", overhead);
        let loose = self.tracer.unattributed_ratio(root);
        self.set("trace.unattributed_ratio", loose);
        // A timing rule, so like the bounds it is off at `--smoke` size,
        // where fixed costs of a few milliseconds are whole percents.
        self.check(loose <= 0.05 || ctx.is_smoke(), || {
            format!(
                "layer self times cover only {:.1} % of the wall",
                100.0 * (1.0 - loose)
            )
        });
    }
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// A `kB` field of `/proc/<pid>/status` in MiB (`VmHWM`, `VmRSS`).
pub fn proc_status_mb(pid: &str, field: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// This process's peak resident set in MiB.
pub fn own_peak_rss_mb() -> f64 {
    proc_status_mb("self", "VmHWM:").unwrap_or(0.0)
}

/// User + system CPU seconds of a process from `/proc/<pid>/stat`
/// (fields 14 and 15, in clock ticks of 1/100 s on Linux).
pub fn proc_cpu_s(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut fields = rest.split_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Voluntary + involuntary context switches summed over a process's
/// threads (`/proc/<pid>/task/*/status`).
pub fn proc_ctx_switches(pid: &str) -> Option<u64> {
    let mut total = 0;
    for task in std::fs::read_dir(format!("/proc/{pid}/task"))
        .ok()?
        .flatten()
    {
        let Ok(status) = std::fs::read_to_string(task.path().join("status")) else {
            continue; // the thread exited between readdir and read
        };
        for line in status.lines() {
            if line.starts_with("voluntary_ctxt_switches:")
                || line.starts_with("nonvoluntary_ctxt_switches:")
            {
                total += line
                    .split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0);
            }
        }
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_runs_the_minimum_then_fills_the_budget() {
        let mut runs = Vec::new();
        repeat(3, 0.0, |i| {
            runs.push(i);
            1.0
        });
        assert_eq!(runs, [0, 1, 2], "a zero budget still runs the minimum");
        let mut n = 0;
        repeat(1, 10.0, |_| {
            n += 1;
            3.0
        });
        assert_eq!(n, 3, "3 + 3 + 3 fits, a fourth would end at 12");
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(own_peak_rss_mb() > 0.0);
        assert!(proc_cpu_s("self").is_some());
        assert!(proc_ctx_switches("self").is_some());
    }

    #[test]
    fn medians_over_repetitions_are_the_metrics() {
        let mut r = RunReport::default();
        for (wall, jobs) in [(1.0, 100), (2.0, 100), (4.0, 100)] {
            r.reps.push(batch_rep(0.5, wall, jobs));
        }
        finish_batch_latencies(&mut r);
        r.check(true, String::new);
        let m = r.end_to_end();
        assert_eq!(m["jobs_per_s"], 50.0);
        assert_eq!(m["requests_per_s"], 0.5);
        assert_eq!(m["request_p50_us"], 2e6);
        assert_eq!(m["request_p99_us"], 2e6, "three samples state no tail");
        assert_eq!(m["failed_ratio"], 0.0);
        assert!(!m.contains_key("failover_s"));
    }
}
