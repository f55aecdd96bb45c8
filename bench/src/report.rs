//! Results on disk and on the terminal: the per-workload result objects,
//! the human tables, the driver's one-line result, and the three
//! bookkeeping commands (`check`, `compare`, `record`).

use crate::harness::{RunReport, TraceReport};
use crate::spec::{self, Better, END_TO_END, PER_LAYER, WORKLOADS};
use jobsched_json::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// The committed baseline: per workload the default-seed `sim_digest`
/// (full size and `--smoke`) and the seed end-to-end medians. Lives in
/// `bench/` because `BENCHMARK.json` may only hold the driver's keys.
pub const BASELINE: &str = include_str!("../baseline.json");

pub const RESULT_SCHEMA: &str = "bench-result/1";

fn num(v: f64) -> Json {
    // JSON has no NaN/inf; a metric that came out so is a broken run.
    if v.is_finite() {
        Json::Num(v)
    } else {
        Json::Null
    }
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", num(value)), ("unit", Json::Str(unit.into()))])
}

/// The committed `sim_digest` of `workload` at the default seed.
pub fn committed_digest(workload: &str, smoke: bool) -> Option<String> {
    let doc = jobsched_json::parse(BASELINE).ok()?;
    let section = doc.get(if smoke { "smoke" } else { "full" })?;
    let digest = section.get(workload)?.get("sim_digest")?.as_str()?;
    Some(digest.to_string())
}

/// The result object of one untraced workload run.
pub fn run_json(r: &RunReport) -> Json {
    let e2e = r.end_to_end();
    let metrics = END_TO_END
        .iter()
        .filter_map(|m| e2e.get(m.name).map(|&v| (m.name, metric(v, m.unit))))
        .collect::<Vec<_>>();
    let reps = r
        .reps
        .iter()
        .map(|rep| {
            Json::obj([
                ("setup_s", num(rep.setup_s)),
                ("wall_s", num(rep.wall_s)),
                ("jobs", Json::UInt(rep.jobs)),
                ("requests", Json::UInt(rep.requests)),
                ("jobs_per_s", num(rep.jobs_per_s())),
                ("requests_per_s", num(rep.requests_per_s())),
                ("request_p50_us", num(rep.p50_us)),
                ("request_p99_us", num(rep.p99_us)),
                ("peak_rss_mb", num(rep.peak_rss_mb)),
                ("failover_s", rep.failover_s.map_or(Json::Null, num)),
            ])
        })
        .collect();
    let tail = r.tail.map_or(Json::Null, |t| {
        Json::obj([
            ("percentile", num(t.percentile)),
            ("value_us", num(t.value as f64 / 1e3)),
            ("samples", Json::UInt(t.samples as u64)),
        ])
    });
    Json::obj([
        ("workload", Json::Str(r.workload.clone())),
        ("seed", Json::UInt(r.seed)),
        ("correct", Json::Bool(r.tally.correct())),
        ("attempted", Json::UInt(r.tally.attempted)),
        ("failed", Json::UInt(r.tally.failed)),
        (
            "failures",
            Json::Arr(r.tally.failures.iter().cloned().map(Json::Str).collect()),
        ),
        ("sim_digest", Json::Str(r.sim_digest.clone())),
        ("end_to_end", Json::obj(metrics)),
        ("highest_tail", tail),
        (
            "extra_setups_s",
            Json::Arr(r.extra_setups_s.iter().map(|&s| num(s)).collect()),
        ),
        ("reps", Json::Arr(reps)),
    ])
}

/// The result object of one traced workload run.
pub fn trace_json(r: &TraceReport) -> Json {
    let layers = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            (
                name,
                metric(r.layers.get(name).copied().unwrap_or(0.0), unit),
            )
        })
        .collect::<Vec<_>>();
    let self_ms = r
        .tracer
        .layer_self_ns()
        .into_iter()
        .map(|(layer, ns)| (layer, num(ns as f64 / 1e6)))
        .collect::<Vec<_>>();
    Json::obj([
        ("workload", Json::Str(r.workload.clone())),
        ("seed", Json::UInt(r.seed)),
        ("correct", Json::Bool(r.tally.correct())),
        ("attempted", Json::UInt(r.tally.attempted)),
        ("failed", Json::UInt(r.tally.failed)),
        (
            "failures",
            Json::Arr(r.tally.failures.iter().cloned().map(Json::Str).collect()),
        ),
        ("untraced_wall_s", num(r.untraced_wall_s)),
        ("traced_wall_s", num(r.traced_wall_s)),
        ("spans", Json::UInt(r.tracer.spans().len() as u64)),
        ("layer_self_ms", Json::obj(self_ms)),
        ("per_layer", Json::obj(layers)),
    ])
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn driver_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::UInt(attempted.max(1))),
        ("failed", Json::UInt(failed)),
        ("metrics", metrics),
    ])
    .to_string_compact()
}

/// `--trace 0`: every `end_to_end` metric of `BENCHMARK.json`.
pub fn driver_run_line(r: &RunReport) -> String {
    let e2e = r.end_to_end();
    let metrics = END_TO_END
        .iter()
        .filter(|m| m.in_benchmark_json)
        .map(|m| {
            (
                m.name,
                metric(e2e.get(m.name).copied().unwrap_or(0.0), m.unit),
            )
        })
        .collect::<Vec<_>>();
    driver_line(
        r.tally.correct(),
        r.tally.attempted,
        r.tally.failed,
        Json::obj(metrics),
    )
}

/// `--trace 1`: every `per_layer` metric, 0 where the workload bypasses
/// the layer.
pub fn driver_trace_line(r: &TraceReport) -> String {
    let doc = trace_json(r);
    let metrics = doc.get("per_layer").cloned().unwrap_or(Json::Null);
    driver_line(
        r.tally.correct(),
        r.tally.attempted,
        r.tally.failed,
        metrics,
    )
}

/// Print one untraced result for people: every metric by name with its
/// unit, every repetition, the checks' verdict.
pub fn print_run(doc: &Json) {
    let name = doc.get("workload").and_then(Json::as_str).unwrap_or("?");
    let seed = doc.get("seed").and_then(Json::as_u64).unwrap_or(0);
    println!("== {name} (seed {seed}) ==");
    if let Some(Json::Obj(metrics)) = doc.get("end_to_end") {
        for (metric, v) in metrics {
            let value = v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = v.get("unit").and_then(Json::as_str).unwrap_or("");
            println!("  {metric:<18} {value:>16.4} {unit}");
        }
    }
    if let Some(tail) = doc.get("highest_tail").filter(|t| **t != Json::Null) {
        println!(
            "  highest tail       p{:.4} = {:.1} us over {} samples",
            tail.get("percentile").and_then(Json::as_f64).unwrap_or(0.0),
            tail.get("value_us").and_then(Json::as_f64).unwrap_or(0.0),
            tail.get("samples").and_then(Json::as_u64).unwrap_or(0),
        );
    }
    for (i, rep) in doc
        .get("reps")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .enumerate()
    {
        let f = |k: &str| rep.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let failover = match rep.get("failover_s").and_then(Json::as_f64) {
            Some(s) => format!("  failover {s:.3} s"),
            None => String::new(),
        };
        println!(
            "  rep {i}: setup {:.3} s  wall {:.3} s  {:.0} jobs/s  {:.2} req/s  p50 {:.0} us  p99 {:.0} us{failover}",
            f("setup_s"),
            f("wall_s"),
            f("jobs_per_s"),
            f("requests_per_s"),
            f("request_p50_us"),
            f("request_p99_us"),
        );
    }
    let attempted = doc.get("attempted").and_then(Json::as_u64).unwrap_or(0);
    let failed = doc.get("failed").and_then(Json::as_u64).unwrap_or(0);
    let digest = doc.get("sim_digest").and_then(Json::as_str).unwrap_or("");
    println!("  checks: {failed} of {attempted} operations failed; sim_digest {digest}");
    for why in doc.get("failures").and_then(Json::as_arr).unwrap_or(&[]) {
        println!("  FAILED: {}", why.as_str().unwrap_or("?"));
    }
}

/// Print one traced result: the per-layer table (metrics the workload
/// exercises), layer self times, the reconciliation.
pub fn print_trace(doc: &Json) {
    let name = doc.get("workload").and_then(Json::as_str).unwrap_or("?");
    println!("== {name}: per-layer ==");
    if let Some(Json::Obj(layers)) = doc.get("per_layer") {
        for (metric, v) in layers {
            let value = v.get("value").and_then(Json::as_f64).unwrap_or(0.0);
            if value != 0.0 {
                let unit = v.get("unit").and_then(Json::as_str).unwrap_or("");
                println!("  {metric:<44} {value:>16.4} {unit}");
            }
        }
    }
    if let Some(Json::Obj(layers)) = doc.get("layer_self_ms") {
        let total: f64 = layers.iter().filter_map(|(_, v)| v.as_f64()).sum();
        println!("  layer self time (sums to the traced wall, {total:.1} ms):");
        for (layer, v) in layers {
            let ms = v.as_f64().unwrap_or(0.0);
            println!(
                "    {layer:<20} {ms:>12.1} ms {:>6.1} %",
                100.0 * ms / total.max(1e-9)
            );
        }
    }
    let failed = doc.get("failed").and_then(Json::as_u64).unwrap_or(0);
    let attempted = doc.get("attempted").and_then(Json::as_u64).unwrap_or(0);
    println!("  checks: {failed} of {attempted} failed");
    for why in doc.get("failures").and_then(Json::as_arr).unwrap_or(&[]) {
        println!("  FAILED: {}", why.as_str().unwrap_or("?"));
    }
}

/// Assemble the suite's result document from per-workload objects.
pub fn suite_json(seed: u64, smoke: bool, workloads: Vec<(String, Json)>) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("schema", Json::Str(RESULT_SCHEMA.into())),
        ("seed", Json::UInt(seed)),
        ("smoke", Json::Bool(smoke)),
        ("nproc", Json::UInt(nproc as u64)),
        ("workloads", Json::Obj(workloads)),
    ])
}

/// `workload → metric → value` of a suite result document.
pub fn medians_of(doc: &Json) -> BTreeMap<String, BTreeMap<String, f64>> {
    let mut out = BTreeMap::new();
    let Some(Json::Obj(workloads)) = doc.get("workloads") else {
        return out;
    };
    for (name, w) in workloads {
        let mut metrics = BTreeMap::new();
        if let Some(Json::Obj(e2e)) = w.get("end_to_end") {
            for (metric, v) in e2e {
                if let Some(value) = v.get("value").and_then(Json::as_f64) {
                    metrics.insert(metric.clone(), value);
                }
            }
        }
        out.insert(name.clone(), metrics);
    }
    out
}

/// One row of a comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Delta {
    pub workload: String,
    pub metric: &'static str,
    pub base: f64,
    pub new: f64,
    /// Share of `base` by which `new` is worse (negative: better).
    pub worse_by: f64,
    pub regressed: bool,
}

/// Compare two suite results metric by metric, workload by workload, in
/// the direction `better` gives. `symmetric` (two runs of the same
/// code) flags a difference either way.
pub fn compare(base: &Json, new: &Json, symmetric: bool) -> Vec<Delta> {
    let (a, b) = (medians_of(base), medians_of(new));
    let mut out = Vec::new();
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let get = |side: &BTreeMap<String, BTreeMap<String, f64>>| {
                side.get(w.name).and_then(|ms| ms.get(m.name)).copied()
            };
            let (Some(base), Some(new)) = (get(&a), get(&b)) else {
                continue;
            };
            let regressed = m.regressed(base, new) || (symmetric && m.regressed(new, base));
            out.push(Delta {
                workload: w.name.to_string(),
                metric: m.name,
                base,
                new,
                worse_by: m.better.worse_by(base, new),
                regressed,
            });
        }
    }
    out
}

/// Print a comparison; `true` if nothing regressed.
pub fn print_compare(deltas: &[Delta], labels: (&str, &str)) -> bool {
    println!(
        "{:<14} {:<16} {:>16} {:>16} {:>9}  bound",
        "workload", "metric", labels.0, labels.1, "worse by"
    );
    for d in deltas {
        let def = spec::e2e(d.metric).expect("deltas name end-to-end metrics");
        let arrow = match def.better {
            Better::Higher => "higher is better",
            Better::Lower => "lower is better",
        };
        println!(
            "{:<14} {:<16} {:>16.4} {:>16.4} {:>8.2}%  {:.0}% ({arrow}){}",
            d.workload,
            d.metric,
            d.base,
            d.new,
            100.0 * d.worse_by,
            100.0 * def.bound,
            if d.regressed {
                "  <-- OUT OF BOUND"
            } else {
                ""
            }
        );
    }
    let bad = deltas.iter().filter(|d| d.regressed).count();
    if bad > 0 {
        println!("{bad} metric(s) out of bound");
    }
    bad == 0
}

/// `YYYY-MM-DDTHH:MM:SSZ` of a Unix time (days → civil date after
/// Howard Hinnant's `civil_from_days`).
pub fn utc_timestamp(unix_s: u64) -> String {
    let (days, rem) = (unix_s / 86_400, unix_s % 86_400);
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3_600,
        rem % 3_600 / 60,
        rem % 60
    )
}

/// One line of `history.jsonl`: commit, date, core count and every
/// end-to-end median of `result`.
pub fn history_line(result: &Json, commit: &str, dirty: bool, unix_s: u64) -> String {
    let metrics = medians_of(result)
        .into_iter()
        .map(|(w, ms)| {
            let ms = ms.into_iter().map(|(m, v)| (m, num(v))).collect();
            (w, Json::Obj(ms))
        })
        .collect();
    Json::Obj(vec![
        ("commit".into(), Json::Str(commit.into())),
        ("dirty".into(), Json::Bool(dirty)),
        ("date".into(), Json::Str(utc_timestamp(unix_s))),
        (
            "nproc".into(),
            result.get("nproc").cloned().unwrap_or(Json::Null),
        ),
        (
            "seed".into(),
            result.get("seed").cloned().unwrap_or(Json::Null),
        ),
        (
            "smoke".into(),
            result.get("smoke").cloned().unwrap_or(Json::Null),
        ),
        ("end_to_end".into(), Json::Obj(metrics)),
    ])
    .to_string_compact()
}

/// Append `line` to the history file.
pub fn append_history(path: &Path, line: &str) -> std::io::Result<()> {
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{line}")
}

/// The baseline document for `result`: digests and medians per workload,
/// filed under `full` or `smoke`, other section kept from `old`.
pub fn baseline_json(old: &Json, result: &Json) -> Json {
    let smoke = result.get("smoke").and_then(Json::as_bool).unwrap_or(false);
    let mut section = Vec::new();
    if let Some(Json::Obj(workloads)) = result.get("workloads") {
        for (name, w) in workloads {
            let mut entry = vec![(
                "sim_digest".to_string(),
                w.get("sim_digest").cloned().unwrap_or(Json::Null),
            )];
            if !smoke {
                entry.push((
                    "end_to_end".to_string(),
                    w.get("end_to_end").cloned().unwrap_or(Json::Null),
                ));
            }
            section.push((name.clone(), Json::Obj(entry)));
        }
    }
    let keep = |key: &str| old.get(key).cloned().unwrap_or(Json::Obj(Vec::new()));
    let (full, smoke_section) = if smoke {
        (keep("full"), Json::Obj(section))
    } else {
        (Json::Obj(section), keep("smoke"))
    };
    Json::obj([
        ("schema", Json::Str("bench-baseline/1".into())),
        ("seed", Json::UInt(spec::DEFAULT_SEED)),
        ("nproc", result.get("nproc").cloned().unwrap_or(Json::Null)),
        ("full", full),
        ("smoke", smoke_section),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suite(jobs_per_s: f64, p99: f64) -> Json {
        let e2e = Json::obj([
            ("jobs_per_s", metric(jobs_per_s, "1/s")),
            ("request_p99_us", metric(p99, "us")),
            ("failed_ratio", metric(0.0, "ratio")),
        ]);
        let w = Json::obj([("end_to_end", e2e)]);
        suite_json(1999, false, vec![("ctc-matrix".into(), w)])
    }

    #[test]
    fn compare_takes_the_direction_from_better() {
        let base = suite(100.0, 1000.0);
        let slower = compare(&base, &suite(75.0, 1000.0), false);
        let jobs = slower.iter().find(|d| d.metric == "jobs_per_s").unwrap();
        assert!(jobs.regressed && (jobs.worse_by - 0.25).abs() < 1e-12);
        let faster = compare(&base, &suite(130.0, 800.0), false);
        assert!(faster.iter().all(|d| !d.regressed));
        // Two runs of the same code may not differ by the bound either way.
        assert!(compare(&base, &suite(130.0, 1000.0), true)
            .iter()
            .any(|d| d.regressed));
        let tail = compare(&base, &suite(100.0, 1300.0), false);
        assert!(tail
            .iter()
            .any(|d| d.metric == "request_p99_us" && d.regressed));
    }

    #[test]
    fn timestamps_are_utc_civil_dates() {
        assert_eq!(utc_timestamp(0), "1970-01-01T00:00:00Z");
        assert_eq!(utc_timestamp(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(utc_timestamp(1_790_553_599), "2026-09-27T23:59:59Z");
    }

    #[test]
    fn history_lines_carry_every_median() {
        let line = history_line(&suite(100.0, 1000.0), "abc123", true, 0);
        let doc = jobsched_json::parse(&line).unwrap();
        assert_eq!(doc.get("commit").unwrap().as_str(), Some("abc123"));
        let w = doc.get("end_to_end").unwrap().get("ctc-matrix").unwrap();
        assert_eq!(w.get("jobs_per_s").unwrap().as_f64(), Some(100.0));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn the_committed_baseline_parses() {
        let doc = jobsched_json::parse(BASELINE).unwrap();
        assert_eq!(doc.get("seed").unwrap().as_u64(), Some(spec::DEFAULT_SEED));
    }
}
