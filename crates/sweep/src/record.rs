//! `RunRecord`: the machine-readable artifact of one simulation run.
//!
//! Following Scheduling.jl's argument that scheduling experiments should
//! produce re-runnable, machine-readable artifacts rather than printed
//! tables, every campaign cell persists one JSON record holding its full
//! configuration fingerprint and all measured outputs. Records split
//! into:
//!
//! * a **deterministic payload** — configuration, cost, makespan,
//!   utilization, engine event counts — which is a pure function of the
//!   cell inputs and must be bit-identical across runs and thread
//!   counts ([`RunRecord::canonical_json`] covers exactly this part);
//! * **timing metadata** — scheduler CPU and wall-clock — which varies
//!   run to run and is excluded from the canonical form and from
//!   cache-hit comparisons.
//!
//! Cells that share a schedule share one simulation (see
//! [`crate::run_campaign`]), and their timing follows one rule: each
//! carries the shared run's `scheduler_cpu_ns`, because it measures the
//! same schedule, and a `wall_ns` of the run's wall divided by the
//! number of cells it computed, so Σ `wall_ns` over a campaign's
//! computed cells is still the workers' simulation time.

use crate::grid::{policy_tag, CellSpec};
use crate::hash::hex;
use jobsched_algos::spec::PolicyKind;
use jobsched_algos::{AlgorithmSpec, BackfillMode};
use jobsched_core::experiment::{EngineCounts, EvalCell};
use jobsched_core::objective_select::ObjectiveKind;
use jobsched_json::{parse, Json};
use std::time::Duration;

/// Version stamp mixed into every cache key and written into every
/// record. Bump on any change to hashed inputs, generator streams, or
/// record semantics: old cache entries then miss cleanly instead of
/// being misread.
///
/// v2: records carry the workload's generator seed (`workload_seed`), so
/// multi-seed replication cells are distinguishable in caches and
/// reports even when their other configuration coincides.
pub const SCHEMA_VERSION: u32 = 2;

/// Result of one campaign cell.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Content-addressed cache key (16 hex digits).
    pub key: String,
    /// Workload kind tag ("ctc", "probabilistic", ...).
    pub workload_kind: String,
    /// Name of the materialised workload.
    pub workload_name: String,
    /// Fingerprint of the workload's job content (16 hex digits).
    pub workload_fingerprint: String,
    /// Number of jobs simulated.
    pub jobs: u64,
    /// Machine size the schedule ran on.
    pub machine_nodes: u32,
    /// Objective the cost was measured under.
    pub objective: ObjectiveKind,
    /// Algorithm configuration.
    pub algorithm: AlgorithmSpec,
    /// Whether the schedulers' incremental cache was enabled.
    pub caching: bool,
    /// Cell-derived RNG seed.
    pub seed: u64,
    /// Generator seed of the workload's final sampling stage — the knob
    /// the multi-seed significance campaign turns.
    pub workload_seed: u64,
    /// Schedule cost under the objective (simulated seconds).
    pub cost: f64,
    /// Schedule makespan (simulated seconds).
    pub makespan: u64,
    /// Machine utilization over the makespan.
    pub utilization: f64,
    /// Engine event counts of the run.
    pub counts: EngineCounts,
    /// Wall-clock spent inside scheduler callbacks (non-deterministic);
    /// the whole shared run's when cells share a simulation.
    pub scheduler_cpu_ns: u64,
    /// Wall-clock of the cell, simulation plus metric
    /// (non-deterministic); the cell's equal share of the run's wall
    /// when cells share a simulation.
    pub wall_ns: u64,
}

impl RunRecord {
    /// Assemble a record from a finished cell evaluation.
    #[allow(clippy::too_many_arguments)]
    pub fn from_cell(
        spec: &CellSpec,
        key: String,
        workload_name: &str,
        workload_fingerprint: u64,
        jobs: u64,
        machine_nodes: u32,
        cell: &EvalCell,
        wall: Duration,
    ) -> Self {
        RunRecord {
            key,
            workload_kind: spec.workload.kind().to_string(),
            workload_name: workload_name.to_string(),
            workload_fingerprint: hex(workload_fingerprint),
            jobs,
            machine_nodes,
            objective: spec.objective,
            algorithm: spec.algorithm,
            caching: spec.caching,
            seed: spec.seed,
            workload_seed: spec.workload.seed(),
            cost: cell.cost,
            makespan: cell.makespan,
            utilization: cell.utilization,
            counts: EngineCounts {
                events: cell.events,
                decision_rounds: cell.decision_rounds,
                peak_queue: cell.peak_queue,
            },
            scheduler_cpu_ns: cell.scheduler_cpu.as_nanos() as u64,
            wall_ns: wall.as_nanos() as u64,
        }
    }

    /// Rebuild the [`EvalCell`] this record describes (for table
    /// assembly from cached results).
    pub fn to_cell(&self) -> EvalCell {
        EvalCell::from_parts(
            self.algorithm,
            self.cost,
            Duration::from_nanos(self.scheduler_cpu_ns),
            self.makespan,
            self.utilization,
            self.counts,
        )
    }

    fn payload_pairs(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("schema", Json::UInt(SCHEMA_VERSION as u64)),
            ("key", Json::Str(self.key.clone())),
            ("workload_kind", Json::Str(self.workload_kind.clone())),
            ("workload_name", Json::Str(self.workload_name.clone())),
            (
                "workload_fingerprint",
                Json::Str(self.workload_fingerprint.clone()),
            ),
            ("jobs", Json::UInt(self.jobs)),
            ("machine_nodes", Json::UInt(self.machine_nodes as u64)),
            ("objective", Json::Str(self.objective.tag().into())),
            (
                "algorithm",
                Json::Str(policy_tag(self.algorithm.kind).into()),
            ),
            ("backfill", Json::Str(self.algorithm.backfill.tag().into())),
            ("caching", Json::Bool(self.caching)),
            ("seed", Json::UInt(self.seed)),
            ("workload_seed", Json::UInt(self.workload_seed)),
            ("cost", Json::Num(self.cost)),
            ("makespan", Json::UInt(self.makespan)),
            ("utilization", Json::Num(self.utilization)),
            ("events", Json::UInt(self.counts.events)),
            ("decision_rounds", Json::UInt(self.counts.decision_rounds)),
            ("peak_queue", Json::UInt(self.counts.peak_queue as u64)),
        ]
    }

    /// The deterministic payload as compact JSON: everything except the
    /// timing metadata. Two runs of the same cell — at any thread count —
    /// must produce byte-identical canonical forms; the determinism test
    /// asserts exactly this.
    pub fn canonical_json(&self) -> String {
        Json::Obj(
            self.payload_pairs()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
        .to_string_compact()
    }

    /// The full record (payload + timing) as a JSON value.
    pub fn to_json(&self) -> Json {
        let mut pairs = self.payload_pairs();
        pairs.push(("scheduler_cpu_ns", Json::UInt(self.scheduler_cpu_ns)));
        pairs.push(("wall_ns", Json::UInt(self.wall_ns)));
        Json::obj(pairs)
    }

    /// Parse a record back from JSON text. Returns `None` on any schema
    /// mismatch or malformed field — callers treat that as a cache miss,
    /// never an error.
    pub fn from_json_str(text: &str) -> Option<RunRecord> {
        let v = parse(text).ok()?;
        if v.get("schema")?.as_u64()? != SCHEMA_VERSION as u64 {
            return None;
        }
        let kind = PolicyKind::from_tag(v.get("algorithm")?.as_str()?)?;
        let backfill = BackfillMode::from_tag(v.get("backfill")?.as_str()?)?;
        Some(RunRecord {
            key: v.get("key")?.as_str()?.to_string(),
            workload_kind: v.get("workload_kind")?.as_str()?.to_string(),
            workload_name: v.get("workload_name")?.as_str()?.to_string(),
            workload_fingerprint: v.get("workload_fingerprint")?.as_str()?.to_string(),
            jobs: v.get("jobs")?.as_u64()?,
            machine_nodes: v.get("machine_nodes")?.as_u64()? as u32,
            objective: ObjectiveKind::from_tag(v.get("objective")?.as_str()?)?,
            algorithm: AlgorithmSpec::new(kind, backfill),
            caching: v.get("caching")?.as_bool()?,
            seed: v.get("seed")?.as_u64()?,
            workload_seed: v.get("workload_seed")?.as_u64()?,
            cost: v.get("cost")?.as_f64()?,
            makespan: v.get("makespan")?.as_u64()?,
            utilization: v.get("utilization")?.as_f64()?,
            counts: EngineCounts {
                events: v.get("events")?.as_u64()?,
                decision_rounds: v.get("decision_rounds")?.as_u64()?,
                peak_queue: v.get("peak_queue")?.as_u64()? as usize,
            },
            scheduler_cpu_ns: v.get("scheduler_cpu_ns")?.as_u64()?,
            wall_ns: v.get("wall_ns")?.as_u64()?,
        })
    }

    /// Equality over the deterministic payload only (timing ignored).
    pub fn deterministically_eq(&self, other: &RunRecord) -> bool {
        self.canonical_json() == other.canonical_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::WorkloadSpec;
    use jobsched_algos::spec::PolicyKind;
    use jobsched_algos::BackfillMode;

    fn sample() -> RunRecord {
        RunRecord {
            key: "00ff00ff00ff00ff".into(),
            workload_kind: "ctc".into(),
            workload_name: "CTC-like".into(),
            workload_fingerprint: "0123456789abcdef".into(),
            jobs: 2500,
            machine_nodes: 256,
            objective: ObjectiveKind::AvgWeightedResponseTime,
            algorithm: AlgorithmSpec::new(PolicyKind::SmartFfia, BackfillMode::Easy),
            caching: true,
            seed: 77,
            workload_seed: 1999,
            cost: 4.9123e6,
            makespan: 123_456,
            utilization: 0.731,
            counts: EngineCounts {
                events: 5000,
                decision_rounds: 2600,
                peak_queue: 41,
            },
            scheduler_cpu_ns: 1_234_567,
            wall_ns: 9_876_543,
        }
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let r = sample();
        let back = RunRecord::from_json_str(&r.to_json().to_string_compact()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn canonical_form_ignores_timing() {
        let a = sample();
        let mut b = sample();
        b.scheduler_cpu_ns = 999;
        b.wall_ns = 1;
        assert!(a.deterministically_eq(&b));
        assert_ne!(a, b, "full equality still sees timing");
        let mut c = sample();
        c.cost += 1.0;
        assert!(!a.deterministically_eq(&c));
    }

    #[test]
    fn schema_mismatch_is_a_miss() {
        let r = sample();
        let text = r
            .to_json()
            .to_string_compact()
            .replace("\"schema\":2", "\"schema\":999");
        assert_eq!(RunRecord::from_json_str(&text), None);
        assert_eq!(RunRecord::from_json_str("not json"), None);
        assert_eq!(RunRecord::from_json_str("{}"), None);
    }

    #[test]
    fn to_cell_preserves_measurements() {
        let r = sample();
        let cell = r.to_cell();
        assert_eq!(cell.cost, r.cost);
        assert_eq!(cell.makespan, r.makespan);
        assert_eq!(cell.events, r.counts.events);
        assert_eq!(cell.spec(), r.algorithm);
        assert_eq!(cell.scheduler_cpu, Duration::from_nanos(r.scheduler_cpu_ns));
    }

    #[test]
    fn record_key_matches_cell_spec_key() {
        // from_cell stamps the key the cache will look the record up by.
        let spec = CellSpec {
            table: 0,
            workload: WorkloadSpec::Randomized { jobs: 10, seed: 3 },
            objective: ObjectiveKind::AvgResponseTime,
            algorithm: AlgorithmSpec::reference(),
            caching: true,
            seed: 3,
        };
        let cell = EvalCell::from_parts(
            spec.algorithm,
            10.0,
            Duration::from_nanos(5),
            100,
            0.5,
            EngineCounts::default(),
        );
        let r = RunRecord::from_cell(
            &spec,
            spec.cache_key(42),
            "randomized",
            42,
            10,
            256,
            &cell,
            Duration::from_nanos(9),
        );
        assert_eq!(r.key, spec.cache_key(42));
        assert_eq!(r.workload_fingerprint, "000000000000002a");
        assert_eq!(r.workload_seed, 3);
    }

    #[test]
    fn cells_sharing_a_simulation_share_its_cpu_and_split_its_wall() {
        use crate::{run_campaign, Campaign, SweepOptions};
        use jobsched_core::experiment::Scale;
        let scale = Scale {
            ctc_jobs: 120,
            synthetic_jobs: 0,
            seed: 11,
        };
        // Table 3: an ART and an AWRT section over the same 13 specs.
        let campaign = Campaign::paper_tables(scale, &["table3"]);
        let t0 = std::time::Instant::now();
        let out = run_campaign(&campaign, &SweepOptions::default()).unwrap();
        let elapsed = t0.elapsed().as_nanos() as u64;
        let (art, awrt) = out.records.split_at(13);
        let mut shared = 0;
        for (a, w) in art.iter().zip(awrt) {
            assert_eq!(a.algorithm, w.algorithm);
            if matches!(a.algorithm.kind, PolicyKind::Fcfs | PolicyKind::GareyGraham) {
                // One schedule: same run, same counts, same timing.
                assert_eq!(a.counts, w.counts);
                assert_eq!(a.scheduler_cpu_ns, w.scheduler_cpu_ns);
                assert_eq!(a.wall_ns, w.wall_ns);
                // Each cell holds half the run's wall, which holds the
                // scheduler's time inside it.
                assert!(a.scheduler_cpu_ns <= 2 * a.wall_ns + 1);
                shared += 1;
            }
        }
        assert_eq!(shared, 4);
        // Σ wall_ns is the workers' simulation time, inside the
        // campaign's own wall on one worker.
        let total: u64 = out.records.iter().map(|r| r.wall_ns).sum();
        assert!(total > 0 && total <= elapsed, "{total} > {elapsed}");
    }

    #[test]
    fn cache_key_separates_workload_seeds() {
        // Two cells identical in every respect except the workload's
        // generator seed must not collide — even under an (adversarial)
        // fingerprint collision, which is why the seed is hashed
        // explicitly rather than relying on the workload content alone.
        let cell = |wseed: u64| CellSpec {
            table: 0,
            workload: WorkloadSpec::Probabilistic {
                base_jobs: 100,
                base_seed: 1999,
                jobs: 80,
                seed: wseed,
            },
            objective: ObjectiveKind::AvgResponseTime,
            algorithm: AlgorithmSpec::reference(),
            caching: true,
            seed: 7, // same derived cell seed on purpose
        };
        assert_ne!(cell(2000).cache_key(42), cell(2001).cache_key(42));
        // And the records they produce are distinguishable too.
        let eval = EvalCell::from_parts(
            AlgorithmSpec::reference(),
            10.0,
            Duration::from_nanos(5),
            100,
            0.5,
            EngineCounts::default(),
        );
        let rec = |wseed: u64| {
            RunRecord::from_cell(
                &cell(wseed),
                cell(wseed).cache_key(42),
                "prob",
                42,
                80,
                256,
                &eval,
                Duration::from_nanos(9),
            )
        };
        assert!(!rec(2000).deterministically_eq(&rec(2001)));
        assert!(rec(2000)
            .canonical_json()
            .contains("\"workload_seed\":2000"));
    }
}
