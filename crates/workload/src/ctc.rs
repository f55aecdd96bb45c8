//! Synthetic stand-in for the CTC SP2 workload trace (§6.1).
//!
//! The paper evaluates against the Cornell Theory Center batch-partition
//! trace, July 1996 – May 1997: 79,164 jobs on a 430-node partition. The
//! real trace is not bundled here; this module generates a workload with
//! the same first-order structure so that every §6.1 preparation step and
//! every downstream experiment runs unchanged (DESIGN.md §2 documents the
//! substitution). If the real trace is available, parse it with
//! [`crate::swf::parse`] instead and the rest of the pipeline is identical.
//!
//! Calibration targets (drawn from the published CTC workload analyses the
//! paper cites — Hotovy, JSSPP'96 — and from the archive's trace summary):
//!
//! * ~79 k jobs over ~330 days → mean inter-arrival ≈ 360 s, strongly
//!   diurnal (day/night) and weekly (weekday/weekend) modulated, bursty
//!   (Weibull gaps with shape < 1);
//! * serial jobs dominate (~37 %), powers of two over-represented, a thin
//!   tail up to the full partition with < 0.2 % of jobs above 256 nodes;
//! * heavy-tailed runtimes (log-normal body, minutes to 18 h);
//! * user estimates overrun actual runtimes by large, irregular factors,
//!   with a small fraction of jobs hitting their limit (killed, status 5);
//! * offered load ≈ 0.6 on 430 nodes — which is what produces the growing
//!   backlog the paper observes after retargeting to 256 nodes.

use crate::distr::{Empirical, LogNormal, Sample, Weibull};
use crate::job::{CompletionStatus, Job, JobId, NodeType, Time, DAY, HOUR};
use crate::rng::{Rng, SmallRng};
use crate::trace::Workload;

/// Configuration of the synthetic CTC-like trace generator.
#[derive(Clone, Debug)]
pub struct CtcModel {
    /// Number of jobs to generate (paper: 79,164).
    pub jobs: usize,
    /// Batch-partition size the trace is "recorded" on (paper: 430).
    pub machine_nodes: u32,
    /// Mean inter-arrival time in seconds before diurnal modulation.
    pub mean_interarrival: f64,
    /// Weibull shape of the inter-arrival gaps (< 1 ⇒ bursty).
    pub interarrival_shape: f64,
    /// Log-normal μ of the runtime distribution.
    pub runtime_mu: f64,
    /// Log-normal σ of the runtime distribution.
    pub runtime_sigma: f64,
    /// Fraction of jobs whose actual runtime exceeds their limit
    /// (killed at the limit, Rule 2).
    pub killed_fraction: f64,
    /// Number of distinct users.
    pub users: u32,
    /// Largest node request below the >256 tail. The real CTC trace holds
    /// almost no full-bisection (≥ 3/4 machine) requests over 11 months;
    /// their frequency decides whether Garey&Graham starves wide jobs —
    /// see the `max_width` ablation bench and EXPERIMENTS.md.
    pub max_regular_nodes: u32,
}

impl Default for CtcModel {
    fn default() -> Self {
        CtcModel {
            jobs: crate::CTC_JOB_COUNT,
            machine_nodes: crate::CTC_NODES,
            mean_interarrival: 360.0,
            interarrival_shape: 0.65,
            // exp(7.95 + 1.55²/2) ≈ 9.4 k s ≈ 2.6 h mean runtime; with the
            // node distribution and the wide-tail damping this offers
            // ~0.55 load on 430 nodes and ~0.9 on 256 — the heavy-backlog
            // regime §6.1 describes after retargeting.
            runtime_mu: 7.95,
            runtime_sigma: 1.55,
            killed_fraction: 0.08,
            users: 680,
            max_regular_nodes: 192,
        }
    }
}

impl CtcModel {
    /// A reduced-size model (same distributions, `n` jobs) for tests and
    /// fast benchmark runs.
    pub fn with_jobs(n: usize) -> Self {
        CtcModel {
            jobs: n,
            ..CtcModel::default()
        }
    }

    /// Generate the workload deterministically from `seed`.
    pub fn generate(&self, seed: u64) -> Workload {
        let mut rng = SmallRng::seed_from_u64(seed);
        let gap_distr = Weibull::new(
            self.interarrival_shape,
            self.mean_interarrival / gamma1p(self.interarrival_shape),
        );
        let runtime_distr = LogNormal::new(self.runtime_mu, self.runtime_sigma);
        let nodes_distr = node_distribution(self.machine_nodes, self.max_regular_nodes);
        let user_distr = user_distribution(self.users);

        let mut jobs = Vec::with_capacity(self.jobs);
        let mut clock = 0.0f64;
        for i in 0..self.jobs {
            // Bursty base process thinned by the diurnal/weekly intensity:
            // low intensity stretches the gap, high intensity compresses it.
            let gap = gap_distr.sample(&mut rng) / diurnal_intensity(clock as Time);
            clock += gap.max(1.0);
            let submit = clock as Time;

            let nodes = nodes_distr.draw(&mut rng);
            let mut runtime = (runtime_distr.sample(&mut rng) as Time).clamp(30, 18 * HOUR);
            // Node count and runtime are negatively correlated in the wide
            // tail of production traces: very wide jobs are mostly short
            // benchmark/debug runs. Dampen the tail accordingly.
            if nodes > 96 {
                runtime = ((runtime as f64 * 0.45) as Time).max(30);
            }
            let (requested, actual, status) = self.estimate(&mut rng, runtime);
            jobs.push(Job {
                id: JobId(i as u32),
                submit,
                nodes,
                requested_time: requested,
                runtime: actual,
                user: user_distr.draw(&mut rng),
                memory_mb: memory_for(nodes, &mut rng),
                node_type: node_type_for(nodes, &mut rng),
                status,
            });
        }
        Workload::new("ctc-like", self.machine_nodes, jobs)
    }

    /// Produce (requested limit, actual runtime, status) with the CTC
    /// over-estimation profile.
    fn estimate<R: Rng>(&self, rng: &mut R, runtime: Time) -> (Time, Time, CompletionStatus) {
        if rng.random_range(0.0..1.0) < self.killed_fraction {
            // The user under-estimated: the job hits its limit and dies.
            let requested = round_request((runtime as f64 * rng.random_range(0.4..0.95)) as Time);
            let requested = requested.max(300);
            return (
                requested,
                requested + 1 + requested / 10,
                CompletionStatus::KilledAtLimit,
            );
        }
        // Over-estimation factor: a mixture of near-exact, moderate and wild
        // guesses (users pad to be safe; many just take queue defaults).
        let p: f64 = rng.random_range(0.0..1.0);
        let factor = if p < 0.15 {
            rng.random_range(1.0..1.15)
        } else if p < 0.70 {
            rng.random_range(1.15..4.0)
        } else {
            rng.random_range(4.0..20.0)
        };
        let requested = round_request(((runtime as f64) * factor) as Time).clamp(300, 24 * HOUR);
        let requested = requested.max(runtime); // padding never below actual here
        (requested, runtime, CompletionStatus::Completed)
    }
}

/// Γ(1 + 1/k), the Weibull mean factor.
fn gamma1p(shape: f64) -> f64 {
    crate::distr::gamma(1.0 + 1.0 / shape)
}

/// Users round their limits to "nice" values: 5-minute granularity below an
/// hour, 30-minute granularity above.
fn round_request(t: Time) -> Time {
    if t < HOUR {
        t.div_ceil(300) * 300
    } else {
        t.div_ceil(1800) * 1800
    }
}

/// Node-count distribution: serial-dominated, power-of-two biased, a thin
/// background up to `max_regular` nodes, plus the > 256-node tail that
/// §6.1 deletes (< 0.2 % of jobs, matching the paper's statistic).
fn node_distribution(machine: u32, max_regular: u32) -> Empirical<u32> {
    let mut weights: Vec<(u32, f64)> = vec![
        (1, 37.0),
        (2, 7.0),
        (3, 1.2),
        (4, 8.0),
        (5, 0.6),
        (6, 1.0),
        (8, 9.0),
        (12, 1.5),
        (16, 8.0),
        (24, 1.0),
        (32, 6.0),
        (48, 0.8),
        (64, 3.5),
        (96, 0.4),
        (128, 1.2),
    ];
    weights.retain(|&(n, _)| n <= max_regular);
    // Fill the gaps with a light 1/n background so every width occurs;
    // widths above half the batch partition are genuinely rare in the CTC
    // trace, so the background thins out there.
    for n in 2..=machine.min(max_regular) {
        let base = if n > 128 { 0.15 } else { 0.8 };
        weights.push((n, base / n as f64));
    }
    // The > 256-node tail that §6.1 deletes: ~0.15 % of jobs.
    if machine > 256 {
        for n in (272..=machine).step_by(16) {
            weights.push((n, 0.03));
        }
    }
    Empirical::new(weights)
}

/// Zipf-like user activity: few heavy users, long tail.
fn user_distribution(users: u32) -> Empirical<u32> {
    Empirical::new((0..users).map(|u| (u, 1.0 / (u as f64 + 1.0).powf(0.9))))
}

/// Day/week intensity of the submission process, normalised to ≈ 1 on
/// average: weekdays 7am–8pm are busy (Rule 5's window), nights and
/// weekends are quiet (Rule 6's window).
pub fn diurnal_intensity(t: Time) -> f64 {
    let day = (t / DAY) % 7; // day 0 = Monday by convention
    let hour = (t % DAY) / HOUR;
    let weekday = day < 5;
    let daytime = (7..20).contains(&hour);
    match (weekday, daytime) {
        (true, true) => 1.65,
        (true, false) => 0.55,
        (false, true) => 0.55,
        (false, false) => 0.35,
    }
}

fn memory_for<R: Rng>(nodes: u32, rng: &mut R) -> u32 {
    // Wide multi-node jobs request the commodity memory of the big thin
    // pool; big-memory requests come from narrow jobs that target the
    // small wide-node pool.
    let base = [64u32, 128, 128, 256, 256, 512];
    let m = base[rng.random_range(0..base.len())];
    if nodes == 1 && rng.random_range(0.0..1.0) < 0.1 {
        2048 // fat single-node jobs exist
    } else if nodes <= 4 && rng.random_range(0.0..1.0) < 0.08 {
        1024
    } else {
        m
    }
}

fn node_type_for<R: Rng>(nodes: u32, rng: &mut R) -> NodeType {
    // 382 of 430 CTC nodes are the identical majority class (§6.1).
    // Special-class requests only make sense for jobs narrow enough to
    // fit the small wide/storage pools.
    let p: f64 = rng.random_range(0.0..1.0);
    if nodes <= 4 && p < 0.08 {
        NodeType::Wide
    } else if nodes <= 8 && p < 0.02 {
        NodeType::Storage
    } else {
        NodeType::Thin
    }
}

/// Convenience: the paper's fully prepared evaluation input — generate the
/// CTC-like trace, delete >256-node jobs, drop hardware heterogeneity and
/// retarget to the 256-node batch partition of Institution B (§6.1).
pub fn prepared_ctc_workload(jobs: usize, seed: u64) -> Workload {
    let mut w = CtcModel::with_jobs(jobs).generate(seed);
    w.retarget(crate::TARGET_NODES);
    w.homogenize();
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::WorkloadStats;

    fn small() -> Workload {
        CtcModel::with_jobs(6_000).generate(42)
    }

    #[test]
    fn generates_requested_job_count() {
        assert_eq!(small().len(), 6_000);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = CtcModel::with_jobs(500).generate(7);
        let b = CtcModel::with_jobs(500).generate(7);
        assert_eq!(a.jobs(), b.jobs());
    }

    #[test]
    fn different_seeds_differ() {
        let a = CtcModel::with_jobs(500).generate(7);
        let b = CtcModel::with_jobs(500).generate(8);
        assert_ne!(a.jobs(), b.jobs());
    }

    #[test]
    fn all_jobs_valid_for_430_nodes() {
        assert!(small().validate().is_ok());
    }

    #[test]
    fn wide_job_fraction_matches_paper() {
        // §6.1: "less than 0.2 % of all jobs require more than 256 nodes".
        let w = CtcModel::with_jobs(30_000).generate(11);
        let wide = w.jobs().iter().filter(|j| j.nodes > 256).count();
        let frac = wide as f64 / w.len() as f64;
        assert!(frac > 0.0, "some wide jobs must exist");
        assert!(frac < 0.004, "wide fraction {frac}");
    }

    #[test]
    fn serial_jobs_dominate() {
        let w = small();
        let serial = w.jobs().iter().filter(|j| j.nodes == 1).count();
        let frac = serial as f64 / w.len() as f64;
        assert!((0.2..0.55).contains(&frac), "serial fraction {frac}");
    }

    #[test]
    fn killed_fraction_near_target() {
        let w = small();
        let killed = w.jobs().iter().filter(|j| j.killed_at_limit()).count();
        let frac = killed as f64 / w.len() as f64;
        assert!((0.04..0.14).contains(&frac), "killed fraction {frac}");
    }

    #[test]
    fn estimates_never_below_actual_for_completed_jobs() {
        let w = small();
        for j in w.jobs() {
            if j.status == CompletionStatus::Completed {
                assert!(j.requested_time >= j.runtime, "{:?}", j);
            }
        }
    }

    #[test]
    fn offered_load_produces_backlog_on_256_nodes() {
        // The paper's central observation: the CTC load that fit on 430
        // nodes creates a growing backlog on 256.
        let w = CtcModel::with_jobs(20_000).generate(3);
        let load430 = w.offered_load();
        assert!((0.35..0.95).contains(&load430), "430-node load {load430}");
        let mut cut = w.clone();
        cut.retarget(256);
        let load256 = cut.offered_load();
        assert!(load256 > 0.75, "256-node load {load256}");
        assert!(load256 > load430);
    }

    #[test]
    fn prepared_workload_fits_target_machine() {
        let w = prepared_ctc_workload(2_000, 1);
        assert_eq!(w.machine_nodes(), 256);
        assert!(w.validate().is_ok());
        assert!(w.jobs().iter().all(|j| j.memory_mb == 0));
    }

    #[test]
    fn interarrival_is_bursty() {
        let s = WorkloadStats::of(&small());
        assert!(s.interarrival.cv() > 1.0, "cv {}", s.interarrival.cv());
    }

    #[test]
    fn diurnal_intensity_day_exceeds_night() {
        let monday_noon = 12 * HOUR;
        let monday_night = 2 * HOUR;
        let saturday_noon = 5 * DAY + 12 * HOUR;
        assert!(diurnal_intensity(monday_noon) > diurnal_intensity(monday_night));
        assert!(diurnal_intensity(monday_noon) > diurnal_intensity(saturday_noon));
    }

    #[test]
    fn runtimes_within_limits() {
        let w = small();
        for j in w.jobs() {
            assert!(j.effective_runtime() >= 30 || j.killed_at_limit());
            assert!(j.requested_time <= 24 * HOUR + 1800);
        }
    }
}
