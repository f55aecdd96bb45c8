//! Extension experiments beyond the paper's tables:
//!
//! * [`combined_comparison`] — the §7 open item: "she must evaluate the
//!   effect of combining the selected algorithms". Runs the day/night
//!   [`ListScheduler::paper_combination`] against the single algorithms
//!   and scores each schedule under *both* regime objectives: ART over
//!   daytime-submitted jobs (Rule 5's constituency) and AWRT over
//!   night/weekend-submitted jobs (Rule 6's), each the library's
//!   accumulator replayed over that subset of jobs.
//! * [`drain_window_cost`] — Example 4's exclusive window under degrading
//!   user estimates: every row of the evaluation matrix runs as a
//!   `ListScheduler` with the window and without it, and the difference
//!   is that row's own cost of the rule.
//! * [`gang_comparison`] — the paper's reference \[15\]: FCFS with gang
//!   scheduling versus space-shared FCFS, sweeping the time slice. Shows
//!   what Institution B gives up by buying a machine without time
//!   sharing.

use crate::experiment::Scale;
use crate::objective_select::ObjectiveKind;
use jobsched_algos::spec::PolicyKind;
use jobsched_algos::switching::DailyWindow;
use jobsched_algos::view::WeightScheme;
use jobsched_algos::{AlgorithmSpec, BackfillMode, ListScheduler};
use jobsched_metrics::{replay, Objective, OnlineArt, OnlineAwrt, StreamingObjective};
use jobsched_sim::gang::{GangConfig, GangFcfsTs};
use jobsched_sim::{simulate, simulate_time_shared, ScheduleRecord};
use jobsched_workload::ctc::prepared_ctc_workload;
use jobsched_workload::{Time, Workload};

/// Plain space-shared FCFS (no backfilling) on the workload's machine.
fn plain_fcfs(workload: &Workload) -> ScheduleRecord {
    let mut fcfs =
        AlgorithmSpec::new(PolicyKind::Fcfs, BackfillMode::None).build(WeightScheme::Unweighted);
    simulate(workload, &mut fcfs).schedule
}

/// Regime-restricted scores of one schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct RegimeScores {
    /// Scheduler name.
    pub name: String,
    /// ART over jobs submitted in the weekday-daytime window (Rule 5).
    pub day_art: f64,
    /// AWRT over jobs submitted outside it (Rule 6).
    pub night_awrt: f64,
}

fn regime_scores(
    name: String,
    workload: &Workload,
    schedule: &ScheduleRecord,
    window: DailyWindow,
) -> RegimeScores {
    let by_day = |day: bool| {
        workload
            .jobs()
            .iter()
            .filter(move |j| window.contains(j.submit) == day)
    };
    let mut day_art = OnlineArt::new();
    let mut night_awrt = OnlineAwrt::new();
    replay(by_day(true), schedule, &mut day_art);
    replay(by_day(false), schedule, &mut night_awrt);
    RegimeScores {
        name,
        day_art: day_art.cost(),
        night_awrt: night_awrt.cost(),
    }
}

/// Evaluate the paper's combined scheduler against single-algorithm
/// configurations under both regime objectives.
///
/// Returns the combined scheduler's scores first, then one row per
/// single-algorithm candidate.
pub fn combined_comparison(scale: Scale, candidates: &[AlgorithmSpec]) -> Vec<RegimeScores> {
    let w = prepared_ctc_workload(scale.ctc_jobs, scale.seed);
    let window = DailyWindow::WEEKDAY_DAYTIME;
    let mut rows = Vec::with_capacity(candidates.len() + 1);

    let mut combined = ListScheduler::paper_combination();
    let name = jobsched_sim::Scheduler::name(&combined);
    let out = simulate(&w, &mut combined);
    rows.push(regime_scores(name, &w, &out.schedule, window));

    for &spec in candidates {
        // Single algorithms run with the weight scheme matching their
        // primary objective (unweighted: they were picked for daytime).
        let mut sched = spec.build(WeightScheme::Unweighted);
        let out = simulate(&w, &mut sched);
        rows.push(regime_scores(spec.name(), &w, &out.schedule, window));
    }
    rows
}

/// One row of the Example 4 study: one algorithm at one estimate
/// padding factor, with and without the exclusive window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DrainRow {
    /// The algorithm.
    pub spec: AlgorithmSpec,
    /// Uniform over-estimation factor applied to exact runtimes
    /// (1 = perfect estimates).
    pub estimate_factor: f64,
    /// The algorithm's ART without the window.
    pub plain_art: f64,
    /// The algorithm's ART under Example 4's exclusive window.
    pub drained_art: f64,
}

impl DrainRow {
    /// Relative ART cost of the exclusive window to this algorithm —
    /// Example 4's point is that it deteriorates as estimates degrade.
    pub fn penalty(&self) -> f64 {
        self.drained_art / self.plain_art.max(f64::MIN_POSITIVE) - 1.0
    }
}

/// The Example 4 dependence: the cost of a recurring exclusive window
/// under increasingly bad user estimates. The paper: "as users are not
/// able to provide accurate execution time estimates for their jobs no
/// scheduling algorithm can generate good schedules" — measured here for
/// each of `specs` as its ART under [`Policy::example4`]'s window against
/// its own ART without it, per estimate padding factor. Rows come per
/// spec, then per factor.
///
/// [`Policy::example4`]: crate::policy::Policy::example4
pub fn drain_window_cost(scale: Scale, specs: &[AlgorithmSpec], factors: &[f64]) -> Vec<DrainRow> {
    use jobsched_workload::exact::with_estimate_factor;

    let window = crate::policy::Policy::example4()
        .exclusive_window()
        .expect("Example 4 reserves the machine for a class");
    let base = prepared_ctc_workload(scale.ctc_jobs, scale.seed);
    let padded: Vec<Workload> = factors
        .iter()
        .map(|&factor| with_estimate_factor(&base, factor))
        .collect();
    let art = |w: &Workload, sched: &mut ListScheduler| {
        ObjectiveKind::AvgResponseTime.cost(w, &simulate(w, sched).schedule)
    };
    let mut rows = Vec::with_capacity(specs.len() * factors.len());
    for &spec in specs {
        for (&factor, w) in factors.iter().zip(&padded) {
            let mut plain = spec.build(WeightScheme::Unweighted);
            let mut drained = spec
                .build(WeightScheme::Unweighted)
                .with_exclusive_window(window)
                .expect("Example 4's window closes every day");
            rows.push(DrainRow {
                spec,
                estimate_factor: factor,
                plain_art: art(w, &mut plain),
                drained_art: art(w, &mut drained),
            });
        }
    }
    rows
}

/// Result of the §6.1 heterogeneity study.
#[derive(Clone, Debug, PartialEq)]
pub struct HeterogeneityComparison {
    /// FCFS ART honouring node types and memory on the 430-node machine.
    pub typed_art: f64,
    /// FCFS ART ignoring hardware requests (the paper's simplification).
    pub blind_art: f64,
    /// Jobs whose hardware request no node class can ever satisfy; they
    /// are deleted from the typed run (and only from it).
    pub rejected: usize,
}

impl HeterogeneityComparison {
    /// Relative error the type-blind simplification introduces.
    pub fn relative_error(&self) -> f64 {
        (self.typed_art - self.blind_art).abs() / self.blind_art.max(f64::MIN_POSITIVE)
    }
}

/// Quantify §6.1's "ignore all additional hardware requests" decision:
/// schedule the *unprepared* CTC-like trace with plain FCFS, once on the
/// heterogeneous partition (`MachineLayout::ctc_sp2`: every job is
/// resolved to exactly one node class and never spills into another,
/// requests no class can host are deleted) and once on the type-blind
/// machine of the same size (`MachineLayout::single`), and compare
/// response times. A small relative error is the justification the
/// paper's administrator assumes ("most nodes of the CTC batch partition
/// are identical").
pub fn heterogeneity_comparison(scale: Scale) -> HeterogeneityComparison {
    use jobsched_workload::ctc::CtcModel;
    use jobsched_workload::MachineLayout;

    let raw = CtcModel::with_jobs(scale.ctc_jobs).generate(scale.seed);
    let nodes = raw.machine_nodes();
    let blind = raw.clone().with_layout(MachineLayout::single(nodes));
    let mut typed = raw.with_layout(MachineLayout::ctc_sp2(nodes));
    let rejected = typed.retain_class_feasible();
    HeterogeneityComparison {
        typed_art: ObjectiveKind::AvgResponseTime.cost(&typed, &plain_fcfs(&typed)),
        blind_art: ObjectiveKind::AvgResponseTime.cost(&blind, &plain_fcfs(&blind)),
        rejected,
    }
}

/// One gang-sweep row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GangRow {
    /// Time slice in seconds (0 = space-shared FCFS reference).
    pub time_slice: Time,
    /// Average response time.
    pub art: f64,
    /// Makespan.
    pub makespan: Time,
}

/// FCFS+gang versus space-shared FCFS on the CTC-like workload, sweeping
/// the time slice. The first row (`time_slice == 0`) is the space-shared
/// reference.
pub fn gang_comparison(scale: Scale, slices: &[Time]) -> Vec<GangRow> {
    let w = prepared_ctc_workload(scale.ctc_jobs, scale.seed);
    let mut rows = Vec::with_capacity(slices.len() + 1);

    let space_shared = plain_fcfs(&w);
    rows.push(GangRow {
        time_slice: 0,
        art: ObjectiveKind::AvgResponseTime.cost(&w, &space_shared),
        makespan: space_shared.makespan(),
    });

    for &slice in slices {
        let mut gang = GangFcfsTs::new(GangConfig {
            time_slice: slice,
            ..GangConfig::default()
        });
        let out = simulate_time_shared(&w, &mut gang);
        rows.push(GangRow {
            time_slice: slice,
            art: ObjectiveKind::AvgResponseTime.cost(&w, &out.schedule),
            makespan: out.schedule.makespan(),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            ctc_jobs: 900,
            synthetic_jobs: 300,
            seed: 1999,
        }
    }

    #[test]
    fn combined_comparison_produces_rows() {
        let rows = combined_comparison(
            tiny(),
            &[
                AlgorithmSpec::new(PolicyKind::Fcfs, BackfillMode::Easy),
                AlgorithmSpec::new(PolicyKind::GareyGraham, BackfillMode::None),
            ],
        );
        assert_eq!(rows.len(), 3);
        assert!(rows[0].name.starts_with("switch["));
        assert!(rows
            .iter()
            .all(|r| r.day_art.is_finite() && r.night_awrt.is_finite()));
        assert!(rows.iter().all(|r| r.day_art > 0.0));
    }

    #[test]
    fn drain_cost_grows_with_estimate_padding() {
        // Example 4's point: the window is cheap with exact estimates and
        // increasingly expensive as estimates degrade — for a plain list,
        // for EASY and for Garey & Graham alike.
        let specs = [
            AlgorithmSpec::new(PolicyKind::Fcfs, BackfillMode::None),
            AlgorithmSpec::reference(),
            AlgorithmSpec::new(PolicyKind::GareyGraham, BackfillMode::None),
        ];
        let rows = drain_window_cost(tiny(), &specs, &[1.0, 8.0]);
        assert_eq!(rows.len(), 6);
        for (spec, pair) in specs.iter().zip(rows.chunks(2)) {
            let (exact, padded) = (&pair[0], &pair[1]);
            assert!(exact.spec == *spec && padded.spec == *spec);
            // Without the window, FCFS and Garey & Graham ignore estimates
            // entirely: their ART is constant across the sweep.
            if spec.backfill == BackfillMode::None {
                assert_eq!(exact.plain_art, padded.plain_art, "{}", spec.name());
            }
            assert!(
                padded.penalty() > exact.penalty(),
                "padding must amplify the window's cost: {exact:?} vs {padded:?}"
            );
        }
    }

    #[test]
    fn heterogeneity_baseline_is_type_blind() {
        use jobsched_workload::ctc::CtcModel;
        use jobsched_workload::MachineLayout;

        let scale = tiny();
        let c = heterogeneity_comparison(scale);
        // The baseline is plain FCFS with every one of the 430 nodes open
        // to every job, bit for bit.
        let blind = CtcModel::with_jobs(scale.ctc_jobs)
            .generate(scale.seed)
            .with_layout(MachineLayout::single(430));
        assert_eq!(
            c.blind_art.to_bits(),
            ObjectiveKind::AvgResponseTime
                .cost(&blind, &plain_fcfs(&blind))
                .to_bits()
        );
        // Partitioned classes may go either way against it: the special
        // pools queue behind fewer nodes, the thin majority behind fewer
        // jobs. Only a handful of requests fit no class at all.
        assert!(c.typed_art > 0.0);
        assert!(
            c.rejected * 100 < scale.ctc_jobs,
            "{} of {} requests infeasible",
            c.rejected,
            scale.ctc_jobs
        );
    }

    #[test]
    fn gang_comparison_reference_first() {
        let rows = gang_comparison(tiny(), &[300, 600]);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].time_slice, 0);
        assert!(rows.iter().all(|r| r.art > 0.0 && r.makespan > 0));
    }

    #[test]
    fn gang_beats_plain_fcfs_on_ctc_workload() {
        // The [15] claim at workload scale: time sharing rescues FCFS's
        // average response time.
        let rows = gang_comparison(tiny(), &[600]);
        assert!(
            rows[1].art < rows[0].art,
            "gang ART {} should beat FCFS ART {}",
            rows[1].art,
            rows[0].art
        );
    }
}
