//! Rigid-job identity pin for the segment-capable engines.
//!
//! The preemptible-allocation refactor taught every engine layer to
//! speak allocation segments. This test pins the compatibility
//! contract that refactor must preserve: for rigid jobs (no faults, no
//! preemption, no moldable shapes), all 43 scheduler-atlas rows must
//! produce **bit-identical** schedules and objective values across
//!
//! * the oracle's batch reference loop (`simulate_batch_with_faults`),
//! * the streaming pipeline (`simulate_with_faults`), and
//! * the time-shared engine driving the same rigid scheduler through
//!   [`RigidAdapter`],
//!
//! under both blocked-cache settings. Any
//! divergence means the segment machinery leaked into the rigid path.

use jobsched::algos::view::WeightScheme;
use jobsched::algos::AlgorithmSpec;
use jobsched::core::objective_select::ObjectiveKind;
use jobsched::metrics::Objective;
use jobsched::sim::{simulate_time_shared, simulate_with_faults, FaultPlan};
use jobsched::workload::ctc::prepared_ctc_workload;
use jobsched::workload::Workload;
use jobsched_oracle::{simulate_batch_with_faults, RigidAdapter};

fn costs(w: &Workload, s: &jobsched::sim::ScheduleRecord) -> (f64, f64) {
    (
        ObjectiveKind::AvgResponseTime.cost(w, s),
        ObjectiveKind::AvgWeightedResponseTime.cost(w, s),
    )
}

#[test]
fn atlas_rows_are_bit_identical_across_engines() {
    let workload = prepared_ctc_workload(220, 4242);
    let plan = FaultPlan::default();
    let matrix = AlgorithmSpec::atlas_matrix();
    assert_eq!(matrix.len(), 43, "atlas matrix changed size");

    for spec in &matrix {
        for caching in [false, true] {
            let ctx = format!("{} / caching={caching}", spec.name());
            let build = || spec.build_dyn(WeightScheme::Unweighted, caching);

            let batch = simulate_batch_with_faults(&workload, &mut *build(), &plan);
            let stream = simulate_with_faults(&workload, &mut *build(), &plan);
            let mut inner = build();
            let ts = simulate_time_shared(&workload, &mut RigidAdapter::new(&mut *inner));

            assert!(
                batch.schedule.validate(&workload).is_empty(),
                "invalid schedule: {ctx}"
            );
            assert_eq!(
                batch.schedule, stream.schedule,
                "batch vs streaming schedules diverged: {ctx}"
            );
            assert_eq!(
                batch.schedule, ts.schedule,
                "batch vs time-shared schedules diverged: {ctx}"
            );
            // Rigid runs must stay single-span placements — the
            // segment union path is reserved for actual preemption.
            for j in workload.jobs() {
                assert_eq!(
                    ts.schedule.segments(j.id),
                    None,
                    "rigid job {} grew a segment union: {ctx}",
                    j.id
                );
            }

            let base = costs(&workload, &batch.schedule);
            assert_eq!(
                base,
                costs(&workload, &stream.schedule),
                "stream cost: {ctx}"
            );
            assert_eq!(base, costs(&workload, &ts.schedule), "ts cost: {ctx}");
            assert!(
                base.0.is_finite() && base.0 > 0.0 && base.1.is_finite() && base.1 > 0.0,
                "degenerate objective: {ctx}"
            );
        }
    }
}
