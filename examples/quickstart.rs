//! Quickstart: generate a workload, run a scheduler, evaluate the result.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Walks the minimal end-to-end path of the library: workload generation
//! (the paper's §6.1 trace preparation), an online simulation of FCFS with
//! EASY backfilling (the paper's reference configuration, §7), and the two
//! §4 objective functions.

use jobsched::algos::spec::PolicyKind;
use jobsched::algos::view::WeightScheme;
use jobsched::algos::{AlgorithmSpec, BackfillMode};
use jobsched::core::objective_select::ObjectiveKind;
use jobsched::metrics::Objective;
use jobsched::sim::simulate;
use jobsched::workload::ctc::prepared_ctc_workload;
use jobsched::workload::stats::WorkloadStats;

fn main() {
    // 1. A CTC-like workload, prepared as in §6.1: jobs wider than 256
    //    nodes deleted, hardware heterogeneity dropped, 256-node target.
    let workload = prepared_ctc_workload(4_000, 1999);
    println!("{}", WorkloadStats::of(&workload));

    // 2. The paper's reference scheduler: FCFS with EASY backfilling.
    let spec = AlgorithmSpec::new(PolicyKind::Fcfs, BackfillMode::Easy);
    let mut scheduler = spec.build(WeightScheme::Unweighted);
    let outcome = simulate(&workload, &mut scheduler);

    // 3. The schedule is valid by construction; audit it anyway.
    assert!(outcome.schedule.validate(&workload).is_empty());

    // 4. Evaluate under both §4 objectives.
    let art = ObjectiveKind::AvgResponseTime.cost(&workload, &outcome.schedule);
    let awrt = ObjectiveKind::AvgWeightedResponseTime.cost(&workload, &outcome.schedule);
    println!("scheduler            : {}", spec.name());
    println!("jobs                 : {}", workload.len());
    println!("events processed     : {}", outcome.events);
    println!("peak wait queue      : {}", outcome.peak_queue);
    println!(
        "schedule makespan    : {:.1} days",
        outcome.schedule.makespan() as f64 / 86_400.0
    );
    println!(
        "machine utilization  : {:.1}%",
        100.0 * outcome.schedule.utilization(&workload)
    );
    println!(
        "avg response time    : {:.0} s ({:.2} h)",
        art,
        art / 3600.0
    );
    println!("avg weighted resp.   : {:.3e} node-s·s", awrt);
    println!("scheduler CPU        : {:.2?}", outcome.scheduler_cpu);
}
