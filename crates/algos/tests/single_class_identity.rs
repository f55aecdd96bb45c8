//! The degenerate-layout differential: a machine declared as one
//! explicit node class must place every job bit-identically to the
//! implicit homogeneous machine it has always been.
//!
//! This is the compatibility contract the heterogeneous node-class
//! extension rides on — all 13 paper algorithm/backfill combinations,
//! in both engines, with fault injection in the mix, must not move a single start when `MachineLayout::single(n)` is
//! attached to the workload. Any divergence means multi-class logic
//! leaked into the single-class path.

use jobsched_algos::view::WeightScheme;
use jobsched_algos::AlgorithmSpec;
use jobsched_oracle::simulate_batch_with_faults;
use jobsched_sim::{simulate_with_faults, CancelFault, DrainFault, FaultPlan};
use jobsched_workload::rng::{derive_seed, Rng, SmallRng};
use jobsched_workload::{Job, JobBuilder, JobId, MachineLayout, Time, Workload};

const MACHINE_NODES: u32 = 64;

/// An adversarial mix: narrow backfill fodder, half-machine blocks, and
/// full-width convoy members, with estimates wrong in both directions.
fn jobs(seed: u64) -> Vec<Job> {
    let mut rng = SmallRng::seed_from_u64(derive_seed(0x51C1_A55E, seed));
    let mut t: Time = 0;
    (0..60u32)
        .map(|i| {
            t += rng.random_range(0u64..500);
            let nodes = match rng.random_range(0u32..8) {
                0 => MACHINE_NODES,
                1..=2 => rng.random_range(MACHINE_NODES / 2..=MACHINE_NODES),
                _ => rng.random_range(1u32..=MACHINE_NODES / 4),
            };
            let requested = rng.random_range(1u64..20_000);
            let runtime = match rng.random_range(0u32..3) {
                0 => requested,
                1 => rng.random_range(1u64..=requested),
                _ => requested + rng.random_range(1u64..8_000),
            };
            JobBuilder::new(JobId(i))
                .submit(t)
                .nodes(nodes)
                .requested(requested)
                .runtime(runtime)
                .build()
        })
        .collect()
}

fn faults() -> FaultPlan {
    FaultPlan {
        cancels: vec![
            CancelFault {
                at: 900,
                id: JobId(7),
            },
            CancelFault {
                at: 4_000,
                id: JobId(23),
            },
        ],
        drains: vec![
            DrainFault::new(1_500, 16, 9_000),
            DrainFault::new(6_000, 8, 14_000),
        ],
        preempts: vec![],
    }
}

#[test]
fn explicit_single_class_layout_changes_no_placement() {
    for seed in 0..4u64 {
        let plain = Workload::new("plain", MACHINE_NODES, jobs(seed));
        let layered = Workload::new("layered", MACHINE_NODES, jobs(seed))
            .with_layout(MachineLayout::single(MACHINE_NODES));

        for spec in AlgorithmSpec::paper_matrix() {
            for caching in [false, true] {
                let build = || spec.build(WeightScheme::Unweighted).with_caching(caching);
                let ctx = format!("{} / caching={caching} / seed {seed}", spec.name());

                let base = simulate_with_faults(&plain, &mut build(), &faults());
                let single = simulate_with_faults(&layered, &mut build(), &faults());
                assert_eq!(
                    base.schedule, single.schedule,
                    "stream placements diverged: {ctx}"
                );
                assert_eq!(base.faults, single.faults, "fault outcomes diverged: {ctx}");

                let batch = simulate_batch_with_faults(&layered, &mut build(), &faults());
                assert_eq!(
                    base.schedule, batch.schedule,
                    "batch placements diverged: {ctx}"
                );
            }
        }
    }
}
