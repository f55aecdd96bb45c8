//! The FCFS pin: `OrderPolicy::Score(ScoreFn::Fcfs)` must be
//! bit-identical to `OrderPolicy::Fcfs` on the one `ListScheduler` —
//! every placement, every fault outcome — across every backfill mode,
//! both engines (batch loop and streaming
//! pipeline), homogeneous and heterogeneous layouts, with and without
//! fault injection.
//!
//! This is the compatibility contract the priority family rides on:
//! score `-wait` with ties broken by ascending id reproduces the
//! submission order exactly, so the ranked, never-cached path must
//! reproduce the lazily iterated, cached one's decisions bit for
//! bit. Any divergence means the re-ranking path changed selection
//! semantics.

use jobsched_algos::spec::PolicyKind;
use jobsched_algos::view::WeightScheme;
use jobsched_algos::{AlgorithmSpec, BackfillMode, ScoreFn};
use jobsched_oracle::simulate_batch_with_faults;
use jobsched_sim::{simulate_with_faults, CancelFault, DrainFault, FaultPlan};
use jobsched_workload::rng::{derive_seed, Rng, SmallRng};
use jobsched_workload::{
    Job, JobBuilder, JobId, MachineLayout, NodeClassSpec, NodeType, Time, Workload,
};

const MACHINE_NODES: u32 = 64;

/// An adversarial mix: narrow backfill fodder, half-machine blocks, and
/// full-width convoy members, with estimates wrong in both directions
/// and same-instant submission bursts (the tie-break stressor).
fn jobs(seed: u64) -> Vec<Job> {
    let mut rng = SmallRng::seed_from_u64(derive_seed(0xF1D0_F1D0, seed));
    let mut t: Time = 0;
    (0..60u32)
        .map(|i| {
            if rng.random_range(0u32..4) != 0 {
                t += rng.random_range(0u64..500);
            }
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

/// A 48-thin + 16-wide partition with the job stream retyped into both
/// pools (widths clamped to the pool) — the layout where per-class
/// queue partitioning could diverge from the legacy path.
fn hetero(seed: u64) -> Workload {
    let layout = MachineLayout::new(vec![
        NodeClassSpec {
            node_type: NodeType::Thin,
            memory_mb: 512,
            count: 48,
        },
        NodeClassSpec {
            node_type: NodeType::Wide,
            memory_mb: 2048,
            count: 16,
        },
    ]);
    let mut rng = SmallRng::seed_from_u64(derive_seed(0xF1D0_7E70, seed));
    let jobs = jobs(seed)
        .into_iter()
        .map(|j| {
            let (node_type, memory_mb, cap) = match rng.random_range(0u32..4) {
                0 => (NodeType::Wide, 1024, 16),
                1 => (NodeType::Thin, 2048, 16), // escalates into the wide pool
                _ => (NodeType::Thin, 256, 48),
            };
            JobBuilder::new(j.id)
                .submit(j.submit)
                .nodes(j.nodes.min(cap).max(1))
                .requested(j.requested_time)
                .runtime(j.runtime)
                .node_type(node_type)
                .memory_mb(memory_mb)
                .build()
        })
        .collect();
    Workload::new("hetero", MACHINE_NODES, jobs).with_layout(layout)
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

fn assert_identical(workload: &Workload, plan: &FaultPlan, what: &str) {
    for backfill in [
        BackfillMode::None,
        BackfillMode::Conservative,
        BackfillMode::Easy,
    ] {
        let legacy_spec = AlgorithmSpec::new(PolicyKind::Fcfs, backfill);
        let priority_spec = AlgorithmSpec::new(PolicyKind::Priority(ScoreFn::Fcfs), backfill);
        for caching in [false, true] {
            let legacy = || {
                legacy_spec
                    .build(WeightScheme::Unweighted)
                    .with_caching(caching)
            };
            let priority = || priority_spec.build(WeightScheme::Unweighted);
            let ctx = format!("{what} / {backfill:?} / legacy caching={caching}");

            let l = simulate_with_faults(workload, &mut legacy(), plan);
            let p = simulate_with_faults(workload, &mut priority(), plan);
            assert_eq!(l.schedule, p.schedule, "stream placements diverged: {ctx}");
            assert_eq!(l.faults, p.faults, "fault outcomes diverged: {ctx}");

            let lb = simulate_batch_with_faults(workload, &mut legacy(), plan);
            let pb = simulate_batch_with_faults(workload, &mut priority(), plan);
            assert_eq!(lb.schedule, pb.schedule, "batch placements diverged: {ctx}");
            assert_eq!(
                l.schedule, pb.schedule,
                "batch vs stream placements diverged: {ctx}"
            );
        }
    }
}

#[test]
fn priority_fcfs_matches_legacy_fcfs_homogeneous() {
    for seed in 0..4u64 {
        let w = Workload::new("plain", MACHINE_NODES, jobs(seed));
        assert_identical(&w, &FaultPlan::default(), &format!("plain seed {seed}"));
        assert_identical(&w, &faults(), &format!("plain+faults seed {seed}"));
    }
}

#[test]
fn priority_fcfs_matches_legacy_fcfs_heterogeneous() {
    for seed in 0..4u64 {
        let w = hetero(seed);
        assert_identical(&w, &FaultPlan::default(), &format!("hetero seed {seed}"));
        assert_identical(&w, &faults(), &format!("hetero+faults seed {seed}"));
    }
}
