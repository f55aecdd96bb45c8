//! Golden schedule digests per atlas row.
//!
//! Every row of [`AlgorithmSpec::atlas_matrix`] runs one small fixed
//! CTC-like trace and the FNV-1a digest of its placements is compared
//! with the committed value; the 30 priority rows additionally run a
//! two-class partition of the same trace (the per-pool path). The
//! tables were generated while the priority family was still its own
//! scheduler type, so they pin the merged list scheduler to the
//! decisions of the one it replaced — and pin every later change to
//! today's. A deliberate behaviour change regenerates the tables from
//! the failure message.

use jobsched_algos::spec::PolicyKind;
use jobsched_algos::view::WeightScheme;
use jobsched_algos::AlgorithmSpec;
use jobsched_sim::simulate;
use jobsched_workload::ctc::{prepared_ctc_workload, CtcModel};
use jobsched_workload::{MachineLayout, NodeClassSpec, NodeType, Workload, TARGET_NODES};

const JOBS: usize = 400;
const SEED: u64 = 1999;

/// The trace of the single-class table with its hardware requests kept,
/// on a 224-thin + 32-wide machine (jobs neither pool can host are
/// deleted, as §6.1 deletes the too-wide ones).
fn two_class_workload() -> Workload {
    let mut w = CtcModel::with_jobs(JOBS).generate(SEED);
    w.retarget(TARGET_NODES);
    w.homogenize_with(true);
    let mut w = w.with_layout(MachineLayout::new(vec![
        NodeClassSpec {
            node_type: NodeType::Thin,
            memory_mb: 512,
            count: 224,
        },
        NodeClassSpec {
            node_type: NodeType::Wide,
            memory_mb: 2048,
            count: 32,
        },
    ]));
    w.retain_class_feasible();
    w
}

/// FNV-1a 64 over `(start, completion)` of every job in id order.
fn digest(workload: &Workload, spec: &AlgorithmSpec) -> u64 {
    let mut scheduler = spec.build_dyn(WeightScheme::Unweighted, true);
    let outcome = simulate(workload, scheduler.as_mut());
    assert!(
        outcome.schedule.validate(workload).is_empty(),
        "invalid schedule from {}",
        spec.name()
    );
    let mut state: u64 = 0xcbf2_9ce4_8422_2325;
    for job in workload.jobs() {
        let p = outcome.schedule.placement(job.id).expect("job placed");
        for word in [p.start, p.completion] {
            for byte in word.to_le_bytes() {
                state ^= byte as u64;
                state = state.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    state
}

fn assert_pinned(workload: &Workload, specs: &[AlgorithmSpec], expected: &[(&str, u64)]) {
    let actual: Vec<(String, u64)> = specs
        .iter()
        .map(|spec| (spec.name(), digest(workload, spec)))
        .collect();
    let matches = actual.len() == expected.len()
        && actual
            .iter()
            .zip(expected)
            .all(|(a, e)| a.0 == e.0 && a.1 == e.1);
    if !matches {
        let table: String = actual
            .iter()
            .map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),\n"))
            .collect();
        panic!(
            "placements of {} changed; if intended, the new table is:\n{table}",
            workload.name()
        );
    }
}

#[test]
fn single_class_placements_are_pinned() {
    let w = prepared_ctc_workload(JOBS, SEED);
    assert_pinned(&w, &AlgorithmSpec::atlas_matrix(), &SINGLE_CLASS);
}

#[test]
fn two_class_priority_placements_are_pinned() {
    let w = two_class_workload();
    assert!(w.jobs().iter().any(|j| j.node_type == NodeType::Wide));
    let specs: Vec<AlgorithmSpec> = AlgorithmSpec::atlas_matrix()
        .into_iter()
        .filter(|s| matches!(s.kind, PolicyKind::Priority(_)))
        .collect();
    assert_pinned(&w, &specs, &TWO_CLASS);
}

const SINGLE_CLASS: [(&str, u64); 43] = [
    ("FCFS+Listscheduler", 0xa2ca64ecf17983ef),
    ("FCFS+Backfilling", 0x09280ff30c27ad5b),
    ("FCFS+EASY-Backfilling", 0x1f863ba6545a2577),
    ("PSRS+Listscheduler", 0xd8b9b8bc1677b488),
    ("PSRS+Backfilling", 0x282380b1756b7bcf),
    ("PSRS+EASY-Backfilling", 0xe9c5ee20975896a5),
    ("SMART-FFIA+Listscheduler", 0xbae5d6571f5de699),
    ("SMART-FFIA+Backfilling", 0xc2799bda63c6dfed),
    ("SMART-FFIA+EASY-Backfilling", 0x34bd33c5a69af322),
    ("SMART-NFIW+Listscheduler", 0x244ff64710afa64c),
    ("SMART-NFIW+Backfilling", 0x233a2c71b47ce146),
    ("SMART-NFIW+EASY-Backfilling", 0x8adcf15022832f56),
    ("Garey&Graham+Listscheduler", 0xb2a103f56b09b0ec),
    ("P-FCFS+Listscheduler", 0xa2ca64ecf17983ef),
    ("P-FCFS+Backfilling", 0x09280ff30c27ad5b),
    ("P-FCFS+EASY-Backfilling", 0x1f863ba6545a2577),
    ("SJF+Listscheduler", 0x9377b52f4731e8e0),
    ("SJF+Backfilling", 0x5fbe4ffd34593244),
    ("SJF+EASY-Backfilling", 0xb2c745dacb5b29b5),
    ("LJF+Listscheduler", 0x1368d39b7a6cfa7a),
    ("LJF+Backfilling", 0x4fcbb2291402c782),
    ("LJF+EASY-Backfilling", 0x19e7be510f7ef3db),
    ("Smallest-First+Listscheduler", 0x64e51c6810300afc),
    ("Smallest-First+Backfilling", 0x64e51c6810300afc),
    ("Smallest-First+EASY-Backfilling", 0x64e51c6810300afc),
    ("Largest-First+Listscheduler", 0x8123905988abd062),
    ("Largest-First+Backfilling", 0xf8482b02f03d0d75),
    ("Largest-First+EASY-Backfilling", 0x5145777451de4358),
    ("WFP+Listscheduler", 0x4c43f320656967b0),
    ("WFP+Backfilling", 0xd96bf183fe3c5244),
    ("WFP+EASY-Backfilling", 0x1612e3a5c7e0fcb2),
    ("WFP3+Listscheduler", 0xb4e1aca356a12b8c),
    ("WFP3+Backfilling", 0x32432e64b3706985),
    ("WFP3+EASY-Backfilling", 0x1556b7122901a997),
    ("UNICEF+Listscheduler", 0x3c60e6dcfb2475ca),
    ("UNICEF+Backfilling", 0x4ec73916c61d0508),
    ("UNICEF+EASY-Backfilling", 0xb56a4788694f28ed),
    ("F1+Listscheduler", 0x0bf8ecec850c351b),
    ("F1+Backfilling", 0x0d353ee276f378d9),
    ("F1+EASY-Backfilling", 0x26151df8ceff011d),
    ("F2+Listscheduler", 0xdf7df2f2a2dc64e3),
    ("F2+Backfilling", 0xc6de8b26f774e6a0),
    ("F2+EASY-Backfilling", 0x8bdda0571256dc55),
];

const TWO_CLASS: [(&str, u64); 30] = [
    ("P-FCFS+Listscheduler", 0x975551ed74b32a4e),
    ("P-FCFS+Backfilling", 0x1dc59c725c68cc46),
    ("P-FCFS+EASY-Backfilling", 0xebf51adddefff4d3),
    ("SJF+Listscheduler", 0x66c1272aed6a5a00),
    ("SJF+Backfilling", 0x80fbc69c5b3ecc7f),
    ("SJF+EASY-Backfilling", 0xd73a9c6b862d0a2a),
    ("LJF+Listscheduler", 0xd6b4a3930e137d70),
    ("LJF+Backfilling", 0x7f259cce06e85a64),
    ("LJF+EASY-Backfilling", 0xd64012f78a1e91de),
    ("Smallest-First+Listscheduler", 0x84d2b4214bf51057),
    ("Smallest-First+Backfilling", 0x84d2b4214bf51057),
    ("Smallest-First+EASY-Backfilling", 0x84d2b4214bf51057),
    ("Largest-First+Listscheduler", 0x5ddc23b99772869c),
    ("Largest-First+Backfilling", 0xcd1685a8000f0f86),
    ("Largest-First+EASY-Backfilling", 0x9e9c9c826b12b957),
    ("WFP+Listscheduler", 0x60393be98259eab3),
    ("WFP+Backfilling", 0x2591cee55d425992),
    ("WFP+EASY-Backfilling", 0xa48201c23ba1f9b1),
    ("WFP3+Listscheduler", 0xe0ec0abd6ade5d23),
    ("WFP3+Backfilling", 0xe2968e68c75da701),
    ("WFP3+EASY-Backfilling", 0xc95fbd669ee1658a),
    ("UNICEF+Listscheduler", 0x1b7d12f5e1235aa5),
    ("UNICEF+Backfilling", 0xe4e291d4ae1da326),
    ("UNICEF+EASY-Backfilling", 0xe5ac011abee46a06),
    ("F1+Listscheduler", 0x17692a9c154edcc0),
    ("F1+Backfilling", 0x0b3064e95ece4374),
    ("F1+EASY-Backfilling", 0xfdf7948712bf9441),
    ("F2+Listscheduler", 0xf3a42a8bbe2f5737),
    ("F2+Backfilling", 0xabbdaf68a8215f83),
    ("F2+EASY-Backfilling", 0x194eb586f6b97c4d),
];
