//! The conservative scan's early stop against booking everything.
//!
//! `scan_conservative_live_in` ends a decision as soon as no job left in
//! its window can start now. `jobsched_oracle::book_every_conservative`
//! books every job of the same window under the same truncation rules.
//! On random running sets (past-due and future projections, drains),
//! random orders, both queue depths — the exact path up to
//! `CONSERVATIVE_TRUNCATION_DEPTH` and the truncated one beyond — and
//! one-, two- and three-pool machines, both must return the same picks
//! in the same order and the same free nodes now.

use jobsched_algos::backfill::{scan_conservative_live_in, CONSERVATIVE_TRUNCATION_DEPTH};
use jobsched_oracle::book_every_conservative;
use jobsched_sim::{JobRequest, Machine, Profile};
use jobsched_workload::rng::{derive_seed, Rng, SmallRng};
use jobsched_workload::{ClassId, JobId, MachineLayout, NodeClassSpec, NodeType, Time};

const NOW: Time = 500;

fn pool(node_type: NodeType, memory_mb: u32, count: u32) -> NodeClassSpec {
    NodeClassSpec {
        node_type,
        memory_mb,
        count,
    }
}

fn layouts() -> [MachineLayout; 3] {
    [
        MachineLayout::single(64),
        MachineLayout::new(vec![
            pool(NodeType::Thin, 512, 48),
            pool(NodeType::Wide, 2048, 16),
        ]),
        MachineLayout::new(vec![
            pool(NodeType::Thin, 512, 32),
            pool(NodeType::Wide, 2048, 12),
            pool(NodeType::Storage, 1024, 6),
        ]),
    ]
}

/// A machine at `NOW` with jobs started at 0 in every pool — some past
/// their projected end (they release at `NOW + 1`), most still running —
/// and, now and then, a drained partition.
fn busy_machine(layout: MachineLayout, rng: &mut SmallRng) -> Machine {
    let mut m = Machine::with_layout(layout);
    let mut id = 0;
    for c in 0..m.class_count() {
        let class = ClassId(c as u8);
        for _ in 0..rng.random_range(0u32..12) {
            let free = m.free_in(class);
            if free == 0 {
                break;
            }
            let nodes = rng.random_range(1..=free.min(1 + m.total_in(class) / 3));
            let end = rng.random_range(1u64..3_000);
            m.start_in(class, JobId(1_000_000 + id), nodes, 0, end)
                .expect("fits the free nodes");
            id += 1;
        }
        if rng.random_range(0u32..4) == 0 && m.free_in(class) > 0 {
            let nodes = rng.random_range(1..=m.free_in(class));
            m.drain_in(class, nodes, NOW + rng.random_range(1u64..2_000))
                .expect("fits the free nodes");
        }
    }
    m
}

/// `len` requests of one pool: mostly narrow, some up to the pool's
/// width; estimates mostly short, a few long.
fn order(class: ClassId, width: u32, len: usize, rng: &mut SmallRng) -> Vec<JobRequest> {
    (0..len)
        .map(|i| JobRequest {
            id: JobId(i as u32),
            submit: 0,
            nodes: match rng.random_range(0u32..6) {
                0 => rng.random_range(1..=width),
                _ => rng.random_range(1..=width.div_ceil(4)),
            },
            class,
            requested_time: match rng.random_range(0u32..8) {
                0 => rng.random_range(1u64..20_000),
                _ => rng.random_range(1u64..600),
            },
            user: 0,
        })
        .collect()
}

/// Compare the two scans over `cases` random cases whose per-pool order
/// length `len` draws. Returns how many cases picked a job behind one that
/// could not start now — the cases a stop at the first such job would get
/// wrong.
fn compare(seed: u64, cases: u64, len: impl Fn(&mut SmallRng) -> usize) -> usize {
    let mut scratch = Profile::empty(1, 0);
    let mut behind_a_blocked_job = 0;
    for case in 0..cases {
        let mut rng = SmallRng::seed_from_u64(derive_seed(seed, case));
        let layouts = layouts();
        let layout = layouts[case as usize % layouts.len()].clone();
        let m = busy_machine(layout, &mut rng);
        for c in 0..m.class_count() {
            let class = ClassId(c as u8);
            let jobs = order(class, m.total_in(class), len(&mut rng), &mut rng);
            // The whole queue may hold other pools' jobs too: at least as
            // deep as this pool's order, with an estimate at least as long.
            let queue_len = if jobs.len() > CONSERVATIVE_TRUNCATION_DEPTH {
                jobs.len() + rng.random_range(0usize..200)
            } else {
                rng.random_range(jobs.len()..=CONSERVATIVE_TRUNCATION_DEPTH)
            };
            let longest = jobs.iter().map(|r| r.requested_time).max().unwrap_or(0)
                + rng.random_range(0u64..2) * rng.random_range(0u64..30_000);

            let expected = book_every_conservative(class, &jobs, queue_len, longest, &m, NOW);
            let scan = scan_conservative_live_in(
                class,
                &jobs,
                queue_len,
                longest,
                None,
                &m,
                NOW,
                &mut scratch,
            );
            assert_eq!(scan, expected, "seed {seed:#x} case {case} class {c}");

            // Ids are order positions: a pick off the prefix 0, 1, …
            // follows a job that did not start.
            if expected
                .picks
                .iter()
                .enumerate()
                .any(|(k, id)| id.index() != k)
            {
                behind_a_blocked_job += 1;
            }
        }
    }
    behind_a_blocked_job
}

#[test]
fn early_stop_equals_booking_everything_on_the_exact_path() {
    let behind = compare(0xC0_5709, 90, |rng| match rng.random_range(0u32..4) {
        0 => rng.random_range(0usize..8),
        _ => rng.random_range(0usize..=CONSERVATIVE_TRUNCATION_DEPTH),
    });
    assert!(behind >= 40, "too few picks behind a blocked job: {behind}");
}

#[test]
fn early_stop_equals_booking_everything_on_the_truncated_path() {
    let behind = compare(0xDEE9_5709, 48, |rng| {
        rng.random_range(CONSERVATIVE_TRUNCATION_DEPTH + 1..3 * CONSERVATIVE_TRUNCATION_DEPTH)
    });
    assert!(behind >= 20, "too few picks behind a blocked job: {behind}");
}
