//! Per-class availability profiles on a partitioned machine.
//!
//! Each node-class pool carries its own [`LiveProfile`], and the
//! class-scoped queries must agree with the naive per-class rebuild
//! (`jobsched_oracle::profile::from_machine`) after every event — the same
//! differential contract `live_profile_diff.rs` pins for the
//! single-class machine, lifted to a heterogeneous layout. On top of
//! the randomized lockstep there are two directed cases the issue calls
//! out: reservations sitting at the calendar [`HORIZON`] (permanent
//! drains), and a drain that exhausts one class while the others keep
//! scheduling.

use jobsched_oracle::profile::from_machine;
use jobsched_sim::{profile::HORIZON, DrainToken, Machine};
use jobsched_workload::rng::{derive_seed, Rng, SmallRng};
use jobsched_workload::{ClassId, JobId, MachineLayout, NodeClassSpec, NodeType, Time};

/// 48 thin/512 MB + 16 wide/2048 MB — the CTC-flavoured two-pool shape.
fn two_pool() -> MachineLayout {
    MachineLayout::new(vec![
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
    ])
}

/// Every class's live profile must snapshot bit-identically to the
/// per-class rebuild, and agree on random queries.
fn assert_class_profiles_agree(m: &Machine, now: Time, rng: &mut SmallRng, seq: u64, step: usize) {
    for c in 0..m.class_count() {
        let class = ClassId(c as u8);
        let rebuilt = from_machine(m, Some(class), now);
        let live = m.class_profile(class);
        assert_eq!(
            live.snapshot(now),
            rebuilt,
            "class {c} snapshot divergence (seq {seq}, step {step}, now {now})"
        );
        assert_eq!(
            live.free_nodes(),
            m.free_in(class),
            "class {c} free-node divergence (seq {seq}, step {step})"
        );
        for _ in 0..4 {
            let nodes = rng.random_range(1u32..=m.total_in(class));
            let duration = rng.random_range(1u64..300);
            let from = now + rng.random_range(0u64..400);
            assert_eq!(
                live.earliest_start(now, nodes, duration, from),
                rebuilt.earliest_start(nodes, duration, from),
                "class {c} earliest_start divergence (seq {seq}, step {step}, now {now}, \
                 nodes {nodes}, duration {duration}, from {from})"
            );
            let t = now + rng.random_range(0u64..400);
            assert_eq!(
                live.free_at(now, t),
                rebuilt.free_at(t),
                "class {c} free_at divergence (seq {seq}, step {step}, now {now}, t {t})"
            );
        }
    }
}

#[test]
fn per_class_profiles_match_rebuilt_reference() {
    for seq in 0..300u64 {
        let mut rng = SmallRng::seed_from_u64(derive_seed(0xC1A5_50AF, seq));
        let mut m = Machine::with_layout(two_pool());
        let mut now: Time = 0;
        let mut next_id: u32 = 0;
        // (id, class) — finish() needs only the id; the class tag keeps
        // the start bookkeeping honest.
        let mut running: Vec<(JobId, ClassId)> = Vec::new();
        let mut drained: Vec<DrainToken> = Vec::new();

        for step in 0..40 {
            if rng.random_range(0u32..4) > 0 {
                now += rng.random_range(1u64..120);
            }
            let class = ClassId(rng.random_range(0u32..2) as u8);

            match rng.random_range(0u32..8) {
                0 if m.free_in(class) > 0 => {
                    let nodes = rng.random_range(1u32..=m.free_in(class));
                    let until = now + rng.random_range(1u64..300);
                    drained.push(m.drain_in(class, nodes, until).unwrap());
                }
                1 if !drained.is_empty() => {
                    let victim = rng.random_range(0usize..drained.len());
                    m.undrain(drained.swap_remove(victim)).unwrap();
                }
                _ => {}
            }

            let free = m.free_in(class);
            if free > 0 && (running.is_empty() || rng.random_range(0u32..3) > 0) {
                let nodes = rng.random_range(1u32..=free);
                let duration = rng.random_range(1u64..250);
                let id = JobId(next_id);
                next_id += 1;
                m.start_in(class, id, nodes, now, now + duration).unwrap();
                running.push((id, class));
            } else if !running.is_empty() {
                let victim = rng.random_range(0usize..running.len());
                let (id, _class) = running.swap_remove(victim);
                m.finish(id).unwrap();
            }

            assert_class_profiles_agree(&m, now, &mut rng, seq, step);
        }

        while let Some((id, _)) = running.pop() {
            now += rng.random_range(0u64..150);
            m.finish(id).unwrap();
            assert_class_profiles_agree(&m, now, &mut rng, seq, usize::MAX);
        }
        while let Some(token) = drained.pop() {
            now += rng.random_range(0u64..150);
            m.undrain(token).unwrap();
            assert_class_profiles_agree(&m, now, &mut rng, seq, usize::MAX);
        }
        assert_eq!(m.free_nodes(), m.total_nodes(), "machine must drain");
    }
}

#[test]
fn horizon_reservations_block_a_class_forever() {
    // A drain parked at the calendar HORIZON is a de-facto permanent
    // decommission: the class can never again host a full-width job, and
    // both the live profile and the rebuild must agree the earliest
    // full-width start sits at the horizon itself.
    let mut m = Machine::with_layout(two_pool());
    let wide = ClassId(1);
    m.drain_in(wide, 4, HORIZON).unwrap();

    assert_eq!(m.free_in(wide), 12);
    let rebuilt = from_machine(&m, Some(wide), 0);
    let live = m.class_profile(wide);
    assert_eq!(live.snapshot(0), rebuilt);
    assert_eq!(live.earliest_start(0, 16, 100, 0), HORIZON);
    assert_eq!(rebuilt.earliest_start(16, 100, 0), HORIZON);
    // 12 wide nodes remain available immediately, and the thin pool is
    // untouched by the wide-pool reservation.
    assert_eq!(live.earliest_start(0, 12, 100, 0), 0);
    assert_eq!(m.class_profile(ClassId(0)).earliest_start(0, 48, 100, 0), 0);
}

#[test]
fn draining_one_class_leaves_the_others_schedulable() {
    let mut m = Machine::with_layout(two_pool());
    let thin = ClassId(0);
    let wide = ClassId(1);

    // Exhaust the wide pool entirely for [100, 500).
    let token = m.drain_in(wide, 16, 500).unwrap();
    assert_eq!(m.free_in(wide), 0);
    assert_eq!(m.free_in(thin), 48);
    assert!(m.free_in(wide) < 1);
    assert!(m.free_in(thin) >= 48);

    // The wide calendar promises nothing before the drain releases; the
    // thin calendar is oblivious.
    assert_eq!(m.class_profile(wide).earliest_start(100, 1, 50, 100), 500);
    assert_eq!(m.class_profile(thin).earliest_start(100, 48, 50, 100), 100);

    // Thin jobs keep starting while the wide pool is gone.
    m.start_in(thin, JobId(0), 48, 100, 400).unwrap();
    assert_eq!(m.free_in(thin), 0);
    assert_eq!(
        m.class_profile(thin).snapshot(100),
        from_machine(&m, Some(thin), 100)
    );

    // Releasing the drain restores exactly the wide pool.
    assert_eq!(m.undrain(token).unwrap(), 16);
    assert_eq!(m.free_in(wide), 16);
    assert_eq!(m.free_in(thin), 0);
}
