//! Randomized scenario generation for the fuzz harness.
//!
//! Scenarios are drawn from the hand-rolled xoshiro generator so that a
//! `(base seed, index)` pair pins a scenario bit-for-bit: the nightly
//! fuzz job logs its seed and any counterexample can be regenerated. The
//! shapes are chosen adversarially for schedulers rather than
//! realistically for users — convoys of full-width jobs, same-instant
//! submission bursts, estimates that are wildly wrong in both directions,
//! cancellations aimed at every lifecycle phase, and drains that shrink
//! the machine under a planned backlog.

use crate::scenario::{CancelSpec, DrainSpec, PreemptSpec, Scenario, ScenarioJob};
use jobsched_algos::spec::{AlgorithmSpec, PolicyKind};
use jobsched_algos::switching::DailyWindow;
use jobsched_workload::job::{DAY, HOUR};
use jobsched_workload::rng::{derive_seed, Rng, SmallRng};
use jobsched_workload::{ClassId, MachineLayout, NodeClassSpec, NodeType, Time};

/// Seed-stream tag for scenario generation (arbitrary constant, fixed
/// forever so corpus regeneration stays possible).
const STREAM_SCENARIO: u64 = 0x0AC1_E5EE;

/// Seed-stream tag for the exclusive windows drawn beside scenarios: a
/// stream of its own, so the scenario stream stays bit-identical.
const STREAM_WINDOW: u64 = 0x0E8C_1051;

/// Generate the `index`-th scenario of the stream rooted at `base_seed`.
pub fn random_scenario(base_seed: u64, index: u64) -> Scenario {
    let mut rng = SmallRng::seed_from_u64(derive_seed(base_seed ^ STREAM_SCENARIO, index));

    let machine_nodes = *pick(&mut rng, &[32u32, 64, 256]);
    let spec = {
        // The full atlas: the 13 paper combos plus the priority family
        // (every scoring rule × every backfill mode), so fuzzing sweeps
        // the priority differentials as densely as the paper rows.
        let matrix = AlgorithmSpec::atlas_matrix();
        *pick(&mut rng, &matrix)
    };
    let caching = rng.random_range(0u32..2) == 0;

    let n = rng.random_range(20usize..=80);
    let mut jobs = job_stream(&mut rng, n, machine_nodes);
    // Occasionally make every estimate exact: the projected calendar is
    // then the real one and the conservative first-sight reservations
    // become binding promises the oracle enforces.
    if rng.random_range(0u32..6) == 0 {
        for j in &mut jobs {
            j.runtime = j.requested;
        }
    }
    let horizon = jobs.last().map(|j| j.submit).unwrap_or(0) + 10_000;

    // Cancellations: up to 15% of jobs, injected anywhere from before the
    // submission (the PreSubmit suppression phase) to long after the job
    // is gone (the AlreadyFinished no-op phase).
    let mut cancels = Vec::new();
    let cancel_count = rng.random_range(0usize..=n * 15 / 100);
    for _ in 0..cancel_count {
        let job = rng.random_range(0usize..jobs.len());
        let at = (jobs[job].submit + rng.random_range(0u64..20_000))
            .saturating_sub(rng.random_range(0u64..1_000));
        cancels.push(CancelSpec { at, job });
    }

    // Drains: a few maintenance windows, sometimes overlapping.
    let mut drains = Vec::new();
    for _ in 0..rng.random_range(0usize..=3) {
        let at = rng.random_range(0u64..horizon);
        let nodes = rng.random_range(1u32..=machine_nodes.div_ceil(2));
        let until = at + rng.random_range(1u64..15_000);
        drains.push(DrainSpec {
            at,
            nodes,
            until,
            class: 0,
        });
    }

    // Heterogeneous variant (1 in 4): partition the machine into a thin
    // majority and a scarce wide pool, retype the jobs, and aim faults at
    // the scarce class — the adversarial shapes §6.1 heterogeneity adds
    // (draining the whole wide pool under backlog, cancelling the job a
    // scarce pool was reserved for). Drawn after every homogeneous field
    // so the legacy part of the stream stays bit-identical per seed.
    let mut classes = Vec::new();
    if rng.random_range(0u32..4) == 0 {
        let wide = (machine_nodes / 8).max(1);
        let thin = machine_nodes - wide;
        classes = vec![
            NodeClassSpec {
                node_type: NodeType::Thin,
                memory_mb: 512,
                count: thin,
            },
            NodeClassSpec {
                node_type: NodeType::Wide,
                memory_mb: 2048,
                count: wide,
            },
        ];
        let layout = MachineLayout::new(classes.clone());
        for j in &mut jobs {
            match rng.random_range(0u32..8) {
                0 => {
                    j.node_type = NodeType::Wide;
                    j.memory_mb = 2048;
                }
                1 => j.memory_mb = 2048, // thin job escalating into the wide pool
                _ => j.memory_mb = 256,
            }
            let cap = layout
                .max_width_for(j.node_type, j.memory_mb)
                .expect("both pools host generated types");
            j.nodes = j.nodes.min(cap).max(1);
        }
        for d in &mut drains {
            if rng.random_range(0u32..2) == 0 {
                // Drain the scarce pool — often all of it.
                d.class = 1;
                d.nodes = d.nodes.min(wide);
            } else {
                d.nodes = d.nodes.min(thin);
            }
        }
        let scarce: Vec<usize> = jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| layout.resolve(j.node_type, j.memory_mb, j.nodes) == Some(ClassId(1)))
            .map(|(i, _)| i)
            .collect();
        if !scarce.is_empty() {
            for c in &mut cancels {
                if rng.random_range(0u32..2) == 0 {
                    c.job = scarce[rng.random_range(0usize..scarce.len())];
                }
            }
        }
    }

    // Forced preemptions: up to ~20% of jobs, aimed at their likely
    // execution window, with resume delays spanning near-immediate
    // requeue to long suspensions. Some preemptions inevitably land on
    // queued or finished jobs — those exercise the recorded-no-op path.
    // Drawn after every legacy field so the pre-preemption half of the
    // stream stays bit-identical per seed.
    let mut preempts = Vec::new();
    for _ in 0..rng.random_range(0usize..=n / 5) {
        let job = rng.random_range(0usize..jobs.len());
        let at = jobs[job].submit + rng.random_range(0u64..25_000);
        let resume_at = at + rng.random_range(1u64..10_000);
        preempts.push(PreemptSpec { at, job, resume_at });
    }

    Scenario {
        machine_nodes,
        policy: spec.kind,
        backfill: spec.backfill,
        caching,
        mutation: None,
        classes,
        jobs,
        cancels,
        drains,
        preempts,
    }
}

/// An exclusive window for the `index`-th scenario of the stream rooted
/// at `base_seed`, opening at an hour inside the scenario's span (from 0
/// to its last submission, plus the 30 000 s the longest estimate may
/// run) and lasting 1 to 20 hours. The long windows leave gaps shorter
/// than many estimates, so the exemption is drawn too.
pub fn random_window(base_seed: u64, index: u64, scenario: &Scenario) -> DailyWindow {
    let mut rng = SmallRng::seed_from_u64(derive_seed(base_seed ^ STREAM_WINDOW, index));
    let span = scenario.jobs.last().map_or(0, |j| j.submit) + 30_000;
    let opens = rng.random_range(0..=span) % DAY / HOUR;
    let hours = *pick(&mut rng, &[1u8, 1, 2, 4, 8, 20]);
    let start_hour = (opens as u8).min(24 - hours);
    DailyWindow {
        start_hour,
        end_hour: start_hour + hours,
        weekdays_only: rng.random_range(0u32..2) == 0,
    }
}

/// A scenario whose scheduler is the deliberately broken LIFO impostor
/// claiming to be plain FCFS — the self-test that proves the oracle can
/// catch a lying scheduler.
pub fn broken_scenario(base_seed: u64, index: u64) -> Scenario {
    let mut s = random_scenario(base_seed, index);
    s.policy = PolicyKind::Fcfs;
    s.backfill = jobsched_algos::BackfillMode::None;
    s.mutation = Some(crate::scenario::Mutation::Lifo);
    s
}

/// A scenario whose scheduler is a WFP priority scheduler ranking in
/// *inverted* score order while claiming to run real WFP — the
/// self-test for the priority pick-equality differential. Homogeneous
/// (typed scenarios stand the differential down) and head-blocking, so
/// any ordering divergence surfaces as a pick mismatch.
pub fn broken_priority_scenario(base_seed: u64, index: u64) -> Scenario {
    use jobsched_algos::ScoreFn;
    let mut s = random_scenario(base_seed, index);
    s.policy = PolicyKind::Priority(ScoreFn::Wfp);
    s.backfill = jobsched_algos::BackfillMode::None;
    s.mutation = Some(crate::scenario::Mutation::InvertedPriority);
    s.classes.clear();
    for j in &mut s.jobs {
        j.node_type = NodeType::Thin;
        j.memory_mb = 0;
    }
    for d in &mut s.drains {
        d.class = 0;
    }
    s
}

fn job_stream(rng: &mut SmallRng, n: usize, machine_nodes: u32) -> Vec<ScenarioJob> {
    let shape = rng.random_range(0u32..4);
    let mut jobs = Vec::with_capacity(n);
    let mut t: Time = 0;
    for i in 0..n {
        // Submission process by shape: steady trickle, bursty batches
        // (many same-instant submissions), a convoy front-loaded at 0, or
        // fully random.
        match shape {
            0 => t += rng.random_range(1u64..600),
            1 => {
                if rng.random_range(0u32..4) == 0 {
                    t += rng.random_range(1u64..2_000);
                }
            }
            2 => {
                if i >= n / 3 {
                    t += rng.random_range(1u64..400);
                }
            }
            _ => t += rng.random_range(0u64..1_200),
        }

        // Widths skew narrow but include full-machine convoy members.
        let nodes = match rng.random_range(0u32..10) {
            0 => machine_nodes,
            1..=3 => rng.random_range(machine_nodes / 2..=machine_nodes).max(1),
            _ => rng.random_range(1u32..=(machine_nodes / 4).max(1)),
        };

        // Estimates vs reality: exact, early finisher, or overrun (the
        // engine truncates at the estimate — Rule 2).
        let requested = rng.random_range(1u64..30_000);
        let runtime = match rng.random_range(0u32..3) {
            0 => requested,
            1 => rng.random_range(1u64..=requested),
            _ => requested + rng.random_range(1u64..10_000),
        };

        jobs.push(ScenarioJob {
            submit: t,
            nodes,
            requested,
            runtime,
            node_type: NodeType::Thin,
            memory_mb: 0,
        });
    }
    jobs.sort_by_key(|j| j.submit);
    jobs
}

fn pick<'a, T>(rng: &mut SmallRng, items: &'a [T]) -> &'a T {
    &items[rng.random_range(0usize..items.len())]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_scenarios_are_valid_and_deterministic() {
        for i in 0..200 {
            let s = random_scenario(42, i);
            s.validate().unwrap_or_else(|e| panic!("scenario {i}: {e}"));
            assert_eq!(s, random_scenario(42, i), "index {i} not deterministic");
        }
    }

    #[test]
    fn stream_covers_the_configuration_space() {
        let scenarios: Vec<Scenario> = (0..300).map(|i| random_scenario(7, i)).collect();
        let policies: std::collections::BTreeSet<&str> =
            scenarios.iter().map(|s| s.policy.label()).collect();
        assert_eq!(
            policies.len(),
            15,
            "all five paper policies plus the ten priority rules drawn: {policies:?}"
        );
        let priority_backfills: std::collections::BTreeSet<_> = scenarios
            .iter()
            .filter(|s| matches!(s.policy, PolicyKind::Priority(_)))
            .map(|s| s.backfill.label())
            .collect();
        assert_eq!(
            priority_backfills.len(),
            3,
            "priority rows drawn under every backfill mode"
        );
        assert!(scenarios.iter().any(|s| !s.cancels.is_empty()));
        assert!(scenarios.iter().any(|s| !s.drains.is_empty()));
        assert!(scenarios.iter().any(|s| s.cancels.is_empty()));
        assert!(
            scenarios.iter().any(|s| !s.preempts.is_empty()),
            "preemption faults drawn"
        );
        assert!(
            scenarios.iter().any(|s| s.preempts.is_empty()),
            "preemption-free scenarios drawn"
        );
        assert!(scenarios.iter().any(|s| s.caching));
        assert!(scenarios.iter().any(|s| !s.caching));
        assert!(
            scenarios.iter().any(|s| !s.classes.is_empty()),
            "heterogeneous scenarios drawn"
        );
        assert!(
            scenarios.iter().any(|s| s.classes.is_empty()),
            "homogeneous scenarios drawn"
        );
        assert!(
            scenarios
                .iter()
                .any(|s| s.drains.iter().any(|d| d.class != 0)),
            "some drain targets the scarce pool"
        );
    }

    #[test]
    fn scenario_text_round_trips_through_the_generator() {
        for i in 0..50 {
            let s = random_scenario(99, i);
            assert_eq!(Scenario::from_text(&s.to_text()).unwrap(), s);
        }
    }
}
