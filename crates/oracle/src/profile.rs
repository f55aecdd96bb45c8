//! The brute-force availability profile.
//!
//! Every machine keeps its future availability incrementally, one
//! [`jobsched_sim::LiveProfile`] calendar per node-class pool plus the
//! whole-machine aggregate. [`from_machine`] is the reference those
//! calendars are compared against: it rebuilds the step function from
//! the running set and the active drains on every call, booking each
//! one on an all-free [`Profile`] with [`Profile::reserve`] — no part of
//! it reads a calendar. The oracle's naive EASY and conservative
//! selections plan on it, and `live_profile_diff.rs` /
//! `class_profiles.rs` demand every calendar snapshot equal it.

use jobsched_sim::{Machine, Profile};
use jobsched_workload::{ClassId, Time};

/// The machine's availability at `now`, rebuilt from scratch: the whole
/// machine when `class` is `None`, one node-class pool otherwise. A
/// running job holds its nodes until its projected end; an active drain
/// until its expected return. Projections that already passed (the job
/// overran its estimate and must end at any moment) release at
/// `now + 1`.
pub fn from_machine(machine: &Machine, class: Option<ClassId>, now: Time) -> Profile {
    let in_scope = |c: ClassId| class.is_none_or(|k| k == c);
    let total = class.map_or(machine.total_nodes(), |c| machine.total_in(c));
    let mut profile = Profile::empty(total, now);
    let held = machine
        .running()
        .iter()
        .filter(|s| in_scope(s.class))
        .map(|s| (s.nodes, s.projected_end))
        .chain(
            machine
                .class_drains()
                .filter(|&(c, _, _)| in_scope(c))
                .map(|(_, nodes, until)| (nodes, until)),
        );
    for (nodes, end) in held {
        profile.reserve(nodes, now, end.max(now + 1) - now);
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use jobsched_workload::JobId;

    fn machine_with(slots: &[(u32, Time)], total: u32, now: Time) -> Machine {
        let mut m = Machine::new(total);
        for (i, &(nodes, end)) in slots.iter().enumerate() {
            m.start(JobId(i as u32), nodes, now, end).unwrap();
        }
        m
    }

    #[test]
    fn profile_from_machine_steps_up() {
        let m = machine_with(&[(100, 50), (56, 80)], 256, 0);
        let p = from_machine(&m, None, 0);
        assert_eq!(p.free_at(0), 100);
        assert_eq!(p.free_at(49), 100);
        assert_eq!(p.free_at(50), 200);
        assert_eq!(p.free_at(80), 256);
        assert_eq!(p.free_at(10_000), 256);
    }

    #[test]
    fn live_snapshot_matches_rebuild_under_early_finishes() {
        let mut m = Machine::new(256);
        m.start(JobId(0), 100, 0, 500).unwrap();
        m.start(JobId(1), 50, 10, 90).unwrap();
        m.start(JobId(2), 30, 20, 90).unwrap();
        m.finish(JobId(0)).unwrap(); // far earlier than projected
        m.start(JobId(3), 120, 30, 31).unwrap();
        for now in [30, 31, 90, 91, 500] {
            assert_eq!(
                m.profile().snapshot(now),
                from_machine(&m, None, now),
                "divergence at now={now}"
            );
        }
    }
}
