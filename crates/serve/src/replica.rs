//! Warm standby for an engine shard, and the panic boundary every
//! engine call runs behind.
//!
//! A shard's state is a pure function of its [`InputLog`] (see
//! [`crate::log`]), so a warm replica needs no copy of anything: the
//! engine appends every admitted submission, cancellation, and policy
//! override to its own log inside the call that applies it, and brings
//! the clock watermark up to date on every pump. When the shard dies —
//! the `crash` chaos op, or a panic caught by `guarded` — the reactor
//! takes the dead engine's log by value and `promote` replays it into
//! a fresh [`Engine`] — the restore path a checkpoint file takes, minus
//! the JSON — so the promoted shard's queue, machine, and scheduler
//! state are bit-identical to the dead shard's at its last watermark,
//! and all subsequent placements match a run that never crashed.

use crate::engine::Engine;
use crate::log::InputLog;
use crate::ServeConfig;
use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

/// Run `f` on the live engine in `slot` behind a panic boundary. A
/// panic empties the slot and hands back the dead engine's input log,
/// from which the shard can fail over; the unwind ends here.
///
/// Panics if `slot` is empty: callers answer for a down shard
/// themselves.
pub(crate) fn guarded<R>(
    slot: &mut Option<Engine>,
    f: impl FnOnce(&mut Engine) -> R,
) -> Result<R, InputLog> {
    let engine = slot.as_mut().expect("guarded calls go to a live engine");
    panic::catch_unwind(AssertUnwindSafe(|| f(engine))).map_err(|_| {
        slot.take()
            .expect("a panic leaves the engine in place")
            .into_log()
    })
}

/// Rebuild shard `shard` from its dead predecessor's log, or `None`
/// when the replay fails or panics. Replay re-records every input into
/// the promoted engine's own fresh log, so the promoted shard is itself
/// promotable.
pub(crate) fn promote(
    dead: InputLog,
    config: &ServeConfig,
    shard: usize,
    shards: usize,
    origin: Instant,
) -> Option<Engine> {
    let mut slot = Some(Engine::for_shard(
        config.clone(),
        shard,
        shards,
        Some(origin),
    ));
    match guarded(&mut slot, |engine| engine.restore(dead)) {
        Ok(Ok(_)) => slot,
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::InputOp;
    use crate::protocol::Request;
    use crate::SchedulerSpec;
    use jobsched_json::Json;
    use jobsched_workload::{JobId, Time};

    fn config() -> ServeConfig {
        ServeConfig {
            machine_nodes: 16,
            scheduler: SchedulerSpec::parse("fcfs+easy").unwrap(),
            virtual_clock: true,
            replica: true,
            ..ServeConfig::default()
        }
    }

    fn submit(e: &mut Engine, id: u32, at: Time, nodes: u32, runtime: Time) {
        let (r, _) = e.handle(Request::Submit {
            id: Some(id),
            at: Some(at),
            nodes,
            requested: runtime.max(1),
            runtime,
            user: 0,
        });
        assert_eq!(r.get("ok").and_then(|v| v.as_bool()), Some(true), "{r:?}");
    }

    fn status(e: &mut Engine, id: u32) -> Json {
        e.handle(Request::Status { id }).0
    }

    /// Kill `victim` and promote its standby, as the reactor does: the
    /// dead engine's own log moves, whole, into the replay.
    fn kill_and_promote(victim: Engine) -> Engine {
        promote(victim.into_log(), &config(), 1, 2, Instant::now()).unwrap()
    }

    #[test]
    fn promoted_shard_matches_an_unkilled_run_exactly() {
        // Reference: one engine runs the whole trace uninterrupted.
        let mut reference = Engine::for_shard(config(), 1, 2, None);
        // Victim: same inputs, killed mid-trace.
        let mut victim = Engine::for_shard(config(), 1, 2, None);

        let first: &[(u32, Time, u32, Time)] = &[(1, 0, 16, 100), (3, 10, 16, 50), (5, 500, 4, 20)];
        for &(id, at, nodes, rt) in first {
            submit(&mut reference, id, at, nodes, rt);
            submit(&mut victim, id, at, nodes, rt);
        }
        reference.handle(Request::Cancel { id: 3 });
        victim.handle(Request::Cancel { id: 3 });
        reference.handle(Request::Advance { to: Some(60) });
        victim.handle(Request::Advance { to: Some(60) });

        let mut promoted = kill_and_promote(victim);
        assert_eq!(promoted.now(), 60);
        // The promoted shard re-recorded its log: a second failover
        // would start from the same state.
        let state = promoted.handle(Request::Checkpoint).0;
        let inputs = state.get("state").and_then(|s| s.get("inputs"));
        assert_eq!(inputs.and_then(|i| i.as_arr()).map(|i| i.len()), Some(4));

        // Subsequent inputs and evolution must match the unkilled run.
        for e in [&mut reference, &mut promoted] {
            submit(e, 7, 600, 8, 30);
            e.handle(Request::Advance { to: None });
        }
        // Auto-ids resume identically (shard 1 of 2: odd ids only).
        for e in [&mut reference, &mut promoted] {
            let (r, _) = e.handle(Request::Submit {
                id: None,
                at: None,
                nodes: 1,
                requested: 10,
                runtime: 10,
                user: 1,
            });
            let id = r.get("id").unwrap().as_u64().unwrap();
            assert_eq!(id % 2, 1, "auto-id left shard 1's residue class");
            assert_eq!(id, 9, "auto-id cursor diverged after failover");
        }
        for id in [1u32, 3, 5, 7, 9] {
            assert_eq!(
                status(&mut reference, id),
                status(&mut promoted, id),
                "job {id} diverged after failover"
            );
        }
    }

    #[test]
    fn a_promoted_shard_fails_over_again_exactly() {
        let mut reference = Engine::for_shard(config(), 1, 2, None);
        let mut shard = Engine::for_shard(config(), 1, 2, None);
        let steps: &[(u32, Time, Time)] = &[(1, 0, 40), (3, 5, 80), (5, 90, 200)];
        for &(id, at, to) in steps {
            for e in [&mut reference, &mut shard] {
                submit(e, id, at, 16, 30);
                e.handle(Request::Advance { to: Some(to) });
            }
            // One failover per step: each promotion starts from the
            // log the previous promotion re-recorded.
            shard = kill_and_promote(shard);
            assert_eq!(shard.now(), reference.now());
        }
        let checkpoint = |e: &mut Engine| e.handle(Request::Checkpoint).0;
        assert_eq!(checkpoint(&mut shard), checkpoint(&mut reference));
        for id in [1u32, 3, 5] {
            assert_eq!(status(&mut reference, id), status(&mut shard, id));
        }
    }

    #[test]
    fn promote_rejects_a_mismatched_config() {
        // The checkpoint says 16 nodes (via config()), the daemon says
        // 8: the document does not decode, so nothing is replayed.
        let state = InputLog::default().to_json(&config());
        let mut other = config();
        other.machine_nodes = 8;
        assert!(InputLog::from_json(&other, &state).is_err());
        assert!(InputLog::from_json(&config(), &state).is_ok());
    }

    #[test]
    fn watermark_tracks_pumped_time_and_records_stream_live() {
        let mut e = Engine::for_shard(config(), 0, 2, None);
        submit(&mut e, 0, 100, 1, 10);
        e.handle(Request::Advance { to: Some(250) });
        e.handle(Request::Drain);
        e.handle(Request::Queue); // any op pumps, syncing the flag
        let log = e.into_log();
        assert_eq!(log.records.len(), 1);
        assert!(matches!(
            log.records[0].op,
            InputOp::Submit(ref j) if j.id == JobId(0)
        ));
        assert_eq!(log.now, 250);
        assert!(log.draining);
    }

    #[test]
    fn guarded_keeps_a_returning_engine_and_empties_the_slot_on_a_panic() {
        let mut slot = Some(Engine::for_shard(config(), 0, 2, None));
        assert_eq!(guarded(&mut slot, |e| e.now()).unwrap(), 0);
        assert!(slot.is_some());
        guarded(&mut slot, |e| submit(e, 0, 100, 1, 10)).unwrap();
        assert!(slot.is_some());
        let dead = guarded(&mut slot, |_| -> u32 { panic!("injected engine fault") });
        assert!(slot.is_none());
        // The dead engine's log comes back whole, ready to promote.
        let log = dead.expect_err("the panic was caught");
        assert_eq!(log.records.len(), 1);
        let mut promoted = promote(log, &config(), 0, 2, Instant::now()).unwrap();
        let s = status(&mut promoted, 0);
        assert_eq!(s.get("state").and_then(|v| v.as_str()), Some("pending"));
    }
}
