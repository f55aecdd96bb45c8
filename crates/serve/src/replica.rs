//! Warm standby for an engine shard.
//!
//! A shard's state is a pure function of its [`InputLog`] (see
//! [`crate::log`]), so a warm replica needs no copy of anything: with
//! `ServeConfig::replica` set the reactor keeps a second handle on the
//! very `Arc<Mutex<InputLog>>` the engine appends to. The engine pushes
//! every admitted submission, cancellation, and policy override inside
//! the call that applies it, and bumps the clock watermark on every
//! pump. When the shard thread dies its handle drops, the reactor takes
//! the log out of the mutex and `promote` replays it into a fresh
//! [`Engine`] — the restore path a checkpoint file takes, minus the
//! JSON — so the promoted shard's queue, machine, and scheduler state
//! are bit-identical to the dead shard's at its last watermark, and all
//! subsequent placements match a run that never crashed.
//!
//! The mutex is shared between the shard thread (writer) and the reactor
//! (reader, only at promotion). Writes are one push plus three scalar
//! updates; contention is nil in steady state.

use crate::engine::Engine;
use crate::log::InputLog;
use crate::ServeConfig;
use std::time::Instant;

/// Rebuild shard `shard` from its dead predecessor's log. Replay
/// re-records every input into the promoted engine's own fresh log
/// ([`Engine::log_handle`]), so the promoted shard is itself promotable.
pub(crate) fn promote(
    dead: InputLog,
    config: &ServeConfig,
    shard: usize,
    shards: usize,
    origin: Instant,
) -> Result<Engine, String> {
    let mut engine = Engine::for_shard(config.clone(), shard, shards, Some(origin));
    engine.restore(dead)?;
    Ok(engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::InputOp;
    use crate::protocol::Request;
    use crate::SchedulerSpec;
    use jobsched_json::Json;
    use jobsched_workload::{JobId, Time};
    use std::sync::Arc;

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
    /// second handle outlives the engine and gives up the log whole.
    fn kill_and_promote(victim: Engine) -> Engine {
        let standby = victim.log_handle();
        assert!(
            Arc::ptr_eq(&standby, &victim.log_handle()),
            "the standby must be the engine's own log, not a copy"
        );
        drop(victim);
        assert_eq!(Arc::strong_count(&standby), 1);
        let dead = std::mem::take(&mut *standby.lock().unwrap());
        promote(dead, &config(), 1, 2, Instant::now()).unwrap()
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
        assert_eq!(promoted.log_handle().lock().unwrap().records.len(), 4);

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
        let log = e.log_handle();
        submit(&mut e, 0, 100, 1, 10);
        assert_eq!(log.lock().unwrap().records.len(), 1);
        assert!(matches!(
            log.lock().unwrap().records[0].op,
            InputOp::Submit(ref j) if j.id == JobId(0)
        ));
        e.handle(Request::Advance { to: Some(250) });
        assert_eq!(log.lock().unwrap().now, 250);
        e.handle(Request::Drain);
        e.handle(Request::Queue); // any op pumps, syncing the flag
        assert!(log.lock().unwrap().draining);
    }
}
