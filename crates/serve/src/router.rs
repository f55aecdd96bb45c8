//! Deterministic request routing and aggregate-reply merging.
//!
//! The sharding invariant is one line: **shard k owns exactly the job
//! ids `≡ k (mod N)`**. Explicit-id operations route statelessly by
//! `id % N`; auto-id submissions route by `user % N` and the target
//! shard assigns an id from its own residue class (see
//! [`crate::engine`]). Because ownership is a pure function of the id,
//! any client can reach any job through any connection, no routing
//! table exists to drift, and each shard's input sequence is exactly
//! the subtrace of the full workload in its residue class — which is
//! what makes per-shard schedules bit-identical to batch runs.
//!
//! Cluster-wide operations broadcast to every shard and the replies
//! merge here. With one shard every merge is a verbatim passthrough, so
//! a `--shards 1` daemon is wire-identical to the unsharded one.

use crate::log::{InputLog, CHECKPOINT_SCHEMA};
use crate::protocol::{self, Request};
use crate::ServeConfig;
use jobsched_json::Json;

/// Schema identifier for a sharded checkpoint: a wrapper holding one
/// `serve-checkpoint/1` object per shard.
pub const CHECKPOINT_SCHEMA_V2: &str = "serve-checkpoint/2";

/// Which broadcast operation an aggregate is collecting, deciding how
/// its parts merge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AggKind {
    Queue,
    Metrics,
    Advance,
    Drain,
    Undrain,
    Policy,
    Checkpoint,
    Restore,
    Shutdown,
}

/// Where one request goes.
#[derive(Debug)]
pub(crate) enum Dest {
    /// One shard owns it.
    Shard(usize),
    /// Every shard sees it; replies merge per [`AggKind`].
    Broadcast(AggKind),
    /// The reactor answers directly (routing-level errors).
    Direct(Json),
}

/// Route one parsed request across `shards` engines.
pub(crate) fn route(req: &Request, shards: usize) -> Dest {
    let by_id = |id: u32| Dest::Shard(id as usize % shards);
    match req {
        Request::Ping => Dest::Shard(0),
        Request::Submit { id: Some(id), .. } => by_id(*id),
        Request::Submit { id: None, user, .. } => by_id(*user),
        Request::Cancel { id } | Request::Status { id } => by_id(*id),
        Request::Crash { shard } => {
            if (*shard as usize) < shards {
                Dest::Shard(*shard as usize)
            } else {
                Dest::Direct(protocol::error(
                    "protocol",
                    format!("no shard {shard} (daemon runs {shards})"),
                ))
            }
        }
        Request::Queue => Dest::Broadcast(AggKind::Queue),
        Request::Metrics => Dest::Broadcast(AggKind::Metrics),
        Request::Advance { .. } => Dest::Broadcast(AggKind::Advance),
        Request::Drain => Dest::Broadcast(AggKind::Drain),
        Request::Undrain => Dest::Broadcast(AggKind::Undrain),
        Request::Policy { .. } => Dest::Broadcast(AggKind::Policy),
        Request::Checkpoint => Dest::Broadcast(AggKind::Checkpoint),
        // A single-shard restore passes through untouched (wire-identical
        // to the unsharded daemon); a sharded one is split by the caller
        // via [`split_restore`].
        Request::Restore { .. } if shards == 1 => Dest::Shard(0),
        Request::Restore { .. } => Dest::Broadcast(AggKind::Restore),
        Request::Shutdown { .. } => Dest::Broadcast(AggKind::Shutdown),
    }
}

/// Decode a checkpoint document — the `state` a `checkpoint` or
/// `shutdown --checkpoint` reply carried, bare or still wrapped in that
/// reply — into one [`InputLog`] per shard of a daemon configured as
/// `config`. Every shard's log is decoded before any is handed out, so
/// a document that fails leaves nothing half-restored.
pub(crate) fn restore_logs(config: &ServeConfig, doc: &Json) -> Result<Vec<InputLog>, String> {
    let state = doc.get("state").unwrap_or(doc);
    let shards = config.shards.max(1);
    let states = if shards == 1 {
        std::slice::from_ref(state)
    } else {
        split_restore(state, shards)?
    };
    states
        .iter()
        .map(|s| InputLog::from_json(config, s))
        .collect()
}

/// Split a `serve-checkpoint/2` wrapper into one v1 state per shard.
/// Only called for sharded daemons (`shards > 1`).
pub(crate) fn split_restore(state: &Json, shards: usize) -> Result<&[Json], String> {
    let schema = state
        .get("schema")
        .and_then(|v| v.as_str())
        .ok_or("checkpoint has no schema")?;
    if schema == CHECKPOINT_SCHEMA {
        return Err(format!(
            "checkpoint is single-shard ({CHECKPOINT_SCHEMA}) but this daemon runs \
             {shards} shards; take a sharded checkpoint ({CHECKPOINT_SCHEMA_V2})"
        ));
    }
    if schema != CHECKPOINT_SCHEMA_V2 {
        return Err(format!("unsupported checkpoint schema '{schema}'"));
    }
    let n = state
        .get("shards")
        .and_then(|v| v.as_u64())
        .ok_or("sharded checkpoint has no shard count")?;
    if n != shards as u64 {
        return Err(format!(
            "checkpoint was taken with {n} shards, this daemon runs {shards}"
        ));
    }
    let states = state
        .get("states")
        .and_then(|v| v.as_arr())
        .ok_or("sharded checkpoint has no states")?;
    if states.len() != shards {
        return Err(format!(
            "sharded checkpoint holds {} states for {shards} shards",
            states.len()
        ));
    }
    Ok(states)
}

fn uint(part: &Json, key: &str) -> u64 {
    part.get(key).and_then(|v| v.as_u64()).unwrap_or(0)
}

fn num(part: &Json, key: &str) -> f64 {
    part.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0)
}

fn field(part: &Json, key: &str) -> Json {
    part.get(key).cloned().unwrap_or(Json::Null)
}

fn sum(parts: &[Json], key: &str) -> u64 {
    parts.iter().map(|p| uint(p, key)).sum()
}

fn max(parts: &[Json], key: &str) -> u64 {
    parts.iter().map(|p| uint(p, key)).max().unwrap_or(0)
}

/// Merge one broadcast's per-shard replies into the client reply.
/// `parts[k]` is shard k's reply; with one part the merge is identity.
pub(crate) fn merge(kind: AggKind, parts: &[Json]) -> Json {
    // A shard that is simply gone must not veto a shutdown: drop its
    // pre-filled `unavailable` parts and fold the survivors, so the
    // daemon can always be stopped over the wire.
    let survivors: Vec<Json>;
    let parts: &[Json] = if kind == AggKind::Shutdown && parts.len() > 1 {
        survivors = parts
            .iter()
            .filter(|p| p.get("error").and_then(|v| v.as_str()) != Some("unavailable"))
            .cloned()
            .collect();
        if survivors.is_empty() {
            parts
        } else {
            &survivors
        }
    } else {
        parts
    };
    if parts.len() == 1 {
        return parts[0].clone();
    }
    // Any failing shard fails the aggregate with its own error — a
    // partial broadcast must not masquerade as cluster-wide success.
    if let Some(err) = parts
        .iter()
        .find(|p| p.get("ok").and_then(|v| v.as_bool()) != Some(true))
    {
        return err.clone();
    }
    match kind {
        AggKind::Drain | AggKind::Undrain | AggKind::Policy => parts[0].clone(),
        AggKind::Advance => protocol::ok([("now", Json::UInt(max(parts, "now")))]),
        AggKind::Queue => {
            let mut ids: Vec<u64> = parts
                .iter()
                .flat_map(|p| {
                    p.get("waiting_ids")
                        .and_then(|v| v.as_arr())
                        .map(|a| a.iter().filter_map(|x| x.as_u64()).collect::<Vec<_>>())
                        .unwrap_or_default()
                })
                .collect();
            ids.sort_unstable();
            ids.truncate(1_000);
            protocol::ok([
                ("now", Json::UInt(max(parts, "now"))),
                ("waiting", Json::UInt(sum(parts, "waiting"))),
                ("pending", Json::UInt(sum(parts, "pending"))),
                ("running", Json::UInt(sum(parts, "running"))),
                ("free_nodes", Json::UInt(sum(parts, "free_nodes"))),
                (
                    "waiting_ids",
                    Json::Arr(ids.into_iter().map(Json::UInt).collect()),
                ),
                ("draining", field(&parts[0], "draining")),
            ])
        }
        AggKind::Metrics => protocol::ok(merged_metric_fields(parts)),
        AggKind::Checkpoint => protocol::ok([("state", sharded_state(parts))]),
        AggKind::Restore => protocol::ok([
            ("now", Json::UInt(max(parts, "now"))),
            ("inputs_replayed", Json::UInt(sum(parts, "inputs_replayed"))),
        ]),
        AggKind::Shutdown => {
            let metric_parts: Vec<Json> = parts.iter().map(|p| field(p, "metrics")).collect();
            let mut fields = vec![
                ("now", Json::UInt(max(parts, "now"))),
                ("graceful", field(&parts[0], "graceful")),
                ("unfinished", Json::UInt(sum(parts, "unfinished"))),
                ("metrics", Json::obj(merged_metric_fields(&metric_parts))),
            ];
            if parts.iter().any(|p| p.get("state").is_some()) {
                fields.push(("state", sharded_state(parts)));
            }
            protocol::ok(fields)
        }
    }
}

/// The `serve-checkpoint/2` wrapper: every shard reply's `state`, in
/// shard order — what [`split_restore`] takes apart again.
fn sharded_state(parts: &[Json]) -> Json {
    Json::obj([
        ("schema", Json::Str(CHECKPOINT_SCHEMA_V2.into())),
        ("shards", Json::UInt(parts.len() as u64)),
        (
            "states",
            Json::Arr(parts.iter().map(|p| field(p, "state")).collect()),
        ),
    ])
}

/// Cluster metrics from per-shard snapshots. Counters sum exactly and
/// makespan is the max; the time averages (`art`, `awrt`,
/// `bounded_slowdown`) are *derived* finished-job-weighted means, and
/// `utilization` is total busy node-time over the cluster's
/// `shards × max-makespan` capacity window. The untouched per-shard
/// snapshots ride along under `"shards"` for exact comparisons.
fn merged_metric_fields(parts: &[Json]) -> Vec<(&'static str, Json)> {
    let finished: u64 = sum(parts, "jobs_finished");
    let weighted = |key: &str| -> f64 {
        if finished == 0 {
            return 0.0;
        }
        parts
            .iter()
            .map(|p| num(p, key) * uint(p, "jobs_finished") as f64)
            .sum::<f64>()
            / finished as f64
    };
    let max_makespan = max(parts, "makespan");
    let utilization = if max_makespan == 0 {
        0.0
    } else {
        // Each shard contributed utilization × its own makespan of busy
        // node-time (per node); the cluster window is every shard's
        // nodes held for the longest makespan.
        parts
            .iter()
            .map(|p| num(p, "utilization") * uint(p, "makespan") as f64)
            .sum::<f64>()
            / (parts.len() as f64 * max_makespan as f64)
    };
    vec![
        ("now", Json::UInt(max(parts, "now"))),
        ("scheduler", field(&parts[0], "scheduler")),
        ("jobs_submitted", Json::UInt(sum(parts, "jobs_submitted"))),
        ("jobs_started", Json::UInt(sum(parts, "jobs_started"))),
        ("jobs_finished", Json::UInt(finished)),
        ("jobs_cancelled", Json::UInt(sum(parts, "jobs_cancelled"))),
        ("art", Json::Num(weighted("art"))),
        ("awrt", Json::Num(weighted("awrt"))),
        ("bounded_slowdown", Json::Num(weighted("bounded_slowdown"))),
        ("utilization", Json::Num(utilization)),
        ("makespan", Json::UInt(max_makespan)),
        ("backlog", Json::UInt(sum(parts, "backlog"))),
        ("running", Json::UInt(sum(parts, "running"))),
        ("free_nodes", Json::UInt(sum(parts, "free_nodes"))),
        ("requests", Json::UInt(sum(parts, "requests"))),
        ("rejected", Json::UInt(sum(parts, "rejected"))),
        ("draining", field(&parts[0], "draining")),
        ("shards", Json::Arr(parts.to_vec())),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard_of(req: &Request, shards: usize) -> usize {
        match route(req, shards) {
            Dest::Shard(k) => k,
            other => panic!("expected a shard, got {other:?}"),
        }
    }

    #[test]
    fn id_keyed_ops_route_by_residue_class() {
        for shards in [1, 2, 4] {
            for id in 0..16u32 {
                let expect = id as usize % shards;
                assert_eq!(shard_of(&Request::Cancel { id }, shards), expect);
                assert_eq!(shard_of(&Request::Status { id }, shards), expect);
                let sub = Request::Submit {
                    id: Some(id),
                    at: None,
                    nodes: 1,
                    requested: 1,
                    runtime: 1,
                    user: 9,
                };
                assert_eq!(shard_of(&sub, shards), expect);
            }
        }
    }

    #[test]
    fn auto_id_submits_route_by_user() {
        let sub = |user| Request::Submit {
            id: None,
            at: None,
            nodes: 1,
            requested: 1,
            runtime: 1,
            user,
        };
        assert_eq!(shard_of(&sub(5), 4), 1);
        assert_eq!(shard_of(&sub(8), 4), 0);
    }

    #[test]
    fn cluster_ops_broadcast() {
        assert!(matches!(
            route(&Request::Metrics, 4),
            Dest::Broadcast(AggKind::Metrics)
        ));
        assert!(matches!(
            route(
                &Request::Shutdown {
                    graceful: true,
                    checkpoint: false
                },
                2
            ),
            Dest::Broadcast(AggKind::Shutdown)
        ));
        // Restore passes through unsharded, broadcasts sharded.
        let restore = Request::Restore { state: Json::Null };
        assert!(matches!(route(&restore, 1), Dest::Shard(0)));
        assert!(matches!(
            route(&restore, 2),
            Dest::Broadcast(AggKind::Restore)
        ));
    }

    #[test]
    fn crash_routing_validates_the_shard() {
        assert!(matches!(
            route(&Request::Crash { shard: 1 }, 2),
            Dest::Shard(1)
        ));
        assert!(matches!(
            route(&Request::Crash { shard: 2 }, 2),
            Dest::Direct(_)
        ));
    }

    #[test]
    fn single_part_merges_are_verbatim() {
        let part = protocol::ok([("now", Json::UInt(42)), ("weird", Json::Str("x".into()))]);
        assert_eq!(merge(AggKind::Queue, std::slice::from_ref(&part)), part);
        assert_eq!(merge(AggKind::Metrics, std::slice::from_ref(&part)), part);
    }

    #[test]
    fn an_error_part_fails_the_aggregate() {
        let good = protocol::ok([("now", Json::UInt(1))]);
        let bad = protocol::error("unsupported", "nope");
        assert_eq!(merge(AggKind::Advance, &[good, bad.clone()]), bad);
    }

    #[test]
    fn a_dead_shard_cannot_veto_shutdown() {
        let alive = protocol::ok([
            ("now", Json::UInt(9)),
            ("graceful", Json::Bool(true)),
            ("unfinished", Json::UInt(0)),
            ("metrics", Json::obj([("jobs_finished", Json::UInt(2))])),
        ]);
        let dead = protocol::error("unavailable", "shard 1 is down");
        let m = merge(AggKind::Shutdown, &[alive.clone(), dead.clone()]);
        assert_eq!(m.get("ok").and_then(|v| v.as_bool()), Some(true), "{m:?}");
        assert_eq!(m.get("now").unwrap().as_u64(), Some(9));
        // Other aggregates keep the fail-fast rule...
        let bad = merge(AggKind::Metrics, &[alive, dead.clone()]);
        assert_eq!(
            bad.get("error").and_then(|v| v.as_str()),
            Some("unavailable")
        );
        // ...and an all-dead shutdown still reports the error.
        let m = merge(AggKind::Shutdown, &[dead.clone(), dead.clone()]);
        assert_eq!(m.get("error").and_then(|v| v.as_str()), Some("unavailable"));
    }

    #[test]
    fn queue_merge_sums_counts_and_sorts_ids() {
        let a = protocol::ok([
            ("now", Json::UInt(10)),
            ("waiting", Json::UInt(2)),
            ("pending", Json::UInt(1)),
            ("running", Json::UInt(3)),
            ("free_nodes", Json::UInt(5)),
            ("waiting_ids", Json::Arr(vec![Json::UInt(2), Json::UInt(4)])),
            ("draining", Json::Bool(false)),
        ]);
        let b = protocol::ok([
            ("now", Json::UInt(12)),
            ("waiting", Json::UInt(1)),
            ("pending", Json::UInt(0)),
            ("running", Json::UInt(2)),
            ("free_nodes", Json::UInt(7)),
            ("waiting_ids", Json::Arr(vec![Json::UInt(3)])),
            ("draining", Json::Bool(false)),
        ]);
        let m = merge(AggKind::Queue, &[a, b]);
        assert_eq!(m.get("now").unwrap().as_u64(), Some(12));
        assert_eq!(m.get("waiting").unwrap().as_u64(), Some(3));
        assert_eq!(m.get("free_nodes").unwrap().as_u64(), Some(12));
        let ids: Vec<u64> = m
            .get("waiting_ids")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|v| v.as_u64().unwrap())
            .collect();
        assert_eq!(ids, vec![2, 3, 4]);
    }

    #[test]
    fn metrics_merge_weights_averages_by_finished_jobs() {
        let a = protocol::ok([
            ("now", Json::UInt(100)),
            ("scheduler", Json::Str("FCFS".into())),
            ("jobs_finished", Json::UInt(3)),
            ("art", Json::Num(10.0)),
            ("makespan", Json::UInt(100)),
            ("utilization", Json::Num(0.5)),
        ]);
        let b = protocol::ok([
            ("now", Json::UInt(100)),
            ("scheduler", Json::Str("FCFS".into())),
            ("jobs_finished", Json::UInt(1)),
            ("art", Json::Num(50.0)),
            ("makespan", Json::UInt(50)),
            ("utilization", Json::Num(1.0)),
        ]);
        let m = merge(AggKind::Metrics, &[a, b]);
        assert_eq!(m.get("jobs_finished").unwrap().as_u64(), Some(4));
        assert_eq!(m.get("art").unwrap().as_f64(), Some(20.0)); // (3·10+1·50)/4
        assert_eq!(m.get("makespan").unwrap().as_u64(), Some(100));
        // busy = 0.5·100 + 1.0·50 = 100 over a 2×100 window.
        assert_eq!(m.get("utilization").unwrap().as_f64(), Some(0.5));
        assert_eq!(m.get("shards").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn checkpoint_merge_wraps_and_split_restore_unwraps() {
        let s0 = Json::obj([("schema", Json::Str(CHECKPOINT_SCHEMA.into()))]);
        let s1 = Json::obj([("schema", Json::Str(CHECKPOINT_SCHEMA.into()))]);
        let m = merge(
            AggKind::Checkpoint,
            &[
                protocol::ok([("state", s0.clone())]),
                protocol::ok([("state", s1.clone())]),
            ],
        );
        let wrapper = m.get("state").unwrap();
        assert_eq!(
            wrapper.get("schema").unwrap().as_str(),
            Some(CHECKPOINT_SCHEMA_V2)
        );
        let split = split_restore(wrapper, 2).unwrap();
        assert_eq!(split, [s0.clone(), s1]);
        // Mismatched shard counts and v1-into-sharded are refused.
        assert!(split_restore(wrapper, 4).is_err());
        assert!(split_restore(&s0, 2).is_err());
    }
}
