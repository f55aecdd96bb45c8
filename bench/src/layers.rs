//! Micro-probes of single layers that no decorator reaches: the
//! availability calendar under a recorded start/finish sequence, and the
//! checkpoint → JSON → restore round trip of a serving engine.

use jobsched_algos::view::WeightScheme;
use jobsched_algos::AlgorithmSpec;
use jobsched_json::Json;
use jobsched_serve::engine::Engine;
use jobsched_serve::protocol::Request;
use jobsched_serve::ServeConfig;
use jobsched_sim::{JobEvent, LiveProfile, Profile, SimObserver, SimPipeline};
use jobsched_workload::{Time, Workload, WorkloadSource};
use std::hint::black_box;
use std::time::Instant;

/// One calendar operation of a recorded run.
#[derive(Clone, Copy, Debug)]
enum ProfileOp {
    Start {
        now: Time,
        nodes: u32,
        projected_end: Time,
    },
    Finish {
        nodes: u32,
        projected_end: Time,
    },
}

/// Records the `LiveProfile` calls a run implies: a start books
/// `nodes` until `start + requested`, a finish cancels that booking.
struct ProfileRecorder<'a> {
    workload: &'a Workload,
    ops: Vec<ProfileOp>,
}

impl SimObserver for ProfileRecorder<'_> {
    fn on_event(&mut self, event: &JobEvent) {
        match event {
            JobEvent::Started { id, at, nodes } => self.ops.push(ProfileOp::Start {
                now: *at,
                nodes: *nodes,
                projected_end: at + self.workload.job(*id).requested_time,
            }),
            JobEvent::Finished(o) => self.ops.push(ProfileOp::Finish {
                nodes: o.nodes,
                projected_end: o.start + o.requested_time,
            }),
            _ => {}
        }
    }
}

/// ns per operation of the three `LiveProfile` entry points.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProfileCosts {
    pub update_ns_per_op: f64,
    pub earliest_start_ns_per_op: f64,
    pub snapshot_ns_per_op: f64,
}

/// Replay the start/finish sequence of `workload`'s FCFS+EASY schedule
/// on a fresh `LiveProfile` three times: updates only, updates plus an
/// `earliest_start` query before every start, updates plus a
/// `snapshot_into` before every start. The differences price the query
/// and the snapshot.
pub fn profile_replay(workload: &Workload) -> ProfileCosts {
    let mut recorder = ProfileRecorder {
        workload,
        ops: Vec::with_capacity(2 * workload.len()),
    };
    let mut scheduler = AlgorithmSpec::reference().build(WeightScheme::Unweighted);
    let mut source = WorkloadSource::new(workload);
    SimPipeline::new(&mut source, &mut scheduler)
        .observe(&mut recorder)
        .run()
        .expect("in-memory workload sources are infallible");
    let ops = recorder.ops;
    let starts = ops
        .iter()
        .filter(|op| matches!(op, ProfileOp::Start { .. }))
        .count();
    if starts == 0 {
        return ProfileCosts::default();
    }

    #[derive(Clone, Copy, PartialEq)]
    enum Extra {
        None,
        EarliestStart,
        Snapshot,
    }
    let pass = |extra: Extra| -> f64 {
        let mut profile = LiveProfile::new(workload.machine_nodes());
        let mut scratch = Profile::empty(workload.machine_nodes(), 0);
        let t0 = Instant::now();
        for op in &ops {
            match *op {
                ProfileOp::Start {
                    now,
                    nodes,
                    projected_end,
                } => {
                    match extra {
                        Extra::None => {}
                        // The question a backfilling scan asks: when can
                        // this shape start if it has to wait?
                        Extra::EarliestStart => {
                            black_box(profile.earliest_start(now, nodes, projected_end - now, now));
                        }
                        Extra::Snapshot => {
                            profile.snapshot_into(now, &mut scratch);
                            black_box(scratch.len());
                        }
                    }
                    profile.on_start(nodes, projected_end);
                }
                ProfileOp::Finish {
                    nodes,
                    projected_end,
                } => profile.on_finish(nodes, projected_end),
            }
        }
        black_box(profile.free_nodes());
        t0.elapsed().as_nanos() as f64
    };
    let updates = pass(Extra::None);
    let with_query = pass(Extra::EarliestStart);
    let with_snapshot = pass(Extra::Snapshot);
    ProfileCosts {
        update_ns_per_op: updates / ops.len() as f64,
        earliest_start_ns_per_op: (with_query - updates).max(0.0) / starts as f64,
        snapshot_ns_per_op: (with_snapshot - updates).max(0.0) / starts as f64,
    }
}

/// What the checkpoint round trip of a serving engine costs.
#[derive(Clone, Copy, Debug, Default)]
pub struct CheckpointCosts {
    /// Restore the states, then ask each engine for a new checkpoint.
    pub checkpoint_ms: f64,
    pub restore_us_per_input: f64,
    /// Size of the checkpoint documents, serialised compactly.
    pub bytes: usize,
    pub parse_mb_per_s: f64,
    /// The restored engines report the metrics the originals did.
    pub restored_matches: bool,
}

/// Serialise `states` (one `serve-checkpoint/1` per shard), parse them
/// back, restore each into a fresh engine through `Engine::handle`, and
/// checkpoint the restored engines again.
pub fn checkpoint_probe(config: ServeConfig, states: &[Json]) -> CheckpointCosts {
    let config = ServeConfig {
        replica: false,
        ..config
    };
    let texts: Vec<String> = states.iter().map(Json::to_string_compact).collect();
    let bytes: usize = texts.iter().map(String::len).sum();

    let t0 = Instant::now();
    let parsed: Vec<Json> = texts
        .iter()
        .map(|t| jobsched_json::parse(t).expect("checkpoints are valid JSON"))
        .collect();
    let parse_s = t0.elapsed().as_secs_f64();

    let mut inputs = 0u64;
    let mut restore_ns = 0u128;
    let mut checkpoint_ns = 0u128;
    let mut restored_matches = true;
    for (k, state) in parsed.into_iter().enumerate() {
        let mut engine = Engine::for_shard(config.clone(), k, states.len(), None);
        let t0 = Instant::now();
        let (reply, _) = engine.handle(Request::Restore { state });
        restore_ns += t0.elapsed().as_nanos();
        inputs += reply
            .get("inputs_replayed")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        restored_matches &= reply.get("ok").and_then(Json::as_bool) == Some(true);
        let t0 = Instant::now();
        let (again, _) = engine.handle(Request::Checkpoint);
        checkpoint_ns += t0.elapsed().as_nanos();
        // Replaying a log reproduces the log.
        restored_matches &= again.get("state") == Some(&states[k]);
    }
    CheckpointCosts {
        checkpoint_ms: checkpoint_ns as f64 / 1e6,
        restore_us_per_input: restore_ns as f64 / 1e3 / inputs.max(1) as f64,
        bytes,
        parse_mb_per_s: bytes as f64 / 1e6 / parse_s.max(1e-9),
        restored_matches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jobsched_workload::ctc::prepared_ctc_workload;

    #[test]
    fn profile_replay_prices_all_three_entry_points() {
        let w = prepared_ctc_workload(500, 3);
        let costs = profile_replay(&w);
        assert!(costs.update_ns_per_op > 0.0);
        assert!(costs.earliest_start_ns_per_op >= 0.0);
        assert!(costs.snapshot_ns_per_op >= 0.0);
    }
}
