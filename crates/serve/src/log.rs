//! The input log: a shard's history, its warm standby and its
//! checkpoint, as one typed value.
//!
//! The paper defines a scheduling system by its input — the stream of
//! job submission data — and the daemon takes that literally. Every
//! admitted submission, cancellation and policy override is appended to
//! the shard's [`InputLog`] with the simulated instant it was applied
//! at; engine state is a pure function of that log, so
//!
//! * a **checkpoint** is the log serialised ([`InputLog::to_json`]),
//! * a **restore** is the log replayed
//!   ([`Engine::restore`](crate::engine::Engine)), and
//! * a **warm replica** is the engine's own log, taken by value when
//!   the shard dies and replayed into a fresh engine (see
//!   [`crate::replica`]) — not a second copy.
//!
//! This module is the only place that knows the `serve-checkpoint/1`
//! layout. JSON exists at the edges only: the `checkpoint` reply going
//! out, the `restore` op and the `--restore` file coming in. Everything
//! between — the engine, promotion, replay — handles typed records.
//! Decoding is where outside input is checked: [`InputLog::from_json`]
//! validates the whole document before any engine state is touched, and
//! refuses every submission the `submit` op would refuse.

use crate::protocol::PolicyForce;
use crate::ServeConfig;
use jobsched_json::Json;
use jobsched_sim::profile::HORIZON;
use jobsched_workload::{Job, JobBuilder, JobId, Time};

/// Checkpoint schema identifier (one engine's input log).
pub const CHECKPOINT_SCHEMA: &str = "serve-checkpoint/1";

/// One replayable input: what happened, and the simulated instant the
/// engine applied it at.
#[derive(Clone, Debug)]
pub(crate) struct InputRecord {
    pub(crate) at: Time,
    pub(crate) op: InputOp,
}

#[derive(Clone, Debug)]
pub(crate) enum InputOp {
    Submit(Job),
    Cancel(JobId),
    Policy(PolicyForce),
    /// Live scheduler switch to another atlas row (canonical label).
    SetScheduler(String),
}

/// Everything needed to rebuild a shard: its inputs plus the scalars
/// that are not derivable from them.
#[derive(Debug, Default)]
pub struct InputLog {
    /// Every replayable input, in application order.
    pub(crate) records: Vec<InputRecord>,
    /// The latest simulated instant the shard has pumped to. Replay
    /// advances the rebuilt engine here so due events fire exactly as
    /// they had on the original.
    pub(crate) now: Time,
    /// Whether the shard was draining.
    pub(crate) draining: bool,
    /// The shard's auto-id cursor (monotone; restoring the exact value
    /// keeps auto-assignments identical across a restore or failover).
    /// Past `u32::MAX` once the shard's residue class is used up.
    pub(crate) next_auto_id: u64,
}

impl InputLog {
    /// Append one input; the watermark never trails a recorded instant.
    pub(crate) fn push(&mut self, rec: InputRecord) {
        self.now = self.now.max(rec.at);
        self.records.push(rec);
    }

    /// The log as a `serve-checkpoint/1` document for a daemon
    /// configured as `config`.
    pub fn to_json(&self, config: &ServeConfig) -> Json {
        Json::obj([
            ("schema", Json::Str(CHECKPOINT_SCHEMA.into())),
            ("scheduler", Json::Str(config.scheduler.label())),
            ("machine_nodes", Json::UInt(config.machine_nodes as u64)),
            ("now", Json::UInt(self.now)),
            ("draining", Json::Bool(self.draining)),
            ("next_auto_id", Json::UInt(self.next_auto_id)),
            (
                "inputs",
                Json::Arr(self.records.iter().map(record_json).collect()),
            ),
        ])
    }

    /// Decode a `serve-checkpoint/1` document taken from a daemon
    /// configured as `config`. The document is outside input: schema,
    /// scheduler label and machine size must match, every record must
    /// carry its fields in range, and every submission must be one the
    /// `submit` op admits, under an id no earlier submission used — all
    /// checked here, so a document that decodes can be replayed and one
    /// that does not has touched nothing.
    pub fn from_json(config: &ServeConfig, state: &Json) -> Result<InputLog, String> {
        let schema = state
            .get("schema")
            .and_then(|v| v.as_str())
            .ok_or("checkpoint has no schema")?;
        if schema != CHECKPOINT_SCHEMA {
            return Err(format!("unsupported checkpoint schema '{schema}'"));
        }
        let scheduler = state
            .get("scheduler")
            .and_then(|v| v.as_str())
            .ok_or("checkpoint has no scheduler")?;
        if scheduler != config.scheduler.label() {
            return Err(format!(
                "checkpoint is for scheduler '{scheduler}' but this daemon runs '{}'",
                config.scheduler.label()
            ));
        }
        let nodes = state
            .get("machine_nodes")
            .and_then(|v| v.as_u64())
            .ok_or("checkpoint has no machine_nodes")?;
        if nodes != config.machine_nodes as u64 {
            return Err(format!(
                "checkpoint machine has {nodes} nodes, this daemon serves {}",
                config.machine_nodes
            ));
        }
        let now = state
            .get("now")
            .and_then(|v| v.as_u64())
            .ok_or("checkpoint has no now")?;
        let draining = state
            .get("draining")
            .and_then(|v| v.as_bool())
            .unwrap_or(false);
        let next_auto_id = state
            .get("next_auto_id")
            .and_then(|v| v.as_u64())
            // Every cursor past `u32::MAX` means the same: no id left.
            .map_or(0, |n| n.min(1 << 32));
        let inputs = state
            .get("inputs")
            .and_then(|v| v.as_arr())
            .ok_or("checkpoint has no inputs")?;
        let mut records = Vec::with_capacity(inputs.len());
        let mut ids = std::collections::BTreeSet::new();
        for (i, rec) in inputs.iter().enumerate() {
            let rec =
                parse_record(rec, config.machine_nodes).map_err(|e| format!("input {i}: {e}"))?;
            if let InputOp::Submit(job) = &rec.op {
                if !ids.insert(job.id) {
                    return Err(format!("input {i}: job id {} already used", job.id.0));
                }
            }
            records.push(rec);
        }
        Ok(InputLog {
            records,
            now,
            draining,
            next_auto_id,
        })
    }
}

/// Refuse a job the `submit` op refuses — the per-job rules of both
/// doors for submissions, in one place. A decoded checkpoint, whose
/// replay admits records directly, applies them all here; the `submit`
/// op applies each where it always has, so a request is refused for the
/// same reason and with the same reply as ever: [`check_positive`]
/// while it parses, [`check_width`] before the admission bound,
/// [`check_horizon`] once the job has its id.
pub(crate) fn check_job(job: &Job, machine_nodes: u32) -> Result<(), String> {
    check_positive(job.nodes, job.requested_time, job.runtime)?;
    check_width(job.nodes, machine_nodes)?;
    check_horizon(job)
}

/// Refuse a job with no node, no requested time or no runtime.
pub(crate) fn check_positive(nodes: u32, requested: Time, runtime: Time) -> Result<(), String> {
    if nodes == 0 {
        return Err("a job needs at least one node".into());
    }
    if requested == 0 {
        return Err("requested time must be positive".into());
    }
    if runtime == 0 {
        return Err("runtime must be positive".into());
    }
    Ok(())
}

/// Refuse a job wider than the machine.
pub(crate) fn check_width(nodes: u32, machine_nodes: u32) -> Result<(), String> {
    if nodes > machine_nodes {
        return Err(format!(
            "job needs {nodes} nodes but the machine has {machine_nodes}"
        ));
    }
    Ok(())
}

/// Refuse a job whose run could reach [`HORIZON`], the calendar's
/// "never": its finish and calendar instants would overflow [`Time`].
pub(crate) fn check_horizon(job: &Job) -> Result<(), String> {
    let span = job.requested_time.max(job.runtime);
    if job.submit.saturating_add(span) >= HORIZON {
        return Err(format!(
            "job {} would run past the time horizon {HORIZON}",
            job.id
        ));
    }
    Ok(())
}

fn record_json(rec: &InputRecord) -> Json {
    let mut pairs = vec![("at", Json::UInt(rec.at))];
    match &rec.op {
        InputOp::Submit(job) => {
            pairs.push(("op", Json::Str("submit".into())));
            pairs.push(("id", Json::UInt(job.id.0 as u64)));
            pairs.push(("submit", Json::UInt(job.submit)));
            pairs.push(("nodes", Json::UInt(job.nodes as u64)));
            pairs.push(("requested", Json::UInt(job.requested_time)));
            pairs.push(("runtime", Json::UInt(job.runtime)));
            pairs.push(("user", Json::UInt(job.user as u64)));
        }
        InputOp::Cancel(id) => {
            pairs.push(("op", Json::Str("cancel".into())));
            pairs.push(("id", Json::UInt(id.0 as u64)));
        }
        InputOp::Policy(force) => {
            pairs.push(("op", Json::Str("policy".into())));
            pairs.push(("force", Json::Str(force.label().into())));
        }
        InputOp::SetScheduler(label) => {
            pairs.push(("op", Json::Str("set-scheduler".into())));
            pairs.push(("label", Json::Str(label.clone())));
        }
    }
    Json::obj(pairs)
}

fn parse_record(rec: &Json, machine_nodes: u32) -> Result<InputRecord, String> {
    let at = rec
        .get("at")
        .and_then(|v| v.as_u64())
        .ok_or("missing 'at'")?;
    let op = rec
        .get("op")
        .and_then(|v| v.as_str())
        .ok_or("missing 'op'")?;
    let u32_of = |key: &str| -> Result<u32, String> {
        let n = rec
            .get(key)
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("missing '{key}'"))?;
        u32::try_from(n).map_err(|_| format!("'{key}' out of range"))
    };
    let time_of = |key: &str| -> Result<Time, String> {
        rec.get(key)
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("missing '{key}'"))
    };
    let op = match op {
        "submit" => {
            let job = JobBuilder::new(JobId(u32_of("id")?))
                .submit(time_of("submit")?)
                .nodes(u32_of("nodes")?)
                .requested(time_of("requested")?)
                .runtime(time_of("runtime")?)
                .user(u32_of("user")?)
                .build();
            check_job(&job, machine_nodes)?;
            InputOp::Submit(job)
        }
        "cancel" => InputOp::Cancel(JobId(u32_of("id")?)),
        "policy" => {
            let f = rec
                .get("force")
                .and_then(|v| v.as_str())
                .ok_or("missing 'force'")?;
            InputOp::Policy(PolicyForce::parse(f).map_err(|_| format!("unknown force '{f}'"))?)
        }
        "set-scheduler" => InputOp::SetScheduler(
            rec.get("label")
                .and_then(|v| v.as_str())
                .ok_or("missing 'label'")?
                .to_string(),
        ),
        other => return Err(format!("unknown input op '{other}'")),
    };
    Ok(InputRecord { at, op })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::protocol::Request;
    use crate::router::{self, AggKind, Dest};
    use crate::SchedulerSpec;

    fn config(shards: usize) -> ServeConfig {
        ServeConfig {
            machine_nodes: 16,
            scheduler: SchedulerSpec::parse("fcfs+easy").unwrap(),
            virtual_clock: true,
            shards,
            ..ServeConfig::default()
        }
    }

    /// Submits (one auto-id, two future-dated), a cancel in each of
    /// pre-submit / queued / running, a live scheduler switch, advances
    /// and a drain.
    fn script() -> Vec<Request> {
        let submit = |id, at, nodes, runtime, user| Request::Submit {
            id,
            at: Some(at),
            nodes,
            requested: runtime,
            runtime,
            user,
        };
        vec![
            submit(Some(0), 0, 16, 100, 0),
            submit(Some(1), 10, 16, 50, 1),
            submit(Some(2), 20, 4, 30, 2),
            submit(Some(3), 500, 4, 20, 3),
            submit(Some(4), 600, 8, 40, 0),
            Request::Advance { to: Some(30) },
            Request::Cancel { id: 4 },
            Request::Cancel { id: 2 },
            Request::Cancel { id: 0 },
            Request::Policy {
                force: None,
                list: false,
                set: Some("sjf+easy".into()),
            },
            submit(None, 40, 2, 15, 1),
            Request::Advance { to: Some(60) },
            Request::Drain,
        ]
    }

    /// Route one request over in-process shard engines as the reactor
    /// does.
    fn serve(engines: &mut [Engine], req: Request) -> Json {
        match router::route(&req, engines.len()) {
            Dest::Shard(k) => engines[k].handle(req).0,
            Dest::Broadcast(kind) => {
                let parts: Vec<Json> = engines
                    .iter_mut()
                    .map(|e| e.handle(req.clone()).0)
                    .collect();
                router::merge(kind, &parts)
            }
            Dest::Direct(reply) => reply,
        }
    }

    fn fresh(shards: usize) -> Vec<Engine> {
        (0..shards)
            .map(|k| Engine::for_shard(config(shards), k, shards, None))
            .collect()
    }

    fn scripted(shards: usize) -> Vec<Engine> {
        let mut engines = fresh(shards);
        for req in script() {
            serve(&mut engines, req);
        }
        engines
    }

    /// The `checkpoint` replies of [`script`], generated by the code
    /// before `InputLog` existed: the document layout is a wire format
    /// (and hashed into `bench/`'s pinned digests), so every byte holds.
    const GOLDEN_1_SHARD: &str = r#"{"ok":true,"state":{"schema":"serve-checkpoint/1","scheduler":"fcfs+easy","machine_nodes":16,"now":60,"draining":true,"next_auto_id":6,"inputs":[{"at":0,"op":"submit","id":0,"submit":0,"nodes":16,"requested":100,"runtime":100,"user":0},{"at":0,"op":"submit","id":1,"submit":10,"nodes":16,"requested":50,"runtime":50,"user":1},{"at":0,"op":"submit","id":2,"submit":20,"nodes":4,"requested":30,"runtime":30,"user":2},{"at":0,"op":"submit","id":3,"submit":500,"nodes":4,"requested":20,"runtime":20,"user":3},{"at":0,"op":"submit","id":4,"submit":600,"nodes":8,"requested":40,"runtime":40,"user":0},{"at":30,"op":"cancel","id":4},{"at":30,"op":"cancel","id":2},{"at":30,"op":"cancel","id":0},{"at":30,"op":"set-scheduler","label":"sjf+easy"},{"at":30,"op":"submit","id":5,"submit":40,"nodes":2,"requested":15,"runtime":15,"user":1}]}}"#;
    const GOLDEN_2_SHARDS: &str = r#"{"ok":true,"state":{"schema":"serve-checkpoint/2","shards":2,"states":[{"schema":"serve-checkpoint/1","scheduler":"fcfs+easy","machine_nodes":16,"now":60,"draining":true,"next_auto_id":6,"inputs":[{"at":0,"op":"submit","id":0,"submit":0,"nodes":16,"requested":100,"runtime":100,"user":0},{"at":0,"op":"submit","id":2,"submit":20,"nodes":4,"requested":30,"runtime":30,"user":2},{"at":0,"op":"submit","id":4,"submit":600,"nodes":8,"requested":40,"runtime":40,"user":0},{"at":30,"op":"cancel","id":4},{"at":30,"op":"cancel","id":2},{"at":30,"op":"cancel","id":0},{"at":30,"op":"set-scheduler","label":"sjf+easy"}]},{"schema":"serve-checkpoint/1","scheduler":"fcfs+easy","machine_nodes":16,"now":60,"draining":true,"next_auto_id":7,"inputs":[{"at":0,"op":"submit","id":1,"submit":10,"nodes":16,"requested":50,"runtime":50,"user":1},{"at":0,"op":"submit","id":3,"submit":500,"nodes":4,"requested":20,"runtime":20,"user":3},{"at":30,"op":"set-scheduler","label":"sjf+easy"},{"at":30,"op":"submit","id":5,"submit":40,"nodes":2,"requested":15,"runtime":15,"user":1}]}]}}"#;

    #[test]
    fn checkpoint_documents_match_the_golden_bytes() {
        for (shards, golden) in [(1, GOLDEN_1_SHARD), (2, GOLDEN_2_SHARDS)] {
            let reply = serve(&mut scripted(shards), Request::Checkpoint);
            assert_eq!(reply.to_string_compact(), golden, "{shards} shard(s)");
        }
    }

    #[test]
    fn golden_documents_decode_and_restore_to_the_same_checkpoint() {
        for (shards, golden) in [(1, GOLDEN_1_SHARD), (2, GOLDEN_2_SHARDS)] {
            let doc = jobsched_json::parse(golden).unwrap();
            // The file path: typed logs, replayed before serving.
            let logs = router::restore_logs(&config(shards), &doc).unwrap();
            let mut engines = fresh(shards);
            for (engine, log) in engines.iter_mut().zip(logs) {
                engine.restore(log).unwrap();
            }
            let again = serve(&mut engines, Request::Checkpoint);
            assert_eq!(again.to_string_compact(), golden, "{shards} shard(s)");
            // The wire op, on the same document.
            let state = doc.get("state").unwrap().clone();
            let mut wired = fresh(shards);
            let parts: Vec<Json> = if shards == 1 {
                vec![wired[0].handle(Request::Restore { state }).0]
            } else {
                let states = router::split_restore(&state, shards).unwrap();
                wired
                    .iter_mut()
                    .zip(states)
                    .map(|(e, s)| e.handle(Request::Restore { state: s.clone() }).0)
                    .collect()
            };
            let reply = router::merge(AggKind::Restore, &parts);
            assert_eq!(reply.get("now").unwrap().as_u64(), Some(60), "{reply:?}");
            assert_eq!(
                reply.get("inputs_replayed").unwrap().as_u64(),
                Some(if shards == 1 { 10 } else { 11 })
            );
            let again = serve(&mut wired, Request::Checkpoint);
            assert_eq!(again.to_string_compact(), golden, "{shards} shard(s)");
        }
    }

    /// The golden one-shard state with its first `from` rewritten to `to`.
    fn tampered(from: &str, to: &str) -> Json {
        assert!(GOLDEN_1_SHARD.contains(from), "{from}");
        let doc = jobsched_json::parse(&GOLDEN_1_SHARD.replacen(from, to, 1)).unwrap();
        doc.get("state").unwrap().clone()
    }

    #[test]
    fn rejected_documents_leave_the_engine_fresh() {
        let cases = [
            (
                "unsupported checkpoint schema 'serve-checkpoint/9'",
                tampered("serve-checkpoint/1", "serve-checkpoint/9"),
            ),
            (
                "checkpoint is for scheduler 'psrs+easy'",
                tampered(r#""scheduler":"fcfs+easy""#, r#""scheduler":"psrs+easy""#),
            ),
            (
                "checkpoint machine has 32 nodes",
                tampered(r#""machine_nodes":16"#, r#""machine_nodes":32"#),
            ),
            ("checkpoint has no now", tampered(r#""now":60,"#, "")),
            (
                "checkpoint has no inputs",
                tampered(r#""inputs":["#, r#""outputs":["#),
            ),
            (
                "input 2: missing 'runtime'",
                tampered(r#""runtime":30,"#, ""),
            ),
            (
                "input 5: 'id' out of range",
                tampered(
                    r#""op":"cancel","id":4}"#,
                    r#""op":"cancel","id":4294967296}"#,
                ),
            ),
            (
                "input 8: unknown input op 'reboot'",
                tampered(r#""op":"set-scheduler""#, r#""op":"reboot""#),
            ),
            // Submissions the `submit` op would refuse.
            (
                "input 2: job needs 17 nodes but the machine has 16",
                tampered(
                    r#""nodes":4,"requested":30"#,
                    r#""nodes":17,"requested":30"#,
                ),
            ),
            (
                "input 1: job id 0 already used",
                tampered(r#""id":1,"submit":10"#, r#""id":0,"submit":10"#),
            ),
            (
                "input 3: a job needs at least one node",
                tampered(r#""nodes":4,"requested":20"#, r#""nodes":0,"requested":20"#),
            ),
            (
                "input 3: requested time must be positive",
                tampered(r#""requested":20"#, r#""requested":0"#),
            ),
            (
                "input 4: runtime must be positive",
                tampered(r#""runtime":40"#, r#""runtime":0"#),
            ),
        ];
        let mut engine = Engine::new(config(1));
        for (complaint, state) in cases {
            let err = InputLog::from_json(&config(1), &state).unwrap_err();
            assert!(err.contains(complaint), "{complaint}: got '{err}'");
            let reply = engine.handle(Request::Restore { state }).0;
            assert_eq!(
                reply.get("error").and_then(|v| v.as_str()),
                Some("restore-failed"),
                "{complaint}"
            );
            assert!(
                reply
                    .get("message")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .contains(complaint),
                "{reply:?}"
            );
        }
        // Thirteen refusals later the engine is still fresh: the good
        // document restores and reproduces the golden checkpoint.
        let state = tampered("", "");
        let reply = engine.handle(Request::Restore { state }).0;
        assert_eq!(
            reply.get("ok").and_then(|v| v.as_bool()),
            Some(true),
            "{reply:?}"
        );
        let again = engine.handle(Request::Checkpoint).0;
        assert_eq!(again.to_string_compact(), GOLDEN_1_SHARD);
    }

    #[test]
    fn regime_overrides_are_logged_under_their_wire_names() {
        let paper_switch = ServeConfig {
            scheduler: SchedulerSpec::PaperSwitch,
            ..config(1)
        };
        let mut engine = Engine::new(paper_switch.clone());
        for force in [PolicyForce::Night, PolicyForce::Day, PolicyForce::Auto] {
            engine.handle(Request::Policy {
                force: Some(force),
                list: false,
                set: None,
            });
        }
        let state = engine.handle(Request::Checkpoint).0;
        let state = state.get("state").unwrap();
        assert_eq!(
            state.get("inputs").unwrap().to_string_compact(),
            r#"[{"at":0,"op":"policy","force":"night"},{"at":0,"op":"policy","force":"day"},{"at":0,"op":"policy","force":"auto"}]"#
        );
        let log = InputLog::from_json(&paper_switch, state).unwrap();
        assert!(matches!(
            log.records[0].op,
            InputOp::Policy(PolicyForce::Night)
        ));
        let bad = state.to_string_compact().replace("day", "dusk");
        let bad = jobsched_json::parse(&bad).unwrap();
        let err = InputLog::from_json(&paper_switch, &bad).unwrap_err();
        assert_eq!(err, "input 1: unknown force 'dusk'");
    }

    #[test]
    fn a_wrapped_or_mis_sharded_document_is_told_apart() {
        let one = jobsched_json::parse(GOLDEN_1_SHARD).unwrap();
        let two = jobsched_json::parse(GOLDEN_2_SHARDS).unwrap();
        // Bare state and the reply still wrapping it both decode.
        assert!(router::restore_logs(&config(1), &one).is_ok());
        assert!(router::restore_logs(&config(1), one.get("state").unwrap()).is_ok());
        assert_eq!(router::restore_logs(&config(2), &two).unwrap().len(), 2);
        // Shard counts must match the daemon's.
        assert!(router::restore_logs(&config(2), &one).is_err());
        assert!(router::restore_logs(&config(1), &two).is_err());
        assert!(router::restore_logs(&config(4), &two).is_err());
    }
}
