//! Wire protocol: newline-delimited JSON requests and replies.
//!
//! Each request is one JSON object on one line with an `"op"` field;
//! each reply is one JSON object on one line with an `"ok"` field.
//! Failures carry `"error"` (a stable machine-readable kind) and
//! `"message"` (human-readable detail). The parser is strict: unknown
//! ops, missing fields, and out-of-range values are structured errors,
//! never panics — this module fronts untrusted network input.

use jobsched_json::Json;
use jobsched_workload::Time;

/// Hard cap on one request line (including the newline). Longer lines
/// are rejected and the connection closed.
pub const MAX_LINE: usize = 64 * 1024;

/// Regime override carried by the `policy` op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyForce {
    /// Pin the day regime.
    Day,
    /// Pin the night regime.
    Night,
    /// Return control to the clock.
    Auto,
}

impl PolicyForce {
    /// Wire name.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyForce::Day => "day",
            PolicyForce::Night => "night",
            PolicyForce::Auto => "auto",
        }
    }

    /// The day-regime flag `ListScheduler::force_regime` takes:
    /// `None` hands control back to the clock.
    pub fn regime(&self) -> Option<bool> {
        match self {
            PolicyForce::Day => Some(true),
            PolicyForce::Night => Some(false),
            PolicyForce::Auto => None,
        }
    }

    /// Parse a wire name.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "day" => Ok(PolicyForce::Day),
            "night" => Ok(PolicyForce::Night),
            "auto" => Ok(PolicyForce::Auto),
            other => Err(format!("unknown regime '{other}' (day|night|auto)")),
        }
    }
}

/// A parsed client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Submit a job. `id`/`at` are optional (auto-assigned id, "now").
    Submit {
        /// Explicit job id; auto-assigned when absent.
        id: Option<u32>,
        /// Simulated submission instant; clamped to "now" when absent
        /// or in the past.
        at: Option<Time>,
        /// Rigid node requirement.
        nodes: u32,
        /// User runtime estimate (upper limit), seconds.
        requested: Time,
        /// Actual runtime, seconds (this daemon *simulates* execution).
        runtime: Time,
        /// Submitting user id.
        user: u32,
    },
    /// Cancel a job in any lifecycle phase.
    Cancel {
        /// The job.
        id: u32,
    },
    /// Query one job's lifecycle state.
    Status {
        /// The job.
        id: u32,
    },
    /// Queue overview: waiting/running/pending counts and ids.
    Queue,
    /// Online metrics snapshot plus per-request counters.
    Metrics,
    /// Stop admitting submissions.
    Drain,
    /// Resume admitting submissions.
    Undrain,
    /// Inspect (all fields empty), override the day/night regime
    /// (`force`), enumerate the servable policy atlas (`list`), or
    /// switch the running scheduler to another atlas row (`set`).
    Policy {
        /// The regime override, absent for pure inspection.
        force: Option<PolicyForce>,
        /// Include the servable scheduler rows in the reply.
        list: bool,
        /// Scheduler label to switch to (e.g. `sjf+easy`), as accepted
        /// by `SchedulerSpec::parse`. The waiting backlog transfers.
        set: Option<String>,
    },
    /// Advance virtual time to `to`, or drain every queued event when
    /// absent. Virtual-clock daemons only.
    Advance {
        /// Target instant; `None` runs to quiescence.
        to: Option<Time>,
    },
    /// Serialize full engine state.
    Checkpoint,
    /// Load a checkpoint into a fresh daemon. The whole checkpoint rides
    /// in this one request line, so over the wire it is bounded by
    /// [`MAX_LINE`] (≈ 600 jobs); a larger one is loaded at startup
    /// (`jobsched-serve --restore FILE`,
    /// [`Server::start_restored`](crate::server::Server::start_restored)).
    Restore {
        /// The checkpoint object, as returned by `checkpoint`.
        state: Json,
    },
    /// Stop the daemon. `graceful` finishes (or checkpoints) in-flight
    /// work first; `checkpoint` returns the final state in the reply.
    Shutdown {
        /// Finish in-flight work before stopping.
        graceful: bool,
        /// Include a checkpoint of the final state in the reply.
        checkpoint: bool,
    },
    /// Liveness probe.
    Ping,
    /// Chaos op: kill one engine shard as if it had failed. With a
    /// warm replica the daemon promotes it transparently; without one
    /// the shard's jobs become `unavailable`. Test/benchmark surface.
    Crash {
        /// Which shard to kill (default 0).
        shard: u32,
    },
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

fn u32_field(obj: &Json, key: &str) -> Result<u32, String> {
    let v = field(obj, key)?;
    let n = v
        .as_u64()
        .ok_or_else(|| format!("field '{key}' must be a non-negative integer"))?;
    u32::try_from(n).map_err(|_| format!("field '{key}' out of range"))
}

fn time_field(obj: &Json, key: &str) -> Result<Time, String> {
    field(obj, key)?
        .as_u64()
        .ok_or_else(|| format!("field '{key}' must be a non-negative integer"))
}

fn opt_u32(obj: &Json, key: &str) -> Result<Option<u32>, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            let n = v
                .as_u64()
                .ok_or_else(|| format!("field '{key}' must be a non-negative integer"))?;
            u32::try_from(n)
                .map(Some)
                .map_err(|_| format!("field '{key}' out of range"))
        }
    }
}

fn opt_time(obj: &Json, key: &str) -> Result<Option<Time>, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("field '{key}' must be a non-negative integer")),
    }
}

fn bool_field(obj: &Json, key: &str, default: bool) -> Result<bool, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| format!("field '{key}' must be a boolean")),
    }
}

/// Parse one request object. Errors are protocol errors to send back.
pub fn parse_request(j: &Json) -> Result<Request, String> {
    if !matches!(j, Json::Obj(_)) {
        return Err("request must be a JSON object".into());
    }
    let op = field(j, "op")?
        .as_str()
        .ok_or_else(|| "field 'op' must be a string".to_string())?;
    match op {
        "submit" => {
            let nodes = u32_field(j, "nodes")?;
            let requested = time_field(j, "requested")?;
            let runtime = time_field(j, "runtime")?;
            crate::log::check_positive(nodes, requested, runtime)?;
            Ok(Request::Submit {
                id: opt_u32(j, "id")?,
                at: opt_time(j, "at")?,
                nodes,
                requested,
                runtime,
                user: opt_u32(j, "user")?.unwrap_or(0),
            })
        }
        "cancel" => Ok(Request::Cancel {
            id: u32_field(j, "id")?,
        }),
        "status" => Ok(Request::Status {
            id: u32_field(j, "id")?,
        }),
        "queue" => Ok(Request::Queue),
        "metrics" => Ok(Request::Metrics),
        "drain" => Ok(Request::Drain),
        "undrain" => Ok(Request::Undrain),
        "policy" => {
            let force = match j.get("force") {
                None | Some(Json::Null) => None,
                Some(v) => {
                    let s = v
                        .as_str()
                        .ok_or_else(|| "field 'force' must be a string".to_string())?;
                    Some(PolicyForce::parse(s)?)
                }
            };
            let list = bool_field(j, "list", false)?;
            let set = match j.get("set") {
                None | Some(Json::Null) => None,
                Some(v) => Some(
                    v.as_str()
                        .ok_or_else(|| "field 'set' must be a string".to_string())?
                        .to_string(),
                ),
            };
            if force.is_some() && set.is_some() {
                return Err("'force' and 'set' are mutually exclusive".into());
            }
            Ok(Request::Policy { force, list, set })
        }
        "advance" => Ok(Request::Advance {
            to: opt_time(j, "to")?,
        }),
        "checkpoint" => Ok(Request::Checkpoint),
        "restore" => Ok(Request::Restore {
            state: field(j, "state")?.clone(),
        }),
        "shutdown" => Ok(Request::Shutdown {
            graceful: bool_field(j, "graceful", true)?,
            checkpoint: bool_field(j, "checkpoint", false)?,
        }),
        "ping" => Ok(Request::Ping),
        "crash" => Ok(Request::Crash {
            shard: opt_u32(j, "shard")?.unwrap_or(0),
        }),
        other => Err(format!("unknown op '{other}'")),
    }
}

/// A success reply carrying `fields`.
pub fn ok(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    let mut pairs = vec![("ok".to_string(), Json::Bool(true))];
    pairs.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    Json::Obj(pairs)
}

/// An error reply: `kind` is stable and machine-readable (`protocol`,
/// `rejected`, `unknown-job`, `unsupported`, `busy`, `unavailable`),
/// `message` is human-readable detail.
pub fn error(kind: &str, message: impl Into<String>) -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        ("error", Json::Str(kind.into())),
        ("message", Json::Str(message.into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use jobsched_json::parse;

    fn req(line: &str) -> Result<Request, String> {
        parse_request(&parse(line).map_err(|e| e.to_string())?)
    }

    #[test]
    fn submit_parses_with_and_without_options() {
        let r = req(r#"{"op":"submit","nodes":4,"requested":100,"runtime":60}"#).unwrap();
        assert_eq!(
            r,
            Request::Submit {
                id: None,
                at: None,
                nodes: 4,
                requested: 100,
                runtime: 60,
                user: 0
            }
        );
        let r =
            req(r#"{"op":"submit","id":7,"at":500,"nodes":1,"requested":10,"runtime":5,"user":3}"#)
                .unwrap();
        assert_eq!(
            r,
            Request::Submit {
                id: Some(7),
                at: Some(500),
                nodes: 1,
                requested: 10,
                runtime: 5,
                user: 3
            }
        );
    }

    #[test]
    fn submit_rejects_degenerate_fields() {
        assert!(req(r#"{"op":"submit","nodes":0,"requested":10,"runtime":5}"#).is_err());
        assert!(req(r#"{"op":"submit","nodes":1,"requested":0,"runtime":5}"#).is_err());
        assert!(req(r#"{"op":"submit","nodes":1,"requested":10,"runtime":0}"#).is_err());
        assert!(req(r#"{"op":"submit","requested":10,"runtime":5}"#).is_err());
        assert!(req(r#"{"op":"submit","nodes":-1,"requested":10,"runtime":5}"#).is_err());
        assert!(req(r#"{"op":"submit","nodes":4294967296,"requested":10,"runtime":5}"#).is_err());
    }

    #[test]
    fn control_ops_parse() {
        assert_eq!(req(r#"{"op":"queue"}"#).unwrap(), Request::Queue);
        assert_eq!(req(r#"{"op":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(
            req(r#"{"op":"cancel","id":3}"#).unwrap(),
            Request::Cancel { id: 3 }
        );
        assert_eq!(
            req(r#"{"op":"advance"}"#).unwrap(),
            Request::Advance { to: None }
        );
        assert_eq!(
            req(r#"{"op":"advance","to":1000}"#).unwrap(),
            Request::Advance { to: Some(1000) }
        );
        assert_eq!(
            req(r#"{"op":"policy"}"#).unwrap(),
            Request::Policy {
                force: None,
                list: false,
                set: None
            }
        );
        assert_eq!(
            req(r#"{"op":"policy","force":"night"}"#).unwrap(),
            Request::Policy {
                force: Some(PolicyForce::Night),
                list: false,
                set: None
            }
        );
        assert_eq!(
            req(r#"{"op":"policy","list":true}"#).unwrap(),
            Request::Policy {
                force: None,
                list: true,
                set: None
            }
        );
        assert_eq!(
            req(r#"{"op":"policy","set":"sjf+easy"}"#).unwrap(),
            Request::Policy {
                force: None,
                list: false,
                set: Some("sjf+easy".into())
            }
        );
        // Force and set conflict; a non-string set is a protocol error.
        assert!(req(r#"{"op":"policy","force":"day","set":"fcfs"}"#).is_err());
        assert!(req(r#"{"op":"policy","set":7}"#).is_err());
        assert_eq!(
            req(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown {
                graceful: true,
                checkpoint: false
            }
        );
        assert_eq!(
            req(r#"{"op":"shutdown","graceful":false}"#).unwrap(),
            Request::Shutdown {
                graceful: false,
                checkpoint: false
            }
        );
        assert_eq!(
            req(r#"{"op":"crash"}"#).unwrap(),
            Request::Crash { shard: 0 }
        );
        assert_eq!(
            req(r#"{"op":"crash","shard":3}"#).unwrap(),
            Request::Crash { shard: 3 }
        );
    }

    #[test]
    fn garbage_is_a_structured_error() {
        assert!(req(r#"{"op":"explode"}"#).is_err());
        assert!(req(r#"{"nodes":4}"#).is_err());
        assert!(req(r#"[1,2,3]"#).is_err());
        assert!(req(r#"{"op":3}"#).is_err());
        assert!(req(r#"{"op":"policy","force":"weekend"}"#).is_err());
    }

    #[test]
    fn reply_builders_shape() {
        let r = ok([("id", Json::UInt(4))]);
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(r.get("id").unwrap().as_u64(), Some(4));
        let e = error("protocol", "bad line");
        assert_eq!(e.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(e.get("error").unwrap().as_str(), Some("protocol"));
    }
}
