//! `jobsched-serve`: the paper's schedulers as a long-running service.
//!
//! The paper frames scheduling as an *online* decision procedure — the
//! algorithm reacts to submissions as they arrive, including the
//! day/night policy switch of Rules 5/6 — yet every other entry point in
//! this repo is batch simulation. This crate closes that gap: a daemon
//! whose one thread serves every connection and drives the shared
//! [`LiveSim`](jobsched_sim::LiveSim) engine of every shard behind a
//! [`Clock`](clock::Clock), while clients speak newline-delimited
//! JSON over TCP (hand-rolled on `std::net`; the build stays
//! dependency-free).
//!
//! * [`engine`] — one scheduler shard: admission control,
//!   status/metrics bookkeeping, and restore by replaying a typed log;
//! * [`log`] — the shard's [`InputLog`](log::InputLog): its history,
//!   its warm standby and its checkpoint as one value, and the only
//!   `serve-checkpoint/1` encoder/decoder;
//! * [`clock`] — virtual or scaled wall-clock time as one enum;
//! * [`protocol`] — request parsing and reply shapes
//!   (`submit`/`cancel`/`status`/`queue`/`drain`/`policy`/`metrics`/
//!   `advance`/`checkpoint`/`restore`/`shutdown`/`crash`);
//! * [`reactor`] — the nonblocking readiness loop (raw-syscall epoll
//!   via [`sys`]) multiplexing every connection and running every
//!   engine shard on the same thread;
//! * [`router`] — the deterministic shard router (`id % shards`) and
//!   aggregate-reply merging for broadcast operations;
//! * [`replica`] — warm standby per shard: the panic boundary around
//!   every engine call and exact-state promotion of a dead engine's
//!   log on failover;
//! * [`server`] — bind/start/stop lifecycle around the reactor, fresh
//!   or from a checkpoint of any size;
//! * [`client`] — a tiny blocking client used by the tests.
//!
//! Determinism: under a virtual clock ([`Clock::Virtual`](clock::Clock::Virtual))
//! same-instant submissions are admitted in job-id order no matter which
//! connection delivered them first, so a served workload's schedule is
//! bit-identical to a batch [`simulate`](jobsched_sim::simulate) run —
//! the integration tests pin this across all 13 paper algorithm combos.
//! Sharding preserves it shard-wise: shard k of N owns the job ids
//! `≡ k (mod N)` and schedules them exactly as a single-shard daemon
//! (or batch run) fed only that residue class.

pub mod client;
pub mod clock;
pub mod engine;
pub mod log;
pub mod protocol;
pub mod reactor;
pub mod replica;
pub mod router;
pub mod server;
pub mod sys;

use jobsched_algos::spec::PolicyKind;
use jobsched_algos::view::WeightScheme;
use jobsched_algos::{AlgorithmSpec, BackfillMode, ListScheduler};
use std::time::Duration;

/// Which scheduler the daemon runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulerSpec {
    /// One cell of the paper's evaluation matrix.
    List(AlgorithmSpec),
    /// The §7 day/night switching combination (SMART-FFIA + EASY by day,
    /// Garey & Graham by night).
    PaperSwitch,
}

impl SchedulerSpec {
    /// Parse a spec label: a policy (`fcfs`, `psrs`, `smart-ffia`,
    /// `smart-nfiw`, `garey-graham`, or a priority scoring rule such as
    /// `sjf`, `wfp3`, `unicef`) optionally suffixed with a backfill mode
    /// (`+none`, `+cons`, `+easy`), or `paper-switch`.
    pub fn parse(s: &str) -> Result<Self, String> {
        if s == "paper-switch" {
            return Ok(SchedulerSpec::PaperSwitch);
        }
        let (policy, backfill) = match s.split_once('+') {
            Some((p, b)) => (p, b),
            None => (s, "none"),
        };
        // The time-shared kinds have tags but are not servable.
        let kind = PolicyKind::from_tag(policy)
            .filter(|k| !k.time_shared())
            .ok_or_else(|| format!("unknown scheduling policy '{policy}'"))?;
        let backfill = BackfillMode::from_tag(backfill)
            .ok_or_else(|| format!("unknown backfill mode '{backfill}'"))?;
        Ok(SchedulerSpec::List(AlgorithmSpec::new(kind, backfill)))
    }

    /// Canonical label that [`SchedulerSpec::parse`] accepts back —
    /// what checkpoints store.
    pub fn label(&self) -> String {
        match self {
            SchedulerSpec::PaperSwitch => "paper-switch".into(),
            SchedulerSpec::List(spec) => {
                let policy = spec.kind.tag();
                // Checkpoints store the short `cons`.
                let backfill = match spec.backfill {
                    BackfillMode::Conservative => "cons",
                    other => other.tag(),
                };
                format!("{policy}+{backfill}")
            }
        }
    }

    /// Materialise the scheduler (unweighted, as in Tables 3–6).
    pub fn build(&self) -> ListScheduler {
        match self {
            SchedulerSpec::List(spec) => spec.build(WeightScheme::Unweighted),
            SchedulerSpec::PaperSwitch => ListScheduler::paper_combination(),
        }
    }
}

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Nodes of the served machine.
    pub machine_nodes: u32,
    /// Which scheduler to run.
    pub scheduler: SchedulerSpec,
    /// Admission control: submissions beyond this many waiting (queued +
    /// future-dated) jobs are rejected with `backpressure`.
    pub queue_bound: usize,
    /// Concurrent client connections beyond this are turned away.
    pub max_connections: usize,
    /// A connection that stays silent this long is dropped.
    pub read_timeout: Duration,
    /// `true`: virtual time, advanced only by the `advance` command.
    /// `false`: scaled wall-clock time.
    pub virtual_clock: bool,
    /// Simulated seconds per real second (wall clock only).
    pub time_scale: f64,
    /// Completed-job records kept for `status` queries; older ones are
    /// retired to keep daemon memory bounded.
    pub retain_completed: usize,
    /// Engine shards. Each shard is an independent `machine_nodes`-node
    /// machine owning the job ids in its residue class (`id % shards`);
    /// total cluster capacity is `shards × machine_nodes`.
    pub shards: usize,
    /// Keep each shard promotable: when a shard dies (the `crash` op,
    /// or a panic inside its engine) replay its input log into a fresh
    /// engine, with exact state. Without it the dead shard's jobs
    /// answer `unavailable`.
    pub replica: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            machine_nodes: 256, // the CTC machine of §6.1
            scheduler: SchedulerSpec::List(AlgorithmSpec::reference()),
            queue_bound: 10_000,
            max_connections: 64,
            read_timeout: Duration::from_secs(30),
            virtual_clock: false,
            time_scale: 1.0,
            retain_completed: 10_000,
            shards: 1,
            replica: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_spec_labels_roundtrip() {
        for spec in AlgorithmSpec::paper_matrix() {
            let s = SchedulerSpec::List(spec);
            assert_eq!(SchedulerSpec::parse(&s.label()).unwrap(), s);
        }
        let s = SchedulerSpec::PaperSwitch;
        assert_eq!(SchedulerSpec::parse(&s.label()).unwrap(), s);
    }

    #[test]
    fn scheduler_spec_parses_shorthand() {
        assert_eq!(
            SchedulerSpec::parse("fcfs").unwrap(),
            SchedulerSpec::List(AlgorithmSpec::new(PolicyKind::Fcfs, BackfillMode::None))
        );
        assert_eq!(
            SchedulerSpec::parse("fcfs+easy").unwrap(),
            SchedulerSpec::List(AlgorithmSpec::reference())
        );
        assert!(SchedulerSpec::parse("lifo").is_err());
        // Time-shared kinds have a tag but no servable scheduler.
        assert!(SchedulerSpec::parse("dfrs").is_err());
        assert!(SchedulerSpec::parse("fcfs+optimistic").is_err());
    }

    #[test]
    fn only_the_paper_switch_builds_forceable_regimes() {
        let mut s = SchedulerSpec::PaperSwitch.build();
        assert!(s.force_regime(Some(true)));
        assert_eq!(s.forced_regime(), Some(true));
        let mut l = SchedulerSpec::parse("fcfs+easy").unwrap().build();
        assert!(!l.force_regime(Some(true)));
        assert_eq!(l.forced_regime(), None);
    }
}
