//! The tuner demonstration: drive an in-process serve [`Engine`] under
//! its virtual clock, poll the `metrics` op on a fixed cadence, feed
//! every snapshot to the [`Controller`], and apply whatever `policy set`
//! switches it decides — then run the identical trace again with the
//! controller muted and compare the learned objective.
//!
//! Everything speaks the daemon's public protocol: submissions, time
//! advancement, metric polling and the policy switch all go through
//! [`Request`]s, so the demo exercises exactly the surface a remote
//! tuner process would. Under the virtual clock the pair of runs is
//! bit-reproducible.

use crate::controller::{Controller, Switch, TunerConfig};
use crate::fit::Fit;
use jobsched_core::objective_select::ObjectiveKind;
use jobsched_json::Json;
use jobsched_metrics::MetricsSnapshot;
use jobsched_serve::engine::Engine;
use jobsched_serve::protocol::Request;
use jobsched_serve::{SchedulerSpec, ServeConfig};
use jobsched_sweep::atlas::ParetoGroup;
use jobsched_sweep::WorkloadSpec;
use jobsched_workload::Time;

/// Workload generator seed of the demo trace.
const SEED: u64 = 1999;

/// Metrics polling cadence, simulated seconds.
const POLL: Time = 900;

/// Scheduler label the daemon starts on: a deliberately poor atlas row,
/// so the tuner has something to do.
pub(crate) const INITIAL: &str = "ljf+none";

/// Atlas workload group steering the controller.
const WORKLOAD: &str = "ctc";

/// One completed daemon run.
#[derive(Clone, Debug)]
pub struct DemoRun {
    /// Scheduler display name the daemon reported at the end.
    pub final_scheduler: String,
    /// Switches the controller fired (empty for the static run).
    pub switches: Vec<Switch>,
    /// Final cumulative metrics.
    pub snapshot: MetricsSnapshot,
    /// Learned objective over the final metrics (lower is better).
    pub objective: f64,
}

/// Tuned-vs-static comparison.
#[derive(Clone, Debug)]
pub struct DemoOutcome {
    /// The run with the controller in the loop.
    pub tuned: DemoRun,
    /// The identical trace under the static initial scheduler.
    pub baseline: DemoRun,
    /// Streamable objectives the controller steered by.
    pub objectives: Vec<ObjectiveKind>,
    /// Restricted, renormalised weights over `objectives`.
    pub weights: Vec<f64>,
    /// Relative improvement of the learned objective,
    /// `(baseline − tuned) / baseline`.
    pub improvement: f64,
}

fn expect_ok(reply: &Json, what: &str) -> Result<(), String> {
    match reply.get("ok").and_then(|v| v.as_bool()) {
        Some(true) => Ok(()),
        _ => Err(format!(
            "daemon rejected {what}: {}",
            reply.to_string_compact()
        )),
    }
}

fn num(reply: &Json, key: &str) -> Result<f64, String> {
    reply
        .get(key)
        .and_then(|v| v.as_f64())
        .ok_or_else(|| format!("metrics reply missing '{key}'"))
}

fn uint(reply: &Json, key: &str) -> Result<u64, String> {
    reply
        .get(key)
        .and_then(|v| v.as_u64())
        .ok_or_else(|| format!("metrics reply missing '{key}'"))
}

/// Rebuild a [`MetricsSnapshot`] from a `metrics` reply.
fn snapshot_of(reply: &Json) -> Result<MetricsSnapshot, String> {
    Ok(MetricsSnapshot {
        jobs_submitted: uint(reply, "jobs_submitted")?,
        jobs_started: uint(reply, "jobs_started")?,
        jobs_finished: uint(reply, "jobs_finished")?,
        jobs_cancelled: uint(reply, "jobs_cancelled")?,
        art: num(reply, "art")?,
        awrt: num(reply, "awrt")?,
        bounded_slowdown: num(reply, "bounded_slowdown")?,
        utilization: num(reply, "utilization")?,
        makespan: uint(reply, "makespan")?,
    })
}

fn run_one(group: &ParetoGroup, fit: &Fit, jobs: usize, adaptive: bool) -> Result<DemoRun, String> {
    let workload = WorkloadSpec::Ctc { jobs, seed: SEED }.generate();
    let mut controller = Controller::new(group, fit, INITIAL, TunerConfig::default())?;

    let mut engine = Engine::new(ServeConfig {
        machine_nodes: 430, // the full CTC machine: every trace job fits
        scheduler: SchedulerSpec::parse(INITIAL)?,
        queue_bound: jobs + 16,
        virtual_clock: true,
        ..ServeConfig::default()
    });
    let mut handle = |req: Request, what: &str| -> Result<Json, String> {
        let (reply, _) = engine.handle(req);
        expect_ok(&reply, what)?;
        Ok(reply)
    };

    let mut horizon = 0;
    for job in workload.jobs() {
        horizon = horizon.max(job.submit);
        handle(
            Request::Submit {
                id: None,
                at: Some(job.submit),
                nodes: job.nodes,
                requested: job.requested_time,
                runtime: job.runtime,
                user: job.user,
            },
            "submit",
        )?;
    }
    let total = workload.jobs().len() as u64;

    // Poll until every job finished. The cadence — and therefore the
    // observation sequence — is identical for both runs.
    let mut t = 0;
    let mut snap;
    loop {
        t += POLL;
        handle(Request::Advance { to: Some(t) }, "advance")?;
        let reply = handle(Request::Metrics, "metrics")?;
        snap = snapshot_of(&reply)?;
        if let Some(label) = controller.observe(t, &snap) {
            if adaptive {
                handle(
                    Request::Policy {
                        force: None,
                        list: false,
                        set: Some(label),
                    },
                    "policy set",
                )?;
            }
        }
        if snap.jobs_finished + snap.jobs_cancelled >= total && t >= horizon {
            break;
        }
        if t > horizon + 400 * 24 * 3600 {
            return Err(format!(
                "demo did not converge: {}/{total} jobs finished by t={t}",
                snap.jobs_finished
            ));
        }
    }
    // Drain any queued residue and take the final reading.
    handle(Request::Advance { to: None }, "drain")?;
    let reply = handle(Request::Metrics, "metrics")?;
    snap = snapshot_of(&reply)?;
    let final_scheduler = reply
        .get("scheduler")
        .and_then(|v| v.as_str())
        .ok_or("metrics reply missing 'scheduler'")?
        .to_string();
    Ok(DemoRun {
        final_scheduler,
        switches: if adaptive {
            controller.switches.clone()
        } else {
            // The muted run records what the controller *would* have
            // done only implicitly; its daemon never switched.
            Vec::new()
        },
        objective: controller.score(&snap),
        snapshot: snap,
    })
}

/// Run the tuned and static daemons over the same `jobs`-job CTC trace,
/// steered by the `ctc` group of the atlas's Pareto `groups`, and
/// compare.
pub fn run_demo(groups: &[ParetoGroup], fit: &Fit, jobs: usize) -> Result<DemoOutcome, String> {
    let group = groups
        .iter()
        .find(|g| g.workload == WORKLOAD)
        .ok_or_else(|| format!("atlas has no workload group '{WORKLOAD}'"))?;
    let probe = Controller::new(group, fit, INITIAL, TunerConfig::default())?;
    let objectives = probe.observed_objectives().to_vec();
    let weights = probe.observed_weights().to_vec();
    let tuned = run_one(group, fit, jobs, true)?;
    let baseline = run_one(group, fit, jobs, false)?;
    let improvement = if baseline.objective > 0.0 {
        (baseline.objective - tuned.objective) / baseline.objective
    } else {
        0.0
    };
    Ok(DemoOutcome {
        tuned,
        baseline,
        objectives,
        weights,
        improvement,
    })
}
