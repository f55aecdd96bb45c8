//! The batch reference loop.
//!
//! Every production run goes through [`jobsched_sim::LiveSim`]. This is
//! the monolithic loop it replaced: every submission and fault queued up
//! front, lifecycle flags in dense per-job vectors, the schedule written
//! to an allocation tape. It shares only the [`Machine`] and the
//! [`EventQueue`] with the live loop, so [`crate::stream_differential`]
//! can demand the two agree on every scenario. It meters nothing: its
//! [`SimOutcome::scheduler_cpu`] is zero, a field the differential
//! ignores.

use crate::schedule::ScheduleTape;
use jobsched_sim::event::{Event, EventQueue};
use jobsched_sim::{
    CancelPhase, DrainToken, FaultOutcome, FaultPlan, JobRequest, Machine, Scheduler, SimOutcome,
};
use jobsched_workload::{JobId, Time, Workload};
use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

/// Run `scheduler` against `workload` with the batch reference loop:
/// [`simulate_batch_with_faults`] on an empty plan.
///
/// Panics if the scheduler violates its contract (starting an unknown or
/// oversubscribed job, or deadlocking with a non-empty queue on an idle
/// machine) — these are algorithm bugs, not recoverable conditions.
pub fn simulate_batch(workload: &Workload, scheduler: &mut dyn Scheduler) -> SimOutcome {
    simulate_batch_with_faults(workload, scheduler, &FaultPlan::default())
}

/// Run `scheduler` against `workload` while injecting the cancellations,
/// node drains and preemptions of `faults`, with the batch reference
/// loop. The fault semantics are [`jobsched_sim::simulate_with_faults`]'s.
pub fn simulate_batch_with_faults(
    workload: &Workload,
    scheduler: &mut dyn Scheduler,
    faults: &FaultPlan,
) -> SimOutcome {
    let mut machine = match workload.layout() {
        Some(layout) => Machine::with_layout(layout.clone()),
        None => Machine::new(workload.machine_nodes()),
    };
    let mut events = EventQueue::new();
    let mut tape = ScheduleTape::new(workload.machine_nodes(), workload.len());
    for job in workload.jobs() {
        events.push(job.submit, Event::Submit(job.id));
    }
    for c in &faults.cancels {
        assert!(c.id.index() < workload.len(), "cancel of unknown job");
        events.push(c.at, Event::Cancel(c.id));
    }
    let mut drain_tokens: Vec<Option<DrainToken>> = Vec::new();
    for (i, d) in faults.drains.iter().enumerate() {
        drain_tokens.push(None);
        assert!(
            d.class.index() < machine.class_count(),
            "drain targets unknown node class {}",
            d.class
        );
        if d.until > d.at {
            events.push(d.at, Event::Drain(i as u32));
            events.push(d.until, Event::Undrain(i as u32));
        }
    }
    // Per-job FIFO of planned resume instants, in preemption-time order:
    // Preempt events for one job pop by time, so the fronts line up.
    let mut resume_plans: BTreeMap<JobId, VecDeque<Time>> = BTreeMap::new();
    {
        let mut by_job: BTreeMap<JobId, Vec<(Time, Time)>> = BTreeMap::new();
        for p in &faults.preempts {
            assert!(p.id.index() < workload.len(), "preempt of unknown job");
            by_job.entry(p.id).or_default().push((p.at, p.resume_at));
        }
        for (id, mut plans) in by_job {
            plans.sort_by_key(|&(at, _)| at);
            for &(at, resume_at) in &plans {
                events.push(at, Event::Preempt(id));
                resume_plans.entry(id).or_default().push_back(resume_at);
            }
        }
    }

    let mut n_events = 0u64;
    let mut rounds = 0u64;
    let mut peak_queue = 0usize;
    let mut fault_log = Vec::new();
    // Lifecycle flags, indexed by job: cancelled jobs must never (re)enter
    // the system; submitted/running distinguish the cancellation phases.
    let mut cancelled = vec![false; workload.len()];
    let mut submitted = vec![false; workload.len()];
    // Preemption bookkeeping, indexed by job. `consumed` is the seconds
    // of effective runtime already executed in closed spans; `awaiting`
    // marks jobs between preemption and resume, `requeued` jobs between
    // resume and restart. `expected_finish` lazily invalidates Finish
    // events left in the heap by a preempted placement.
    let mut consumed: Vec<Time> = vec![0; workload.len()];
    let mut awaiting = vec![false; workload.len()];
    let mut requeued = vec![false; workload.len()];
    let mut expected_finish: Vec<Option<Time>> = vec![None; workload.len()];

    let mut batch = Vec::new();
    while let Some(now) = events.pop_batch(&mut batch) {
        for &ev in &batch {
            n_events += 1;
            match ev {
                Event::Submit(id) => {
                    if cancelled[id.index()] {
                        continue; // cancelled before submission: never enters
                    }
                    submitted[id.index()] = true;
                    let job = workload.job(id);
                    let mut req = JobRequest::from(job);
                    req.class = machine
                        .resolve_class(job.node_type, job.memory_mb, job.nodes)
                        .unwrap_or_else(|| {
                            panic!("job {id} has no eligible node class on this machine")
                        });
                    scheduler.submit(req, now);
                }
                Event::Finish(id) => {
                    if cancelled[id.index()] {
                        continue; // killed mid-run: resources already released
                    }
                    if expected_finish[id.index()] != Some(now) {
                        continue; // stale: the placement was preempted
                    }
                    expected_finish[id.index()] = None;
                    machine.finish(id).expect("finish event for running job");
                    scheduler.job_finished(id, now);
                }
                Event::Preempt(id) => {
                    let resume_at = resume_plans
                        .get_mut(&id)
                        .and_then(|q| q.pop_front())
                        .expect("queued preempt has a planned resume");
                    if cancelled[id.index()] || !machine.running().iter().any(|s| s.id == id) {
                        fault_log.push(FaultOutcome::Preempted {
                            id,
                            at: now,
                            applied: false,
                            resume_at,
                        });
                        continue;
                    }
                    let slot = machine.finish(id).expect("checked running");
                    consumed[id.index()] += now - slot.start;
                    tape.preempt_at(id, now, slot.nodes);
                    expected_finish[id.index()] = None;
                    awaiting[id.index()] = true;
                    scheduler.job_finished(id, now);
                    let resume_at = resume_at.max(now + 1);
                    events.push(resume_at, Event::Resume(id));
                    fault_log.push(FaultOutcome::Preempted {
                        id,
                        at: now,
                        applied: true,
                        resume_at,
                    });
                }
                Event::Resume(id) => {
                    if cancelled[id.index()] {
                        continue; // cancelled while preempted: stays out
                    }
                    assert!(awaiting[id.index()], "resume without a pending preempt");
                    awaiting[id.index()] = false;
                    requeued[id.index()] = true;
                    let job = workload.job(id);
                    let mut req = JobRequest::from(job);
                    req.submit = now;
                    req.requested_time = job.requested_time - consumed[id.index()];
                    req.class = machine
                        .resolve_class(job.node_type, job.memory_mb, job.nodes)
                        .expect("resolved at submit");
                    scheduler.submit(req, now);
                }
                Event::Cancel(id) => {
                    if cancelled[id.index()] {
                        continue; // duplicate cancellation
                    }
                    let phase = if !submitted[id.index()] {
                        cancelled[id.index()] = true;
                        CancelPhase::PreSubmit
                    } else if machine.running().iter().any(|s| s.id == id) {
                        cancelled[id.index()] = true;
                        machine.finish(id).expect("cancelling a running job");
                        tape.cancel_at(id, now);
                        scheduler.job_finished(id, now);
                        CancelPhase::Running
                    } else if awaiting[id.index()] || requeued[id.index()] {
                        cancelled[id.index()] = true;
                        tape.cancel_at(id, now);
                        if requeued[id.index()] {
                            // The scheduler holds the remainder; retract it.
                            scheduler.cancel(id, now);
                        }
                        CancelPhase::Preempted
                    } else if !tape.is_placed(id) {
                        cancelled[id.index()] = true;
                        scheduler.cancel(id, now);
                        CancelPhase::Queued
                    } else {
                        CancelPhase::AlreadyFinished // too late: no-op
                    };
                    fault_log.push(FaultOutcome::Cancelled { id, at: now, phase });
                }
                Event::Drain(idx) => {
                    let d = faults.drains[idx as usize];
                    let granted = d.nodes.min(machine.free_in(d.class));
                    if granted > 0 {
                        let token = machine
                            .drain_in(d.class, granted, d.until)
                            .expect("granted <= free");
                        drain_tokens[idx as usize] = Some(token);
                        scheduler.capacity_changed(now);
                    }
                    fault_log.push(FaultOutcome::Drained {
                        at: now,
                        class: d.class,
                        requested: d.nodes,
                        granted,
                        until: d.until,
                    });
                }
                Event::Undrain(idx) => {
                    if let Some(token) = drain_tokens[idx as usize].take() {
                        machine.undrain(token).expect("token taken exactly once");
                        scheduler.capacity_changed(now);
                    }
                }
                Event::Wakeup => {} // decision round below is the effect
            }
        }
        peak_queue = peak_queue.max(scheduler.queue_len());

        // Let the scheduler start jobs until it has nothing more to start.
        loop {
            let starts = scheduler.select_starts(now, &machine);
            rounds += 1;
            if starts.is_empty() {
                break;
            }
            for id in starts {
                assert!(
                    !cancelled[id.index()],
                    "scheduler {} started cancelled job {id}",
                    scheduler.name()
                );
                let job = workload.job(id);
                let class = machine
                    .resolve_class(job.node_type, job.memory_mb, job.nodes)
                    .expect("resolved at submit");
                // A restart after preemption runs (and is projected) for
                // the unconsumed remainder only.
                let done = consumed[id.index()];
                machine
                    .start_in(class, id, job.nodes, now, now + (job.requested_time - done))
                    .unwrap_or_else(|e| {
                        panic!("scheduler {} broke validity: {e}", scheduler.name())
                    });
                let completion = now + (job.effective_runtime() - done);
                if done > 0 {
                    tape.resume_place(id, now, completion, job.nodes);
                    requeued[id.index()] = false;
                } else {
                    tape.place(id, now, completion);
                }
                expected_finish[id.index()] = Some(completion);
                events.push(completion, Event::Finish(id));
            }
        }

        // Schedule a wakeup if the scheduler asks for one (dedup: skip if
        // an event at or before that instant already exists).
        if scheduler.queue_len() > 0 {
            if let Some(t) = scheduler.next_wakeup(now) {
                assert!(t > now, "wakeup must be in the future");
                if events.peek_time().is_none_or(|next| t < next) {
                    events.push(t, Event::Wakeup);
                }
            }
        }

        // Deadlock check: idle machine, empty event horizon, jobs waiting.
        if events.is_empty() && scheduler.queue_len() > 0 {
            assert!(
                machine.running().is_empty(),
                "event queue empty with jobs still running"
            );
            panic!(
                "scheduler {} deadlocked: {} jobs waiting on an idle machine",
                scheduler.name(),
                scheduler.queue_len()
            );
        }
    }

    SimOutcome {
        schedule: tape.into_record(),
        scheduler_cpu: Duration::ZERO,
        events: n_events,
        decision_rounds: rounds,
        peak_queue,
        faults: fault_log,
    }
}
