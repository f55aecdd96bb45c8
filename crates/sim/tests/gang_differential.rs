//! Differential pin: the gang policy over the segment engine
//! ([`GangFcfsTs`]) against a monolithic reference loop
//! ([`simulate_gang_fcfs`], file-local: it was the production
//! implementation until the engine replaced it and lives on only here).
//!
//! The monolithic loop is the *policy* baseline: per-job completions,
//! makespan, average response time and peak context count must agree
//! exactly. The engine run additionally materialises a full
//! [`ScheduleRecord`], so its segment unions are audited with
//! [`check_segments`] — capacity, no self-overlap, charged time equal
//! to the effective runtime — which the monolithic loop never could.
//!
//! One asymmetry is deliberate: when the system drains exactly at a
//! slice boundary and refills in the same instant, the monolithic loop
//! marks a zero-length activation (first start with no cycles) that a
//! segment union cannot represent, so first starts are pinned as
//! engine ≥ monolithic with equal completions.

use jobsched_oracle::check_segments;
use jobsched_sim::gang::{GangConfig, GangFcfsTs};
use jobsched_sim::{simulate_time_shared, Segment};
use jobsched_workload::rng::{derive_seed, Rng, SmallRng};
use jobsched_workload::{JobBuilder, JobId, Time, Workload};

fn job(id: u32, submit: Time, nodes: u32, runtime: Time) -> jobsched_workload::Job {
    JobBuilder::new(JobId(id))
        .submit(submit)
        .nodes(nodes)
        .requested(runtime)
        .runtime(runtime)
        .build()
}

/// Outcome of the reference loop. Execution is non-contiguous and the
/// loop keeps no spans, so only first start and completion are recorded.
#[derive(Clone, Debug)]
struct GangOutcome {
    /// First time each job received cycles.
    first_start: Vec<Time>,
    /// Completion time of each job.
    completion: Vec<Time>,
    /// Number of contexts that existed simultaneously at the peak.
    peak_contexts: usize,
}

impl GangOutcome {
    /// Average response time over the workload.
    fn avg_response_time(&self, workload: &Workload) -> f64 {
        if workload.is_empty() {
            return 0.0;
        }
        workload
            .jobs()
            .iter()
            .map(|j| (self.completion[j.id.index()] - j.submit) as f64)
            .sum::<f64>()
            / workload.len() as f64
    }

    /// Latest completion.
    fn makespan(&self) -> Time {
        self.completion.iter().copied().max().unwrap_or(0)
    }
}

#[derive(Clone, Copy, Debug)]
struct GangJob {
    id: JobId,
    nodes: u32,
    remaining: Time,
    started: bool,
}

#[derive(Clone, Debug, Default)]
struct Context {
    jobs: Vec<GangJob>,
    used: u32,
}

impl Context {
    fn fits(&self, nodes: u32, machine: u32) -> bool {
        self.used + nodes <= machine
    }
    fn push(&mut self, job: GangJob) {
        self.used += job.nodes;
        self.jobs.push(job);
    }
}

/// The reference: FCFS gang scheduling as one monolithic loop that owns
/// its own clock and progress accounting, sharing nothing with the
/// segment engine. Context switches are free.
///
/// Panics on jobs wider than the machine.
fn simulate_gang_fcfs(workload: &Workload, config: GangConfig) -> GangOutcome {
    let machine = workload.machine_nodes();
    let slice = config.time_slice.max(1);
    let n = workload.len();
    let mut first_start = vec![Time::MAX; n];
    let mut completion = vec![Time::MAX; n];
    let mut contexts: Vec<Context> = Vec::new();
    let mut active: usize = 0;
    let mut peak_contexts = 0usize;

    let mut next_submit = 0usize; // index into workload jobs (sorted by submit)
    let jobs = workload.jobs();
    let mut t: Time = if jobs.is_empty() { 0 } else { jobs[0].submit };
    // FCFS backlog of jobs that no context can hold yet (bounded MPL).
    let mut pending: std::collections::VecDeque<GangJob> = std::collections::VecDeque::new();
    let max_contexts = config.max_contexts.max(1);

    let mut slice_end = t + slice;
    loop {
        // Admit all jobs submitted up to t into the FCFS backlog.
        while next_submit < n && jobs[next_submit].submit <= t {
            let j = &jobs[next_submit];
            assert!(j.nodes <= machine, "job wider than machine");
            pending.push_back(GangJob {
                id: j.id,
                nodes: j.nodes,
                remaining: j.effective_runtime().max(1),
                started: false,
            });
            next_submit += 1;
        }
        // FCFS placement: head joins the first context with room, or a
        // new context while the multiprogramming level allows one.
        while let Some(&head) = pending.front() {
            if let Some(c) = contexts.iter_mut().find(|c| c.fits(head.nodes, machine)) {
                c.push(head);
            } else if contexts.len() < max_contexts {
                let mut c = Context::default();
                c.push(head);
                contexts.push(c);
            } else {
                break;
            }
            pending.pop_front();
        }
        peak_contexts = peak_contexts.max(contexts.len());

        if contexts.is_empty() {
            // Idle: jump to the next submission (or finish).
            match jobs.get(next_submit) {
                Some(j) => {
                    t = j.submit;
                    slice_end = t + slice;
                    continue;
                }
                None => break,
            }
        }

        active = active.min(contexts.len() - 1);
        // Mark first starts for the active context.
        for gj in &mut contexts[active].jobs {
            if !gj.started {
                gj.started = true;
                first_start[gj.id.index()] = first_start[gj.id.index()].min(t);
            }
        }

        // The next event: earliest completion in the active context, the
        // slice boundary, or the next submission.
        let earliest_completion = contexts[active]
            .jobs
            .iter()
            .map(|gj| t + gj.remaining)
            .min()
            .expect("active context non-empty");
        let next_submission = jobs.get(next_submit).map(|j| j.submit);
        let mut next_t = earliest_completion.min(slice_end);
        if let Some(s) = next_submission {
            next_t = next_t.min(s);
        }

        // Progress the active context by the elapsed span.
        let elapsed = next_t - t;
        let ctx = &mut contexts[active];
        let mut freed = 0u32;
        ctx.jobs.retain_mut(|gj| {
            gj.remaining -= elapsed.min(gj.remaining);
            if gj.remaining == 0 {
                completion[gj.id.index()] = next_t;
                freed += gj.nodes;
                false
            } else {
                true
            }
        });
        ctx.used -= freed;
        t = next_t;

        // Drop empty contexts (keep rotation fair by adjusting `active`).
        let before = contexts.len();
        let active_ptr = active;
        contexts.retain(|c| !c.jobs.is_empty());
        if contexts.len() < before && active_ptr >= contexts.len() {
            active = 0;
        }

        if t >= slice_end && !contexts.is_empty() {
            // Context switch: rotate.
            active = (active + 1) % contexts.len();
            slice_end = t + slice;
        }

        if contexts.is_empty() && pending.is_empty() && next_submit >= n {
            break;
        }
    }

    GangOutcome {
        first_start,
        completion,
        peak_contexts,
    }
}

/// Run both implementations and pin their agreement.
fn differential(w: &Workload, config: GangConfig) {
    let mono = simulate_gang_fcfs(w, config);
    let mut ts = GangFcfsTs::new(config);
    let out = simulate_time_shared(w, &mut ts);

    for j in w.jobs() {
        let p = out
            .schedule
            .placement(j.id)
            .unwrap_or_else(|| panic!("job {} never finished in the engine", j.id));
        assert_eq!(
            p.completion,
            mono.completion[j.id.index()],
            "job {} completion diverges (start {} vs mono first start {})",
            j.id,
            p.start,
            mono.first_start[j.id.index()]
        );
        assert!(
            p.start >= mono.first_start[j.id.index()],
            "job {} engine start {} before mono first start {}",
            j.id,
            p.start,
            mono.first_start[j.id.index()]
        );
        assert_eq!(
            out.schedule.charged_time(j.id),
            Some(j.effective_runtime()),
            "job {} charge",
            j.id
        );
    }
    assert_eq!(out.schedule.makespan(), mono.makespan());
    let mono_art = mono.avg_response_time(w);
    let ts_art: f64 = w
        .jobs()
        .iter()
        .map(|j| (out.schedule.placement(j.id).unwrap().completion - j.submit) as f64)
        .sum::<f64>()
        / w.len().max(1) as f64;
    assert!(
        (mono_art - ts_art).abs() < 1e-9,
        "ART diverges: mono {mono_art} vs engine {ts_art}"
    );
    assert_eq!(ts.peak_contexts, mono.peak_contexts, "peak contexts");

    // The engine side is additionally auditable: its segment unions
    // must respect machine capacity, stay disjoint per job, and charge
    // exactly the effective runtime.
    let spans: Vec<(JobId, Vec<Segment>)> = w
        .jobs()
        .iter()
        .map(|j| (j.id, out.schedule.charged_spans(j.id, j.nodes).unwrap()))
        .collect();
    let audit: Vec<(JobId, &[Segment], Option<Time>)> = w
        .jobs()
        .iter()
        .map(|j| {
            (
                j.id,
                spans[j.id.index()].1.as_slice(),
                Some(j.effective_runtime()),
            )
        })
        .collect();
    let violations = check_segments(w.machine_nodes(), &audit);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn directed_scenarios_agree() {
    let cases: Vec<Vec<jobsched_workload::Job>> = vec![
        // Single job, contiguous.
        vec![job(0, 5, 4, 100)],
        // One context shared by two jobs.
        vec![job(0, 0, 4, 100), job(1, 0, 4, 100)],
        // Two full-machine gangs alternating slices.
        vec![job(0, 0, 10, 600), job(1, 0, 10, 600)],
        // Short job not stuck behind a hog.
        vec![job(0, 0, 10, 100_000), job(1, 1, 10, 600)],
        // Backlog beyond the multiprogramming level.
        vec![
            job(0, 0, 10, 1_000),
            job(1, 0, 10, 1_000),
            job(2, 0, 10, 1_000),
            job(3, 0, 10, 1_000),
            job(4, 0, 10, 1_000),
        ],
        // Idle gap between two bursts (slice clock re-phases).
        vec![
            job(0, 0, 6, 50),
            job(1, 10_000, 6, 50),
            job(2, 10_000, 6, 50),
        ],
        // Completion exactly on a slice boundary (slice 600 divides).
        vec![job(0, 0, 10, 600), job(1, 0, 10, 1_200), job(2, 0, 10, 600)],
    ];
    for (i, jobs) in cases.into_iter().enumerate() {
        let w = Workload::new(format!("gang-case-{i}"), 10, jobs);
        for max_contexts in [1, 2, 3] {
            differential(
                &w,
                GangConfig {
                    time_slice: 600,
                    max_contexts,
                },
            );
        }
    }
}

#[test]
fn randomized_workloads_agree_across_configs() {
    const MACHINE: u32 = 16;
    for seed in 0..60u64 {
        let mut rng = SmallRng::seed_from_u64(derive_seed(0x6A9C_0FF5, seed));
        let n = rng.random_range(1usize..40);
        let mut submit: Time = 0;
        let jobs: Vec<_> = (0..n)
            .map(|i| {
                // Clustered arrivals keep several contexts alive; the
                // coarse time grid makes boundary coincidences common.
                submit += rng.random_range(0u64..=3) * rng.random_range(1u64..400);
                let nodes = rng.random_range(1u32..=MACHINE);
                let runtime = rng.random_range(1u64..=40) * rng.random_range(1u64..=60);
                job(i as u32, submit, nodes, runtime)
            })
            .collect();
        let w = Workload::new(format!("gang-fuzz-{seed}"), MACHINE, jobs);
        for (slice, max_contexts) in [(1, 2), (7, 3), (100, 3), (600, 2), (600, 5)] {
            differential(
                &w,
                GangConfig {
                    time_slice: slice,
                    max_contexts,
                },
            );
        }
    }
}
