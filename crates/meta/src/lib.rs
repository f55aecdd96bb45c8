//! Multi-cluster metascheduling over independent simulated sites.
//!
//! §8 of the paper closes with the observation that scheduling for
//! "metacomputing environments ... where several independent sites are
//! connected" raises design questions the single-machine study cannot
//! answer. This crate provides the experimental apparatus for that
//! question: a [`MetaScheduler`] owning N simulated clusters — each an
//! independent [`LiveSim`] with its own node-class layout and its own
//! local list scheduler — and a pluggable [`RoutingPolicy`] that decides,
//! at submission time, which site a job enters.
//!
//! The division of labour mirrors real metaschedulers: the *router* is
//! global and sees only public cluster state (queue lengths, per-class
//! free capacity, availability calendars); the *local* scheduler at each
//! site retains full authority over starts, exactly as in the
//! single-cluster experiments. Local schedulers keep the paper's online
//! information model — they never see actual runtimes.
//!
//! On top of one-shot routing the metascheduler optionally *forwards* a
//! still-queued job to another site: when a job's local wait estimate
//! has degraded — its site promises no immediate start while another
//! site could start it right now — the job is cancelled locally and
//! resubmitted there (at most once per job, so routing mistakes cannot
//! ping-pong). Response times are always charged against the *original*
//! submission instant, so forwarding pays for its own queueing detour.
//!
//! [`report`] runs the committed single-cluster vs. two-site comparison
//! (`repro meta` → `BENCH_meta.json`).

pub mod report;

use jobsched_algos::ListScheduler;
use jobsched_sim::{JobEvent, LiveSim, ScheduleRecord, Scheduler, SimObserver};
use jobsched_workload::{Job, JobId, MachineLayout, Time, Workload};
use std::collections::BTreeMap;

/// Site-selection policy applied once per job at its submission instant
/// (and again on a forward).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// Cycle through the eligible sites in order. The stateless baseline:
    /// ignores all cluster state.
    RoundRobin,
    /// Fewest queued-but-not-started jobs at the local scheduler; ties go
    /// to the lower-indexed site.
    LeastLoaded,
    /// Classic best fit on the job's resolved node class: the eligible
    /// site whose free pool fits the job *most tightly* right now; if no
    /// pool fits, the one with the most free nodes (closest to fitting).
    BestFit,
    /// Earliest estimated start from the sites' availability calendars
    /// (running jobs and drains; the local backlog is invisible to the
    /// router, keeping the estimate online-computable).
    EarliestStart,
}

impl RoutingPolicy {
    /// All policies, in report order.
    pub fn all() -> [RoutingPolicy; 4] {
        [
            RoutingPolicy::RoundRobin,
            RoutingPolicy::LeastLoaded,
            RoutingPolicy::BestFit,
            RoutingPolicy::EarliestStart,
        ]
    }

    /// Stable label for reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            RoutingPolicy::RoundRobin => "round-robin",
            RoutingPolicy::LeastLoaded => "least-loaded",
            RoutingPolicy::BestFit => "best-fit",
            RoutingPolicy::EarliestStart => "earliest-start",
        }
    }
}

/// One site of the metasystem: a name for reports and the node-class
/// layout of its machine.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    /// Site name ("site-0", "wide-pool", ...).
    pub name: String,
    /// Machine layout; [`MachineLayout::single`] gives a homogeneous site.
    pub layout: MachineLayout,
}

impl ClusterSpec {
    /// A homogeneous site of `nodes` nodes.
    pub fn homogeneous(name: impl Into<String>, nodes: u32) -> Self {
        ClusterSpec {
            name: name.into(),
            layout: MachineLayout::single(nodes),
        }
    }
}

/// Collects starts and finishes out of a cluster's event stream so the
/// metascheduler can track which routed jobs are still queued.
#[derive(Default)]
struct ClusterObserver {
    started: Vec<JobId>,
    finished: Vec<(JobId, Time, Time)>,
}

impl SimObserver for ClusterObserver {
    fn on_event(&mut self, event: &JobEvent) {
        match event {
            JobEvent::Started { id, .. } => self.started.push(*id),
            JobEvent::Finished(o) => self.finished.push((o.id, o.start, o.completion)),
            // Submissions are the router's own doing; cancellations are
            // forwarding mechanics, not user faults. The metascheduler
            // injects no preemption faults, so span churn never occurs.
            JobEvent::Submitted(_)
            | JobEvent::Cancelled { .. }
            | JobEvent::Preempted { .. }
            | JobEvent::Resumed { .. } => {}
        }
    }
}

struct Cluster {
    name: String,
    sim: LiveSim,
    scheduler: ListScheduler,
    obs: ClusterObserver,
    jobs_finished: u64,
}

/// The outcome of a metascheduled run.
#[derive(Debug)]
pub struct MetaOutcome {
    /// Global schedule, keyed by the workload's job ids; `machine_nodes`
    /// is the node total across all sites.
    pub schedule: ScheduleRecord,
    /// Jobs forwarded to a second site after their estimate degraded.
    pub forwards: u64,
    /// Jobs completed per site, in [`ClusterSpec`] order.
    pub per_cluster_jobs: Vec<u64>,
    /// Site names, in the same order.
    pub cluster_names: Vec<String>,
}

/// A metascheduler over N independent simulated clusters.
///
/// Build one with the site specs, one local scheduler per site, and a
/// routing policy; [`run`](MetaScheduler::run) consumes it against a
/// workload and returns the global schedule.
pub struct MetaScheduler {
    clusters: Vec<Cluster>,
    policy: RoutingPolicy,
    forwarding: bool,
    rr_next: usize,
    /// Routed-but-not-started jobs: id → (current site, the job itself,
    /// times forwarded).
    waiting: BTreeMap<JobId, WaitingJob>,
    forwards: u64,
}

struct WaitingJob {
    cluster: usize,
    job: Job,
    forwards: u32,
}

impl MetaScheduler {
    /// A metasystem of `sites`, each driven by its paired local
    /// scheduler. Panics on an empty site list or a length mismatch.
    pub fn new(
        policy: RoutingPolicy,
        forwarding: bool,
        sites: Vec<(ClusterSpec, ListScheduler)>,
    ) -> Self {
        assert!(!sites.is_empty(), "a metasystem needs at least one site");
        let clusters = sites
            .into_iter()
            .map(|(spec, scheduler)| Cluster {
                name: spec.name,
                sim: LiveSim::with_layout(spec.layout),
                scheduler,
                obs: ClusterObserver::default(),
                jobs_finished: 0,
            })
            .collect();
        MetaScheduler {
            clusters,
            policy,
            forwarding,
            rr_next: 0,
            waiting: BTreeMap::new(),
            forwards: 0,
        }
    }

    /// Total nodes across all sites.
    pub fn total_nodes(&self) -> u32 {
        self.clusters
            .iter()
            .map(|c| c.sim.machine().total_nodes())
            .sum()
    }

    /// Route and simulate `workload` to completion. Every job must be
    /// hostable by at least one site (panics otherwise — size the
    /// workload to the smallest site, as [`report::run`] does).
    pub fn run(mut self, workload: &Workload) -> MetaOutcome {
        let n = workload.len();
        let mut record = ScheduleRecord::new(self.total_nodes(), n);
        let jobs = workload.jobs();

        let mut i = 0;
        while i < jobs.len() {
            let t = jobs[i].submit;
            self.advance(Some(t), &mut record);
            if self.forwarding {
                self.forward_pass(t);
            }
            while i < jobs.len() && jobs[i].submit == t {
                self.route(jobs[i].clone(), t);
                i += 1;
            }
        }
        self.advance(None, &mut record);

        for c in &self.clusters {
            assert_eq!(
                c.scheduler.queue_len(),
                0,
                "site {} retired with jobs still queued",
                c.name
            );
        }
        MetaOutcome {
            schedule: record,
            forwards: self.forwards,
            per_cluster_jobs: self.clusters.iter().map(|c| c.jobs_finished).collect(),
            cluster_names: self.clusters.iter().map(|c| c.name.clone()).collect(),
        }
    }

    /// Step every cluster through all events at instants ≤ `limit`
    /// (every remaining event when `None`), folding starts and finishes
    /// into the meta bookkeeping in global time order.
    fn advance(&mut self, limit: Option<Time>, record: &mut ScheduleRecord) {
        loop {
            let due = self
                .clusters
                .iter()
                .enumerate()
                .filter_map(|(i, c)| c.sim.next_event_time().map(|t| (t, i)))
                .min();
            let Some((t, idx)) = due else { break };
            if limit.is_some_and(|l| t > l) {
                break;
            }
            let c = &mut self.clusters[idx];
            c.sim
                .step(&mut c.scheduler, limit, limit.is_some(), &mut [&mut c.obs]);
            for id in std::mem::take(&mut c.obs.started) {
                self.waiting.remove(&id);
            }
            for (id, start, completion) in std::mem::take(&mut c.obs.finished) {
                record.place(id, start, completion);
                c.jobs_finished += 1;
            }
        }
    }

    /// Sites whose layout can host `job` at all.
    fn eligible(&self, job: &Job) -> Vec<usize> {
        (0..self.clusters.len())
            .filter(|&i| {
                self.clusters[i]
                    .sim
                    .machine()
                    .resolve_class(job.node_type, job.memory_mb, job.nodes)
                    .is_some()
            })
            .collect()
    }

    /// Earliest start site `idx` promises for `job` from its availability
    /// calendar (running jobs and drains; the backlog is not modelled).
    fn estimate(&self, idx: usize, job: &Job, now: Time) -> Time {
        let m = self.clusters[idx].sim.machine();
        let class = m
            .resolve_class(job.node_type, job.memory_mb, job.nodes)
            .expect("estimate of an ineligible site");
        m.class_profile(class)
            .earliest_start(now, job.nodes, job.requested_time, now)
    }

    /// Apply the routing policy and hand the job to the chosen site.
    fn route(&mut self, job: Job, now: Time) {
        let eligible = self.eligible(&job);
        assert!(
            !eligible.is_empty(),
            "job {} ({} nodes) fits no site of the metasystem",
            job.id,
            job.nodes
        );
        let chosen = match self.policy {
            RoutingPolicy::RoundRobin => {
                let pick = eligible
                    .iter()
                    .copied()
                    .find(|&i| i >= self.rr_next)
                    .unwrap_or(eligible[0]);
                self.rr_next = (pick + 1) % self.clusters.len();
                pick
            }
            RoutingPolicy::LeastLoaded => eligible
                .iter()
                .copied()
                .min_by_key(|&i| (self.clusters[i].scheduler.queue_len(), i))
                .expect("non-empty eligible set"),
            RoutingPolicy::BestFit => {
                let fit = |i: usize| {
                    let m = self.clusters[i].sim.machine();
                    let class = m
                        .resolve_class(job.node_type, job.memory_mb, job.nodes)
                        .expect("eligible site resolves");
                    let free = m.free_in(class);
                    if free >= job.nodes {
                        // Tightest pool that still fits wins.
                        (0u8, (free - job.nodes) as u64)
                    } else {
                        // Nothing fits: closest to fitting wins.
                        (1u8, (job.nodes - free) as u64)
                    }
                };
                eligible
                    .iter()
                    .copied()
                    .min_by_key(|&i| (fit(i), i))
                    .expect("non-empty eligible set")
            }
            RoutingPolicy::EarliestStart => eligible
                .iter()
                .copied()
                .min_by_key(|&i| {
                    (
                        self.estimate(i, &job, now),
                        self.clusters[i].scheduler.queue_len(),
                        i,
                    )
                })
                .expect("non-empty eligible set"),
        };
        let id = job.id;
        self.clusters[chosen].sim.add_job(job.clone());
        self.waiting.insert(
            id,
            WaitingJob {
                cluster: chosen,
                job,
                forwards: 0,
            },
        );
    }

    /// Forward still-queued jobs whose local wait estimate has degraded:
    /// the current site's calendar promises no start at `now`, while
    /// some other site can start the job immediately with nothing
    /// queued ahead of it. At most one forward per job.
    fn forward_pass(&mut self, now: Time) {
        let candidates: Vec<JobId> = self
            .waiting
            .iter()
            .filter(|(_, w)| w.forwards == 0)
            .map(|(&id, _)| id)
            .collect();
        for id in candidates {
            let (cur, job) = {
                let w = &self.waiting[&id];
                (w.cluster, w.job.clone())
            };
            if self.estimate(cur, &job, now) <= now {
                continue; // a local start is in sight: stay put
            }
            // A target must promise an immediate start with no local
            // backlog — anything weaker risks trading one queue for
            // another on an estimate that cannot see backlogs.
            let target = self
                .eligible(&job)
                .into_iter()
                .filter(|&i| i != cur)
                .find(|&i| {
                    self.clusters[i].scheduler.queue_len() == 0
                        && self.estimate(i, &job, now) == now
                });
            let Some(target) = target else { continue };
            let mut moved = job;
            moved.submit = now;
            self.clusters[cur].sim.push_cancel(now, id);
            self.clusters[target].sim.add_job(moved.clone());
            self.forwards += 1;
            let w = self.waiting.get_mut(&id).expect("candidate still waiting");
            w.cluster = target;
            w.job = moved;
            w.forwards = 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jobsched_algos::spec::PolicyKind;
    use jobsched_algos::view::WeightScheme;
    use jobsched_algos::BackfillMode;
    use jobsched_sim::simulate;
    use jobsched_workload::rng::{derive_seed, Rng, SmallRng};
    use jobsched_workload::JobBuilder;

    fn fcfs_easy() -> ListScheduler {
        ListScheduler::new(
            PolicyKind::Fcfs.policy(WeightScheme::Unweighted),
            BackfillMode::Easy,
        )
    }

    fn sites(k: usize, nodes: u32) -> Vec<(ClusterSpec, ListScheduler)> {
        (0..k)
            .map(|i| {
                (
                    ClusterSpec::homogeneous(format!("site-{i}"), nodes),
                    fcfs_easy(),
                )
            })
            .collect()
    }

    fn random_workload(seed: u64, n: u32, machine: u32) -> Workload {
        let mut rng = SmallRng::seed_from_u64(derive_seed(0x3E7A_BE7C, seed));
        let mut t = 0u64;
        let jobs = (0..n)
            .map(|i| {
                t += rng.random_range(0u64..400);
                let requested = rng.random_range(1u64..10_000);
                JobBuilder::new(JobId(i))
                    .submit(t)
                    .nodes(rng.random_range(1u32..=machine))
                    .requested(requested)
                    .runtime(rng.random_range(1u64..=requested))
                    .build()
            })
            .collect();
        Workload::new("meta-test", machine, jobs)
    }

    #[test]
    fn one_site_reproduces_the_single_cluster_pipeline() {
        let w = random_workload(1, 80, 64);
        for policy in RoutingPolicy::all() {
            let meta = MetaScheduler::new(policy, true, sites(1, 64));
            let out = meta.run(&w);
            let single = simulate(&w, &mut fcfs_easy());
            assert_eq!(
                out.schedule, single.schedule,
                "K=1 metasystem diverged from the pipeline under {policy:?}"
            );
            assert_eq!(out.forwards, 0, "nowhere to forward with one site");
        }
    }

    #[test]
    fn every_policy_yields_a_valid_complete_schedule() {
        let w = random_workload(2, 120, 32);
        for policy in RoutingPolicy::all() {
            for forwarding in [false, true] {
                let meta = MetaScheduler::new(policy, forwarding, sites(3, 32));
                let out = meta.run(&w);
                let violations = out.schedule.validate(&w);
                assert!(
                    violations.is_empty(),
                    "{policy:?} forwarding={forwarding}: {violations:?}"
                );
                assert_eq!(
                    out.per_cluster_jobs.iter().sum::<u64>(),
                    w.len() as u64,
                    "{policy:?}: every job completes somewhere"
                );
            }
        }
    }

    #[test]
    fn round_robin_spreads_a_burst_across_sites() {
        let jobs = (0..4)
            .map(|i| {
                JobBuilder::new(JobId(i))
                    .submit(0)
                    .nodes(8)
                    .requested(100)
                    .runtime(100)
                    .build()
            })
            .collect();
        let w = Workload::new("burst", 8, jobs);
        let out = MetaScheduler::new(RoutingPolicy::RoundRobin, false, sites(2, 8)).run(&w);
        assert_eq!(out.per_cluster_jobs, vec![2, 2]);
        // Two 8-node sites host a burst of four full-width 100 s jobs as
        // two back-to-back waves.
        assert_eq!(out.schedule.makespan(), 200);
    }

    #[test]
    fn forwarding_rescues_a_job_from_a_backlogged_site() {
        // Round-robin sends the wall (J0) to site 0 and J1 to site 1,
        // then J2 lands behind a 10 000 s wall on site 0 while site 1
        // goes idle at t=100. The next arrival (J3, t=200) triggers the
        // forward pass: J2's estimate (start at 10 000) has degraded and
        // site 1 can start it immediately.
        let jobs = vec![
            JobBuilder::new(JobId(0))
                .submit(0)
                .nodes(8)
                .requested(10_000)
                .runtime(10_000)
                .build(),
            JobBuilder::new(JobId(1))
                .submit(0)
                .nodes(8)
                .requested(100)
                .runtime(100)
                .build(),
            JobBuilder::new(JobId(2))
                .submit(10)
                .nodes(8)
                .requested(100)
                .runtime(100)
                .build(),
            JobBuilder::new(JobId(3))
                .submit(200)
                .nodes(1)
                .requested(10)
                .runtime(10)
                .build(),
        ];
        let w = Workload::new("rescue", 8, jobs);

        let stuck = MetaScheduler::new(RoutingPolicy::RoundRobin, false, sites(2, 8)).run(&w);
        assert_eq!(stuck.forwards, 0);
        assert_eq!(stuck.schedule.placement(JobId(2)).unwrap().start, 10_000);

        let rescued = MetaScheduler::new(RoutingPolicy::RoundRobin, true, sites(2, 8)).run(&w);
        assert_eq!(rescued.forwards, 1);
        assert_eq!(rescued.schedule.placement(JobId(2)).unwrap().start, 200);
        assert!(rescued.schedule.validate(&w).is_empty());
    }

    #[test]
    fn earliest_start_avoids_the_walled_site_up_front() {
        // A full-width wall occupies site 0; earliest-start routes the
        // next full-width job straight to site 1, where it starts now.
        let jobs = vec![
            JobBuilder::new(JobId(0))
                .submit(0)
                .nodes(8)
                .requested(5_000)
                .runtime(5_000)
                .build(),
            JobBuilder::new(JobId(1))
                .submit(10)
                .nodes(8)
                .requested(100)
                .runtime(100)
                .build(),
        ];
        let w = Workload::new("avoid", 8, jobs);
        let out = MetaScheduler::new(RoutingPolicy::EarliestStart, false, sites(2, 8)).run(&w);
        assert_eq!(out.schedule.placement(JobId(1)).unwrap().start, 10);
    }

    #[test]
    fn best_fit_prefers_the_tightest_eligible_pool() {
        // Sites of 8 and 32 nodes, both idle: a 6-node job fits the
        // 8-node site more tightly and must land there.
        let sites = vec![
            (ClusterSpec::homogeneous("small", 8), fcfs_easy()),
            (ClusterSpec::homogeneous("large", 32), fcfs_easy()),
        ];
        let jobs = vec![JobBuilder::new(JobId(0))
            .submit(0)
            .nodes(6)
            .requested(10)
            .runtime(10)
            .build()];
        let w = Workload::new("fit", 8, jobs);
        let out = MetaScheduler::new(RoutingPolicy::BestFit, false, sites).run(&w);
        assert_eq!(out.per_cluster_jobs, vec![1, 0]);
    }

    #[test]
    fn heterogeneous_sites_route_by_class_feasibility() {
        // Site 0 is explicitly thin-only (a typed single-class layout,
        // unlike `MachineLayout::single` which accepts everything); site
        // 1 carries the wide pool. A wide job is only eligible at site 1
        // regardless of policy.
        use jobsched_workload::{NodeClassSpec, NodeType};
        let thin_only = MachineLayout::new(vec![NodeClassSpec {
            node_type: NodeType::Thin,
            memory_mb: 512,
            count: 16,
        }]);
        let mixed = MachineLayout::new(vec![
            NodeClassSpec {
                node_type: NodeType::Thin,
                memory_mb: 512,
                count: 12,
            },
            NodeClassSpec {
                node_type: NodeType::Wide,
                memory_mb: 2048,
                count: 4,
            },
        ]);
        let jobs = vec![
            JobBuilder::new(JobId(0))
                .submit(0)
                .nodes(4)
                .requested(100)
                .runtime(100)
                .node_type(NodeType::Wide)
                .memory_mb(2048)
                .build(),
            JobBuilder::new(JobId(1))
                .submit(0)
                .nodes(16)
                .requested(100)
                .runtime(100)
                .build(),
        ];
        let w = Workload::new("typed", 16, jobs);
        for policy in RoutingPolicy::all() {
            let sites = vec![
                (
                    ClusterSpec {
                        name: "thin".into(),
                        layout: thin_only.clone(),
                    },
                    fcfs_easy(),
                ),
                (
                    ClusterSpec {
                        name: "mixed".into(),
                        layout: mixed.clone(),
                    },
                    fcfs_easy(),
                ),
            ];
            let out = MetaScheduler::new(policy, false, sites).run(&w);
            assert!(out.schedule.validate(&w).is_empty(), "{policy:?}");
            // The wide job always completes at the mixed site.
            assert!(out.per_cluster_jobs[1] >= 1, "{policy:?}");
        }
    }
}
