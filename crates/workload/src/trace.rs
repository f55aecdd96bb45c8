//! Workloads: ordered job streams plus the trace-preparation operations
//! the paper's administrator performs in §6.1.

use crate::job::{Job, JobError, JobId, NodeType, Time};
use crate::layout::MachineLayout;
use crate::moldable::MoldableChoice;

/// An ordered collection of jobs plus the machine context it was recorded
/// (or generated) for.
///
/// Jobs are kept sorted by submission time; ids are re-densified after every
/// structural modification so that `jobs[id.index()].id == id` always holds
/// — the simulator and the metrics rely on this for O(1) lookups.
#[derive(Clone, Debug)]
pub struct Workload {
    name: String,
    machine_nodes: u32,
    jobs: Vec<Job>,
    layout: Option<MachineLayout>,
    /// Extra moldable alternatives per job (indexed by job id), beyond
    /// the rigid shape every job has. `None` — the common case — means
    /// the workload is rigid. Structural edits (retarget, window,
    /// retain) renumber jobs, so they drop the table.
    moldable: Option<Vec<Vec<MoldableChoice>>>,
}

impl Workload {
    /// Build a workload from a job list. Jobs are sorted by submission time
    /// (stably, so equal-time jobs keep their given order — FCFS tie-break)
    /// and re-numbered densely.
    ///
    /// The sort runs in place: numbering the jobs by their given position
    /// first makes `(submit, id)` a total key, so an unstable sort yields
    /// the stable order without a stable sort's n-element scratch buffer.
    pub fn new(name: impl Into<String>, machine_nodes: u32, mut jobs: Vec<Job>) -> Self {
        for (i, j) in jobs.iter_mut().enumerate() {
            j.id = JobId(i as u32);
        }
        jobs.sort_unstable_by_key(|j| (j.submit, j.id));
        let mut w = Workload {
            name: name.into(),
            machine_nodes,
            jobs,
            layout: None,
            moldable: None,
        };
        w.renumber();
        w
    }

    /// Attach a node-class layout describing the target machine's
    /// heterogeneity. The simulator builds a per-class machine from it;
    /// without one the machine is the homogeneous `machine_nodes` pool.
    pub fn with_layout(mut self, layout: MachineLayout) -> Self {
        assert_eq!(
            layout.total_nodes(),
            self.machine_nodes,
            "layout size must match the workload's machine"
        );
        self.layout = Some(layout);
        self
    }

    /// The attached node-class layout, if any.
    pub fn layout(&self) -> Option<&MachineLayout> {
        self.layout.as_ref()
    }

    /// Delete every job the attached layout cannot host (no eligible
    /// class: incompatible type, memory above every compatible node, or
    /// wider than its class pool). Mirrors [`Workload::retarget`] on the
    /// class level; returns the number of deleted jobs.
    ///
    /// Panics if no layout is attached.
    pub fn retain_class_feasible(&mut self) -> usize {
        let layout = self
            .layout
            .as_ref()
            .expect("retain_class_feasible needs a layout");
        let before = self.jobs.len();
        self.jobs.retain(|j| layout.class_for_job(j).is_some());
        self.renumber();
        before - self.jobs.len()
    }

    fn renumber(&mut self) {
        for (i, j) in self.jobs.iter_mut().enumerate() {
            j.id = JobId(i as u32);
        }
        // Renumbering invalidates the id-indexed moldable table.
        self.moldable = None;
    }

    /// Attach moldable alternatives: `table[id]` holds the *extra*
    /// choices of job `id` beyond its rigid shape (an empty inner list
    /// keeps that job rigid). Build one with
    /// [`crate::moldable::synthesize_moldable`].
    pub fn set_moldable(&mut self, table: Vec<Vec<MoldableChoice>>) {
        assert_eq!(
            table.len(),
            self.jobs.len(),
            "moldable table must cover every job"
        );
        for (i, choices) in table.iter().enumerate() {
            for c in choices {
                assert!(
                    c.nodes >= 1 && c.nodes <= self.machine_nodes,
                    "moldable choice of job {i} exceeds the machine"
                );
            }
        }
        self.moldable = Some(table);
    }

    /// Whether any job carries moldable alternatives.
    pub fn is_moldable(&self) -> bool {
        self.moldable
            .as_ref()
            .is_some_and(|t| t.iter().any(|c| !c.is_empty()))
    }

    /// Execution choices of one job: its rigid shape first, then any
    /// moldable alternatives. Never empty — a rigid workload answers with
    /// exactly the one-element list.
    pub fn choices(&self, id: JobId) -> Vec<MoldableChoice> {
        let job = self.job(id);
        let mut out = vec![MoldableChoice::rigid(job)];
        if let Some(table) = &self.moldable {
            out.extend_from_slice(&table[id.index()]);
        }
        out
    }

    /// Descriptive name ("CTC", "probabilistic", ...).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Size of the machine this workload targets.
    pub fn machine_nodes(&self) -> u32 {
        self.machine_nodes
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// All jobs, ordered by submission time.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Look up a job by id.
    pub fn job(&self, id: JobId) -> &Job {
        &self.jobs[id.index()]
    }

    /// Validate every job against the machine size.
    pub fn validate(&self) -> Result<(), JobError> {
        self.jobs
            .iter()
            .try_for_each(|j| j.validate(self.machine_nodes))
    }

    /// §6.1 step 1: retarget the workload to a smaller machine by deleting
    /// every job that requests more than `nodes` nodes ("less than 0.2 % of
    /// all jobs require more than 256 nodes — the administrator modifies
    /// the trace by simply deleting all those highly parallel jobs").
    ///
    /// Returns the number of deleted jobs.
    pub fn retarget(&mut self, nodes: u32) -> usize {
        let before = self.jobs.len();
        self.jobs.retain(|j| j.nodes <= nodes);
        self.machine_nodes = nodes;
        // A previously attached layout no longer matches the machine.
        self.layout = None;
        self.renumber();
        before - self.jobs.len()
    }

    /// §6.1 step 2: ignore the additional hardware requests (node type,
    /// memory) because "most nodes of the CTC batch partition are
    /// identical". All jobs are mapped onto the default thin node class.
    ///
    /// Equivalent to `homogenize_with(false)` — the paper's behavior.
    pub fn homogenize(&mut self) {
        self.homogenize_with(false);
    }

    /// §6.1 step 2 with an escape hatch: when `retain_attributes` is
    /// `false` (the paper's default) the per-job `node_type`/`memory_mb`
    /// requests are zeroed and any node-class layout is dropped; when
    /// `true` the hardware requests survive the preparation step so a
    /// typed layout can be attached afterwards.
    pub fn homogenize_with(&mut self, retain_attributes: bool) {
        if retain_attributes {
            return;
        }
        for j in &mut self.jobs {
            j.node_type = NodeType::Thin;
            j.memory_mb = 0;
        }
        self.layout = None;
    }

    /// Keep only jobs submitted in `[from, to)`.
    pub fn window(&mut self, from: Time, to: Time) {
        self.jobs.retain(|j| j.submit >= from && j.submit < to);
        self.renumber();
    }

    /// Keep only the first `n` jobs (used by reduced-scale benchmarks).
    pub fn truncate(&mut self, n: usize) {
        self.jobs.truncate(n);
    }

    /// Total resource consumption (sum of actual areas), in node-seconds.
    pub fn total_area(&self) -> f64 {
        self.jobs.iter().map(Job::area).sum()
    }

    /// Time of the last submission.
    pub fn last_submit(&self) -> Time {
        self.jobs.last().map_or(0, |j| j.submit)
    }

    /// Lower bound on any schedule's makespan: `max(total_area / nodes,
    /// longest job runtime, last submit + its runtime)`.
    pub fn makespan_lower_bound(&self) -> f64 {
        let area_bound = self.total_area() / self.machine_nodes as f64;
        let runtime_bound = self
            .jobs
            .iter()
            .map(|j| j.effective_runtime())
            .max()
            .unwrap_or(0) as f64;
        let tail_bound = self
            .jobs
            .iter()
            .map(|j| j.submit + j.effective_runtime())
            .max()
            .unwrap_or(0) as f64;
        area_bound.max(runtime_bound).max(tail_bound)
    }

    /// Offered load relative to machine capacity over the submission span:
    /// values near (or above) 1 indicate the growing backlog the paper
    /// discusses for the 430→256-node retargeting.
    pub fn offered_load(&self) -> f64 {
        let span = self.last_submit().max(1) as f64;
        self.total_area() / (span * self.machine_nodes as f64)
    }

    /// Consume the workload, returning its jobs.
    pub fn into_jobs(self) -> Vec<Job> {
        self.jobs
    }
}

impl<'a> IntoIterator for &'a Workload {
    type Item = &'a Job;
    type IntoIter = std::slice::Iter<'a, Job>;
    fn into_iter(self) -> Self::IntoIter {
        self.jobs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobBuilder, HOUR};

    fn wl() -> Workload {
        let jobs = vec![
            JobBuilder::new(JobId(0)).submit(50).nodes(300).build(),
            JobBuilder::new(JobId(0)).submit(10).nodes(4).build(),
            JobBuilder::new(JobId(0)).submit(30).nodes(256).build(),
        ];
        Workload::new("t", 430, jobs)
    }

    #[test]
    fn new_sorts_by_submit_and_renumbers() {
        let w = wl();
        let submits: Vec<_> = w.jobs().iter().map(|j| j.submit).collect();
        assert_eq!(submits, vec![10, 30, 50]);
        for (i, j) in w.jobs().iter().enumerate() {
            assert_eq!(j.id.index(), i);
        }
    }

    #[test]
    fn new_orders_ties_exactly_like_a_stable_sort() {
        use crate::rng::{Rng, SmallRng};
        let mut rng = SmallRng::seed_from_u64(29);
        for round in 0..50 {
            let n = rng.random_range(0usize..60);
            // `requested` marks each job's given position; submits tie
            // heavily. Half the rounds keep JobBuilder's all-zero ids,
            // the rest carry arbitrary (colliding, unsorted) ids.
            let jobs: Vec<Job> = (0..n)
                .map(|i| {
                    let id = if round % 2 == 0 {
                        0
                    } else {
                        rng.random_range(0u32..8)
                    };
                    JobBuilder::new(JobId(id))
                        .submit(rng.random_range(0u64..6))
                        .requested(i as Time + 1)
                        .build()
                })
                .collect();
            let mut expected = jobs.clone();
            expected.sort_by_key(|j| j.submit);
            let w = Workload::new("t", 16, jobs);
            let got: Vec<(Time, Time)> = w
                .jobs()
                .iter()
                .map(|j| (j.submit, j.requested_time))
                .collect();
            let want: Vec<(Time, Time)> = expected
                .iter()
                .map(|j| (j.submit, j.requested_time))
                .collect();
            assert_eq!(got, want, "round {round}");
            for (i, j) in w.jobs().iter().enumerate() {
                assert_eq!(j.id.index(), i);
            }
        }
    }

    #[test]
    fn job_lookup_by_id_matches_index() {
        let w = wl();
        for j in w.jobs() {
            assert_eq!(w.job(j.id), j);
        }
    }

    #[test]
    fn retarget_drops_wide_jobs_and_renumbers() {
        let mut w = wl();
        let dropped = w.retarget(256);
        assert_eq!(dropped, 1);
        assert_eq!(w.len(), 2);
        assert_eq!(w.machine_nodes(), 256);
        assert!(w.jobs().iter().all(|j| j.nodes <= 256));
        assert!(w.validate().is_ok());
        for (i, j) in w.jobs().iter().enumerate() {
            assert_eq!(j.id.index(), i);
        }
    }

    #[test]
    fn homogenize_clears_hardware_requests() {
        let mut w = wl();
        w.homogenize();
        assert!(w
            .jobs()
            .iter()
            .all(|j| j.node_type == NodeType::Thin && j.memory_mb == 0));
    }

    #[test]
    fn homogenize_retaining_attributes_is_a_noop_on_jobs() {
        use crate::job::NodeType;
        let jobs = vec![JobBuilder::new(JobId(0))
            .nodes(2)
            .memory_mb(2048)
            .node_type(NodeType::Wide)
            .build()];
        let mut w = Workload::new("t", 430, jobs);
        w.homogenize_with(true);
        assert_eq!(w.jobs()[0].node_type, NodeType::Wide);
        assert_eq!(w.jobs()[0].memory_mb, 2048);
    }

    #[test]
    fn layout_attaches_and_survives_homogenize_with_retain() {
        use crate::layout::MachineLayout;
        let mut w = wl().with_layout(MachineLayout::ctc_sp2(430));
        assert!(w.layout().is_some());
        w.homogenize_with(true);
        assert!(w.layout().is_some());
        w.homogenize();
        assert!(w.layout().is_none());
    }

    #[test]
    fn retarget_drops_stale_layout() {
        use crate::layout::MachineLayout;
        let mut w = wl().with_layout(MachineLayout::ctc_sp2(430));
        w.retarget(256);
        assert!(w.layout().is_none());
    }

    #[test]
    #[should_panic(expected = "layout size must match")]
    fn mismatched_layout_rejected() {
        use crate::layout::MachineLayout;
        let _ = wl().with_layout(MachineLayout::single(100));
    }

    #[test]
    fn retain_class_feasible_drops_unhostable_jobs() {
        use crate::job::NodeType;
        use crate::layout::MachineLayout;
        let jobs = vec![
            // Fits the thin pool.
            JobBuilder::new(JobId(0)).nodes(4).memory_mb(128).build(),
            // Wider than the wide pool: infeasible.
            JobBuilder::new(JobId(0))
                .nodes(100)
                .node_type(NodeType::Wide)
                .memory_mb(512)
                .build(),
            // More memory than any node: infeasible.
            JobBuilder::new(JobId(0)).nodes(1).memory_mb(4096).build(),
        ];
        let mut w = Workload::new("t", 430, jobs).with_layout(MachineLayout::ctc_sp2(430));
        let dropped = w.retain_class_feasible();
        assert_eq!(dropped, 2);
        assert_eq!(w.len(), 1);
        for (i, j) in w.jobs().iter().enumerate() {
            assert_eq!(j.id.index(), i);
        }
    }

    #[test]
    fn window_keeps_half_open_range() {
        let mut w = wl();
        w.window(10, 50);
        assert_eq!(w.len(), 2);
        assert!(w.jobs().iter().all(|j| (10..50).contains(&j.submit)));
    }

    #[test]
    fn makespan_lower_bound_dominated_by_long_job() {
        let jobs = vec![JobBuilder::new(JobId(0))
            .submit(0)
            .nodes(1)
            .requested(100 * HOUR)
            .runtime(100 * HOUR)
            .build()];
        let w = Workload::new("t", 256, jobs);
        assert_eq!(w.makespan_lower_bound(), (100 * HOUR) as f64);
    }

    #[test]
    fn total_area_sums_effective_areas() {
        let jobs = vec![
            JobBuilder::new(JobId(0))
                .nodes(2)
                .requested(10)
                .runtime(10)
                .build(),
            JobBuilder::new(JobId(0))
                .nodes(3)
                .requested(5)
                .runtime(9)
                .build(),
        ];
        let w = Workload::new("t", 256, jobs);
        // Second job is killed at its 5 s limit: area = 3 × 5.
        assert_eq!(w.total_area(), 20.0 + 15.0);
    }

    #[test]
    fn empty_workload_is_safe() {
        let w = Workload::new("empty", 256, vec![]);
        assert!(w.is_empty());
        assert_eq!(w.makespan_lower_bound(), 0.0);
        assert_eq!(w.last_submit(), 0);
        assert!(w.validate().is_ok());
    }
}
