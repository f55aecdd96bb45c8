//! Scenario: one self-contained adversarial simulation case.
//!
//! A scenario bundles everything needed to reproduce a run bit-for-bit:
//! the machine size, the algorithm configuration under test (policy ×
//! backfill × caching), the job stream, and the injected
//! faults (cancellations and node drains). Scenarios serialize to a
//! line-oriented text format so that shrunk counterexamples can be
//! committed to `tests/corpus/` and replayed by `cargo test` — the
//! deterministic-replay half of the oracle contract.

use jobsched_algos::priority::rank;
use jobsched_algos::spec::PolicyKind;
use jobsched_algos::{BackfillMode, ListScheduler, ScoreFn};
use jobsched_sim::{
    CancelFault, DrainFault, FaultPlan, JobRequest, Machine, PreemptFault, Scheduler,
};
use jobsched_workload::{
    ClassId, JobBuilder, JobId, MachineLayout, NodeClassSpec, NodeType, Time, Workload,
};

/// One job of the scenario's stream. The index into [`Scenario::jobs`]
/// *is* the job's [`JobId`]: jobs are kept sorted by submission time so
/// that [`Workload::new`]'s stable re-sort is the identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScenarioJob {
    /// Submission instant.
    pub submit: Time,
    /// Rigid node requirement.
    pub nodes: u32,
    /// User estimate (upper runtime limit, Rule 2).
    pub requested: Time,
    /// Actual runtime (may exceed `requested`; execution truncates).
    pub runtime: Time,
    /// Requested node hardware type (only meaningful on typed scenarios;
    /// [`NodeType::Thin`] otherwise).
    pub node_type: NodeType,
    /// Requested per-node memory in MB (0 = no constraint).
    pub memory_mb: u32,
}

/// A user retracting a job (queued, running, or already done — the
/// engine classifies the phase at injection time).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CancelSpec {
    /// Injection instant.
    pub at: Time,
    /// Index into [`Scenario::jobs`].
    pub job: usize,
}

/// A forced preemption: if the job is running at `at`, its allocation
/// span closes, its nodes free, and the remainder re-enters the queue at
/// `resume_at` (clamped past the preemption instant by the engine). A
/// preemption that finds the job not running is recorded as a no-op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PreemptSpec {
    /// Preemption instant.
    pub at: Time,
    /// Index into [`Scenario::jobs`].
    pub job: usize,
    /// Requested requeue instant (engine clamps to `> at`).
    pub resume_at: Time,
}

/// Nodes leaving service for maintenance over `[at, until)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DrainSpec {
    /// Drain instant.
    pub at: Time,
    /// Nodes requested to drain (granted up to the free count).
    pub nodes: u32,
    /// Return-to-service instant (must be `> at`).
    pub until: Time,
    /// Node class drained (index into [`Scenario::classes`]; 0 on
    /// homogeneous scenarios). Draining a scarce pool — e.g. taking the
    /// whole wide pool offline — is exactly the per-class fault the
    /// heterogeneous invariants exist to audit.
    pub class: u8,
}

/// A deliberate, test-only scheduler defect. A scenario carrying a
/// mutation *claims* to run its declared policy but actually runs the
/// broken variant — the oracle must catch the lie. Used to validate that
/// the invariant checks have teeth.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Head-blocking list scheduling over *reversed* queue order: starves
    /// early arrivals, violating the FCFS pick-equality and
    /// start-monotonicity invariants (but never overcommits).
    Lifo,
    /// Head-blocking over a scoring rule's ranking with the score sign
    /// flipped: a broken WFP (or any rule) that runs the queue backwards.
    /// Only valid on [`PolicyKind::Priority`] scenarios; the priority
    /// pick-equality differential must catch it.
    InvertedPriority,
}

/// A complete adversarial simulation case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scenario {
    /// Machine width in nodes.
    pub machine_nodes: u32,
    /// Ordering policy under test.
    pub policy: PolicyKind,
    /// Backfill variant under test.
    pub backfill: BackfillMode,
    /// Whether the blocked-state cache is enabled.
    pub caching: bool,
    /// Deliberate defect (None for real-scheduler runs).
    pub mutation: Option<Mutation>,
    /// Node-class pools partitioning the machine. Empty = homogeneous
    /// machine of `machine_nodes` (the paper's configuration); non-empty
    /// pools must sum to `machine_nodes` and every job must resolve to
    /// one of them.
    pub classes: Vec<NodeClassSpec>,
    /// Job stream, sorted by `submit` (index == [`JobId`]).
    pub jobs: Vec<ScenarioJob>,
    /// Cancellation faults.
    pub cancels: Vec<CancelSpec>,
    /// Drain faults.
    pub drains: Vec<DrainSpec>,
    /// Forced-preemption faults.
    pub preempts: Vec<PreemptSpec>,
}

impl Scenario {
    /// Structural validity: index bounds, submit-sorted jobs, positive
    /// sizes within the machine, well-formed fault windows. Generated and
    /// shrunk scenarios always pass; hand-written corpus files are
    /// rejected with a message naming the defect.
    pub fn validate(&self) -> Result<(), String> {
        if self.machine_nodes == 0 {
            return Err("machine_nodes must be positive".into());
        }
        if self.jobs.is_empty() {
            return Err("scenario has no jobs".into());
        }
        if !self.classes.is_empty() {
            if self.classes.len() > 256 {
                return Err("at most 256 node classes".into());
            }
            if self.classes.iter().any(|c| c.count == 0) {
                return Err("every node class needs at least one node".into());
            }
            let total: u32 = self.classes.iter().map(|c| c.count).sum();
            if total != self.machine_nodes {
                return Err(format!(
                    "class pools sum to {total}, machine has {}",
                    self.machine_nodes
                ));
            }
        }
        let layout = self.layout();
        for (i, j) in self.jobs.iter().enumerate() {
            if j.nodes == 0 || j.nodes > self.machine_nodes {
                return Err(format!("job {i}: nodes {} out of range", j.nodes));
            }
            if j.requested == 0 || j.runtime == 0 {
                return Err(format!("job {i}: times must be positive"));
            }
            if let Some(layout) = &layout {
                if layout.resolve(j.node_type, j.memory_mb, j.nodes).is_none() {
                    return Err(format!("job {i}: no eligible node class"));
                }
            }
        }
        if self.jobs.windows(2).any(|w| w[0].submit > w[1].submit) {
            return Err("jobs must be sorted by submit time".into());
        }
        // A cancel may precede its job's submission: the engine suppresses
        // the submission entirely (the PreSubmit phase), so any instant is
        // a valid injection point.
        for (i, c) in self.cancels.iter().enumerate() {
            if c.job >= self.jobs.len() {
                return Err(format!("cancel {i}: job index {} out of range", c.job));
            }
        }
        for (i, p) in self.preempts.iter().enumerate() {
            if p.job >= self.jobs.len() {
                return Err(format!("preempt {i}: job index {} out of range", p.job));
            }
            if p.resume_at <= p.at {
                return Err(format!("preempt {i}: resume_at must exceed at"));
            }
        }
        for (i, d) in self.drains.iter().enumerate() {
            if d.nodes == 0 {
                return Err(format!("drain {i}: nodes must be positive"));
            }
            if d.until <= d.at {
                return Err(format!("drain {i}: until must exceed at"));
            }
            if d.class as usize >= self.classes.len().max(1) {
                return Err(format!("drain {i}: class {} out of range", d.class));
            }
        }
        if self.policy == PolicyKind::GareyGraham && self.backfill != BackfillMode::None {
            return Err("Garey&Graham only supports the list column".into());
        }
        if self.mutation == Some(Mutation::InvertedPriority)
            && !matches!(self.policy, PolicyKind::Priority(_))
        {
            return Err("inverted-priority mutation needs a priority policy".into());
        }
        Ok(())
    }

    /// The machine layout of a typed scenario, `None` when homogeneous.
    pub fn layout(&self) -> Option<MachineLayout> {
        (!self.classes.is_empty()).then(|| MachineLayout::new(self.classes.clone()))
    }

    /// Materialise the workload. Because jobs are submit-sorted,
    /// `jobs[i]` becomes `JobId(i)` — fault specs and invariant checks
    /// rely on that identity.
    pub fn workload(&self) -> Workload {
        debug_assert!(self.validate().is_ok(), "building an invalid scenario");
        let jobs = self
            .jobs
            .iter()
            .enumerate()
            .map(|(i, j)| {
                JobBuilder::new(JobId(i as u32))
                    .submit(j.submit)
                    .nodes(j.nodes)
                    .requested(j.requested)
                    .runtime(j.runtime)
                    .node_type(j.node_type)
                    .memory_mb(j.memory_mb)
                    .build()
            })
            .collect();
        let w = Workload::new("oracle", self.machine_nodes, jobs);
        match self.layout() {
            Some(layout) => w.with_layout(layout),
            None => w,
        }
    }

    /// The fault plan for [`jobsched_sim::simulate_with_faults`].
    pub fn fault_plan(&self) -> FaultPlan {
        FaultPlan {
            cancels: self
                .cancels
                .iter()
                .map(|c| CancelFault {
                    id: JobId(c.job as u32),
                    at: c.at,
                })
                .collect(),
            drains: self
                .drains
                .iter()
                .map(|d| DrainFault {
                    at: d.at,
                    nodes: d.nodes,
                    class: ClassId(d.class),
                    until: d.until,
                })
                .collect(),
            preempts: self
                .preempts
                .iter()
                .map(|p| PreemptFault {
                    id: JobId(p.job as u32),
                    at: p.at,
                    resume_at: p.resume_at,
                })
                .collect(),
        }
    }

    /// Build the scheduler under test — the real scheduler for the
    /// declared configuration, or the mutated impostor. On priority
    /// configurations `caching on` is a recorded no-op: a score order
    /// never enters the blocked-state cache.
    pub fn scheduler(&self) -> Box<dyn Scheduler> {
        match (self.mutation, self.policy) {
            (Some(Mutation::Lifo), _) => Box::new(ImpostorScheduler::default()),
            (Some(Mutation::InvertedPriority), PolicyKind::Priority(score)) => {
                Box::new(ImpostorScheduler {
                    inverted: Some(score),
                    ..Default::default()
                })
            }
            (Some(Mutation::InvertedPriority), _) => {
                unreachable!("validate() rejects inverted-priority on non-priority policies")
            }
            (None, _) => Box::new(
                ListScheduler::new(self.policy.policy(Default::default()), self.backfill)
                    .with_caching(self.caching),
            ),
        }
    }

    /// Serialize to the line-oriented replay format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("machine {}\n", self.machine_nodes));
        out.push_str(&format!("policy {}\n", self.policy.tag()));
        out.push_str(&format!("backfill {}\n", self.backfill.tag()));
        out.push_str(&format!(
            "caching {}\n",
            if self.caching { "on" } else { "off" }
        ));
        match self.mutation {
            Some(Mutation::Lifo) => out.push_str("mutate lifo\n"),
            Some(Mutation::InvertedPriority) => out.push_str("mutate inverted-priority\n"),
            None => {}
        }
        for c in &self.classes {
            out.push_str(&format!(
                "class {} {} {}\n",
                node_type_token(c.node_type),
                c.memory_mb,
                c.count
            ));
        }
        for j in &self.jobs {
            // Hardware attributes are appended only when set, so legacy
            // (homogeneous) corpus files round-trip byte for byte.
            if j.node_type != NodeType::Thin || j.memory_mb != 0 {
                out.push_str(&format!(
                    "job {} {} {} {} {} {}\n",
                    j.submit,
                    j.nodes,
                    j.requested,
                    j.runtime,
                    node_type_token(j.node_type),
                    j.memory_mb
                ));
            } else {
                out.push_str(&format!(
                    "job {} {} {} {}\n",
                    j.submit, j.nodes, j.requested, j.runtime
                ));
            }
        }
        for c in &self.cancels {
            out.push_str(&format!("cancel {} {}\n", c.at, c.job));
        }
        for p in &self.preempts {
            out.push_str(&format!("preempt {} {} {}\n", p.at, p.job, p.resume_at));
        }
        for d in &self.drains {
            if d.class != 0 {
                out.push_str(&format!(
                    "drain {} {} {} {}\n",
                    d.at, d.nodes, d.until, d.class
                ));
            } else {
                out.push_str(&format!("drain {} {} {}\n", d.at, d.nodes, d.until));
            }
        }
        out
    }

    /// Parse the replay format (inverse of [`Scenario::to_text`]).
    /// `#`-prefixed lines and blank lines are ignored.
    pub fn from_text(text: &str) -> Result<Scenario, String> {
        let mut s = Scenario {
            machine_nodes: 0,
            policy: PolicyKind::Fcfs,
            backfill: BackfillMode::None,
            caching: true,
            mutation: None,
            classes: Vec::new(),
            jobs: Vec::new(),
            cancels: Vec::new(),
            drains: Vec::new(),
            preempts: Vec::new(),
        };
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let key = parts.next().unwrap();
            let args: Vec<&str> = parts.collect();
            let ctx = |msg: &str| format!("line {}: {msg}", ln + 1);
            match key {
                "machine" => {
                    s.machine_nodes = parse_num(&args, 0, &ctx)?;
                }
                "policy" => {
                    // Scenarios drive rigid schedulers only: the
                    // time-shared kinds have tags but cannot appear.
                    let tok = args.first().copied();
                    s.policy = tok
                        .and_then(PolicyKind::from_tag)
                        .filter(|k| !k.time_shared())
                        .ok_or_else(|| ctx(&format!("unknown policy {tok:?}")))?;
                }
                "backfill" => {
                    let tok = args.first().copied();
                    s.backfill = tok
                        .and_then(BackfillMode::from_tag)
                        .ok_or_else(|| ctx(&format!("unknown backfill {tok:?}")))?;
                }
                "caching" => {
                    s.caching = match args.first().copied() {
                        Some("on") => true,
                        Some("off") => false,
                        other => return Err(ctx(&format!("unknown caching flag {other:?}"))),
                    };
                }
                "mutate" => {
                    s.mutation = match args.first().copied() {
                        Some("lifo") => Some(Mutation::Lifo),
                        Some("inverted-priority") => Some(Mutation::InvertedPriority),
                        other => return Err(ctx(&format!("unknown mutation {other:?}"))),
                    };
                }
                "class" => {
                    let ty = args
                        .first()
                        .copied()
                        .and_then(parse_node_type)
                        .ok_or_else(|| ctx("unknown node type"))?;
                    s.classes.push(NodeClassSpec {
                        node_type: ty,
                        memory_mb: parse_num(&args, 1, &ctx)?,
                        count: parse_num(&args, 2, &ctx)?,
                    });
                }
                "job" => {
                    // Fields 4 (type) and 5 (memory) are optional: legacy
                    // homogeneous corpus files carry only the first four.
                    let node_type = match args.get(4).copied() {
                        None => NodeType::Thin,
                        Some(tok) => {
                            parse_node_type(tok).ok_or_else(|| ctx("unknown node type"))?
                        }
                    };
                    s.jobs.push(ScenarioJob {
                        submit: parse_num(&args, 0, &ctx)?,
                        nodes: parse_num(&args, 1, &ctx)?,
                        requested: parse_num(&args, 2, &ctx)?,
                        runtime: parse_num(&args, 3, &ctx)?,
                        node_type,
                        memory_mb: if args.len() > 5 {
                            parse_num(&args, 5, &ctx)?
                        } else {
                            0
                        },
                    });
                }
                "cancel" => {
                    s.cancels.push(CancelSpec {
                        at: parse_num(&args, 0, &ctx)?,
                        job: parse_num(&args, 1, &ctx)?,
                    });
                }
                "preempt" => {
                    s.preempts.push(PreemptSpec {
                        at: parse_num(&args, 0, &ctx)?,
                        job: parse_num(&args, 1, &ctx)?,
                        resume_at: parse_num(&args, 2, &ctx)?,
                    });
                }
                "drain" => {
                    // Field 3 (class) is optional for legacy files.
                    s.drains.push(DrainSpec {
                        at: parse_num(&args, 0, &ctx)?,
                        nodes: parse_num(&args, 1, &ctx)?,
                        until: parse_num(&args, 2, &ctx)?,
                        class: if args.len() > 3 {
                            parse_num(&args, 3, &ctx)?
                        } else {
                            0
                        },
                    });
                }
                other => return Err(ctx(&format!("unknown directive {other:?}"))),
            }
        }
        s.validate()?;
        Ok(s)
    }
}

fn node_type_token(t: NodeType) -> &'static str {
    match t {
        NodeType::Thin => "thin",
        NodeType::Wide => "wide",
        NodeType::Storage => "storage",
    }
}

fn parse_node_type(tok: &str) -> Option<NodeType> {
    match tok {
        "thin" => Some(NodeType::Thin),
        "wide" => Some(NodeType::Wide),
        "storage" => Some(NodeType::Storage),
        _ => None,
    }
}

fn parse_num<T: std::str::FromStr>(
    args: &[&str],
    idx: usize,
    ctx: &dyn Fn(&str) -> String,
) -> Result<T, String> {
    args.get(idx)
        .ok_or_else(|| ctx(&format!("missing field {idx}")))?
        .parse()
        .map_err(|_| ctx(&format!("unparsable field {idx}")))
}

/// The mutated impostors: head-blocking list scheduling over a wrong
/// order — reversed submission order ([`Mutation::Lifo`]) or, with
/// `inverted` set, that scoring rule's ranking with the score sign
/// flipped ([`Mutation::InvertedPriority`]). Structurally sound (never
/// overcommits, always drains the queue once the machine empties) but
/// behaviourally wrong for a scheduler claiming its scenario's policy.
#[derive(Debug, Default)]
pub struct ImpostorScheduler {
    waiting: Vec<JobRequest>,
    inverted: Option<ScoreFn>,
}

impl Scheduler for ImpostorScheduler {
    fn name(&self) -> String {
        match self.inverted {
            None => "LIFO (deliberately broken)".into(),
            Some(score) => format!("inverted {} (deliberately broken)", score.label()),
        }
    }

    fn submit(&mut self, job: JobRequest, _now: Time) {
        self.waiting.push(job);
    }

    fn cancel(&mut self, id: JobId, _now: Time) {
        self.waiting.retain(|j| j.id != id);
    }

    fn select_starts(&mut self, now: Time, machine: &Machine) -> Vec<JobId> {
        let order: Vec<JobId> = match self.inverted {
            None => self.waiting.iter().rev().map(|j| j.id).collect(),
            Some(score) => rank(score, now, &self.waiting, true),
        };
        let mut free = machine.free_nodes();
        let mut picks = Vec::new();
        for id in order {
            let job = self.waiting.iter().find(|j| j.id == id);
            let nodes = job.expect("ordered job waits").nodes;
            if nodes > free {
                break;
            }
            free -= nodes;
            picks.push(id);
        }
        self.waiting.retain(|j| !picks.contains(&j.id));
        picks
    }

    fn queue_len(&self) -> usize {
        self.waiting.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Scenario {
        Scenario {
            machine_nodes: 256,
            policy: PolicyKind::SmartFfia,
            backfill: BackfillMode::Easy,
            caching: false,
            mutation: None,
            classes: Vec::new(),
            jobs: vec![
                ScenarioJob {
                    submit: 0,
                    nodes: 16,
                    requested: 100,
                    runtime: 80,
                    node_type: NodeType::Thin,
                    memory_mb: 0,
                },
                ScenarioJob {
                    submit: 5,
                    nodes: 200,
                    requested: 50,
                    runtime: 70,
                    node_type: NodeType::Thin,
                    memory_mb: 0,
                },
            ],
            cancels: vec![CancelSpec { at: 40, job: 0 }],
            drains: vec![DrainSpec {
                at: 10,
                nodes: 32,
                until: 60,
                class: 0,
            }],
            preempts: vec![PreemptSpec {
                at: 20,
                job: 0,
                resume_at: 50,
            }],
        }
    }

    fn typed_sample() -> Scenario {
        let mut s = sample();
        s.machine_nodes = 64;
        s.classes = vec![
            NodeClassSpec {
                node_type: NodeType::Thin,
                memory_mb: 512,
                count: 48,
            },
            NodeClassSpec {
                node_type: NodeType::Wide,
                memory_mb: 2048,
                count: 16,
            },
        ];
        s.jobs = vec![
            ScenarioJob {
                submit: 0,
                nodes: 16,
                requested: 100,
                runtime: 80,
                node_type: NodeType::Thin,
                memory_mb: 256,
            },
            ScenarioJob {
                submit: 5,
                nodes: 8,
                requested: 50,
                runtime: 70,
                node_type: NodeType::Wide,
                memory_mb: 1024,
            },
        ];
        s.drains = vec![DrainSpec {
            at: 10,
            nodes: 16,
            until: 60,
            class: 1,
        }];
        s
    }

    #[test]
    fn text_round_trip_is_identity() {
        let s = sample();
        let parsed = Scenario::from_text(&s.to_text()).unwrap();
        assert_eq!(parsed, s);
        let mutated = Scenario {
            mutation: Some(Mutation::Lifo),
            policy: PolicyKind::Fcfs,
            backfill: BackfillMode::None,
            ..s
        };
        assert_eq!(Scenario::from_text(&mutated.to_text()).unwrap(), mutated);
    }

    #[test]
    fn priority_round_trip_is_identity() {
        for score in ScoreFn::ALL {
            let s = Scenario {
                policy: PolicyKind::Priority(score),
                ..sample()
            };
            let text = s.to_text();
            assert!(text.contains(&format!("policy {}", score.tag())), "{text}");
            assert_eq!(Scenario::from_text(&text).unwrap(), s);
            // Unknown and time-shared policy tokens are rejected.
            for bad in ["nope", "dfrs"] {
                let broken =
                    text.replace(&format!("policy {}", score.tag()), &format!("policy {bad}"));
                assert!(Scenario::from_text(&broken).is_err(), "{bad}");
            }
        }
        let mutated = Scenario {
            policy: PolicyKind::Priority(ScoreFn::Wfp),
            mutation: Some(Mutation::InvertedPriority),
            ..sample()
        };
        assert_eq!(Scenario::from_text(&mutated.to_text()).unwrap(), mutated);
    }

    #[test]
    fn inverted_priority_mutation_requires_a_priority_policy() {
        let s = Scenario {
            mutation: Some(Mutation::InvertedPriority),
            ..sample()
        };
        assert!(s.validate().unwrap_err().contains("priority"));
    }

    #[test]
    fn priority_scenarios_build_priority_schedulers() {
        let s = Scenario {
            policy: PolicyKind::Priority(ScoreFn::Wfp3),
            backfill: BackfillMode::Easy,
            ..sample()
        };
        assert_eq!(s.scheduler().name(), "WFP3+EASY-Backfilling");
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = format!("# reproducer\n\n{}\n# trailing\n", sample().to_text());
        assert_eq!(Scenario::from_text(&text).unwrap(), sample());
    }

    #[test]
    fn typed_round_trip_is_identity() {
        let s = typed_sample();
        s.validate().unwrap();
        let text = s.to_text();
        assert!(text.contains("class thin 512 48"));
        assert!(text.contains("job 5 8 50 70 wide 1024"));
        assert!(text.contains("drain 10 16 60 1"));
        assert_eq!(Scenario::from_text(&text).unwrap(), s);
    }

    #[test]
    fn typed_workload_carries_the_layout() {
        let s = typed_sample();
        let w = s.workload();
        let layout = w.layout().expect("typed scenario has a layout");
        assert_eq!(layout.total_nodes(), 64);
        assert_eq!(w.jobs()[1].node_type, NodeType::Wide);
        let plan = s.fault_plan();
        assert_eq!(plan.drains[0].class, ClassId(1));
    }

    #[test]
    fn typed_validation_rejects_class_defects() {
        // Pools must sum to the machine.
        let mut s = typed_sample();
        s.machine_nodes = 65;
        assert!(s.validate().unwrap_err().contains("sum"));
        // Every job must resolve to a class.
        let mut s = typed_sample();
        s.jobs[0].memory_mb = 4096;
        assert!(s.validate().unwrap_err().contains("no eligible"));
        // Drain class indices must exist.
        let mut s = typed_sample();
        s.drains[0].class = 2;
        assert!(s.validate().unwrap_err().contains("out of range"));
        let mut s = sample();
        s.drains[0].class = 1; // homogeneous scenarios only have class 0
        assert!(s.validate().is_err());
    }

    #[test]
    fn preempt_round_trip_and_fault_plan() {
        let s = sample();
        let text = s.to_text();
        assert!(text.contains("preempt 20 0 50"), "{text}");
        assert_eq!(Scenario::from_text(&text).unwrap(), s);
        let plan = s.fault_plan();
        assert_eq!(plan.preempts.len(), 1);
        assert_eq!(plan.preempts[0].id, JobId(0));
        assert_eq!(plan.preempts[0].at, 20);
        assert_eq!(plan.preempts[0].resume_at, 50);
    }

    #[test]
    fn validation_rejects_malformed_preempts() {
        let mut s = sample();
        s.preempts[0].job = 9;
        assert!(s.validate().unwrap_err().contains("out of range"));
        let mut s = sample();
        s.preempts[0].resume_at = s.preempts[0].at;
        assert!(s.validate().unwrap_err().contains("resume_at"));
    }

    #[test]
    fn validation_rejects_malformed_scenarios() {
        let mut s = sample();
        s.cancels[0].job = 9;
        assert!(s.validate().is_err());
        let mut s = sample();
        s.jobs.swap(0, 1);
        assert!(s.validate().is_err());
        let mut s = sample();
        s.drains[0].until = s.drains[0].at;
        assert!(s.validate().is_err());
        let mut s = sample();
        s.jobs[0].nodes = 0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn workload_preserves_index_identity() {
        let s = sample();
        let w = s.workload();
        for (i, j) in s.jobs.iter().enumerate() {
            let job = &w.jobs()[i];
            assert_eq!(job.id, JobId(i as u32));
            assert_eq!(job.submit, j.submit);
            assert_eq!(job.nodes, j.nodes);
        }
    }
}
