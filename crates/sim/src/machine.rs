//! The machine model of Example 5: a fixed pool of nodes with variable
//! partitioning, exclusive access and no time sharing — generalised to
//! disjoint node-class pools (§6.1 heterogeneity).
//!
//! A running job occupies exactly `nodes` nodes *of one class* from its
//! start until its completion. The machine tracks the *projected* end of
//! every running job (`start + requested_time`) because that is all an
//! online scheduler may know; actual completions arrive from the engine.
//!
//! The degenerate single-class machine ([`Machine::new`]) behaves — and
//! places — bit-identically to the historical homogeneous model: it has
//! exactly one pool, every operation resolves to it, and its
//! [`LiveProfile`] sees the same operation sequence as before. Typed
//! machines ([`Machine::with_layout`]) keep one availability calendar per
//! class pool, plus an aggregate calendar for whole-machine queries; the
//! calendars are the only record of each pool's size and free count.

use crate::profile::LiveProfile;
use jobsched_workload::{ClassId, JobId, MachineLayout, NodeType, Time};

/// A job currently holding nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunningSlot {
    /// The running job.
    pub id: JobId,
    /// Nodes held.
    pub nodes: u32,
    /// Node class the partition was carved from.
    pub class: ClassId,
    /// When it started.
    pub start: Time,
    /// Upper bound on its end: `start + requested_time`. Execution is
    /// truncated at the user limit (Rule 2), so the real end never exceeds
    /// this but may come earlier.
    pub projected_end: Time,
}

/// Receipt for an active node drain: returned by [`Machine::drain_in`],
/// consumed by [`Machine::undrain`]. Not copyable — each drain can be
/// released exactly once.
#[derive(Debug, PartialEq, Eq)]
pub struct DrainToken(usize);

/// Errors raised on inconsistent machine operations — these indicate
/// scheduler bugs, so the engine converts them into panics with context.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MachineError {
    /// Start would exceed the free capacity of the job's class pool.
    Overcommit {
        /// Job attempting to start.
        id: JobId,
        /// Nodes requested.
        nodes: u32,
        /// Nodes free in the target pool.
        free: u32,
    },
    /// Finish for a job that is not running.
    NotRunning(JobId),
    /// Start for a job that is already running.
    AlreadyRunning(JobId),
    /// Drain would exceed the free capacity of its pool (drains never
    /// preempt running jobs — no time sharing means there is nowhere to
    /// put them).
    DrainOvercommit {
        /// Nodes requested for the drain.
        nodes: u32,
        /// Nodes free in the target pool.
        free: u32,
    },
    /// Undrain for a token that was already released.
    DrainNotActive,
    /// Operation targeting a class the layout does not have.
    NoSuchClass(ClassId),
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachineError::Overcommit { id, nodes, free } => {
                write!(f, "job {id} needs {nodes} nodes but only {free} are free")
            }
            MachineError::NotRunning(id) => write!(f, "job {id} is not running"),
            MachineError::AlreadyRunning(id) => write!(f, "job {id} is already running"),
            MachineError::DrainOvercommit { nodes, free } => {
                write!(f, "drain of {nodes} nodes exceeds the {free} free")
            }
            MachineError::DrainNotActive => write!(f, "drain token already released"),
            MachineError::NoSuchClass(c) => write!(f, "machine has no node class {c}"),
        }
    }
}

impl std::error::Error for MachineError {}

/// Space-shared machine state, one pool per node class.
///
/// Each pool *is* its [`LiveProfile`]: the future-availability calendar
/// kept incrementally in sync by [`Machine::start_in`] /
/// [`Machine::finish`] (O(log R) each, including early completions),
/// which also holds the pool's size and free count. Schedulers read a
/// pool's calendar through [`Machine::class_profile`] and the
/// whole-machine aggregate through [`Machine::profile`] instead of
/// rebuilding step functions per decision.
#[derive(Clone, Debug)]
pub struct Machine {
    layout: MachineLayout,
    pools: Vec<LiveProfile>,
    running: Vec<RunningSlot>,
    /// Active node drains: `(class, nodes, expected return time)`.
    /// Slab-indexed by [`DrainToken`]; released entries stay as `None` so
    /// tokens never alias.
    drains: Vec<Option<(ClassId, u32, Time)>>,
    /// Aggregate whole-machine calendar; only maintained when there is
    /// more than one pool (a single pool's calendar *is* the aggregate).
    agg: Option<LiveProfile>,
}

impl Machine {
    /// New homogeneous machine with `total` identical nodes, all free.
    pub fn new(total: u32) -> Self {
        assert!(total > 0, "machine needs at least one node");
        Machine::with_layout(MachineLayout::single(total))
    }

    /// New machine partitioned into the node-class pools of `layout`.
    pub fn with_layout(layout: MachineLayout) -> Self {
        let pools: Vec<LiveProfile> = layout
            .classes()
            .iter()
            .map(|c| LiveProfile::new(c.count))
            .collect();
        let total = layout.total_nodes();
        assert!(total > 0, "machine needs at least one node");
        let agg = (pools.len() > 1).then(|| LiveProfile::new(total));
        Machine {
            layout,
            pools,
            running: Vec::new(),
            drains: Vec::new(),
            agg,
        }
    }

    /// The node-class layout this machine was built from.
    #[inline]
    pub fn layout(&self) -> &MachineLayout {
        &self.layout
    }

    /// Number of node-class pools.
    #[inline]
    pub fn class_count(&self) -> usize {
        self.pools.len()
    }

    /// Total node count.
    #[inline]
    pub fn total_nodes(&self) -> u32 {
        self.profile().total()
    }

    /// Currently free node count, summed over all pools.
    #[inline]
    pub fn free_nodes(&self) -> u32 {
        self.profile().free_nodes()
    }

    /// Size of one class pool.
    #[inline]
    pub fn total_in(&self, class: ClassId) -> u32 {
        self.pools[class.index()].total()
    }

    /// Free nodes in one class pool.
    #[inline]
    pub fn free_in(&self, class: ClassId) -> u32 {
        self.pools[class.index()].free_nodes()
    }

    /// Jobs currently running (arbitrary order).
    #[inline]
    pub fn running(&self) -> &[RunningSlot] {
        &self.running
    }

    /// Resolve a request's hardware attributes to the one class pool that
    /// will host it, or `None` when no pool ever can.
    #[inline]
    pub fn resolve_class(
        &self,
        node_type: NodeType,
        memory_mb: u32,
        nodes: u32,
    ) -> Option<ClassId> {
        self.layout.resolve(node_type, memory_mb, nodes)
    }

    /// Active drains with their class: `(class, nodes, expected return)`.
    pub fn class_drains(&self) -> impl Iterator<Item = (ClassId, u32, Time)> + '_ {
        self.drains.iter().flatten().copied()
    }

    /// The whole-machine future-availability calendar: the single pool's
    /// calendar on a homogeneous machine, the maintained aggregate on a
    /// typed one.
    #[inline]
    pub fn profile(&self) -> &LiveProfile {
        match &self.agg {
            Some(agg) => agg,
            None => &self.pools[0],
        }
    }

    /// The future-availability calendar of one class pool.
    #[inline]
    pub fn class_profile(&self, class: ClassId) -> &LiveProfile {
        &self.pools[class.index()]
    }

    fn check_class(&self, class: ClassId) -> Result<(), MachineError> {
        if class.index() >= self.pools.len() {
            return Err(MachineError::NoSuchClass(class));
        }
        Ok(())
    }

    /// Take `nodes` free nodes of one class out of service until
    /// (projectedly) `until`. Drains never preempt running jobs, so they
    /// are bounded by the pool's free count. The availability calendars
    /// book the outage like a running job — backfilling schedulers plan
    /// around it automatically.
    pub fn drain_in(
        &mut self,
        class: ClassId,
        nodes: u32,
        until: Time,
    ) -> Result<DrainToken, MachineError> {
        assert!(nodes > 0, "zero-node drain is meaningless");
        self.check_class(class)?;
        let pool = &mut self.pools[class.index()];
        let free = pool.free_nodes();
        if nodes > free {
            return Err(MachineError::DrainOvercommit { nodes, free });
        }
        pool.on_start(nodes, until);
        if let Some(agg) = &mut self.agg {
            agg.on_start(nodes, until);
        }
        self.drains.push(Some((class, nodes, until)));
        Ok(DrainToken(self.drains.len() - 1))
    }

    /// Return a drained partition to service, yielding its node count.
    /// Like job finishes, the return may come earlier or later than the
    /// booked `until`; the calendar booking is cancelled either way.
    pub fn undrain(&mut self, token: DrainToken) -> Result<u32, MachineError> {
        let slot = self
            .drains
            .get_mut(token.0)
            .and_then(Option::take)
            .ok_or(MachineError::DrainNotActive)?;
        let (class, nodes, until) = slot;
        self.pools[class.index()].on_finish(nodes, until);
        if let Some(agg) = &mut self.agg {
            agg.on_finish(nodes, until);
        }
        Ok(nodes)
    }

    /// Allocate a class-0 partition for a job — the homogeneous-machine
    /// entry point. `projected_end` must be `now + requested_time` (the
    /// engine checks nothing further).
    pub fn start(
        &mut self,
        id: JobId,
        nodes: u32,
        now: Time,
        projected_end: Time,
    ) -> Result<(), MachineError> {
        self.start_in(ClassId(0), id, nodes, now, projected_end)
    }

    /// Allocate a partition of one class pool for a job.
    pub fn start_in(
        &mut self,
        class: ClassId,
        id: JobId,
        nodes: u32,
        now: Time,
        projected_end: Time,
    ) -> Result<(), MachineError> {
        if self.running.iter().any(|s| s.id == id) {
            return Err(MachineError::AlreadyRunning(id));
        }
        self.check_class(class)?;
        let pool = &mut self.pools[class.index()];
        let free = pool.free_nodes();
        if nodes > free {
            return Err(MachineError::Overcommit { id, nodes, free });
        }
        pool.on_start(nodes, projected_end);
        if let Some(agg) = &mut self.agg {
            agg.on_start(nodes, projected_end);
        }
        self.running.push(RunningSlot {
            id,
            nodes,
            class,
            start: now,
            projected_end,
        });
        Ok(())
    }

    /// Release the partition of a finishing job, returning its slot. The
    /// calendar booking at the job's *projected* end is cancelled even
    /// when the actual completion comes earlier (Rule 2 truncation means
    /// it never comes later).
    pub fn finish(&mut self, id: JobId) -> Result<RunningSlot, MachineError> {
        let idx = self
            .running
            .iter()
            .position(|s| s.id == id)
            .ok_or(MachineError::NotRunning(id))?;
        let slot = self.running.swap_remove(idx);
        self.pools[slot.class.index()].on_finish(slot.nodes, slot.projected_end);
        if let Some(agg) = &mut self.agg {
            agg.on_finish(slot.nodes, slot.projected_end);
        }
        Ok(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jobsched_workload::NodeClassSpec;

    #[test]
    fn start_and_finish_track_capacity() {
        let mut m = Machine::new(256);
        m.start(JobId(0), 100, 0, 50).unwrap();
        m.start(JobId(1), 156, 0, 70).unwrap();
        assert_eq!(m.free_nodes(), 0);
        let slot = m.finish(JobId(0)).unwrap();
        assert_eq!(slot.nodes, 100);
        assert_eq!(slot.class, ClassId(0));
        assert_eq!(m.free_nodes(), 100);
    }

    #[test]
    fn preempt_resume_keep_pool_and_calendar_in_sync() {
        let mut m = Machine::new(10);
        m.start(JobId(0), 6, 0, 100).unwrap();
        m.start(JobId(1), 4, 0, 80).unwrap();
        // Preempt frees the nodes and cancels the calendar booking.
        let slot = m.finish(JobId(0)).unwrap();
        assert_eq!((slot.nodes, slot.projected_end), (6, 100));
        assert_eq!(m.free_nodes(), 6);
        assert_eq!(m.profile().free_nodes(), 6);
        // Resume re-books with the *remaining* limit.
        m.start_in(ClassId(0), JobId(0), 6, 30, 130).unwrap();
        assert_eq!(m.free_nodes(), 0);
        assert_eq!(m.profile().free_nodes(), 0);
        assert_eq!(m.profile().free_at(0, 129), 4);
        assert_eq!(m.profile().free_at(0, 130), 10);
    }

    #[test]
    fn overcommit_rejected() {
        let mut m = Machine::new(10);
        m.start(JobId(0), 8, 0, 5).unwrap();
        let err = m.start(JobId(1), 3, 0, 5).unwrap_err();
        assert_eq!(
            err,
            MachineError::Overcommit {
                id: JobId(1),
                nodes: 3,
                free: 2
            }
        );
        // Failed start must not leak capacity.
        assert_eq!(m.free_nodes(), 2);
        assert_eq!(m.running().len(), 1);
    }

    #[test]
    fn double_start_rejected() {
        let mut m = Machine::new(10);
        m.start(JobId(0), 2, 0, 5).unwrap();
        assert_eq!(
            m.start(JobId(0), 2, 1, 6),
            Err(MachineError::AlreadyRunning(JobId(0)))
        );
    }

    #[test]
    fn finish_unknown_rejected() {
        let mut m = Machine::new(10);
        assert_eq!(m.finish(JobId(7)), Err(MachineError::NotRunning(JobId(7))));
    }

    #[test]
    fn running_slots_expose_projection() {
        let mut m = Machine::new(16);
        m.start(JobId(3), 4, 100, 400).unwrap();
        let s = m.running()[0];
        assert_eq!(s.start, 100);
        assert_eq!(s.projected_end, 400);
    }

    #[test]
    fn drain_and_undrain_track_capacity() {
        let mut m = Machine::new(64);
        m.start(JobId(0), 16, 0, 100).unwrap();
        let t = m.drain_in(ClassId(0), 40, 500).unwrap();
        assert_eq!(m.free_nodes(), 8);
        assert_eq!(
            m.class_drains().collect::<Vec<_>>(),
            vec![(ClassId(0), 40, 500)]
        );
        // The outage is booked in the availability calendar.
        assert_eq!(m.profile().free_at(0, 499), 24);
        assert_eq!(m.profile().free_at(0, 500), 64);
        assert_eq!(m.undrain(t).unwrap(), 40);
        assert_eq!(m.free_nodes(), 48);
        assert_eq!(m.class_drains().count(), 0);
    }

    #[test]
    fn drain_bounded_by_free_nodes() {
        let mut m = Machine::new(10);
        m.start(JobId(0), 8, 0, 5).unwrap();
        assert_eq!(
            m.drain_in(ClassId(0), 3, 100),
            Err(MachineError::DrainOvercommit { nodes: 3, free: 2 })
        );
        assert_eq!(m.free_nodes(), 2);
    }

    #[test]
    fn double_undrain_rejected() {
        let mut m = Machine::new(10);
        let t = m.drain_in(ClassId(0), 4, 100).unwrap();
        // Tokens are move-only; forge an aliased one to prove the slab
        // refuses a second release.
        let forged = DrainToken(0);
        m.undrain(t).unwrap();
        assert_eq!(m.undrain(forged), Err(MachineError::DrainNotActive));
        assert_eq!(m.free_nodes(), 10);
    }

    #[test]
    fn errors_display() {
        assert!(MachineError::NotRunning(JobId(1))
            .to_string()
            .contains("not running"));
        assert!(MachineError::NoSuchClass(ClassId(3))
            .to_string()
            .contains("class 3"));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_node_machine_rejected() {
        let _ = Machine::new(0);
    }

    fn typed() -> Machine {
        // 20 thin/512 + 8 wide/2048 + 4 storage/2048 = 32 nodes.
        Machine::with_layout(MachineLayout::new(vec![
            NodeClassSpec {
                node_type: NodeType::Thin,
                memory_mb: 512,
                count: 20,
            },
            NodeClassSpec {
                node_type: NodeType::Wide,
                memory_mb: 2048,
                count: 8,
            },
            NodeClassSpec {
                node_type: NodeType::Storage,
                memory_mb: 2048,
                count: 4,
            },
        ]))
    }

    #[test]
    fn typed_machine_tracks_per_class_capacity() {
        let mut m = typed();
        assert_eq!(m.class_count(), 3);
        assert_eq!(m.total_nodes(), 32);
        assert_eq!(m.total_in(ClassId(1)), 8);
        m.start_in(ClassId(1), JobId(0), 6, 0, 100).unwrap();
        assert_eq!(m.free_in(ClassId(1)), 2);
        assert_eq!(m.free_in(ClassId(0)), 20);
        assert_eq!(m.free_nodes(), 26);
        assert!(m.free_in(ClassId(1)) >= 2);
        assert!(m.free_in(ClassId(1)) < 3);
        // The whole machine still has 20 free, but the wide pool is the
        // binding constraint for wide jobs.
        assert!(m.free_nodes() >= 20);
        let slot = m.finish(JobId(0)).unwrap();
        assert_eq!(slot.class, ClassId(1));
        assert_eq!(m.free_nodes(), 32);
    }

    #[test]
    fn per_class_overcommit_even_with_machine_capacity_free() {
        let mut m = typed();
        let err = m.start_in(ClassId(2), JobId(0), 5, 0, 10).unwrap_err();
        assert_eq!(
            err,
            MachineError::Overcommit {
                id: JobId(0),
                nodes: 5,
                free: 4
            }
        );
        assert_eq!(m.free_nodes(), 32);
    }

    #[test]
    fn per_class_profiles_and_aggregate_stay_consistent() {
        let mut m = typed();
        m.start_in(ClassId(0), JobId(0), 10, 0, 50).unwrap();
        m.start_in(ClassId(1), JobId(1), 8, 0, 200).unwrap();
        assert_eq!(m.class_profile(ClassId(0)).free_at(0, 0), 10);
        assert_eq!(m.class_profile(ClassId(0)).free_at(0, 50), 20);
        assert_eq!(m.class_profile(ClassId(1)).free_at(0, 100), 0);
        assert_eq!(m.class_profile(ClassId(1)).free_at(0, 200), 8);
        // Aggregate sees both bookings.
        assert_eq!(m.profile().free_at(0, 0), 14);
        assert_eq!(m.profile().free_at(0, 50), 24);
        assert_eq!(m.profile().free_at(0, 200), 32);
    }

    #[test]
    fn class_scoped_drain_exhausts_one_pool_only() {
        let mut m = typed();
        let t = m.drain_in(ClassId(1), 8, 500).unwrap();
        assert_eq!(m.free_in(ClassId(1)), 0);
        assert_eq!(m.free_in(ClassId(0)), 20);
        assert_eq!(
            m.class_drains().collect::<Vec<_>>(),
            vec![(ClassId(1), 8, 500)]
        );
        let err = m.drain_in(ClassId(1), 1, 600).unwrap_err();
        assert_eq!(err, MachineError::DrainOvercommit { nodes: 1, free: 0 });
        assert_eq!(m.undrain(t).unwrap(), 8);
        assert_eq!(m.free_in(ClassId(1)), 8);
    }

    #[test]
    fn resolve_class_follows_layout() {
        let m = typed();
        assert_eq!(m.resolve_class(NodeType::Thin, 128, 4), Some(ClassId(0)));
        assert_eq!(m.resolve_class(NodeType::Thin, 1024, 4), Some(ClassId(1)));
        assert_eq!(m.resolve_class(NodeType::Storage, 0, 2), Some(ClassId(2)));
        assert_eq!(m.resolve_class(NodeType::Wide, 0, 9), None);
    }

    #[test]
    fn unknown_class_rejected() {
        let mut m = Machine::new(10);
        assert_eq!(
            m.start_in(ClassId(1), JobId(0), 1, 0, 5),
            Err(MachineError::NoSuchClass(ClassId(1)))
        );
        assert_eq!(
            m.drain_in(ClassId(2), 1, 5),
            Err(MachineError::NoSuchClass(ClassId(2)))
        );
    }
}
