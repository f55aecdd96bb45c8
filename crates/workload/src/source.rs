//! Pull-based job sources: the input side of the streaming pipeline.
//!
//! A [`JobSource`] is a submission-ordered stream of jobs that the
//! simulation pipeline (`jobsched-sim::pipeline`) pulls from lazily, so
//! resident memory stays proportional to the *in-flight* job population
//! rather than the trace length. Three producers are provided:
//!
//! * [`WorkloadSource`] — adapter over an in-memory [`Workload`], so every
//!   existing trace/generator plugs into the pipeline unchanged;
//! * [`crate::swf::SwfStream`] — a lazy Standard Workload Format reader
//!   that parses jobs one line at a time from any [`std::io::BufRead`];
//! * [`ProbabilisticSource`] — the §6.2 binned model as an *unbounded*
//!   generator, for arbitrarily long synthetic streams.
//!
//! Contract: sources emit jobs with dense sequential ids (`JobId(k)` for
//! the k-th job) in non-decreasing submission order. The pipeline treats
//! an out-of-order emission as a hard error — a stream cannot be sorted
//! after the fact.

use crate::job::{Job, JobId, Time};
use crate::layout::MachineLayout;
use crate::probabilistic::BinnedModel;
use crate::rng::SmallRng;
use crate::swf::SwfError;
use crate::trace::Workload;

/// Error raised while pulling from a [`JobSource`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SourceError {
    /// A job's submission time went backwards — the stream is not
    /// replayable online and there is no buffer to sort it in.
    OutOfOrder {
        /// The offending job.
        id: JobId,
        /// Its submission time.
        submit: Time,
        /// The previous job's (later) submission time.
        prev: Time,
    },
    /// A job was emitted with a non-sequential id.
    NonDenseId {
        /// The id the source emitted.
        got: JobId,
        /// The id the pipeline expected next.
        expected: JobId,
    },
    /// The underlying SWF text failed to parse.
    Swf(SwfError),
}

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SourceError::OutOfOrder { id, submit, prev } => write!(
                f,
                "job {id} submitted at {submit}, before the previous job at {prev}: \
                 streaming sources must be submission-ordered"
            ),
            SourceError::NonDenseId { got, expected } => {
                write!(f, "source emitted job id {got}, expected {expected}")
            }
            SourceError::Swf(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SourceError {}

impl From<SwfError> for SourceError {
    fn from(e: SwfError) -> Self {
        SourceError::Swf(e)
    }
}

/// A pull-based, submission-ordered stream of jobs.
///
/// The streaming analogue of [`Workload`]: the machine context is known
/// up front, the jobs are not. Implementors must emit jobs with dense
/// sequential ids in non-decreasing `submit` order; consumers are
/// entitled to reject violations via [`SourceError`].
pub trait JobSource {
    /// Descriptive name (mirrors [`Workload::name`]).
    fn name(&self) -> &str;

    /// Size of the machine this stream targets.
    fn machine_nodes(&self) -> u32;

    /// Node-class layout of the target machine, when the stream carries
    /// heterogeneity information. `None` (the default) means the
    /// homogeneous [`machine_nodes`](Self::machine_nodes) pool.
    fn layout(&self) -> Option<&MachineLayout> {
        None
    }

    /// Pull the next job, `Ok(None)` when the stream is exhausted.
    fn next_job(&mut self) -> Result<Option<Job>, SourceError>;

    /// `(lower, upper)` bounds on the number of jobs remaining, in
    /// [`Iterator::size_hint`] convention. `(0, None)` when unknown.
    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, None)
    }
}

/// Adapter: any in-memory [`Workload`] as a [`JobSource`].
///
/// The workload's jobs are already submission-sorted and densely
/// numbered by construction, so this source is infallible.
#[derive(Debug)]
pub struct WorkloadSource<'a> {
    workload: &'a Workload,
    next: usize,
}

impl<'a> WorkloadSource<'a> {
    /// Stream `workload`'s jobs in order.
    pub fn new(workload: &'a Workload) -> Self {
        WorkloadSource { workload, next: 0 }
    }
}

impl JobSource for WorkloadSource<'_> {
    fn name(&self) -> &str {
        self.workload.name()
    }

    fn machine_nodes(&self) -> u32 {
        self.workload.machine_nodes()
    }

    fn layout(&self) -> Option<&MachineLayout> {
        self.workload.layout()
    }

    fn next_job(&mut self) -> Result<Option<Job>, SourceError> {
        let job = self.workload.jobs().get(self.next).cloned();
        if job.is_some() {
            self.next += 1;
        }
        Ok(job)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.workload.len() - self.next;
        (left, Some(left))
    }
}

/// The §6.2 binned model as an unbounded (or length-limited) generator.
///
/// Draws jobs from a fitted [`BinnedModel`] with exactly the same RNG
/// discipline as [`BinnedModel::generate`], so the first `n` jobs of a
/// seeded source equal `model.generate(n, seed)` field for field. With
/// no limit the stream never ends — the shape a long-running serving
/// scenario needs.
#[derive(Clone, Debug)]
pub struct ProbabilisticSource {
    model: BinnedModel,
    rng: SmallRng,
    clock: f64,
    next: u32,
    remaining: Option<usize>,
    arrival_scale: f64,
    name: String,
}

impl ProbabilisticSource {
    /// Unbounded stream from `model`, seeded deterministically.
    pub fn new(model: BinnedModel, seed: u64) -> Self {
        ProbabilisticSource {
            model,
            rng: SmallRng::seed_from_u64(seed),
            clock: 0.0,
            next: 0,
            remaining: None,
            arrival_scale: 1.0,
            name: "probabilistic-stream".into(),
        }
    }

    /// Cap the stream at `n` jobs.
    pub fn with_limit(mut self, n: usize) -> Self {
        self.remaining = Some(n);
        self
    }

    /// Stretch every inter-arrival gap by `scale` (> 1 lowers the offered
    /// load). The CTC-fitted model offers slightly more work than a
    /// 256-node machine drains — fine for a finite replay, divergent for
    /// an unbounded stream — so long-running scenarios use a scale that
    /// keeps the backlog stationary. `scale = 1` preserves RNG parity
    /// with [`BinnedModel::generate`].
    pub fn with_arrival_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0, "arrival scale must be positive");
        self.arrival_scale = scale;
        self
    }

    /// Override the descriptive name.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }
}

impl JobSource for ProbabilisticSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn machine_nodes(&self) -> u32 {
        self.model.machine_nodes()
    }

    fn next_job(&mut self) -> Result<Option<Job>, SourceError> {
        if let Some(r) = &mut self.remaining {
            if *r == 0 {
                return Ok(None);
            }
            *r -= 1;
        }
        let job = self.model.sample_next(
            &mut self.rng,
            &mut self.clock,
            self.arrival_scale,
            JobId(self.next),
        );
        self.next += 1;
        Ok(Some(job))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self.remaining {
            Some(r) => (r, Some(r)),
            None => (usize::MAX, None),
        }
    }
}

/// Drain a source into an in-memory [`Workload`] (testing/interop; the
/// whole point of sources is usually *not* to do this).
pub fn collect(source: &mut dyn JobSource) -> Result<Workload, SourceError> {
    let mut jobs = Vec::new();
    while let Some(j) = source.next_job()? {
        jobs.push(j);
    }
    Ok(Workload::new(source.name(), source.machine_nodes(), jobs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctc::prepared_ctc_workload;
    use crate::job::JobBuilder;

    #[test]
    fn workload_source_streams_in_order() {
        let w = Workload::new(
            "t",
            16,
            vec![
                JobBuilder::new(JobId(0)).submit(5).build(),
                JobBuilder::new(JobId(0)).submit(1).build(),
                JobBuilder::new(JobId(0)).submit(9).build(),
            ],
        );
        let mut s = WorkloadSource::new(&w);
        assert_eq!(s.size_hint(), (3, Some(3)));
        assert_eq!(s.machine_nodes(), 16);
        let mut submits = Vec::new();
        let mut ids = Vec::new();
        while let Some(j) = s.next_job().unwrap() {
            submits.push(j.submit);
            ids.push(j.id);
        }
        assert_eq!(submits, vec![1, 5, 9]);
        assert_eq!(ids, vec![JobId(0), JobId(1), JobId(2)]);
        assert_eq!(s.size_hint(), (0, Some(0)));
        assert_eq!(s.next_job().unwrap(), None);
    }

    #[test]
    fn collect_roundtrips_a_workload() {
        let w = prepared_ctc_workload(150, 3);
        let mut s = WorkloadSource::new(&w);
        let back = collect(&mut s).unwrap();
        assert_eq!(back.jobs(), w.jobs());
        assert_eq!(back.machine_nodes(), w.machine_nodes());
    }

    #[test]
    fn probabilistic_source_matches_batch_generate() {
        let base = prepared_ctc_workload(1_000, 5);
        let model = BinnedModel::fit(&base);
        let batch = model.generate(300, 42);
        let mut stream = ProbabilisticSource::new(model, 42).with_limit(300);
        let streamed = collect(&mut stream).unwrap();
        assert_eq!(streamed.jobs(), batch.jobs());
        assert_eq!(streamed.machine_nodes(), batch.machine_nodes());
    }

    #[test]
    fn unbounded_source_keeps_producing() {
        let base = prepared_ctc_workload(500, 6);
        let mut s = ProbabilisticSource::new(BinnedModel::fit(&base), 7);
        assert_eq!(s.size_hint(), (usize::MAX, None));
        let mut last = 0;
        for i in 0..5_000u32 {
            let j = s.next_job().unwrap().expect("unbounded stream never ends");
            assert_eq!(j.id, JobId(i));
            assert!(j.submit >= last, "submission order violated");
            last = j.submit;
        }
    }

    #[test]
    fn arrival_scale_stretches_gaps() {
        let base = prepared_ctc_workload(500, 6);
        let model = BinnedModel::fit(&base);
        let mut fast = ProbabilisticSource::new(model.clone(), 9).with_limit(200);
        let mut slow = ProbabilisticSource::new(model, 9)
            .with_limit(200)
            .with_arrival_scale(4.0);
        let a = collect(&mut fast).unwrap();
        let b = collect(&mut slow).unwrap();
        assert!(b.last_submit() > 2 * a.last_submit());
        // Same RNG stream otherwise: job shapes are identical.
        for (x, y) in a.jobs().iter().zip(b.jobs()) {
            assert_eq!(
                (x.nodes, x.requested_time, x.runtime),
                (y.nodes, y.requested_time, y.runtime)
            );
        }
    }

    #[test]
    fn source_error_messages_are_informative() {
        let e = SourceError::OutOfOrder {
            id: JobId(3),
            submit: 5,
            prev: 9,
        };
        let msg = e.to_string();
        assert!(msg.contains("3") && msg.contains("5") && msg.contains("9"));
        let e = SourceError::NonDenseId {
            got: JobId(7),
            expected: JobId(2),
        };
        assert!(e.to_string().contains("expected 2"));
    }
}
