//! Standard Workload Format (SWF) reader/writer.
//!
//! The CTC trace the paper uses is distributed through Feitelson's Parallel
//! Workloads Archive (\[1\] in the paper) in SWF: one job per line, 18
//! whitespace-separated fields, `;` comment lines carrying header metadata.
//! Implementing the full format means a real archive trace can be swapped in
//! for the synthetic CTC model with `Workload::from_swf(&text)` and nothing
//! else changes.
//!
//! Field map (1-based, per the archive definition):
//!  1 job number          7 requested memory (KB/node; we store MB)
//!  2 submit time         8 requested number of processors
//!  3 wait time           9 requested time
//!  4 run time           10 status
//!  5 allocated procs    11 user id
//!  6 avg cpu time       12 group id       13 executable
//! 14 queue              15 partition      16 preceding job
//! 17 think time         18 (unused here)

use crate::job::{CompletionStatus, Job, JobId, NodeType, Time};
use crate::source::{JobSource, SourceError};
use crate::trace::Workload;
use std::fmt::Write as _;
use std::io::BufRead;

/// Error from SWF parsing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SwfError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for SwfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SWF parse error on line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SwfError {}

fn field(fields: &[&str], idx: usize, line: usize) -> Result<i64, SwfError> {
    fields
        .get(idx)
        .ok_or_else(|| SwfError {
            line,
            message: format!("missing field {}", idx + 1),
        })?
        .parse::<f64>()
        .map(|v| v as i64)
        .map_err(|e| SwfError {
            line,
            message: format!("field {}: {e}", idx + 1),
        })
}

/// What one physical SWF line means, as shared by the batch parser and
/// the streaming reader.
enum SwfLine {
    /// Blank, comment, or a job unusable for simulation (unknown size or
    /// runtime) — the archive recommends skipping those.
    Skip,
    /// A `MaxNodes`/`MaxProcs` header declaration (the widest wins).
    Size(u32),
    /// A usable job; its id is a placeholder for the consumer to assign.
    Job(Box<Job>),
}

/// Classify one raw line. `line` is the 1-based physical line number used
/// in error messages. Trimming handles both CRLF and indented comments.
fn classify_line(raw: &str, line: usize) -> Result<SwfLine, SwfError> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(SwfLine::Skip);
    }
    if let Some(comment) = trimmed.strip_prefix(';') {
        if let Some((key, value)) = comment.split_once(':') {
            if key.trim().eq_ignore_ascii_case("MaxNodes")
                || key.trim().eq_ignore_ascii_case("MaxProcs")
            {
                if let Ok(v) = value.trim().parse::<u32>() {
                    return Ok(SwfLine::Size(v));
                }
            }
        }
        return Ok(SwfLine::Skip);
    }
    let fields: Vec<&str> = trimmed.split_whitespace().collect();
    if fields.len() < 10 {
        return Err(SwfError {
            line,
            message: format!("expected ≥10 fields, got {}", fields.len()),
        });
    }
    let submit = field(&fields, 1, line)?;
    let run_time = field(&fields, 3, line)?;
    let procs = field(&fields, 4, line)?;
    let req_procs = field(&fields, 7, line)?;
    let req_time = field(&fields, 8, line)?;
    let status = field(&fields, 9, line)?;
    let user = field(&fields, 10, line).unwrap_or(0).max(0) as u32;
    let mem = field(&fields, 6, line).unwrap_or(-1);

    let nodes = if procs > 0 { procs } else { req_procs };
    if nodes <= 0 || run_time <= 0 {
        return Ok(SwfLine::Skip); // unknown size or runtime: unusable for simulation
    }
    let runtime = run_time as Time;
    let requested = if req_time > 0 {
        req_time as Time
    } else {
        runtime
    };
    Ok(SwfLine::Job(Box::new(Job {
        id: JobId(0),
        submit: submit.max(0) as Time,
        nodes: nodes as u32,
        requested_time: requested,
        runtime,
        user,
        memory_mb: if mem > 0 {
            (mem / 1024).max(1) as u32
        } else {
            0
        },
        node_type: NodeType::Thin,
        status: match status {
            1 => CompletionStatus::Completed,
            5 => CompletionStatus::KilledAtLimit,
            _ => CompletionStatus::Failed,
        },
    })))
}

/// Parse SWF text into a workload.
///
/// * Jobs with unknown (−1) processor counts or runtimes are skipped, as the
///   archive recommends for simulation studies.
/// * `requested time = −1` falls back to the actual runtime (the job then
///   has perfect information, which is what traces without estimates give).
/// * `MaxNodes` from the header comment, when present, sets the machine
///   size; otherwise the widest job does.
pub fn parse(text: &str, name: &str) -> Result<Workload, SwfError> {
    let mut jobs = Vec::new();
    let mut max_nodes: Option<u32> = None;
    for (lineno, raw) in text.lines().enumerate() {
        match classify_line(raw, lineno + 1)? {
            SwfLine::Skip => {}
            SwfLine::Size(v) => max_nodes = Some(max_nodes.map_or(v, |m: u32| m.max(v))),
            SwfLine::Job(j) => jobs.push(*j),
        }
    }
    let machine = max_nodes.unwrap_or_else(|| jobs.iter().map(|j| j.nodes).max().unwrap_or(1));
    Ok(Workload::new(name, machine, jobs))
}

/// Lazy SWF reader: parses one line at a time from any [`BufRead`] and
/// yields jobs through the [`JobSource`] interface, so a trace never has
/// to fit in memory.
///
/// Two deliberate departures from the batch [`parse`]:
///
/// * The machine size must be known before the first job is emitted, so
///   the header block (`MaxNodes`/`MaxProcs`, widest declaration wins) is
///   read eagerly in [`SwfStream::new`]; a trace without a size header is
///   rejected there — use [`SwfStream::with_machine_nodes`] to supply the
///   size out of band. (The batch parser can instead fall back on the
///   widest job, which requires seeing the whole trace.)
/// * Jobs must appear in non-decreasing submission order. The batch
///   parser re-sorts after the fact; a stream has nowhere to sort, so an
///   out-of-order line is an explicit [`SwfError`].
#[derive(Debug)]
pub struct SwfStream<R> {
    reader: R,
    name: String,
    machine_nodes: u32,
    /// First job line, consumed while scanning the header block.
    pending: Option<Job>,
    next_id: u32,
    last_submit: Time,
    lineno: usize,
}

impl<R: BufRead> SwfStream<R> {
    /// Open a stream, reading the header block (up to and including the
    /// first job line) to learn the machine size. Errors if a job appears
    /// before any `MaxNodes`/`MaxProcs` declaration.
    pub fn new(reader: R, name: impl Into<String>) -> Result<Self, SwfError> {
        let mut s = SwfStream {
            reader,
            name: name.into(),
            machine_nodes: 0,
            pending: None,
            next_id: 0,
            last_submit: 0,
            lineno: 0,
        };
        let mut max_nodes: Option<u32> = None;
        loop {
            match s.read_classified()? {
                None => break,
                Some(SwfLine::Skip) => {}
                Some(SwfLine::Size(v)) => max_nodes = Some(max_nodes.map_or(v, |m: u32| m.max(v))),
                Some(SwfLine::Job(j)) => {
                    s.pending = Some(*j);
                    break;
                }
            }
        }
        match max_nodes {
            Some(m) => {
                s.machine_nodes = m;
                Ok(s)
            }
            None if s.pending.is_none() => {
                // Empty or comment-only trace: degenerate but harmless.
                s.machine_nodes = 1;
                Ok(s)
            }
            None => Err(SwfError {
                line: s.lineno,
                message: "no MaxNodes/MaxProcs header before the first job; \
                          a stream cannot infer the machine size from the widest job \
                          (use SwfStream::with_machine_nodes)"
                    .into(),
            }),
        }
    }

    /// Open a stream with an explicit machine size, ignoring any size
    /// headers in the text. Nothing is read until the first `next_job`.
    pub fn with_machine_nodes(reader: R, name: impl Into<String>, machine_nodes: u32) -> Self {
        assert!(machine_nodes > 0, "machine must have at least one node");
        SwfStream {
            reader,
            name: name.into(),
            machine_nodes,
            pending: None,
            next_id: 0,
            last_submit: 0,
            lineno: 0,
        }
    }

    /// Read and classify the next physical line; `None` at end of input.
    fn read_classified(&mut self) -> Result<Option<SwfLine>, SwfError> {
        let mut buf = String::new();
        match self.reader.read_line(&mut buf) {
            Ok(0) => Ok(None),
            Ok(_) => {
                self.lineno += 1;
                classify_line(&buf, self.lineno).map(Some)
            }
            Err(e) => Err(SwfError {
                line: self.lineno + 1,
                message: format!("read error: {e}"),
            }),
        }
    }

    /// Assign the next dense id, enforcing submission order.
    fn emit(&mut self, mut job: Job) -> Result<Option<Job>, SourceError> {
        let id = JobId(self.next_id);
        if job.submit < self.last_submit {
            return Err(SourceError::OutOfOrder {
                id,
                submit: job.submit,
                prev: self.last_submit,
            });
        }
        job.id = id;
        self.next_id += 1;
        self.last_submit = job.submit;
        Ok(Some(job))
    }
}

impl<R: BufRead> JobSource for SwfStream<R> {
    fn name(&self) -> &str {
        &self.name
    }

    fn machine_nodes(&self) -> u32 {
        self.machine_nodes
    }

    fn next_job(&mut self) -> Result<Option<Job>, SourceError> {
        if let Some(j) = self.pending.take() {
            return self.emit(j);
        }
        loop {
            match self.read_classified()? {
                None => return Ok(None),
                // Size headers after the first job can no longer change
                // the already-reported machine size; ignore them.
                Some(SwfLine::Skip) | Some(SwfLine::Size(_)) => {}
                Some(SwfLine::Job(j)) => return self.emit(*j),
            }
        }
    }
}

/// Serialise a workload to SWF text (header comment + one line per job).
pub fn write(w: &Workload) -> String {
    let mut out = String::with_capacity(w.len() * 64 + 128);
    let _ = writeln!(out, "; Workload: {}", w.name());
    let _ = writeln!(out, "; MaxNodes: {}", w.machine_nodes());
    let _ = writeln!(out, "; Generated by jobsched-workload");
    for j in w.jobs() {
        let status = match j.status {
            CompletionStatus::Completed => 1,
            CompletionStatus::KilledAtLimit => 5,
            CompletionStatus::Failed => 0,
        };
        let _ = writeln!(
            out,
            "{} {} -1 {} {} {} {} {} {} {} {} -1 -1 -1 -1 -1 -1 -1",
            j.id.0 + 1,
            j.submit,
            j.runtime,
            j.nodes,
            j.memory_mb as i64 * 1024,
            (j.memory_mb as i64) * 1024,
            j.nodes,
            j.requested_time,
            status,
            j.user,
        );
    }
    out
}

/// Round-trip helper on [`Workload`].
impl Workload {
    /// Parse an SWF document (see [`parse`]).
    pub fn from_swf(text: &str, name: &str) -> Result<Workload, SwfError> {
        parse(text, name)
    }

    /// Serialise to SWF (see [`write()`]).
    pub fn to_swf(&self) -> String {
        write(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobBuilder;

    const SAMPLE: &str = "\
; MaxNodes: 430
; UnixStartTime: 836000000
1 0 10 3600 32 -1 262144 32 7200 1 17 5 -1 -1 -1 -1 -1 -1
2 100 -1 120 1 -1 -1 1 300 5 18 5 -1 -1 -1 -1 -1 -1
3 200 -1 -1 -1 -1 -1 16 600 0 19 5 -1 -1 -1 -1 -1 -1
";

    #[test]
    fn parse_reads_jobs_and_header() {
        let w = parse(SAMPLE, "ctc").unwrap();
        assert_eq!(w.machine_nodes(), 430);
        // Job 3 has unknown runtime/procs and is skipped.
        assert_eq!(w.len(), 2);
        let j = &w.jobs()[0];
        assert_eq!(j.submit, 0);
        assert_eq!(j.nodes, 32);
        assert_eq!(j.runtime, 3600);
        assert_eq!(j.requested_time, 7200);
        assert_eq!(j.status, CompletionStatus::Completed);
        assert_eq!(j.user, 17);
    }

    #[test]
    fn parse_killed_status_mapped() {
        let w = parse(SAMPLE, "ctc").unwrap();
        assert_eq!(w.jobs()[1].status, CompletionStatus::KilledAtLimit);
    }

    #[test]
    fn parse_rejects_short_lines() {
        let err = parse("1 2 3\n", "bad").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.to_string().contains("fields"));
    }

    #[test]
    fn parse_without_header_uses_widest_job() {
        let text = "1 0 -1 100 64 -1 -1 64 200 1 0 0 -1 -1 -1 -1 -1 -1\n";
        let w = parse(text, "x").unwrap();
        assert_eq!(w.machine_nodes(), 64);
    }

    #[test]
    fn roundtrip_preserves_schedule_relevant_fields() {
        let jobs = vec![
            JobBuilder::new(JobId(0))
                .submit(5)
                .nodes(8)
                .requested(600)
                .runtime(300)
                .build(),
            JobBuilder::new(JobId(0))
                .submit(50)
                .nodes(128)
                .requested(1200)
                .runtime(2400)
                .status(CompletionStatus::KilledAtLimit)
                .user(3)
                .build(),
        ];
        let w = Workload::new("orig", 256, jobs);
        let text = w.to_swf();
        let back = Workload::from_swf(&text, "copy").unwrap();
        assert_eq!(back.machine_nodes(), 256);
        assert_eq!(back.len(), w.len());
        for (a, b) in w.jobs().iter().zip(back.jobs()) {
            assert_eq!(a.submit, b.submit);
            assert_eq!(a.nodes, b.nodes);
            assert_eq!(a.requested_time, b.requested_time);
            assert_eq!(a.runtime, b.runtime);
            assert_eq!(a.status, b.status);
            assert_eq!(a.user, b.user);
        }
    }

    #[test]
    fn missing_requested_time_falls_back_to_runtime() {
        let text = "1 0 -1 100 4 -1 -1 4 -1 1 0 0 -1 -1 -1 -1 -1 -1\n";
        let w = parse(text, "x").unwrap();
        assert_eq!(w.jobs()[0].requested_time, 100);
    }

    #[test]
    fn comments_and_blank_lines_anywhere_are_skipped() {
        let text = "\
; MaxNodes: 16
   \t
1 0 -1 100 4 -1 -1 4 200 1 0 0 -1 -1 -1 -1 -1 -1

  ; an indented mid-file comment without a colon
2 10 -1 100 4 -1 -1 4 200 1 0 0 -1 -1 -1 -1 -1 -1
;
";
        let w = parse(text, "x").unwrap();
        assert_eq!(w.len(), 2);
        assert_eq!(w.machine_nodes(), 16);
    }

    #[test]
    fn short_line_error_reports_the_physical_line_number() {
        // Comments and blanks still count toward the reported line number.
        let text = "; MaxNodes: 8\n\n1 0 -1 100 4 -1 -1 4 200 1 0 0 -1 -1 -1 -1 -1 -1\n1 2 3 4\n";
        let err = parse(text, "bad").unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.to_string().contains("got 4"));
    }

    #[test]
    fn negative_runtime_or_nodes_marks_unusable_jobs_skipped() {
        // Cancelled-before-start jobs appear in real traces with −1
        // runtime and/or −1 processors; both shapes must be dropped
        // without poisoning neighbouring lines.
        let text = "\
1 0 -1 -1 4 -1 -1 4 200 0 0 0 -1 -1 -1 -1 -1 -1
2 5 -1 100 -1 -1 -1 -1 200 0 0 0 -1 -1 -1 -1 -1 -1
3 9 -1 0 4 -1 -1 4 200 0 0 0 -1 -1 -1 -1 -1 -1
4 10 -1 100 0 -1 -1 -5 200 0 0 0 -1 -1 -1 -1 -1 -1
5 20 -1 100 4 -1 -1 4 200 1 0 0 -1 -1 -1 -1 -1 -1
";
        let w = parse(text, "x").unwrap();
        assert_eq!(w.len(), 1);
        assert_eq!(w.jobs()[0].submit, 20);
    }

    #[test]
    fn repeated_size_headers_take_the_maximum() {
        // Some archive traces carry both MaxNodes and MaxProcs (and the
        // occasional duplicate); the widest declaration wins, and an
        // unparsable value is ignored rather than fatal.
        let text = "\
; MaxNodes: 64
; maxprocs: 430
; MaxNodes: 128
; MaxProcs: not-a-number
1 0 -1 100 4 -1 -1 4 200 1 0 0 -1 -1 -1 -1 -1 -1
";
        let w = parse(text, "x").unwrap();
        assert_eq!(w.machine_nodes(), 430);
    }

    #[test]
    fn roundtrip_preserves_memory_failed_status_and_resorts() {
        // Crafted trace: out-of-submit-order input (Workload::new sorts),
        // a Failed job, and a memory requirement that must survive the
        // KB↔MB conversion in both directions.
        let jobs = vec![
            JobBuilder::new(JobId(0))
                .submit(500)
                .nodes(16)
                .requested(100)
                .runtime(40)
                .status(CompletionStatus::Failed)
                .memory_mb(256)
                .build(),
            JobBuilder::new(JobId(0))
                .submit(0)
                .nodes(2)
                .requested(900)
                .runtime(900)
                .user(11)
                .build(),
        ];
        let w = Workload::new("crafted", 32, jobs);
        let back = Workload::from_swf(&w.to_swf(), "copy").unwrap();
        assert_eq!(back.machine_nodes(), 32);
        assert_eq!(back.len(), 2);
        // Sorted by submit: the id-0 job is now the t=0 submission.
        assert_eq!(back.jobs()[0].submit, 0);
        assert_eq!(back.jobs()[0].user, 11);
        assert_eq!(back.jobs()[1].status, CompletionStatus::Failed);
        assert_eq!(back.jobs()[1].memory_mb, 256);
        // A second round trip is a fixpoint.
        assert_eq!(
            back.to_swf(),
            Workload::from_swf(&back.to_swf(), "copy").unwrap().to_swf()
        );
    }

    // ---- streaming reader -------------------------------------------

    use crate::source::collect;

    #[test]
    fn stream_matches_batch_parse_on_sample() {
        let mut s = SwfStream::new(SAMPLE.as_bytes(), "ctc").unwrap();
        let streamed = collect(&mut s).unwrap();
        let batch = parse(SAMPLE, "ctc").unwrap();
        assert_eq!(streamed.machine_nodes(), batch.machine_nodes());
        assert_eq!(streamed.jobs(), batch.jobs());
    }

    #[test]
    fn stream_handles_crlf_and_trailing_blanks() {
        let text = "; MaxNodes: 16\r\n1 0 -1 100 4 -1 -1 4 200 1 0 0 -1 -1 -1 -1 -1 -1\r\n2 10 -1 50 2 -1 -1 2 60 1 0 0 -1 -1 -1 -1 -1 -1\r\n\r\n   \r\n";
        let mut s = SwfStream::new(text.as_bytes(), "crlf").unwrap();
        let w = collect(&mut s).unwrap();
        assert_eq!(w.machine_nodes(), 16);
        assert_eq!(w.len(), 2);
        assert_eq!(w.jobs()[1].submit, 10);
        // Batch parse agrees line for line.
        assert_eq!(w.jobs(), parse(text, "crlf").unwrap().jobs());
    }

    #[test]
    fn stream_rejects_out_of_order_submits() {
        let text = "; MaxNodes: 8\n1 100 -1 10 1 -1 -1 1 20 1 0 0 -1 -1 -1 -1 -1 -1\n2 50 -1 10 1 -1 -1 1 20 1 0 0 -1 -1 -1 -1 -1 -1\n";
        let mut s = SwfStream::new(text.as_bytes(), "ooo").unwrap();
        assert!(s.next_job().unwrap().is_some());
        let err = s.next_job().unwrap_err();
        assert_eq!(
            err,
            SourceError::OutOfOrder {
                id: JobId(1),
                submit: 50,
                prev: 100,
            }
        );
        // The batch parser instead sorts — it is allowed to, it sees
        // the whole trace.
        assert_eq!(parse(text, "ooo").unwrap().jobs()[0].submit, 50);
    }

    #[test]
    fn stream_requires_a_size_header() {
        let text = "1 0 -1 100 4 -1 -1 4 200 1 0 0 -1 -1 -1 -1 -1 -1\n";
        let err = SwfStream::new(text.as_bytes(), "x").unwrap_err();
        assert!(err.to_string().contains("machine size"), "{err}");
        // …unless the caller supplies the size out of band.
        let mut s = SwfStream::with_machine_nodes(text.as_bytes(), "x", 64);
        assert_eq!(s.machine_nodes(), 64);
        assert_eq!(collect(&mut s).unwrap().len(), 1);
    }

    #[test]
    fn stream_assigns_dense_ids_across_skipped_lines() {
        // Unusable lines (unknown runtime/procs) are skipped without
        // burning ids, exactly like the batch parser's renumbering.
        let text = "\
; MaxProcs: 32
1 0 -1 -1 4 -1 -1 4 200 0 0 0 -1 -1 -1 -1 -1 -1
2 5 -1 100 4 -1 -1 4 200 1 0 0 -1 -1 -1 -1 -1 -1
3 9 -1 100 -1 -1 -1 -1 200 0 0 0 -1 -1 -1 -1 -1 -1
4 12 -1 100 4 -1 -1 4 200 1 0 0 -1 -1 -1 -1 -1 -1
";
        let mut s = SwfStream::new(text.as_bytes(), "x").unwrap();
        let w = collect(&mut s).unwrap();
        assert_eq!(w.len(), 2);
        assert_eq!(w.jobs()[0].id, JobId(0));
        assert_eq!(w.jobs()[0].submit, 5);
        assert_eq!(w.jobs()[1].id, JobId(1));
        assert_eq!(w.jobs()[1].submit, 12);
    }

    #[test]
    fn stream_empty_input_is_an_empty_source() {
        let mut s = SwfStream::new("".as_bytes(), "empty").unwrap();
        assert_eq!(s.next_job().unwrap(), None);
        let mut s = SwfStream::new("; just a comment\n".as_bytes(), "empty").unwrap();
        assert_eq!(s.next_job().unwrap(), None);
    }

    #[test]
    fn stream_parse_errors_carry_physical_line_numbers() {
        let text = "; MaxNodes: 8\n\n1 0 -1 10 1 -1 -1 1 20 1 0 0 -1 -1 -1 -1 -1 -1\n1 2 3\n";
        let mut s = SwfStream::new(text.as_bytes(), "bad").unwrap();
        assert!(s.next_job().unwrap().is_some());
        match s.next_job().unwrap_err() {
            SourceError::Swf(e) => {
                assert_eq!(e.line, 4);
                assert!(e.to_string().contains("got 3"));
            }
            other => panic!("expected Swf error, got {other:?}"),
        }
    }
}
