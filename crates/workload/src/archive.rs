//! Parallel Workloads Archive conventions: header metadata and trace
//! cleaning.
//!
//! The paper obtains its trace from Feitelson's archive (\[1\]) and §6.1
//! shows the administrator inspecting it before use ("a closer look at
//! the CTC workload trace reveals…"). Real archive traces carry a
//! structured comment header and known anomalies that the archive's
//! "cleaned" versions remove. This module provides both sides:
//!
//! * [`SwfHeader`] — the standard header fields, parsed from and emitted
//!   into `;`-comments;
//! * [`clean`] — the archive's cleaning rules as an explicit, reported
//!   transformation (anomalies are returned, not silently dropped),
//!   matching §2's remark that erroneous submissions exist and §6.1's
//!   spirit of making every trace modification a visible decision.

use crate::job::Time;
use crate::trace::Workload;
use std::fmt::Write as _;

/// Standard Workload Format header metadata (the commonly used subset).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SwfHeader {
    /// SWF version.
    pub version: Option<String>,
    /// Machine description ("IBM SP2").
    pub computer: Option<String>,
    /// Site ("Cornell Theory Center").
    pub installation: Option<String>,
    /// Unix timestamp of the trace start.
    pub unix_start_time: Option<i64>,
    /// Number of nodes in the traced partition.
    pub max_nodes: Option<u32>,
    /// Number of jobs the file claims to hold.
    pub max_jobs: Option<usize>,
    /// Free-form note.
    pub note: Option<String>,
}

impl SwfHeader {
    /// Parse the header comments of an SWF document.
    pub fn parse(text: &str) -> SwfHeader {
        let mut h = SwfHeader::default();
        for line in text.lines() {
            let Some(comment) = line.trim().strip_prefix(';') else {
                continue;
            };
            let Some((key, value)) = comment.split_once(':') else {
                continue;
            };
            let value = value.trim();
            match key.trim().to_ascii_lowercase().as_str() {
                "version" => h.version = Some(value.to_string()),
                "computer" => h.computer = Some(value.to_string()),
                "installation" => h.installation = Some(value.to_string()),
                "unixstarttime" => h.unix_start_time = value.parse().ok(),
                "maxnodes" | "maxprocs" => h.max_nodes = value.parse().ok(),
                "maxjobs" | "maxrecords" => h.max_jobs = value.parse().ok(),
                "note" => h.note = Some(value.to_string()),
                _ => {}
            }
        }
        h
    }

    /// Emit the header as SWF comments.
    pub fn emit(&self) -> String {
        let mut out = String::new();
        let mut put = |key: &str, value: Option<String>| {
            if let Some(v) = value {
                let _ = writeln!(out, "; {key}: {v}");
            }
        };
        put("Version", self.version.clone());
        put("Computer", self.computer.clone());
        put("Installation", self.installation.clone());
        put("UnixStartTime", self.unix_start_time.map(|v| v.to_string()));
        put("MaxNodes", self.max_nodes.map(|v| v.to_string()));
        put("MaxJobs", self.max_jobs.map(|v| v.to_string()));
        put("Note", self.note.clone());
        out
    }
}

/// One anomaly found (and fixed) by [`clean`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Anomaly {
    /// A job requested more nodes than the machine has; dropped.
    WiderThanMachine {
        /// Offending nodes request.
        nodes: u32,
    },
    /// A job requested more nodes than its eligible node class holds —
    /// anomalous even when narrower than the whole machine, because a
    /// partitioned machine can never co-schedule it; dropped. Only
    /// raised for workloads carrying a typed layout.
    WiderThanClass {
        /// Offending nodes request.
        nodes: u32,
        /// Size of the widest class pool compatible with the job's
        /// type and memory request.
        class_nodes: u32,
    },
    /// No node class is compatible with the job's type/memory request at
    /// any width; dropped. Only raised for typed layouts.
    NoEligibleClass,
    /// Zero-node request; dropped.
    ZeroNodes,
    /// Zero or negative runtime; dropped.
    ZeroRuntime,
    /// Requested-time limit missing; replaced by the actual runtime.
    MissingEstimate,
    /// Estimate implausibly above the longest observed runtime cap;
    /// clamped.
    EstimateAboveCap {
        /// The original estimate in seconds.
        estimate: Time,
    },
}

/// Result of cleaning a workload.
#[derive(Debug)]
pub struct CleanReport {
    /// The cleaned workload.
    pub workload: Workload,
    /// Every anomaly encountered, in trace order.
    pub anomalies: Vec<Anomaly>,
}

/// Apply the archive's standard cleaning rules. `estimate_cap` bounds
/// user estimates (the CTC queue limit is 18 h; traces contain a few
/// nonsense values far above any queue limit).
///
/// Partition-aware: when the workload carries a typed
/// [`MachineLayout`](crate::layout::MachineLayout), the width check runs
/// against the job's eligible node class, not the whole machine — a job
/// wider than every pool its hardware request fits is anomalous even
/// when narrower than the machine total. The layout is preserved on the
/// cleaned workload.
pub fn clean(workload: &Workload, estimate_cap: Time) -> CleanReport {
    assert!(estimate_cap > 0, "estimate cap must be positive");
    let machine = workload.machine_nodes();
    let layout = workload.layout();
    let mut anomalies = Vec::new();
    let mut jobs = Vec::with_capacity(workload.len());
    for job in workload.jobs() {
        if job.nodes == 0 {
            anomalies.push(Anomaly::ZeroNodes);
            continue;
        }
        if job.nodes > machine {
            anomalies.push(Anomaly::WiderThanMachine { nodes: job.nodes });
            continue;
        }
        if let Some(layout) = layout {
            if layout.class_for_job(job).is_none() {
                anomalies.push(match layout.max_width_for(job.node_type, job.memory_mb) {
                    Some(class_nodes) => Anomaly::WiderThanClass {
                        nodes: job.nodes,
                        class_nodes,
                    },
                    None => Anomaly::NoEligibleClass,
                });
                continue;
            }
        }
        if job.runtime == 0 {
            anomalies.push(Anomaly::ZeroRuntime);
            continue;
        }
        let mut j = job.clone();
        if j.requested_time == 0 {
            anomalies.push(Anomaly::MissingEstimate);
            j.requested_time = j.runtime;
        }
        if j.requested_time > estimate_cap {
            anomalies.push(Anomaly::EstimateAboveCap {
                estimate: j.requested_time,
            });
            j.requested_time = estimate_cap;
        }
        jobs.push(j);
    }
    let mut cleaned = Workload::new(format!("{}-clean", workload.name()), machine, jobs);
    if let Some(layout) = layout {
        cleaned = cleaned.with_layout(layout.clone());
    }
    CleanReport {
        workload: cleaned,
        anomalies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Job, JobBuilder, JobId};

    const HEADER: &str = "\
; Version: 2
; Computer: IBM SP2
; Installation: Cornell Theory Center
; UnixStartTime: 836000000
; MaxNodes: 430
; MaxJobs: 79164
; Note: batch partition only
1 0 -1 100 4 -1 -1 4 200 1 0 0 -1 -1 -1 -1 -1 -1
";

    #[test]
    fn header_roundtrip() {
        let h = SwfHeader::parse(HEADER);
        assert_eq!(h.computer.as_deref(), Some("IBM SP2"));
        assert_eq!(h.installation.as_deref(), Some("Cornell Theory Center"));
        assert_eq!(h.unix_start_time, Some(836_000_000));
        assert_eq!(h.max_nodes, Some(430));
        assert_eq!(h.max_jobs, Some(79_164));
        let again = SwfHeader::parse(&h.emit());
        assert_eq!(h, again);
    }

    #[test]
    fn header_ignores_unknown_keys_and_data_lines() {
        let h = SwfHeader::parse("; Frobnication: 7\n1 2 3\n");
        assert_eq!(h, SwfHeader::default());
    }

    fn raw(nodes: u32, requested: Time, runtime: Time) -> Job {
        // Bypass builder clamps to produce anomalous records.
        let mut j = JobBuilder::new(JobId(0)).build();
        j.nodes = nodes;
        j.requested_time = requested;
        j.runtime = runtime;
        j
    }

    #[test]
    fn clean_drops_structurally_broken_jobs() {
        let w = Workload::new(
            "dirty",
            64,
            vec![
                raw(4, 100, 100),  // fine
                raw(0, 100, 100),  // zero nodes
                raw(65, 100, 100), // too wide
                raw(4, 100, 0),    // zero runtime
            ],
        );
        let r = clean(&w, 86_400);
        assert_eq!(r.workload.len(), 1);
        assert_eq!(
            r.anomalies,
            vec![
                Anomaly::ZeroNodes,
                Anomaly::WiderThanMachine { nodes: 65 },
                Anomaly::ZeroRuntime
            ]
        );
        assert!(r.workload.validate().is_ok());
    }

    #[test]
    fn clean_repairs_estimates() {
        let w = Workload::new("dirty", 64, vec![raw(4, 0, 500), raw(4, 10_000_000, 100)]);
        let r = clean(&w, 86_400);
        assert_eq!(r.workload.len(), 2);
        assert_eq!(r.workload.jobs()[0].requested_time, 500);
        assert_eq!(r.workload.jobs()[1].requested_time, 86_400);
        assert_eq!(
            r.anomalies,
            vec![
                Anomaly::MissingEstimate,
                Anomaly::EstimateAboveCap {
                    estimate: 10_000_000
                }
            ]
        );
    }

    #[test]
    fn clean_trace_is_untouched() {
        let w = Workload::new("ok", 64, vec![raw(4, 200, 100), raw(8, 400, 399)]);
        let r = clean(&w, 86_400);
        assert!(r.anomalies.is_empty());
        assert_eq!(r.workload.len(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cap_rejected() {
        let w = Workload::new("x", 64, vec![]);
        let _ = clean(&w, 0);
    }

    #[test]
    fn clean_is_partition_aware_for_typed_layouts() {
        use crate::job::NodeType;
        use crate::layout::{MachineLayout, NodeClassSpec};
        // 48 thin + 16 wide = 64 nodes.
        let layout = MachineLayout::new(vec![
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
        ]);
        let mut wide20 = raw(20, 100, 100);
        wide20.node_type = NodeType::Wide;
        wide20.memory_mb = 1024;
        let mut storage = raw(2, 100, 100);
        storage.node_type = NodeType::Storage;
        let mut thin60 = raw(60, 100, 100);
        thin60.memory_mb = 256;
        let w = Workload::new(
            "dirty",
            64,
            vec![
                raw(4, 100, 100), // fine: thin pool
                wide20,           // 20 wide nodes, pool holds 16: anomalous
                storage,          // no storage pool at all
                thin60,           // 60 > thin pool 48, wide pool narrower
            ],
        )
        .with_layout(layout);
        let r = clean(&w, 86_400);
        assert_eq!(r.workload.len(), 1);
        assert_eq!(
            r.anomalies,
            vec![
                Anomaly::WiderThanClass {
                    nodes: 20,
                    class_nodes: 16
                },
                Anomaly::NoEligibleClass,
                Anomaly::WiderThanClass {
                    nodes: 60,
                    class_nodes: 48
                },
            ]
        );
        // The layout survives cleaning.
        assert!(r.workload.layout().is_some());
    }

    #[test]
    fn clean_without_layout_keeps_machine_wide_check_only() {
        // The same 60-node job is fine on a homogeneous 64-node machine.
        let w = Workload::new("ok", 64, vec![raw(60, 200, 100)]);
        let r = clean(&w, 86_400);
        assert!(r.anomalies.is_empty());
        assert_eq!(r.workload.len(), 1);
    }
}
