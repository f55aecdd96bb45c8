//! In-memory spans for the traced run.
//!
//! One full [`Span`] per cell / phase / barrier; per-call events
//! (`select_starts`, `next_job`, `observe`, per-request stages) happen
//! 10⁶–10⁷ times per workload, so they are folded into per-parent
//! [`Agg`]regates (count, Σns, max, log₂ queue-depth buckets) and memory
//! stays bounded. Everything is written out once, at exit, as Chrome
//! trace-event JSON.
//!
//! A span's *self time* is its duration minus what its child spans and
//! its own aggregates cover. Every span and aggregate names the layer
//! (crate/module) it measures; time left on the `harness` layer is what
//! the benchmark could not attribute, and the traced run fails if that
//! exceeds 5 % of the workload's wall.

use jobsched_json::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Layer of spans that are the benchmark's own scaffolding.
pub const HARNESS: &str = "harness";

/// Number of log₂ buckets an aggregate keeps (depths up to 2³¹).
pub const DEPTH_BUCKETS: usize = 32;

pub type SpanId = usize;

/// log₂ bucket of a queue depth: 0 for 0, else ⌊log₂ d⌋ + 1.
pub fn depth_bucket(depth: usize) -> usize {
    ((usize::BITS - depth.leading_zeros()) as usize).min(DEPTH_BUCKETS - 1)
}

/// Many calls of one kind under one parent span, folded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Agg {
    pub name: &'static str,
    pub layer: &'static str,
    pub count: u64,
    pub sum_ns: u64,
    pub max_ns: u64,
    /// `(count, Σns)` per [`depth_bucket`] of the depth passed to
    /// [`Agg::add_at`]; empty for aggregates without a depth.
    pub buckets: Vec<(u64, u64)>,
    /// The calls overlapped each other (pipelined request latencies):
    /// their Σns does not partition the parent's time, so it is neither
    /// subtracted from the parent's self time nor added to a layer.
    pub concurrent: bool,
}

impl Agg {
    pub fn new(name: &'static str, layer: &'static str) -> Self {
        Agg {
            name,
            layer,
            count: 0,
            sum_ns: 0,
            max_ns: 0,
            buckets: Vec::new(),
            concurrent: false,
        }
    }

    /// An aggregate of overlapping calls (see [`Agg::concurrent`]).
    pub fn concurrent(name: &'static str, layer: &'static str) -> Self {
        Agg {
            concurrent: true,
            ..Agg::new(name, layer)
        }
    }

    #[inline]
    pub fn add(&mut self, ns: u64) {
        self.count += 1;
        self.sum_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    /// As [`Agg::add`], also filed under the bucket of `depth`.
    #[inline]
    pub fn add_at(&mut self, ns: u64, depth: usize) {
        self.add(ns);
        if self.buckets.is_empty() {
            self.buckets = vec![(0, 0); DEPTH_BUCKETS];
        }
        let b = &mut self.buckets[depth_bucket(depth)];
        b.0 += 1;
        b.1 += ns;
    }

    /// Fold another aggregate of the same kind into this one.
    pub fn merge(&mut self, other: &Agg) {
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        if !other.buckets.is_empty() {
            if self.buckets.is_empty() {
                self.buckets = vec![(0, 0); DEPTH_BUCKETS];
            }
            for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
                a.0 += b.0;
                a.1 += b.1;
            }
        }
    }

    /// `(count, Σns)` of calls whose depth `d` satisfied `lo <= d < hi`,
    /// for power-of-two (or zero) edges.
    pub fn depth_range(&self, lo: usize, hi: usize) -> (u64, u64) {
        let first = depth_bucket(lo);
        let last = depth_bucket(hi.saturating_sub(1));
        self.buckets
            .iter()
            .enumerate()
            .filter(|(i, _)| (first..=last).contains(i))
            .fold((0, 0), |acc, (_, b)| (acc.0 + b.0, acc.1 + b.1))
    }

    /// The part of the parent's time these calls account for.
    pub fn covered_ns(&self) -> u64 {
        if self.concurrent {
            0
        } else {
            self.sum_ns
        }
    }

    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }
}

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request / cell / repetition id shared by the spans of one unit.
    pub id: u64,
    pub aggs: Vec<Agg>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        parent: Option<SpanId>,
        id: u64,
    ) -> SpanId {
        let now = Instant::now();
        self.record(name, layer, parent, id, now, now)
    }

    pub fn close(&mut self, span: SpanId) {
        self.spans[span].end_ns = self.ns(Instant::now());
    }

    /// Record an interval that was measured by the caller.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        parent: Option<SpanId>,
        id: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.spans.push(Span {
            name: name.into(),
            layer,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            id,
            aggs: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Attach a folded aggregate to `span` (skipped when it saw no call).
    pub fn fold(&mut self, span: SpanId, agg: Agg) {
        if agg.count > 0 {
            self.spans[span].aggs.push(agg);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn span(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    /// Self time of every span: duration − child spans − own aggregates,
    /// floored at zero (children timed with their own clock reads can
    /// overshoot a parent by nanoseconds).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, children)| {
                let aggs: u64 = s.aggs.iter().map(Agg::covered_ns).sum();
                s.duration_ns().saturating_sub(children + aggs)
            })
            .collect()
    }

    /// Self time per layer: every span's self time goes to its layer,
    /// every aggregate's Σns to the aggregate's layer.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.layer).or_insert(0) += own;
            for a in &s.aggs {
                *out.entry(a.layer).or_insert(0) += a.covered_ns();
            }
        }
        out
    }

    /// Every aggregate named `name` below any span, merged.
    pub fn total(&self, name: &'static str) -> Agg {
        let mut out = Agg::new(name, HARNESS);
        for a in self.spans.iter().flat_map(|s| &s.aggs) {
            if a.name == name {
                out.layer = a.layer;
                out.concurrent = a.concurrent;
                out.merge(a);
            }
        }
        out
    }

    /// As [`Tracer::total`], restricted to spans whose name satisfies
    /// `pick` (e.g. the cells of one algorithm row).
    pub fn total_where(&self, name: &'static str, pick: impl Fn(&Span) -> bool) -> Agg {
        let mut out = Agg::new(name, HARNESS);
        for s in self.spans.iter().filter(|s| pick(s)) {
            for a in s.aggs.iter().filter(|a| a.name == name) {
                out.layer = a.layer;
                out.concurrent = a.concurrent;
                out.merge(a);
            }
        }
        out
    }

    /// Share of `root`'s duration that stayed on the harness layer in
    /// `root` and its descendants — time no layer accounts for.
    pub fn unattributed_ratio(&self, root: SpanId) -> f64 {
        let total = self.spans[root].duration_ns();
        if total == 0 {
            return 0.0;
        }
        let mut below = vec![false; self.spans.len()];
        below[root] = true;
        // Parents are always recorded before their children.
        for i in 0..self.spans.len() {
            if let Some(p) = self.spans[i].parent {
                below[i] = below[i] || below[p];
            }
        }
        let harness: u64 = self
            .spans
            .iter()
            .zip(self.self_ns())
            .zip(&below)
            .filter(|((s, _), b)| **b && s.layer == HARNESS)
            .map(|((_, own), _)| own)
            .sum();
        harness as f64 / total as f64
    }

    /// Chrome trace-event document (`chrome://tracing`, Perfetto): one
    /// complete event per span, aggregates under `args`.
    pub fn to_chrome(&self) -> Json {
        let self_ns = self.self_ns();
        let events = self
            .spans
            .iter()
            .zip(self_ns)
            .enumerate()
            .map(|(i, (s, own))| {
                let aggs = s
                    .aggs
                    .iter()
                    .map(|a| {
                        let buckets = a
                            .buckets
                            .iter()
                            .enumerate()
                            .filter(|(_, b)| b.0 > 0)
                            .map(|(k, b)| {
                                Json::obj([
                                    ("log2_depth", Json::UInt(k as u64)),
                                    ("count", Json::UInt(b.0)),
                                    ("sum_ns", Json::UInt(b.1)),
                                ])
                            })
                            .collect();
                        Json::obj([
                            ("name", Json::Str(a.name.into())),
                            ("layer", Json::Str(a.layer.into())),
                            ("count", Json::UInt(a.count)),
                            ("sum_ns", Json::UInt(a.sum_ns)),
                            ("max_ns", Json::UInt(a.max_ns)),
                            ("concurrent", Json::Bool(a.concurrent)),
                            ("by_depth", Json::Arr(buckets)),
                        ])
                    })
                    .collect();
                Json::obj([
                    ("name", Json::Str(s.name.clone())),
                    ("cat", Json::Str(s.layer.into())),
                    ("ph", Json::Str("X".into())),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.duration_ns() as f64 / 1e3)),
                    ("pid", Json::UInt(1)),
                    ("tid", Json::UInt(1)),
                    (
                        "args",
                        Json::obj([
                            ("span", Json::UInt(i as u64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                            ),
                            ("id", Json::UInt(s.id)),
                            ("start_ns", Json::UInt(s.start_ns)),
                            ("end_ns", Json::UInt(s.end_ns)),
                            ("self_ns", Json::UInt(own)),
                            ("aggregates", Json::Arr(aggs)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::Str("ms".into())),
        ])
    }

    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome().to_string_compact() + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A tracer with hand-placed spans: root 0..1000 (harness), child A
    /// 100..500 (layer x) holding grandchild 200..300 (layer y) and an
    /// aggregate of 150 ns (layer z), child B 600..900 (layer x).
    fn fixture() -> (Tracer, [SpanId; 4]) {
        let mut t = Tracer::new();
        let at = |t: &Tracer, ns: u64| t.origin + Duration::from_nanos(ns);
        let (o0, o1) = (at(&t, 0), at(&t, 1000));
        let root = t.record("root", HARNESS, None, 0, o0, o1);
        let (a0, a1) = (at(&t, 100), at(&t, 500));
        let a = t.record("a", "x", Some(root), 1, a0, a1);
        let (g0, g1) = (at(&t, 200), at(&t, 300));
        let g = t.record("g", "y", Some(a), 1, g0, g1);
        let (b0, b1) = (at(&t, 600), at(&t, 900));
        let b = t.record("b", "x", Some(root), 2, b0, b1);
        let mut agg = Agg::new("call", "z");
        agg.add_at(100, 0);
        agg.add_at(50, 300);
        t.fold(a, agg);
        (t, [root, a, g, b])
    }

    #[test]
    fn concurrent_aggregates_leave_self_time_alone() {
        let (mut t, [root, a, ..]) = fixture();
        let before = t.self_ns()[a];
        let mut latencies = Agg::concurrent("latency", "serve");
        latencies.add(10_000);
        t.fold(a, latencies);
        assert_eq!(t.self_ns()[a], before);
        assert_eq!(t.layer_self_ns().values().sum::<u64>(), 1000);
        assert_eq!(t.total("latency").sum_ns, 10_000);
        assert!(t.total("latency").concurrent);
        let _ = root;
    }

    #[test]
    fn aggregates_bucket_by_log2_depth_and_merge() {
        assert_eq!(depth_bucket(0), 0);
        assert_eq!(depth_bucket(1), 1);
        assert_eq!(depth_bucket(15), 4);
        assert_eq!(depth_bucket(16), 5);
        assert_eq!(depth_bucket(usize::MAX), DEPTH_BUCKETS - 1);
        let (t, _) = fixture();
        let total = t.total("call");
        assert_eq!((total.count, total.sum_ns, total.max_ns), (2, 150, 100));
        assert_eq!(total.layer, "z");
        assert_eq!(total.depth_range(0, 16), (1, 100));
        assert_eq!(total.depth_range(256, 4096), (1, 50));
        assert_eq!(total.depth_range(16, 256), (0, 0));
        let picked = t.total_where("call", |s| s.name == "b");
        assert_eq!(picked.count, 0);
    }

    #[test]
    fn chrome_document_round_trips_through_the_parser() {
        let (t, _) = fixture();
        let text = t.to_chrome().to_string_compact();
        let doc = jobsched_json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 4);
        let a = &events[1];
        assert_eq!(a.get("ph").unwrap().as_str(), Some("X"));
        let args = a.get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_u64(), Some(0));
        assert_eq!(args.get("self_ns").unwrap().as_u64(), Some(150));
    }
}
