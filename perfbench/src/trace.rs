//! In-memory span recorder for the traced run.
//!
//! The benchmark only calls the program's public functions, so a span
//! wraps one such call, named `layer.fn` after the crate it enters.  When
//! a call's inner layers are not reachable from outside (a `respond` that
//! parses and renders, a `process` that indexes and validates), the traced
//! op runs those inner public calls again right after the outer one and
//! records them as the outer span's children.  Either way a span's self
//! time is its duration minus the durations of its children, which is the
//! layer's share of the op.  Counts are recorded per op at the same call
//! sites.  Nothing is written out before the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::common::{median, Op};

/// One recorded call.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    /// Start and end, in ms since the tracer was created.
    start: f64,
    end: f64,
    parent: Option<usize>,
    op: usize,
}

impl Span {
    fn ms(&self) -> f64 {
        self.end - self.start
    }
}

/// The spans and counts of one traced phase.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Op kinds, indexed by op id.
    ops: Vec<&'static str>,
    /// `(op, metric, value)` counts.
    counts: Vec<(usize, &'static str, f64)>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            ops: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Starts a new op; later spans and counts belong to it.
    pub fn begin_op(&mut self, kind: &'static str) {
        self.ops.push(kind);
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e3
    }

    fn op(&self) -> usize {
        self.ops
            .len()
            .checked_sub(1)
            .expect("begin_op before spans")
    }

    /// Records `f` as span `name` under `parent`; returns the span id.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let start = self.now();
        let out = std::hint::black_box(f());
        let end = self.now();
        (self.push(name, parent, start, end), out)
    }

    /// A recorded span's duration, in ms.
    pub fn duration(&self, id: usize) -> f64 {
        self.spans[id].ms()
    }

    /// Opens an enclosing span; children timed before [`Tracer::close`]
    /// nest inside it in time as well.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now();
        self.push(name, parent, now, now)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    fn push(&mut self, name: &'static str, parent: Option<usize>, start: f64, end: f64) -> usize {
        let op = self.op();
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Records a per-op count (or a derived per-op value).
    pub fn count(&mut self, name: &'static str, value: f64) {
        let op = self.op();
        self.counts.push((op, name, value));
    }

    /// Appends another tracer's ops (client threads trace separately).
    pub fn merge(&mut self, other: Tracer) {
        let op_base = self.ops.len();
        let span_base = self.spans.len();
        let shift = other.origin.duration_since(self.origin).as_secs_f64() * 1e3;
        self.ops.extend(other.ops);
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.op += op_base;
            s.parent = s.parent.map(|p| p + span_base);
            s.start += shift;
            s.end += shift;
            s
        }));
        self.counts.extend(
            other
                .counts
                .into_iter()
                .map(|(op, n, v)| (op + op_base, n, v)),
        );
    }
}

/// Per-op view of a traced phase.
struct OpView {
    kind: &'static str,
    /// Self time per layer metric (`<span name>_ms`), summed within the op.
    self_ms: BTreeMap<String, f64>,
    /// Sum of the op's root span durations: the op's traced end-to-end.
    root_ms: f64,
}

fn op_views(tr: &Tracer) -> Vec<OpView> {
    let mut child_ms = vec![0.0; tr.spans.len()];
    for s in &tr.spans {
        if let Some(p) = s.parent {
            child_ms[p] += s.ms();
        }
    }
    let mut views: Vec<OpView> = tr
        .ops
        .iter()
        .map(|&kind| OpView {
            kind,
            self_ms: BTreeMap::new(),
            root_ms: 0.0,
        })
        .collect();
    for (i, s) in tr.spans.iter().enumerate() {
        let view = &mut views[s.op];
        *view.self_ms.entry(format!("{}_ms", s.name)).or_default() += s.ms() - child_ms[i];
        if s.parent.is_none() {
            view.root_ms += s.ms();
        }
    }
    views
}

/// What the traced run reports.
#[derive(Debug, Default)]
pub struct TraceSummary {
    /// Per-layer metric → p50 over the ops that recorded it.
    pub layer: BTreeMap<String, f64>,
    /// Per op kind: (untraced p50, Σ layer self-time p50s, traced p50).
    pub accounting: Vec<(&'static str, f64, f64, f64)>,
    /// Largest |untraced p50 − Σ layer self times| over op kinds, in % of
    /// the untraced p50.
    pub unaccounted_pct: f64,
    /// Mean over op kinds of (traced − untraced) p50, in % of untraced.
    pub overhead_pct: f64,
}

pub fn summarize(tr: &Tracer, untraced: &[Op]) -> TraceSummary {
    let views = op_views(tr);
    let mut per_metric: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for v in &views {
        for (name, ms) in &v.self_ms {
            per_metric.entry(name.clone()).or_default().push(*ms);
        }
    }
    for &(_, name, value) in &tr.counts {
        per_metric.entry(name.to_string()).or_default().push(value);
    }
    let layer = per_metric
        .into_iter()
        .map(|(name, values)| (name, median(&values)))
        .collect();

    let mut kinds: Vec<&'static str> = views.iter().map(|v| v.kind).collect();
    kinds.sort_unstable();
    kinds.dedup();
    let mut summary = TraceSummary {
        layer,
        ..TraceSummary::default()
    };
    let mut overheads = Vec::new();
    for kind in kinds {
        let ops: Vec<&OpView> = views.iter().filter(|v| v.kind == kind).collect();
        let mut per_layer: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for v in &ops {
            for (name, ms) in &v.self_ms {
                per_layer.entry(name).or_default().push(*ms);
            }
        }
        // A layer missing from some ops of the kind contributes 0 there.
        let layer_sum: f64 = per_layer
            .values()
            .map(|vals| {
                let mut vals = vals.clone();
                vals.resize(ops.len(), 0.0);
                median(&vals)
            })
            .sum();
        let traced = median(&ops.iter().map(|v| v.root_ms).collect::<Vec<_>>());
        let plain: Vec<f64> = untraced
            .iter()
            .filter(|o| o.kind == kind)
            .map(|o| o.ms)
            .collect();
        let plain = median(&plain);
        summary.accounting.push((kind, plain, layer_sum, traced));
        if plain.is_finite() && plain > 0.0 {
            let gap = 100.0 * (plain - layer_sum).abs() / plain;
            summary.unaccounted_pct = summary.unaccounted_pct.max(gap);
            overheads.push(100.0 * (traced - plain) / plain);
        }
    }
    summary.overhead_pct = if overheads.is_empty() {
        0.0
    } else {
        overheads.iter().sum::<f64>() / overheads.len() as f64
    };
    summary
}
