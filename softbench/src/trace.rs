//! Span recorder for traced runs.
//!
//! Spans are recorded around the benchmark's own calls into each layer's
//! public functions — nothing inside the program is instrumented. A span
//! is named `<layer>.<call>` (for example `core.crosscheck`), carries the
//! span that caused it and the request it belongs to, and is kept in
//! memory until the run writes them out as Chrome trace-event JSON (load
//! the file in `chrome://tracing` or Perfetto).
//!
//! A span's self time is its duration minus the part of it covered by its
//! child spans; a layer's self time is the sum over its spans.

use soft_harness::json::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Small stable thread number for the trace's `tid` column.
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique span id (never 0).
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Request (test audit, job, corpus) the span belongs to.
    pub req: u64,
    /// Recording thread.
    pub tid: u64,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store shared by every thread of a traced run.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; `f` receives the new span's id so it can
    /// parent further spans.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        let span = Span {
            id,
            parent,
            name,
            req,
            tid: TID.with(|t| *t),
            start_ns,
            end_ns,
        };
        self.spans
            .lock()
            .expect("a span-recording thread panicked")
            .push(span);
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a span-recording thread panicked")
            .clone()
    }

    /// Write the spans as Chrome trace-event JSON (complete `X` events,
    /// microsecond timestamps; `args` holds id, parent and request).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let us = |ns: u64| Json::Float(ns as f64 / 1e3);
        let events = self
            .spans()
            .iter()
            .map(|s| {
                Json::Object(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("cat".into(), Json::Str(s.layer().into())),
                    ("ph".into(), Json::Str("X".into())),
                    ("ts".into(), us(s.start_ns)),
                    ("dur".into(), us(s.dur_ns())),
                    ("pid".into(), Json::UInt(1)),
                    ("tid".into(), Json::UInt(s.tid)),
                    (
                        "args".into(),
                        Json::Object(vec![
                            ("id".into(), Json::UInt(s.id)),
                            ("parent".into(), Json::UInt(s.parent)),
                            ("req".into(), Json::UInt(s.req)),
                        ]),
                    ),
                ])
            })
            .collect();
        let doc = Json::Object(vec![
            ("traceEvents".into(), Json::Array(events)),
            ("displayTimeUnit".into(), Json::Str("ms".into())),
        ]);
        soft_harness::atomic_write(path, doc.to_string().as_bytes(), false)
    }
}

/// Run `f` inside a span when tracing, or plainly (span id 0) when not.
pub fn span<R>(
    rec: Option<&Recorder>,
    name: &'static str,
    parent: u64,
    req: u64,
    f: impl FnOnce(u64) -> R,
) -> R {
    match rec {
        Some(r) => r.span(name, parent, req, f),
        None => f(0),
    }
}

/// Self time in seconds of every span: its duration minus the union of
/// its children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<(&Span, f64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|k| {
                    k.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s, s.dur_ns().saturating_sub(covered) as f64 / 1e9)
        })
        .collect()
}

/// Self time in seconds summed per span name.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in self_times(spans) {
        *out.entry(s.name).or_insert(0.0) += t;
    }
    out
}

/// Self time in seconds summed per layer.
pub fn self_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in self_times(spans) {
        *out.entry(s.layer()).or_insert(0.0) += t;
    }
    out
}

/// Durations in seconds of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e9)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            req: 0,
            tid: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "core.crosscheck", 0, 100),
            // Two overlapping children cover [10, 50); a third [60, 70).
            span(2, 1, "harness.journal", 10, 40),
            span(3, 1, "harness.journal", 30, 50),
            span(4, 1, "harness.journal", 60, 70),
            // A child running past its parent's end counts only inside.
            span(5, 1, "harness.journal", 95, 130),
        ];
        let by_name = self_by_name(&spans);
        let core = by_name["core.crosscheck"] * 1e9;
        assert!(
            (core - 45.0).abs() < 1e-6,
            "100 - 40 - 10 - 5 = 45, got {core}"
        );
        let layers = self_by_layer(&spans);
        assert!((layers["harness"] * 1e9 - (30.0 + 20.0 + 10.0 + 35.0)).abs() < 1e-6);
    }

    #[test]
    fn recorder_nests_and_names_layers() {
        let rec = Recorder::default();
        rec.span("bench.pass", 0, 7, |root| {
            rec.span("sym.explore", root, 7, |_| ());
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let child = spans
            .iter()
            .find(|s| s.name == "sym.explore")
            .expect("child");
        let root = spans.iter().find(|s| s.name == "bench.pass").expect("root");
        assert_eq!(child.parent, root.id);
        assert_eq!(child.layer(), "sym");
        assert_eq!(child.req, 7);
        assert_eq!(span_or_plain_id(None), 0);
    }

    fn span_or_plain_id(rec: Option<&Recorder>) -> u64 {
        super::span(rec, "bench.x", 0, 0, |id| id)
    }
}
