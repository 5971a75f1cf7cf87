//! In-memory span recorder for the traced run.
//!
//! The harness opens a span around each call into a layer's public
//! function (nothing inside Flock is instrumented). Spans stay in memory
//! until the run ends, then are written out whole and folded into
//! per-layer self times: a span's duration minus the part of that
//! interval its children cover.

use serde_json::{json, Value as Json};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<what>`; the layer is the text before the first dot.
    pub name: &'static str,
    pub start_ns: u64,
    /// `None` while the span is open.
    pub end_ns: Option<u64>,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// One id per request; 0 for work not tied to a request.
    pub request: u64,
}

/// Thread-safe span store. Layer decorators running on engine worker
/// threads record into the same tracer as the driving thread.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// The (request, span) decorators attach to. Only set while a single
    /// client drives the database, where it is unambiguous.
    current: Mutex<(u64, Option<SpanId>)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            current: Mutex::new((0, None)),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("no tracer user panics while holding the span list")
    }

    pub fn open(&self, name: &'static str, request: u64, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.spans();
        spans.push(Span {
            name,
            start_ns,
            end_ns: None,
            parent,
            request,
        });
        (spans.len() - 1) as SpanId
    }

    pub fn close(&self, id: SpanId) {
        let end = self.now_ns();
        self.spans()[id as usize].end_ns = Some(end);
    }

    /// Times `f` as a child span of `parent`.
    pub fn span<T>(
        &self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, request, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Makes `(request, span)` the parent of decorator spans until the
    /// next call.
    pub fn set_current(&self, request: u64, span: Option<SpanId>) {
        *self
            .current
            .lock()
            .expect("current-span lock is never held across a panic") = (request, span);
    }

    pub fn current(&self) -> (u64, Option<SpanId>) {
        *self
            .current
            .lock()
            .expect("current-span lock is never held across a panic")
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans().clone()
    }
}

/// Total and self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cursor) = (0, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Folds closed spans into per-name totals. Children running on several
/// threads may overlap each other; the parent is charged for their union
/// once, never twice.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let (Some(parent), Some(end)) = (s.parent, s.end_ns) {
            children.entry(parent).or_default().push((s.start_ns, end));
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (id, s) in spans.iter().enumerate() {
        let Some(end) = s.end_ns else { continue };
        let total = end - s.start_ns;
        let child = children
            .get_mut(&(id as SpanId))
            .map_or(0, |c| covered(c, s.start_ns, end));
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += total;
        e.self_ns += total - child;
    }
    out
}

/// The trace file: every span, then the per-name and per-layer folds.
pub fn to_json(spans: &[Span]) -> Json {
    let by_name = self_times(spans);
    let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, t) in &by_name {
        let layer = name.split('.').next().unwrap_or(name);
        *by_layer.entry(layer).or_default() += t.self_ns;
    }
    json!({
        "spans": spans.iter().map(|s| json!({
            "name": s.name,
            "start_ns": s.start_ns,
            "end_ns": s.end_ns,
            "parent": s.parent,
            "request": s.request,
        })).collect::<Vec<_>>(),
        "self_time_by_span": by_name.iter().map(|(name, t)| ((*name).to_string(), json!({
            "count": t.count, "total_ns": t.total_ns, "self_ns": t.self_ns,
        }))).collect::<serde_json::Map<_, _>>(),
        "self_ns_by_layer": by_layer.iter()
            .map(|(l, ns)| ((*l).to_string(), Json::from(*ns)))
            .collect::<serde_json::Map<_, _>>(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: Some(end),
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("engine.stmt", 0, 100, None),
            span("lexer.tokenize", 5, 15, Some(0)),
            // Two workers overlapping on 30..40: the parent loses 40..60
            // only once for the shared part.
            span("provider.predict", 20, 40, Some(0)),
            span("provider.predict", 30, 60, Some(0)),
            // A grandchild never reaches past its own parent.
            span("ml.score", 22, 38, Some(2)),
            // A child that overruns its parent is clipped to it.
            span("fs.sync", 95, 130, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["engine.stmt"],
            SelfTime {
                count: 1,
                total_ns: 100,
                self_ns: 100 - 10 - 40 - 5
            }
        );
        assert_eq!(t["lexer.tokenize"].self_ns, 10);
        assert_eq!(
            t["provider.predict"],
            SelfTime {
                count: 2,
                total_ns: 50,
                self_ns: 50 - 16
            }
        );
        assert_eq!(t["ml.score"].self_ns, 16);
    }

    #[test]
    fn open_spans_are_left_out_and_layers_are_summed() {
        let tracer = Tracer::new();
        let root = tracer.open("engine.stmt", 7, None);
        tracer.span("parser.parse", 7, Some(root), || ());
        let _never_closed = tracer.open("exec.total", 7, Some(root));
        tracer.close(root);
        let spans = tracer.snapshot();
        let t = self_times(&spans);
        assert!(t.contains_key("engine.stmt") && t.contains_key("parser.parse"));
        assert!(!t.contains_key("exec.total"));
        let doc = to_json(&spans);
        assert_eq!(doc["spans"].as_array().unwrap().len(), 3);
        assert_eq!(doc["spans"][1]["parent"], json!(0));
        assert!(doc["self_ns_by_layer"].get("engine").is_some());
    }
}
