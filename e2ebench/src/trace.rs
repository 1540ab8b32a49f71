//! The benchmark's own spans, and the self-time profile built from them.
//!
//! Every public call the benchmark makes into a layer is wrapped in a
//! span named `<layer>.<call>`; the request that caused it is a root span
//! named `request`, and all spans of one request share its trace id. A
//! request in the served workload starts on the submitting thread and
//! ends on a worker, so spans here are plain intervals with explicit
//! parents rather than single-thread RAII scopes: [`Tracer::record`]
//! stores an interval measured anywhere, and [`Tracer::span`] is the
//! RAII form for calls that start and end on one thread, parented by the
//! context [`attach`]ed to that thread.
//!
//! A span's self time is its duration minus the part of it that its
//! children cover (the union of their intervals, so overlapping children
//! on different threads are not counted twice). The root's self time is
//! the `unattributed` bucket: time inside a request that no layer span
//! covers.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Name of the per-request root span.
pub const ROOT: &str = "request";

/// Layer name for the root's self time.
pub const UNATTRIBUTED: &str = "unattributed";

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// The request this span belongs to.
    pub trace: u64,
    /// Unique, non-zero span id.
    pub id: u64,
    /// Parent span id; 0 for a root.
    pub parent: u64,
    /// `<layer>.<call>`, or [`ROOT`].
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

/// Collects spans while enabled; inert (one atomic load per call) while
/// disabled.
pub struct Tracer {
    enabled: AtomicBool,
    next_id: AtomicU64,
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            enabled: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

thread_local! {
    /// `(trace id, parent span id)` for spans opened on this thread.
    static CONTEXT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// The process-wide tracer the shims and workloads record into.
pub fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(Tracer::default)
}

impl Tracer {
    /// Start or stop collecting.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether spans are being collected.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// A fresh span id (for spans recorded with [`Tracer::record`]
    /// whose children must name them as parent before they end).
    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Store a finished interval. No-op while disabled.
    pub fn record(
        &self,
        trace: u64,
        id: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled() {
            return;
        }
        let rec = SpanRec {
            trace,
            id,
            parent,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans
            .lock()
            .expect("span buffer lock poisoned")
            .push(rec);
    }

    /// Open a span under this thread's attached context; it ends when
    /// the guard drops, and spans opened meanwhile on this thread nest
    /// under it.
    #[must_use = "the span ends when the guard drops"]
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled() {
            return SpanGuard {
                tracer: self,
                open: None,
            };
        }
        let id = self.new_id();
        let (trace, parent) = CONTEXT.with(|c| c.replace((c.get().0, id)));
        SpanGuard {
            tracer: self,
            open: Some((trace, id, parent, name, Instant::now())),
        }
    }

    /// Remove and return every span collected so far.
    pub fn take(&self) -> Vec<SpanRec> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer lock poisoned"))
    }
}

/// RAII guard of [`Tracer::span`].
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    open: Option<(u64, u64, u64, &'static str, Instant)>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((trace, id, parent, name, start)) = self.open.take() {
            CONTEXT.with(|c| c.set((trace, parent)));
            self.tracer
                .record(trace, id, parent, name, start, Instant::now());
        }
    }
}

/// Make `(trace, parent)` the context for spans opened on this thread
/// until the guard drops.
pub fn attach(trace: u64, parent: u64) -> ContextGuard {
    ContextGuard {
        prev: CONTEXT.with(|c| c.replace((trace, parent))),
    }
}

/// Restores the previous thread context on drop.
pub struct ContextGuard {
    prev: (u64, u64),
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CONTEXT.with(|c| c.set(self.prev));
    }
}

/// The layer a span name belongs to: the part before the first `.`;
/// the root (no `.`) is [`UNATTRIBUTED`].
pub fn layer_of(name: &str) -> &str {
    match name.split_once('.') {
        Some((layer, _)) => layer,
        None => UNATTRIBUTED,
    }
}

/// Self times aggregated over many requests.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Profile {
    /// Requests (root spans) profiled.
    pub roots: usize,
    /// Sum of the roots' wall times, in nanoseconds.
    pub root_wall_ns: u64,
    /// Self time per layer (including [`UNATTRIBUTED`]), nanoseconds.
    pub layer_self_ns: BTreeMap<String, u64>,
    /// Self time per root-to-span path (`a;b;c`), nanoseconds: the
    /// folded-stack format flame graph tools read.
    pub folded_ns: BTreeMap<String, u64>,
}

/// Total length of the union of `intervals`, clipped to `[lo, hi]`.
pub fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Build the self-time profile of `spans`. A span whose parent is not in
/// its trace counts as a root.
pub fn profile(spans: &[SpanRec]) -> Profile {
    let mut by_trace: BTreeMap<u64, Vec<&SpanRec>> = BTreeMap::new();
    for s in spans {
        by_trace.entry(s.trace).or_default().push(s);
    }
    let mut out = Profile::default();
    for recs in by_trace.values() {
        let by_id: BTreeMap<u64, &SpanRec> = recs.iter().map(|s| (s.id, *s)).collect();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in recs {
            if by_id.contains_key(&s.parent) {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        for s in recs {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let mut kids = children.remove(&s.id).unwrap_or_default();
            let self_ns = dur - covered_ns(s.start_ns, s.end_ns, &mut kids);
            *out.layer_self_ns
                .entry(layer_of(s.name).to_string())
                .or_default() += self_ns;
            let mut path = vec![s.name];
            let mut up = s.parent;
            while let Some(p) = by_id.get(&up) {
                path.push(p.name);
                up = p.parent;
            }
            path.reverse();
            *out.folded_ns.entry(path.join(";")).or_default() += self_ns;
            if !by_id.contains_key(&s.parent) {
                out.roots += 1;
                out.root_wall_ns += dur;
            }
        }
    }
    out
}

impl Profile {
    /// Sum of every layer's self time, `unattributed` included.
    pub fn self_total_ns(&self) -> u64 {
        self.layer_self_ns.values().sum()
    }

    /// `|Σ self − Σ root wall| / Σ root wall`: zero when the spans nest
    /// and siblings never overlap, positive when children overlap (the
    /// overlap is counted once per child) or stick out of their parent.
    pub fn reconcile_error(&self) -> f64 {
        if self.root_wall_ns == 0 {
            return 0.0;
        }
        (self.self_total_ns() as f64 - self.root_wall_ns as f64).abs() / self.root_wall_ns as f64
    }

    /// Share of root wall time in `layer`'s self time.
    pub fn share(&self, layer: &str) -> f64 {
        if self.root_wall_ns == 0 {
            return 0.0;
        }
        self.layer_self_ns.get(layer).copied().unwrap_or(0) as f64 / self.root_wall_ns as f64
    }

    /// The folded-stack text: one `path self_microseconds` line per path.
    pub fn folded(&self) -> String {
        self.folded_ns
            .iter()
            .map(|(path, ns)| format!("{path} {}\n", ns / 1_000))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(trace: u64, id: u64, parent: u64, name: &'static str, s: u64, e: u64) -> SpanRec {
        SpanRec {
            trace,
            id,
            parent,
            name,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn nested_spans_subtract_their_children() {
        // request [0,100] > sqlengine.query [10,90] > model.sim [20,50]
        let p = profile(&[
            rec(1, 1, 0, ROOT, 0, 100),
            rec(1, 2, 1, "sqlengine.query", 10, 90),
            rec(1, 3, 2, "model.sim", 20, 50),
        ]);
        assert_eq!(p.roots, 1);
        assert_eq!(p.root_wall_ns, 100);
        assert_eq!(p.layer_self_ns[UNATTRIBUTED], 20);
        assert_eq!(p.layer_self_ns["sqlengine"], 50);
        assert_eq!(p.layer_self_ns["model"], 30);
        assert_eq!(p.reconcile_error(), 0.0);
        assert_eq!(p.folded_ns["request;sqlengine.query;model.sim"], 30);
        assert!((p.share("sqlengine") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn siblings_add_up_and_layers_aggregate_across_traces() {
        let p = profile(&[
            rec(1, 1, 0, ROOT, 0, 100),
            rec(1, 2, 1, "store.insert", 0, 40),
            rec(1, 3, 1, "store.insert", 60, 100),
            rec(2, 4, 0, ROOT, 200, 250),
            rec(2, 5, 4, "store.insert", 210, 240),
        ]);
        assert_eq!(p.roots, 2);
        assert_eq!(p.root_wall_ns, 150);
        assert_eq!(p.layer_self_ns["store"], 110);
        assert_eq!(p.layer_self_ns[UNATTRIBUTED], 40);
        assert_eq!(p.reconcile_error(), 0.0);
        assert_eq!(p.folded(), "request 0\nrequest;store.insert 0\n");
    }

    #[test]
    fn overlapping_children_on_two_threads_are_covered_once() {
        // Two children running at once on different threads: the parent
        // loses only the union [10,90] of their time, but each child
        // keeps its whole duration, so the sum exceeds the wall time and
        // the reconciliation gate reports it.
        let p = profile(&[
            rec(1, 1, 0, ROOT, 0, 100),
            rec(1, 2, 1, "serve.batch", 10, 60),
            rec(1, 3, 1, "serve.batch", 40, 90),
        ]);
        assert_eq!(p.layer_self_ns[UNATTRIBUTED], 20);
        assert_eq!(p.layer_self_ns["serve"], 100);
        assert!((p.reconcile_error() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        assert_eq!(covered_ns(10, 20, &mut [(0, 15), (18, 30)]), 7);
        assert_eq!(covered_ns(0, 100, &mut [(50, 60), (10, 20), (15, 30)]), 30);
        assert_eq!(covered_ns(0, 100, &mut []), 0);
        // A child spanning past its parent's end makes the sum of self
        // times exceed the wall time.
        let p = profile(&[rec(1, 1, 0, ROOT, 0, 10), rec(1, 2, 1, "core.fig1", 5, 20)]);
        assert_eq!(p.layer_self_ns[UNATTRIBUTED], 5);
        assert_eq!(p.layer_self_ns["core"], 15);
        assert!(p.reconcile_error() > 0.9);
    }

    #[test]
    fn orphans_count_as_roots() {
        let p = profile(&[rec(3, 9, 77, "explore.search", 0, 10)]);
        assert_eq!(p.roots, 1);
        assert_eq!(p.root_wall_ns, 10);
        assert_eq!(p.layer_self_ns["explore"], 10);
    }

    #[test]
    fn raii_spans_nest_under_the_attached_context() {
        let t = Tracer::default();
        t.set_enabled(true);
        let root = t.new_id();
        let start = Instant::now();
        {
            let _ctx = attach(7, root);
            let _outer = t.span("sqlengine.query");
            let _inner = t.span("model.sim");
        }
        t.record(7, root, 0, ROOT, start, Instant::now());
        let spans = t.take();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "sqlengine.query").unwrap();
        let inner = spans.iter().find(|s| s.name == "model.sim").unwrap();
        assert_eq!((outer.trace, outer.parent), (7, root));
        assert_eq!((inner.trace, inner.parent), (7, outer.id));
        assert_eq!(profile(&spans).reconcile_error(), 0.0);
        // Disabled: nothing is kept.
        t.set_enabled(false);
        drop(t.span("model.sim"));
        assert!(t.take().is_empty());
    }
}
