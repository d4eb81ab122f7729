//! Span recorder: atomic ids, monotonic process-epoch clock, one shared
//! store.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded stage occurrence.
///
/// `name` is a static stage name from the taxonomy (`service.request`,
/// `service.repair`, `distributed.machine`, …). When `index` is set,
/// [`SpanRecord::full_name`] appends it (`distributed.machine1`) so hot
/// paths never format strings.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique span id (never 0).
    pub id: u64,
    /// Parent span id, or 0 for a root span.
    pub parent: u64,
    /// Static stage name.
    pub name: &'static str,
    /// Optional numeric suffix (machine id) appended by `full_name`.
    pub index: Option<u32>,
    /// Category (`distributed`, `service`).
    pub cat: &'static str,
    /// Start timestamp in nanoseconds. For `service` spans this is the
    /// tracer's monotonic process-epoch clock; for `distributed` spans it is
    /// the simulator's virtual clock.
    pub ts_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Logical thread / machine lane.
    pub tid: u32,
    /// Small set of static-key integer arguments.
    pub args: Vec<(&'static str, u64)>,
}

impl SpanRecord {
    /// Render `name` plus the optional `index` suffix.
    pub fn full_name(&self) -> String {
        match self.index {
            Some(i) => format!("{}{}", self.name, i),
            None => self.name.to_string(),
        }
    }
}

/// Shared span store.
///
/// Every span is recorded under the store's mutex. Spans are recorded at
/// stage boundaries (a served request's stages, a simulated machine's
/// phases), never inside the enumeration loop.
pub struct Tracer {
    enabled: AtomicBool,
    next_id: AtomicU64,
    epoch: Instant,
    store: Mutex<Vec<SpanRecord>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// New enabled tracer with its clock epoch at the call instant.
    pub fn new() -> Self {
        Tracer {
            enabled: AtomicBool::new(true),
            next_id: AtomicU64::new(1),
            epoch: Instant::now(),
            store: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are currently being accepted.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Enable or disable span recording (records are silently dropped while
    /// disabled; ids keep advancing so parents stay valid).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Nanoseconds since this tracer was created (monotonic).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Allocate a fresh span id (never 0).
    pub fn next_span_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record one completed span; returns its id.
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &self,
        name: &'static str,
        cat: &'static str,
        parent: u64,
        tid: u32,
        ts_ns: u64,
        dur_ns: u64,
        args: Vec<(&'static str, u64)>,
    ) -> u64 {
        let id = self.next_span_id();
        self.record(SpanRecord {
            id,
            parent,
            name,
            index: None,
            cat,
            ts_ns,
            dur_ns,
            tid,
            args,
        });
        id
    }

    /// Record a single span record.
    pub fn record(&self, rec: SpanRecord) {
        if !self.enabled() {
            return;
        }
        self.store.lock().unwrap().push(rec);
    }

    /// Number of spans currently in the store.
    pub fn len(&self) -> usize {
        self.store.lock().unwrap().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy of all recorded spans, sorted by start timestamp.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let mut v = self.store.lock().unwrap().clone();
        v.sort_by_key(|s| (s.ts_ns, s.id));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_nonzero() {
        let t = Tracer::new();
        let a = t.span("build.filter", "build", 0, 0, 0, 10, Vec::new());
        let b = t.span("build.refine", "build", a, 0, 10, 5, Vec::new());
        assert!(a != 0 && b != 0 && a != b);
        let spans = t.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, a);
    }

    #[test]
    fn disabled_tracer_drops_records() {
        let t = Tracer::new();
        t.set_enabled(false);
        t.span("x", "service", 0, 0, 0, 1, Vec::new());
        assert!(t.is_empty());
        t.set_enabled(true);
        t.span("x", "service", 0, 0, 0, 1, Vec::new());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn snapshot_sorted_by_timestamp() {
        let t = Tracer::new();
        t.span("b", "service", 0, 0, 20, 1, Vec::new());
        t.span("a", "service", 0, 0, 10, 1, Vec::new());
        let s = t.snapshot();
        assert_eq!(s[0].name, "a");
        assert_eq!(s[1].name, "b");
    }

    #[test]
    fn full_name_appends_index() {
        let rec = SpanRecord {
            id: 1,
            parent: 0,
            name: "distributed.machine",
            index: Some(3),
            cat: "distributed",
            ts_ns: 0,
            dur_ns: 0,
            tid: 3,
            args: Vec::new(),
        };
        assert_eq!(rec.full_name(), "distributed.machine3");
    }
}
