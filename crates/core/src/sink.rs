//! Embedding sinks: where enumeration results go.
//!
//! An embedding is reported as a slice indexed by *query vertex id*
//! (`embedding[u] = matched data vertex`). Sinks decide whether enumeration
//! continues — returning `false` stops the search, which is how the paper's
//! "first 1,024 embeddings" experiments (§6.2) terminate early.

use ceci_graph::VertexId;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Consumer of embeddings.
pub trait EmbeddingSink {
    /// Handles one embedding; returns `false` to stop enumeration.
    fn emit(&mut self, embedding: &[VertexId]) -> bool;

    /// Whether this sink accepts [`EmbeddingSink::emit_bulk`] batches —
    /// count-only sinks that don't materialize embeddings. Redundant-
    /// extension elimination needs this: a reused sibling subtree yields a
    /// *count* of embeddings, not the embeddings themselves. Sinks that
    /// collect embeddings (or enforce an exact first-k cutoff) answer
    /// `false` and enumeration falls back to full recursion.
    fn supports_bulk(&self) -> bool {
        false
    }

    /// Accepts `count` embeddings at once without materializing them;
    /// returns `false` to stop enumeration. Only called after
    /// [`EmbeddingSink::supports_bulk`] answered `true`.
    fn emit_bulk(&mut self, count: u64) -> bool {
        let _ = count;
        unreachable!("emit_bulk called on a sink without bulk support");
    }
}

/// Counts embeddings, optionally stopping after a limit.
#[derive(Debug, Default)]
pub struct CountSink {
    count: u64,
    limit: Option<u64>,
}

impl CountSink {
    /// Counts without bound.
    pub fn unbounded() -> Self {
        CountSink {
            count: 0,
            limit: None,
        }
    }

    /// Stops after `limit` embeddings.
    pub fn with_limit(limit: u64) -> Self {
        CountSink {
            count: 0,
            limit: Some(limit),
        }
    }

    /// Embeddings seen so far.
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl EmbeddingSink for CountSink {
    fn emit(&mut self, _embedding: &[VertexId]) -> bool {
        self.count += 1;
        match self.limit {
            Some(l) => self.count < l,
            None => true,
        }
    }

    /// Bulk counting is only sound without a limit: a bulk batch could
    /// overshoot an exact first-k cutoff.
    fn supports_bulk(&self) -> bool {
        self.limit.is_none()
    }

    fn emit_bulk(&mut self, count: u64) -> bool {
        debug_assert!(self.limit.is_none());
        self.count += count;
        true
    }
}

/// Collects embeddings into a vector, optionally bounded.
#[derive(Debug, Default)]
pub struct CollectSink {
    embeddings: Vec<Vec<VertexId>>,
    limit: Option<usize>,
}

impl CollectSink {
    /// Collects everything.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Collects at most `limit` embeddings.
    pub fn with_limit(limit: usize) -> Self {
        CollectSink {
            embeddings: Vec::new(),
            limit: Some(limit),
        }
    }

    /// The collected embeddings.
    pub fn into_embeddings(self) -> Vec<Vec<VertexId>> {
        self.embeddings
    }

    /// Number collected so far.
    pub fn len(&self) -> usize {
        self.embeddings.len()
    }

    /// `true` if nothing collected.
    pub fn is_empty(&self) -> bool {
        self.embeddings.is_empty()
    }
}

impl EmbeddingSink for CollectSink {
    fn emit(&mut self, embedding: &[VertexId]) -> bool {
        self.embeddings.push(embedding.to_vec());
        match self.limit {
            Some(l) => self.embeddings.len() < l,
            None => true,
        }
    }
}

/// Shared cross-worker budget for parallel first-k runs: a global count and
/// a stop flag. Each worker wraps its local sink in a [`SharedLimitSink`].
#[derive(Debug)]
pub struct SharedBudget {
    emitted: AtomicU64,
    stop: AtomicBool,
    limit: Option<u64>,
}

impl SharedBudget {
    /// A budget with an optional global embedding limit.
    pub fn new(limit: Option<u64>) -> Arc<Self> {
        Arc::new(SharedBudget {
            emitted: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            limit,
        })
    }

    /// Total embeddings emitted across workers.
    pub fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::Relaxed)
    }

    /// Has some worker tripped the stop flag?
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Requests a global stop (used on limit hit).
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

/// Per-worker sink that forwards to an inner sink while honoring a shared
/// [`SharedBudget`].
pub struct SharedLimitSink<'a, S: EmbeddingSink> {
    inner: &'a mut S,
    budget: Arc<SharedBudget>,
}

impl<'a, S: EmbeddingSink> SharedLimitSink<'a, S> {
    /// Wraps `inner` under `budget`.
    pub fn new(inner: &'a mut S, budget: Arc<SharedBudget>) -> Self {
        SharedLimitSink { inner, budget }
    }
}

impl<S: EmbeddingSink> EmbeddingSink for SharedLimitSink<'_, S> {
    fn emit(&mut self, embedding: &[VertexId]) -> bool {
        if self.budget.stopped() {
            return false;
        }
        if let Some(limit) = self.budget.limit {
            let prior = self.budget.emitted.fetch_add(1, Ordering::Relaxed);
            if prior >= limit {
                self.budget.request_stop();
                return false;
            }
            let keep_local = self.inner.emit(embedding);
            if prior + 1 >= limit {
                self.budget.request_stop();
                return false;
            }
            keep_local
        } else {
            self.budget.emitted.fetch_add(1, Ordering::Relaxed);
            self.inner.emit(embedding)
        }
    }

    /// Bulk passes through only when no global limit is set (a batch could
    /// overshoot an exact first-k budget) and the inner sink supports it.
    fn supports_bulk(&self) -> bool {
        self.budget.limit.is_none() && self.inner.supports_bulk()
    }

    fn emit_bulk(&mut self, count: u64) -> bool {
        if self.budget.stopped() {
            return false;
        }
        self.budget.emitted.fetch_add(count, Ordering::Relaxed);
        self.inner.emit_bulk(count)
    }
}

/// A shared cooperative-cancellation token: an explicit stop flag plus an
/// optional wall-clock deadline.
///
/// Enumeration is a deep recursion that can run for a very long time; a
/// serving layer cannot afford to wedge a worker on one runaway request.
/// The enumerator is the token's only reader: it polls every 64 recursive
/// calls, every 256 drained candidates, inside the edge-verification gather
/// and between work units, so a request past its deadline unwinds within a
/// bounded number of steps. A unit the token stopped is discarded whole
/// ([`crate::Cut`]), so no single emission needs a poll of its own.
#[derive(Debug)]
pub struct CancelToken {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token with no deadline (cancellable only via [`CancelToken::cancel`]).
    pub fn new() -> Arc<Self> {
        Arc::new(CancelToken {
            cancelled: AtomicBool::new(false),
            deadline: None,
        })
    }

    /// A token that trips `timeout` from now.
    pub fn after(timeout: Duration) -> Arc<Self> {
        Arc::new(CancelToken {
            cancelled: AtomicBool::new(false),
            deadline: Some(Instant::now() + timeout),
        })
    }

    /// Requests cancellation explicitly.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// `true` once the token is cancelled or its deadline has passed. The
    /// fast path is a single relaxed atomic load; the deadline clock is only
    /// consulted until it first trips (the result is then latched).
    pub fn is_cancelled(&self) -> bool {
        if self.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        match self.deadline {
            Some(d) if Instant::now() >= d => {
                self.cancelled.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }
}

/// Sorts embeddings lexicographically — canonical form for comparing result
/// sets across engines and worker counts.
pub fn canonicalize(mut embeddings: Vec<Vec<VertexId>>) -> Vec<Vec<VertexId>> {
    embeddings.sort();
    embeddings
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceci_graph::vid;

    #[test]
    fn count_sink_unbounded() {
        let mut s = CountSink::unbounded();
        for _ in 0..5 {
            assert!(s.emit(&[vid(0)]));
        }
        assert_eq!(s.count(), 5);
    }

    #[test]
    fn count_sink_limit() {
        let mut s = CountSink::with_limit(3);
        assert!(s.emit(&[vid(0)]));
        assert!(s.emit(&[vid(0)]));
        assert!(!s.emit(&[vid(0)])); // third emission says stop
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn collect_sink_gathers() {
        let mut s = CollectSink::unbounded();
        assert!(s.emit(&[vid(1), vid(2)]));
        assert!(s.emit(&[vid(3), vid(4)]));
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        let out = s.into_embeddings();
        assert_eq!(out, vec![vec![vid(1), vid(2)], vec![vid(3), vid(4)]]);
    }

    #[test]
    fn collect_sink_limit() {
        let mut s = CollectSink::with_limit(1);
        assert!(!s.emit(&[vid(1)]));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn shared_budget_limits_across_sinks() {
        let budget = SharedBudget::new(Some(3));
        let mut a = CountSink::unbounded();
        let mut b = CountSink::unbounded();
        {
            let mut sa = SharedLimitSink::new(&mut a, budget.clone());
            let mut sb = SharedLimitSink::new(&mut b, budget.clone());
            assert!(sa.emit(&[vid(0)]));
            assert!(sb.emit(&[vid(0)]));
            // Third emission reaches the limit: accepted but stops.
            assert!(!sa.emit(&[vid(0)]));
            // Fourth emission is rejected outright.
            assert!(!sb.emit(&[vid(0)]));
        }
        assert_eq!(a.count() + b.count(), 3);
        assert!(budget.stopped());
        assert!(budget.emitted() >= 3);
    }

    #[test]
    fn shared_budget_unlimited_counts() {
        let budget = SharedBudget::new(None);
        let mut a = CountSink::unbounded();
        let mut s = SharedLimitSink::new(&mut a, budget.clone());
        assert!(s.emit(&[vid(0)]));
        assert!(s.emit(&[vid(0)]));
        assert_eq!(budget.emitted(), 2);
        assert!(!budget.stopped());
    }

    #[test]
    fn cancel_token_latches() {
        let token = CancelToken::after(Duration::ZERO);
        assert!(token.is_cancelled());
        assert!(token.is_cancelled()); // latched, no un-cancel
        assert!(!CancelToken::after(Duration::from_secs(3600)).is_cancelled());
        let free = CancelToken::new();
        assert!(!free.is_cancelled());
        free.cancel();
        assert!(free.is_cancelled());
    }

    #[test]
    fn bulk_support_matrix() {
        assert!(CountSink::unbounded().supports_bulk());
        assert!(!CountSink::with_limit(3).supports_bulk());
        assert!(!CollectSink::unbounded().supports_bulk());
        let mut c = CountSink::unbounded();
        assert!(c.emit_bulk(5));
        assert!(c.emit(&[vid(0)]));
        assert_eq!(c.count(), 6);
    }

    #[test]
    fn shared_limit_sink_bulk_passthrough() {
        let budget = SharedBudget::new(None);
        let mut a = CountSink::unbounded();
        let mut s = SharedLimitSink::new(&mut a, budget.clone());
        assert!(s.supports_bulk());
        assert!(s.emit_bulk(7));
        assert_eq!(budget.emitted(), 7);
        assert_eq!(a.count(), 7);

        let limited = SharedBudget::new(Some(10));
        let mut b = CountSink::unbounded();
        let s = SharedLimitSink::new(&mut b, limited);
        assert!(!s.supports_bulk(), "limits disable bulk");
    }

    #[test]
    fn canonicalize_sorts() {
        let out = canonicalize(vec![vec![vid(2)], vec![vid(1)], vec![vid(3)]]);
        assert_eq!(out, vec![vec![vid(1)], vec![vid(2)], vec![vid(3)]]);
    }
}
