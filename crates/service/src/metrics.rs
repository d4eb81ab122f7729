//! Server metrics: request/cache/rejection counters and a lock-free latency
//! histogram with percentile readout.
//!
//! Everything is atomics so the data plane never takes a lock to record; the
//! `STATS` command reads a consistent-enough snapshot (counters are
//! monotone; exactness across counters is not required for operations).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of power-of-two latency buckets. Bucket 0 counts requests with
/// latency in `[0, 2)` microseconds (sub-microsecond requests are real:
/// cache hits on tiny graphs); bucket `i >= 1` counts `[2^i, 2^(i+1))`;
/// the last bucket is open-ended. 2^39 µs ≈ 6.4 days, far beyond any
/// request.
const BUCKETS: usize = 40;

/// Maps a microsecond latency to its bucket. Total over `0..=u64::MAX`:
/// `0` and `1` land in bucket 0, `2^k..2^(k+1)-1` lands in bucket `k`
/// (for `k < BUCKETS-1`), everything from `2^(BUCKETS-1)` up saturates
/// into the open-ended last bucket.
#[inline]
fn bucket_index(us: u64) -> usize {
    if us < 2 {
        // Explicit: zero must not be silently aliased to 1 — bucket 0's
        // range is [0, 2), so both 0 and 1 belong here by definition.
        0
    } else {
        ((63 - us.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Inclusive lower bound of bucket `i` in microseconds.
#[inline]
fn bucket_low(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << i
    }
}

/// Exclusive upper bound of bucket `i` in microseconds (the last bucket is
/// open-ended; its nominal bound `2^BUCKETS` is used as the reporting cap).
#[inline]
fn bucket_high(i: usize) -> u64 {
    1u64 << (i + 1)
}

/// A fixed power-of-two histogram over microseconds. Recording is one atomic
/// increment; percentiles are estimated as the upper bound of the bucket
/// containing the requested rank (≤ 2× error, plenty for p50/p99 smoke
/// numbers surfaced via `STATS`).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [(); BUCKETS].map(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Records one observation.
    pub fn record(&self, latency: Duration) {
        let us = latency.as_micros().min(u64::MAX as u128) as u64;
        self.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.sum_us
            .load(Ordering::Relaxed)
            .checked_div(self.count())
            .unwrap_or(0)
    }

    /// Estimate of the `q`-quantile in microseconds (`q` in 0..=1).
    /// Returns 0 when empty.
    ///
    /// All quantiles (p50, p99, …) use the *same* rule: find the bucket
    /// holding the ceil-rank observation, then linearly interpolate within
    /// it at the rank's midpoint position — `low + (high-low) ·
    /// (rank - seen - ½)/bucket_count`. A single observation therefore
    /// reports the bucket midpoint rather than its upper bound (a
    /// zero-latency-only histogram reports 1 µs, not 2), and p50/p99 are
    /// mutually consistent instead of mixing bound conventions.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let low = bucket_low(i) as f64;
                let high = bucket_high(i) as f64;
                let into = ((rank - seen) as f64 - 0.5) / c as f64;
                return (low + (high - low) * into).round() as u64;
            }
            seen += c;
        }
        bucket_high(BUCKETS - 1)
    }

    /// Cumulative `(upper_bound_us, count ≤ bound)` pairs in Prometheus
    /// `le` form (the open-ended `+Inf` bucket is implied by `count()`),
    /// plus the exact sum and count — the inputs
    /// [`ceci_trace::PromWriter::histogram`] expects.
    pub fn cumulative_us(&self) -> (Vec<(u64, u64)>, u64, u64) {
        let mut cum = 0u64;
        let mut out = Vec::with_capacity(BUCKETS);
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            out.push((bucket_high(i), cum));
        }
        (out, self.sum_us.load(Ordering::Relaxed), self.count())
    }
}

/// Aggregate server counters, surfaced via `STATS`.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Total request lines accepted (parse successes).
    pub requests: AtomicU64,
    /// MATCH requests admitted (entered the pool).
    pub match_requests: AtomicU64,
    /// LOAD requests served.
    pub load_requests: AtomicU64,
    /// Requests rejected with `BUSY` by admission control.
    pub rejected_busy: AtomicU64,
    /// MATCH requests whose deadline stopped the drain: answered with an
    /// interval (`mode=APPROX exact=…`) over the pivots left undrained.
    pub deadline_exceeded: AtomicU64,
    /// Requests answered with `ERR`.
    pub errors: AtomicU64,
    /// Index-cache hits (frozen CECI reused; build skipped).
    pub cache_hits: AtomicU64,
    /// Index-cache misses (CECI built).
    pub cache_misses: AtomicU64,
    /// Cache entries evicted under the byte budget.
    pub cache_evictions: AtomicU64,
    /// Canonical-hash collisions detected by form verification (the entry
    /// was *not* reused).
    pub cache_collisions: AtomicU64,
    /// Data-plane jobs that dropped their response channel (the worker
    /// panicked mid-request); the client got `ERR E_WORKER_DROPPED`.
    pub worker_drops: AtomicU64,
    /// Job panics caught by the pool's worker supervisors.
    pub panics_caught: AtomicU64,
    /// Index builds that panicked and whose cache key was quarantined.
    pub cache_quarantined: AtomicU64,
    /// Requests refused because their cache key is quarantined.
    pub quarantine_hits: AtomicU64,
    /// CHAOS commands executed (only counts when chaos mode is enabled).
    pub chaos_injected: AtomicU64,
    /// Total embeddings returned across exact MATCH responses (an interval
    /// reply adds none).
    pub embeddings_returned: AtomicU64,
    /// MATCH requests answered `count=0` by the label-pair admission filter
    /// without building (or looking up) an index.
    pub filter_rejected: AtomicU64,
    /// MATCH requests that waited on another request's in-flight index
    /// build instead of building their own (single-flight dedup).
    pub singleflight_waits: AtomicU64,
    /// Mutation batches applied (ADDEDGE/DELEDGE/BATCH with ≥1 net change).
    pub mutation_batches: AtomicU64,
    /// Net edges added across all applied mutation batches.
    pub edges_added: AtomicU64,
    /// Net edges deleted across all applied mutation batches.
    pub edges_deleted: AtomicU64,
    /// Compactions (a snapshot's label-pair index rebuilt exactly; the
    /// snapshot becomes the new base).
    pub compactions: AtomicU64,
    /// Stale cached indexes repaired forward under their plan (frozen
    /// rebuild on the snapshot over patched candidate sets) instead of
    /// rebuilt as a miss.
    pub index_repairs: AtomicU64,
    /// The repairs among `index_repairs` that scanned every label class for
    /// their candidate sets instead of patching the old index's at the gap's
    /// endpoints, because the dirty log no longer reached back.
    pub index_repair_set_scans: AtomicU64,
    /// Stale cached indexes that fell back to a full rebuild, counted as a
    /// miss: the repair panicked, or the entry was from the future.
    pub index_repair_fallbacks: AtomicU64,
    /// Continuous-query delta events emitted to registered connections.
    pub continuous_events: AtomicU64,
    /// Cached indexes rebuilt under a challenger plan: the entry's reuse
    /// paid for scoring the portfolio and a challenger beat the incumbent's
    /// observed work by enough to pay for the rebuild.
    pub adaptive_replans: AtomicU64,
    /// Connections closed after the socket read/write timeout expired with
    /// a request outstanding or a line half-read (stalled/half-open peer).
    pub timeouts: AtomicU64,
    /// Connections accepted over the server's lifetime.
    pub connections_accepted: AtomicU64,
    /// Connections refused with `BUSY` because `max_conns` was reached.
    pub connections_rejected: AtomicU64,
    /// Connections currently open (gauge: incremented on accept,
    /// decremented on close).
    pub connections_open: AtomicU64,
    /// `EVENT` pushes that failed because the subscriber's connection was
    /// dead; each one auto-unregisters its continuous query.
    pub event_push_failures: AtomicU64,
    /// Connections dropped because their bounded write queue overflowed
    /// (the peer stopped reading while responses/events kept queueing).
    pub slow_reader_disconnects: AtomicU64,
    /// Shard plane: `PREPARE`s accepted.
    pub shard_prepares: AtomicU64,
    /// Shard plane: `EXEC`s answered with a count.
    pub shard_execs: AtomicU64,
    /// End-to-end MATCH latency (admission to response).
    pub match_latency: LatencyHistogram,
    /// CECI build time on cache misses.
    pub build_latency: LatencyHistogram,
    /// BFS-filter phase time within cache-miss builds (Algorithm 1).
    pub build_filter_latency: LatencyHistogram,
    /// Reverse-BFS refinement phase time within cache-miss builds
    /// (Algorithm 2).
    pub build_refine_latency: LatencyHistogram,
    /// Stale-index repair time (candidate sets patched or scanned, then the
    /// frozen build), the counterpart of `build_latency` for the repair
    /// path.
    pub index_repair_latency: LatencyHistogram,
    /// Time spent scoring a plan portfolio (pilot index builds +
    /// random-walk costing), recorded once per cached entry whose reuse
    /// paid for it — never on a cache miss.
    pub plan_score_latency: LatencyHistogram,
}

impl ServerMetrics {
    /// Bumps a counter.
    #[inline]
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds to a counter.
    #[inline]
    pub fn add(counter: &AtomicU64, v: u64) {
        counter.fetch_add(v, Ordering::Relaxed);
    }

    /// Decrements a gauge (saturating at zero so a double-close can never
    /// wrap the reading to `u64::MAX`).
    #[inline]
    pub fn dec(gauge: &AtomicU64) {
        let _ = gauge.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(1))
        });
    }

    /// Every monotone counter as `(STATS key, help, value)`, in exposition
    /// order: `STATS` prints `STAT <key> <value>`, `STATS PROM` the counter
    /// `ceci_<key>_total`.
    pub fn counters(&self) -> [(&'static str, &'static str, u64); 34] {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        [
            (
                "requests_total",
                "Request lines accepted (parse successes)",
                g(&self.requests),
            ),
            (
                "match_requests",
                "MATCH requests admitted",
                g(&self.match_requests),
            ),
            (
                "load_requests",
                "LOAD requests served",
                g(&self.load_requests),
            ),
            (
                "rejected_busy",
                "Requests rejected BUSY by admission control",
                g(&self.rejected_busy),
            ),
            (
                "deadline_exceeded",
                "MATCH requests whose deadline stopped the drain (interval replies)",
                g(&self.deadline_exceeded),
            ),
            ("errors", "Requests answered ERR", g(&self.errors)),
            ("cache_hits", "Index-cache hits", g(&self.cache_hits)),
            (
                "cache_misses",
                "Index-cache misses (CECI built)",
                g(&self.cache_misses),
            ),
            (
                "cache_evictions",
                "Cache entries evicted under the byte budget",
                g(&self.cache_evictions),
            ),
            (
                "cache_collisions",
                "Canonical-hash collisions detected by verification",
                g(&self.cache_collisions),
            ),
            (
                "worker_drops",
                "Data-plane jobs whose worker panicked mid-request",
                g(&self.worker_drops),
            ),
            (
                "panics_caught",
                "Job panics caught by pool supervisors",
                g(&self.panics_caught),
            ),
            (
                "cache_quarantined",
                "Index builds that panicked and were quarantined",
                g(&self.cache_quarantined),
            ),
            (
                "quarantine_hits",
                "Requests refused on a quarantined cache key",
                g(&self.quarantine_hits),
            ),
            (
                "chaos_injected",
                "CHAOS commands executed",
                g(&self.chaos_injected),
            ),
            (
                "embeddings_returned",
                "Embeddings returned across MATCH responses",
                g(&self.embeddings_returned),
            ),
            (
                "filter_rejected",
                "MATCH requests answered count=0 by the label-pair admission filter",
                g(&self.filter_rejected),
            ),
            (
                "cache_singleflight_waits",
                "MATCH requests that waited on another request's in-flight build",
                g(&self.singleflight_waits),
            ),
            (
                "mutation_batches",
                "Mutation batches applied (>=1 net edge change)",
                g(&self.mutation_batches),
            ),
            (
                "edges_added",
                "Net edges added by mutation batches",
                g(&self.edges_added),
            ),
            (
                "edges_deleted",
                "Net edges deleted by mutation batches",
                g(&self.edges_deleted),
            ),
            (
                "compactions",
                "Compactions: exact label-pair rebuilds adopting the fresh snapshot as base",
                g(&self.compactions),
            ),
            (
                "index_repairs",
                "Stale cached indexes repaired forward under their plan",
                g(&self.index_repairs),
            ),
            (
                "index_repair_set_scans",
                "Repairs that rescanned every label class for candidate sets (a gap off the dirty log)",
                g(&self.index_repair_set_scans),
            ),
            (
                "index_repair_fallbacks",
                "Stale cached indexes rebuilt as a miss (repair panicked, entry from the future)",
                g(&self.index_repair_fallbacks),
            ),
            (
                "continuous_events",
                "Continuous-query delta events emitted",
                g(&self.continuous_events),
            ),
            (
                "adaptive_replans",
                "Cached indexes rebuilt under a challenger plan their reuse paid to score",
                g(&self.adaptive_replans),
            ),
            (
                "io_timeouts",
                "Connections closed on a socket read/write timeout",
                g(&self.timeouts),
            ),
            (
                "connections_accepted",
                "Client connections accepted",
                g(&self.connections_accepted),
            ),
            (
                "connections_rejected",
                "Connections refused BUSY at the max-conns cap",
                g(&self.connections_rejected),
            ),
            (
                "event_push_failures",
                "EVENT pushes that failed on a dead subscriber connection",
                g(&self.event_push_failures),
            ),
            (
                "slow_reader_disconnects",
                "Connections dropped after overflowing their write queue",
                g(&self.slow_reader_disconnects),
            ),
            (
                "shard_prepares",
                "Shard plane: PREPAREs accepted",
                g(&self.shard_prepares),
            ),
            (
                "shard_execs",
                "Shard plane: EXECs answered with a count",
                g(&self.shard_execs),
            ),
        ]
    }

    /// Renders the `STAT <key> <value>` payload lines of the `STATS`
    /// response (sorted, stable keys).
    pub fn render(&self, extra: &[(&str, u64)]) -> Vec<String> {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut rows: Vec<(String, u64)> = self
            .counters()
            .iter()
            .map(|&(key, _, value)| (key.to_string(), value))
            .collect();
        rows.extend([
            ("connections_open".into(), g(&self.connections_open)),
            ("plan_score_count".into(), self.plan_score_latency.count()),
            (
                "plan_score_mean_us".into(),
                self.plan_score_latency.mean_us(),
            ),
            (
                "plan_score_p99_us".into(),
                self.plan_score_latency.quantile_us(0.99),
            ),
            (
                "index_repair_count".into(),
                self.index_repair_latency.count(),
            ),
            (
                "index_repair_mean_us".into(),
                self.index_repair_latency.mean_us(),
            ),
            (
                "index_repair_p99_us".into(),
                self.index_repair_latency.quantile_us(0.99),
            ),
            ("match_latency_count".into(), self.match_latency.count()),
            ("match_latency_mean_us".into(), self.match_latency.mean_us()),
            (
                "match_latency_p50_us".into(),
                self.match_latency.quantile_us(0.50),
            ),
            (
                "match_latency_p99_us".into(),
                self.match_latency.quantile_us(0.99),
            ),
            ("build_latency_count".into(), self.build_latency.count()),
            ("build_latency_mean_us".into(), self.build_latency.mean_us()),
            (
                "build_latency_p50_us".into(),
                self.build_latency.quantile_us(0.50),
            ),
            (
                "build_latency_p99_us".into(),
                self.build_latency.quantile_us(0.99),
            ),
            (
                "build_filter_mean_us".into(),
                self.build_filter_latency.mean_us(),
            ),
            (
                "build_filter_p99_us".into(),
                self.build_filter_latency.quantile_us(0.99),
            ),
            (
                "build_refine_mean_us".into(),
                self.build_refine_latency.mean_us(),
            ),
            (
                "build_refine_p99_us".into(),
                self.build_refine_latency.quantile_us(0.99),
            ),
        ]);
        for &(k, v) in extra {
            rows.push((k.to_string(), v));
        }
        rows.sort();
        rows.into_iter()
            .map(|(k, v)| format!("STAT {k} {v}"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_records_and_ranks() {
        let h = LatencyHistogram::default();
        for us in [1u64, 2, 4, 100, 100, 100, 10_000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 7);
        assert!(h.mean_us() > 0);
        // p50 rank 4 is the first 100 µs sample: bucket [64, 128) with 3
        // samples, midpoint-interpolated at (4-3-0.5)/3 → 64 + 64/6 ≈ 75.
        assert_eq!(h.quantile_us(0.50), 75);
        // p99 rank 7 is the lone 10 ms outlier: bucket [8192, 16384)
        // midpoint → 12288.
        assert_eq!(h.quantile_us(0.99), 12288);
        // Quantiles are monotone.
        assert!(h.quantile_us(0.99) >= h.quantile_us(0.50));
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_us(), 0);
        assert_eq!(h.quantile_us(0.99), 0);
    }

    #[test]
    fn zero_latency_lands_in_first_bucket() {
        let h = LatencyHistogram::default();
        h.record(Duration::ZERO);
        assert_eq!(h.count(), 1);
        // Bucket 0 is [0, 2): a zero-only histogram reports the midpoint
        // 1 µs, not the old upper bound 2 µs.
        assert_eq!(h.quantile_us(1.0), 1);
        let (cum, sum, count) = h.cumulative_us();
        assert_eq!(cum[0], (2, 1));
        assert_eq!(sum, 0);
        assert_eq!(count, 1);
    }

    #[test]
    fn bucket_boundaries_exhaustive() {
        // Bucket 0 is [0, 2).
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        // Every power-of-two boundary below the cap: 2^k−1 stays in bucket
        // k−1, 2^k opens bucket k, 2^k+1 stays there.
        for k in 1..(BUCKETS - 1) {
            let p = 1u64 << k;
            assert_eq!(bucket_index(p - 1), k - 1, "2^{k}-1");
            assert_eq!(bucket_index(p), k, "2^{k}");
            assert_eq!(bucket_index(p + 1), k, "2^{k}+1");
        }
        // Everything from 2^(BUCKETS-1) up saturates into the last bucket.
        let top = 1u64 << (BUCKETS - 1);
        assert_eq!(bucket_index(top - 1), BUCKETS - 2);
        assert_eq!(bucket_index(top), BUCKETS - 1);
        assert_eq!(bucket_index(top + 1), BUCKETS - 1);
        for k in BUCKETS..64 {
            assert_eq!(bucket_index(1u64 << k), BUCKETS - 1, "2^{k}");
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        // Bucket ranges tile [0, ∞): high(i) == low(i+1), starting at 0.
        assert_eq!(bucket_low(0), 0);
        for i in 0..BUCKETS - 1 {
            assert_eq!(bucket_high(i), bucket_low(i + 1));
        }
    }

    #[test]
    fn quantile_interpolation_is_consistent() {
        // 100 observations of exactly 100 µs: every quantile lands inside
        // bucket [64, 128) and interpolation is monotone in q.
        let h = LatencyHistogram::default();
        for _ in 0..100 {
            h.record(Duration::from_micros(100));
        }
        let p50 = h.quantile_us(0.50);
        let p90 = h.quantile_us(0.90);
        let p99 = h.quantile_us(0.99);
        assert!((64..128).contains(&p50));
        assert!((64..128).contains(&p99));
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        // u64::MAX µs is recorded (saturating cast) into the open bucket
        // and reported at the cap rather than panicking or wrapping.
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(u64::MAX));
        assert_eq!(h.count(), 1);
        assert!(h.quantile_us(1.0) >= 1u64 << (BUCKETS - 1));
    }

    #[test]
    fn cumulative_is_monotone_and_totals() {
        let h = LatencyHistogram::default();
        for us in [0u64, 1, 3, 900, 1 << 45] {
            h.record(Duration::from_micros(us));
        }
        let (cum, sum, count) = h.cumulative_us();
        assert_eq!(cum.len(), BUCKETS);
        assert!(cum.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(cum.last().unwrap().1, count);
        assert_eq!(count, 5);
        // Recorded values: 0, 1, 3, 900, 1<<45.
        assert_eq!(sum, 1 + 3 + 900 + (1u64 << 45));
    }

    #[test]
    fn render_is_sorted_and_prefixed() {
        let m = ServerMetrics::default();
        ServerMetrics::inc(&m.requests);
        ServerMetrics::add(&m.embeddings_returned, 5);
        let rows = m.render(&[("graphs_loaded", 2)]);
        assert!(rows.iter().all(|r| r.starts_with("STAT ")));
        let mut sorted = rows.clone();
        sorted.sort();
        assert_eq!(rows, sorted);
        assert!(rows.iter().any(|r| r == "STAT requests_total 1"));
        assert!(rows.iter().any(|r| r == "STAT embeddings_returned 5"));
        assert!(rows.iter().any(|r| r == "STAT graphs_loaded 2"));
    }
}
