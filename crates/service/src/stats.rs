//! `STATS` and `STATS PROM`: the server's counters, gauges and latency
//! histograms rendered as sorted `STAT <key> <value>` rows (plus one `SHARD`
//! line per configured shard) or as Prometheus text exposition.

use std::sync::atomic::{AtomicU64, Ordering};

use ceci_trace::PromWriter;

use crate::coord::ShardLiveness;
use crate::server::ServerState;

/// The point-in-time gauges both renderings share, as `(STATS key, help,
/// value)`; `STATS PROM` names them `ceci_<key>`.
fn gauges(state: &ServerState) -> [(&'static str, &'static str, u64); 7] {
    [
        (
            "graphs_loaded",
            "Graphs currently loaded in the registry",
            state.registry.len() as u64,
        ),
        (
            "cache_entries",
            "Frozen indexes currently cached",
            state.cache.len() as u64,
        ),
        (
            "cache_bytes",
            "Bytes of frozen indexes currently cached",
            state.cache.bytes() as u64,
        ),
        (
            "cache_quarantined_keys",
            "Cache keys currently quarantined",
            state.cache.quarantined_len() as u64,
        ),
        (
            "trace_spans",
            "Spans in the service tracer store",
            state.tracer.len() as u64,
        ),
        (
            "continuous_registrations",
            "Continuous queries currently registered",
            state.continuous_len() as u64,
        ),
        (
            "shard_vertices",
            "Vertices of the graph this shard cuts fragments from (0 on a query daemon)",
            state.fragments().map_or(0, |f| f.num_vertices() as u64),
        ),
    ]
}

pub(crate) fn exec_stats(state: &ServerState, prom: bool) -> Vec<String> {
    // The cache owns its eviction count; the counter mirrors it when read.
    let evictions = state.cache.evictions();
    state
        .metrics
        .cache_evictions
        .store(evictions, Ordering::Relaxed);
    if prom {
        let mut lines: Vec<String> = render_prometheus(state)
            .lines()
            .map(str::to_string)
            .collect();
        lines.push("OK STATS".to_string());
        return lines;
    }
    let (configured, alive) = state.shards().map_or((0, 0), |s| (s.len(), s.alive()));
    let mut extra: Vec<(&str, u64)> = gauges(state).iter().map(|&(k, _, v)| (k, v)).collect();
    extra.push(("shards_configured", configured as u64));
    extra.push(("shards_alive", alive as u64));
    let mut lines = state.metrics.render(&extra);
    // Per-shard status lines (coordinator mode): one `SHARD` payload line
    // per configured shard, after the sorted STAT rows.
    if let Some(shards) = state.shards() {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        for (i, s) in shards.shards.iter().enumerate() {
            let liveness = match s.liveness() {
                ShardLiveness::Unknown => "unknown",
                ShardLiveness::Alive => "alive",
                ShardLiveness::Dead => "dead",
            };
            lines.push(format!(
                "SHARD {i} addr={} state={liveness} reconnects={} rescatters={} \
                 executed={} commits_rejected={}",
                s.addr,
                g(&s.reconnects),
                g(&s.rescatters),
                g(&s.executed),
                g(&s.commits_rejected),
            ));
        }
    }
    lines.push("OK STATS".to_string());
    lines
}

/// Renders the full metric surface in Prometheus text-exposition format
/// 0.0.4 (the `STATS PROM` payload). The output always passes
/// [`ceci_trace::prom::validate`]; the integration tests hold it to that.
pub(crate) fn render_prometheus(state: &ServerState) -> String {
    let m = &state.metrics;
    let mut w = PromWriter::new();
    for (key, help, value) in m.counters() {
        let total = if key.ends_with("_total") {
            ""
        } else {
            "_total"
        };
        w.counter(&format!("ceci_{key}{total}"), help, value);
    }
    // Coordinator-mode shard surface: aggregate counters (per-shard detail
    // lives in the STATS `SHARD` lines; PromWriter has no label support).
    if let Some(shards) = state.shards() {
        let sum = |f: &dyn Fn(&crate::coord::ShardStatus) -> u64| -> u64 {
            shards.shards.iter().map(f).sum()
        };
        w.gauge(
            "ceci_shards_configured",
            "Shard processes configured on this coordinator",
            shards.len() as u64,
        );
        w.gauge(
            "ceci_shards_alive",
            "Shards whose last probe or RPC succeeded",
            shards.alive() as u64,
        );
        w.counter(
            "ceci_shard_reconnects_total",
            "Successful shard reconnects after a failure",
            sum(&|s| s.reconnects.load(Ordering::Relaxed)),
        );
        w.counter(
            "ceci_shard_rescatters_total",
            "Re-scatter events (a shard declared dead mid-query)",
            sum(&|s| s.rescatters.load(Ordering::Relaxed)),
        );
        w.counter(
            "ceci_shard_commits_total",
            "Pivot counts committed via shard RPCs",
            sum(&|s| s.executed.load(Ordering::Relaxed)),
        );
        w.counter(
            "ceci_shard_commits_rejected_total",
            "Shard commits rejected as stale or duplicate",
            sum(&|s| s.commits_rejected.load(Ordering::Relaxed)),
        );
    }
    for (key, help, value) in gauges(state) {
        w.gauge(&format!("ceci_{key}"), help, value);
    }
    w.gauge(
        "ceci_connections_open",
        "Client connections currently open",
        m.connections_open.load(Ordering::Relaxed),
    );
    for (hist, name, help) in [
        (
            &m.match_latency,
            "ceci_match_latency_us",
            "End-to-end MATCH latency (admission to response), microseconds",
        ),
        (
            &m.build_latency,
            "ceci_build_latency_us",
            "CECI build time on cache misses, microseconds",
        ),
        (
            &m.build_filter_latency,
            "ceci_build_filter_us",
            "BFS-filter phase time within builds (Algorithm 1), microseconds",
        ),
        (
            &m.build_refine_latency,
            "ceci_build_refine_us",
            "Reverse-BFS refinement phase time within builds (Algorithm 2), microseconds",
        ),
        (
            &m.index_repair_latency,
            "ceci_index_repair_us",
            "Stale-index repair time (candidate sets patched or scanned + frozen build), microseconds",
        ),
    ] {
        let (cum, sum, count) = hist.cumulative_us();
        w.histogram(name, help, &cum, sum, count);
    }
    w.finish()
}
