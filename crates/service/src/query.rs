//! The query verbs — `MATCH`, `ESTIMATE`, `EXPLAIN` — behind one resolver.
//!
//! [`resolve`] is the only place a request meets the registry, the admission
//! filter, the shard table and the index cache, in that order, and it ends
//! on exactly one [`ExecPath`]. A deadline is not a path: every `MATCH`
//! drains, and one its deadline stopped answers the drained pivots exactly
//! plus an estimate over the rest.
//! The reply's `filter=` / `mode=` / `cache=` tokens, the path's `STATS`
//! counter, the drain's [`ParallelOptions`] and `EXPLAIN`'s `| path:` line
//! are each derived from that value in one function below; the verbs only
//! execute the path they were handed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ceci_core::{
    enumerate_parallel, estimate_embeddings, estimate_pivots, explain_estimates, explain_served,
    served_cost, CancelToken, EnumOptions, Estimate, EstimateOptions, ParallelOptions, Strategy,
};
use ceci_graph::Graph;
use ceci_query::{admission_check, QueryGraph, QueryPlan};
use ceci_trace::Tracer;

use crate::cache::CachedIndex;
use crate::coord;
use crate::index::{index_for, Acquired};
use crate::metrics::ServerMetrics;
use crate::protocol::MatchForm;
use crate::registry::GraphEntry;
use crate::server::{record_tiled_spans, Reply, ServeConfig, ServerState};

/// The index a local path runs over, and what acquiring it took.
pub(crate) struct Served {
    index: Arc<CachedIndex>,
    cache: Acquired,
    /// Build or repair time (zero on a hit).
    build: Duration,
    /// The whole acquisition: cache probe + `build`.
    index_time: Duration,
}

/// The one path a request takes, chosen by [`resolve`].
pub(crate) enum ExecPath {
    /// The label-pair admission filter proved zero embeddings: answered in
    /// O(query edges) before any cache probe, index build or enumeration.
    Rejected,
    /// Coordinator mode, plain count-only `MATCH`: the pivots scatter across
    /// the shard fleet under the fixed deterministic plan.
    Sharded { query: QueryGraph, sub_epoch: u64 },
    /// Everything else: enumerate the index with `workers` threads, under
    /// the request's deadline if it has one.
    Drain {
        served: Served,
        raw: bool,
        workers: usize,
        cancel: Option<Arc<CancelToken>>,
    },
}

impl ExecPath {
    /// The variant's name, and the `filter=` / `mode=` token its reply leads
    /// with (`benchmark/src/wire.rs::parse_match` keys on these).
    fn tokens(&self) -> (&'static str, &'static str) {
        match self {
            ExecPath::Rejected => ("rejected", "filter=REJECTED"),
            ExecPath::Sharded { .. } => ("sharded", "mode=SHARDED"),
            ExecPath::Drain { .. } => ("drain", ""),
        }
    }

    /// The index under a local path.
    fn served(&self) -> Option<&Served> {
        match self {
            ExecPath::Drain { served, .. } => Some(served),
            _ => None,
        }
    }

    /// The reply's `cache=` value.
    fn cache_tag(&self) -> &'static str {
        self.served().map_or("NONE", |served| served.cache.tag())
    }

    /// `EXPLAIN`'s `| path:` line: the variant, then its reply tokens.
    fn describe(&self) -> String {
        let (name, lead) = self.tokens();
        let mut line = format!("| path: {name}");
        for token in [lead, &format!("cache={}", self.cache_tag())] {
            if !token.is_empty() {
                line.push(' ');
                line.push_str(token);
            }
        }
        line
    }

    /// Counts the path: one counter per variant (an index's acquisition was
    /// counted, hit / miss / repair, by [`index_for`]; a scatter has none).
    fn count(&self, metrics: &ServerMetrics) {
        match self {
            ExecPath::Rejected => ServerMetrics::inc(&metrics.filter_rejected),
            ExecPath::Sharded { .. } | ExecPath::Drain { .. } => {}
        }
    }
}

/// The enumeration options of a drain: the one function both `MATCH` and
/// `EXPLAIN ANALYZE` take theirs from. The strategy follows from the width
/// alone, `RAW` included: ST at one worker, the paper's FGD (β = 0.2) above
/// one. It changes how work is split, never a count.
fn drain_options(
    config: &ServeConfig,
    raw: bool,
    workers: usize,
    limit: Option<u64>,
) -> ParallelOptions {
    let mut options = ParallelOptions {
        workers,
        limit,
        enumeration: EnumOptions {
            prune_redundant: config.prune_redundant && !raw,
            ..EnumOptions::default()
        },
        ..Default::default()
    };
    if workers == 1 {
        options.strategy = Strategy::Static;
    }
    options
}

/// Resolves one request to its snapshot and the path over it (registry
/// lookup → snapshot → query load → [`choose`]) and counts that path. `form`
/// is `Some` for `MATCH`; `ESTIMATE` and `EXPLAIN` pass `None` and resolve as
/// the plain form does, except that they read the local index only: they
/// never scatter.
fn resolve(
    state: &ServerState,
    graph_name: &str,
    query_path: &str,
    form: Option<&MatchForm>,
) -> Result<(Arc<GraphEntry>, Arc<Graph>, ExecPath), Vec<String>> {
    let entry = state.graph(graph_name)?;
    // One consistent (snapshot, sub-epoch) pair for the whole request:
    // concurrent mutations publish new snapshots without touching this one.
    let (graph, sub_epoch) = entry.snapshot();
    let query = state.query(query_path)?;
    let path = choose(state, &entry, &graph, sub_epoch, query, form)?;
    path.count(&state.metrics);
    Ok((entry, graph, path))
}

/// The ladder itself, in order: admission → shard check → index acquisition
/// (hit / miss / repaired).
fn choose(
    state: &ServerState,
    entry: &GraphEntry,
    graph: &Graph,
    sub_epoch: u64,
    query: QueryGraph,
    form: Option<&MatchForm>,
) -> Result<ExecPath, Vec<String>> {
    let (runs, form) = (form.is_some(), form.copied().unwrap_or_default());
    if !form.raw && admission_check(&query, graph).rejected() {
        return Ok(ExecPath::Rejected);
    }
    // Requests with LIMIT/DEADLINE/WORKERS keep the local path: those knobs
    // shape enumeration in ways a scatter cannot reproduce deterministically.
    let plain = form.limit.is_none() && form.deadline_ms.is_none() && form.workers.is_none();
    if runs && plain && state.shards().is_some() {
        return Ok(ExecPath::Sharded { query, sub_epoch });
    }
    // The deadline clock starts when execution starts, not at submission:
    // queue wait is already bounded by admission control.
    let cancel = form
        .deadline_ms
        .map(|ms| CancelToken::after(Duration::from_millis(ms)));
    let t_index = Instant::now();
    let (index, cache, build) = index_for(state, entry, graph, sub_epoch, query)?;
    let index_time = t_index.elapsed();
    // Worker count: the request's `WORKERS`, one worker without it.
    let workers = form
        .workers
        .unwrap_or(1)
        .clamp(1, state.config().max_match_workers.max(1));
    let served = Served {
        index,
        cache,
        build,
        index_time,
    };
    Ok(ExecPath::Drain {
        served,
        raw: form.raw,
        workers,
        cancel,
    })
}

/// The interval tokens of `exact` plus the estimate `rest`, every value
/// clipped to `cap`: `ci95_lo` never falls below the exact part.
fn estimate_line(exact: u64, rest: &Estimate, cap: u64) -> String {
    let (lo, hi) = rest.ci95();
    let at = |v: f64| (exact as f64 + v).min(cap as f64);
    format!(
        "mean={:.1} std_error={:.1} ci95_lo={:.1} ci95_hi={:.1} walks={}",
        at(rest.mean),
        rest.std_error,
        at(lo),
        at(hi),
        rest.walks,
    )
}

pub(crate) fn exec_match(
    state: &ServerState,
    graph_name: &str,
    query_path: &str,
    form: MatchForm,
    queue_wait: Duration,
) -> Reply {
    let t_start = Instant::now();
    ServerMetrics::inc(&state.metrics.match_requests);
    let (entry, graph, path) = resolve(state, graph_name, query_path, Some(&form))?;
    let (lead, cache_tag) = (path.tokens().1, path.cache_tag());
    // `match_latency` is admission-to-response: queue wait counts.
    let finish = |line: String| {
        let total = t_start.elapsed();
        state.metrics.match_latency.record(queue_wait + total);
        vec![format!("{line} total_us={}", total.as_micros())]
    };
    match path {
        ExecPath::Rejected => Ok(finish(format!(
            "OK MATCH count=0 status=OK {lead} cache={cache_tag} build_us=0 enum_us=0"
        ))),
        ExecPath::Sharded { query, sub_epoch } => {
            // The plan is the *fixed* deterministic one (`QueryPlan::new`,
            // the default order) — shards replay it from the PREPARE line, so
            // coordinator and shards agree bit-for-bit on candidates, order,
            // and symmetry constraints. Pivots go out as file ids.
            let shards = state.shards().expect("a sharded path has shards");
            let plan = QueryPlan::new(query, &graph);
            let handle = format!("{graph_name}@{sub_epoch}:{query_path}");
            let report = coord::scatter_match(
                &graph,
                entry.ids(),
                &plan,
                query_path,
                &handle,
                shards,
                &state.coord_config(),
            );
            Ok(finish(format!(
                "OK MATCH count={} status=OK {lead} shards={} shard_commits={} \
                 local_fallback={} rescatters={} stale_rejected={} reconnects={}",
                report.total,
                shards.len(),
                report.shard_commits,
                report.local_fallback,
                report.rescatters,
                report.stale_rejected,
                report.reconnects,
            )))
        }
        ExecPath::Drain {
            served,
            raw,
            workers,
            cancel,
        } => {
            // The one drain. Every `MATCH` form enumerates its own cached
            // index through the parallel entry point (an inline loop over
            // the pivots at one worker).
            let index = &served.index;
            let options = ParallelOptions {
                cancel,
                ..drain_options(state.config(), raw, workers, form.limit)
            };
            let t_enum = Instant::now();
            let result = enumerate_parallel(&graph, &index.plan, &index.ceci, &options);
            let cap = form.limit.unwrap_or(u64::MAX);
            // A drain the deadline stopped: the pivots that drained are
            // exact, the rest is estimated (paper §4: one independent
            // cluster per pivot), and the reply is the interval.
            let (count, interval) = match &result.cut {
                None => {
                    let count = result.total_embeddings.min(cap);
                    ServerMetrics::add(&state.metrics.embeddings_returned, count);
                    (count, String::new())
                }
                Some(cut) => {
                    ServerMetrics::inc(&state.metrics.deadline_exceeded);
                    let (plan, ceci, options) = (&index.plan, &index.ceci, Default::default());
                    let rest =
                        estimate_pivots(&graph, plan, ceci, &cut.undrained, &options).estimate;
                    let total = (cut.exact as f64 + rest.mean).round() as u64;
                    let tokens = estimate_line(cut.exact, &rest, cap);
                    (
                        total.min(cap),
                        format!(" mode=APPROX exact={} {tokens}", cut.exact),
                    )
                }
            };
            let enum_time = t_enum.elapsed();
            let lines = finish(format!(
                "OK MATCH count={count} status=OK{interval} cache={cache_tag} build_us={} \
                 enum_us={}",
                served.build.as_micros(),
                enum_time.as_micros(),
            ));
            if state.tracer.enabled() {
                record_request_spans(
                    &state.tracer,
                    queue_wait,
                    &served,
                    enum_time,
                    t_start.elapsed(),
                    &[
                        ("embeddings", count),
                        ("cache_hit", (served.cache == Acquired::Hit) as u64),
                        ("deadline_exceeded", result.cut.is_some() as u64),
                        ("workers", workers as u64),
                    ],
                );
            }
            Ok(lines)
        }
    }
}

/// Answers `ESTIMATE <graph> <query-path> [WALKS <n>]`: runs the
/// random-walk cardinality estimator over the (cached) index and reports
/// mean, standard error, and 95% confidence interval without enumerating.
/// Shares the index cache with MATCH, so estimating then matching pays one
/// build.
pub(crate) fn exec_estimate(
    state: &ServerState,
    graph_name: &str,
    query_path: &str,
    walks: Option<u64>,
) -> Reply {
    let t_start = Instant::now();
    let (_, graph, path) = resolve(state, graph_name, query_path, None)?;
    // The label-pair filter proves zero without touching the index: the
    // degenerate exact-zero estimate.
    let est = match path.served() {
        Some(Served { index, .. }) => {
            let mut opts = EstimateOptions::default();
            if let Some(w) = walks {
                opts.walks = w.max(1);
            }
            estimate_embeddings(&graph, &index.plan, &index.ceci, &opts)
        }
        None => Estimate {
            mean: 0.0,
            std_error: 0.0,
            walks: 0,
            exact_zero: true,
        },
    };
    Ok(vec![format!(
        "OK ESTIMATE {} exact_zero={} cache={} total_us={}",
        estimate_line(0, &est, u64::MAX),
        est.exact_zero as u8,
        path.cache_tag(),
        t_start.elapsed().as_micros(),
    )])
}

/// Records one `service.request` span with its stage children
/// (`service.queue` → `service.cache_probe` → `service.build` →
/// `service.enumerate` → `service.serialize`) ending at
/// the tracer's current clock. `queue_wait` is admission to execution
/// start, `total` execution start to response-lines-ready; everything
/// between the measured stages (registry lookup, query-file load, response
/// formatting) lands in `serialize`, the closing stage.
fn record_request_spans(
    tracer: &Tracer,
    queue_wait: Duration,
    served: &Served,
    enum_time: Duration,
    total: Duration,
    args: &[(&'static str, u64)],
) {
    let ns = |d: Duration| d.as_nanos() as u64;
    let probe = ns(served.index_time).saturating_sub(ns(served.build));
    let stages = [
        ("service.queue", ns(queue_wait)),
        ("service.cache_probe", probe),
        ("service.build", ns(served.build)),
        ("service.enumerate", ns(enum_time)),
    ];
    let total = ns(queue_wait) + ns(total);
    let args = args.to_vec();
    record_tiled_spans(
        tracer,
        "service.request",
        total,
        args,
        &stages,
        "service.serialize",
    );
}

pub(crate) fn exec_explain(
    state: &ServerState,
    graph_name: &str,
    query_path: &str,
    analyze: bool,
) -> Reply {
    let (entry, graph, path) = resolve(state, graph_name, query_path, None)?;
    let ExecPath::Drain {
        served,
        raw,
        workers,
        ..
    } = &path
    else {
        // Provably zero: no index was probed or built, so there is none to
        // describe.
        return Ok(vec![path.describe(), "OK EXPLAIN".to_string()]);
    };
    let index = &served.index;
    // What a count-only `MATCH` of this template drains with.
    let options = drain_options(state.config(), *raw, *workers, None);
    // Which snapshot the report's candidate counts describe: the entry's
    // own, unless it was repaired under a plan retained from an earlier one.
    let sets = format!("sets@sub_epoch={}", index.sets_sub_epoch);
    let report =
        ceci_core::explain_plan(&index.plan, &index.ceci, &graph, options.enumeration, &sets);
    let mut lines: Vec<String> = report.lines().map(|l| format!("| {l}")).collect();
    lines.push(path.describe());
    let mut line = format!("| index: bytes={} cache={}", index.bytes, path.cache_tag());
    // Which numbering the symmetry windows above compare ids under.
    let ids = if entry.ids().is_identity() {
        "file"
    } else {
        "ranked"
    };
    line.push_str(&format!(" ids={ids}"));
    lines.push(line);
    // The served plan, the drain's width and strategy, and the plan's
    // estimated cost, walked over the served index now.
    let cost = served_cost(&graph, &index.plan, &index.ceci);
    let served = explain_served(&index.plan, &cost, options.strategy, options.workers);
    lines.extend(served.lines().map(|l| format!("| {l}")));
    if analyze {
        // EXPLAIN ANALYZE: the drain itself with a per-depth profile
        // attached, and the profile table appended. Single worker so the
        // per-depth rows describe one deterministic recursion.
        let options = ParallelOptions {
            workers: 1,
            profile: true,
            ..options
        };
        let result = enumerate_parallel(&graph, &index.plan, &index.ceci, &options);
        // `profile: true` was requested, but degrade gracefully if the
        // enumerator returned none rather than panicking the worker.
        if let Some(profile) = result.profile.as_ref() {
            let table = ceci_core::explain_profile(&index.plan, profile, &result.counters);
            lines.extend(table.lines().map(|l| format!("| {l}")));
            // Estimated vs actual per-depth volumes (q-error column): how
            // well the planner's cost model predicted this execution.
            let estimates = explain_estimates(
                &index.plan,
                &index.ceci,
                options.enumeration,
                &cost,
                profile,
                &result.counters,
            );
            lines.extend(estimates.lines().map(|l| format!("| {l}")));
        } else {
            lines.push("| profile: unavailable for this run".to_string());
        }
    }
    lines.push("OK EXPLAIN".to_string());
    Ok(lines)
}
