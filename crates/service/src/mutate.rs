//! The verbs that change what is served: `LOAD`, the streaming mutations
//! (`ADDEDGE` / `DELEDGE` / `BATCH`) and the continuous queries
//! (`REGISTER` / `UNREGISTER`) they notify.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ceci_core::{batch_delta, count_embeddings, Ceci};
use ceci_graph::io as graph_io;
use ceci_graph::{rank_by_label_and_degree, vid, VertexId};
use ceci_query::QueryPlan;

use crate::event_loop::SharedWriter;
use crate::metrics::ServerMetrics;
use crate::protocol::ErrorCode;
use crate::registry::ContinuousQuery;
use crate::server::{record_tiled_spans, Reply, ServerState};

/// `LOAD`: reads the file and serves its graph numbered by ascending label
/// class and degree (`rank_us=` is what the renumbering cost); requests keep
/// naming vertices by their file ids.
pub(crate) fn exec_load(
    state: &ServerState,
    name: &str,
    path: &str,
    edge_list: bool,
    directed: bool,
) -> Reply {
    let loaded = if edge_list {
        graph_io::load_edge_list(path, directed)
    } else {
        graph_io::load_labeled(path)
    };
    let file = loaded.map_err(|e| state.fail(ErrorCode::Load, format!("load failed: {e}")))?;
    let (vertices, edges) = (file.num_vertices(), file.num_edges());
    let t_rank = Instant::now();
    let (graph, ids) = rank_by_label_and_degree(&file);
    let rank = t_rank.elapsed();
    // Only the ranked copy is served; free the file's before the entry
    // builds its label-pair index.
    drop(file);
    let (entry, displaced) = state.registry.insert_ranked(name, graph, ids);
    if let Some(old_epoch) = displaced {
        state.cache.evict_epoch(old_epoch);
    }
    // Continuous queries are pinned to the replaced entry's epoch; their
    // totals are meaningless against the new graph.
    state.continuous.lock().retain(|_, cq| cq.graph != name);
    ServerMetrics::inc(&state.metrics.load_requests);
    Ok(vec![format!(
        "OK LOADED name={name} vertices={vertices} edges={edges} epoch={} rank_us={}",
        entry.epoch,
        rank.as_micros()
    )])
}

/// Applies one mutation batch to a loaded graph and notifies every
/// continuous query registered on it.
///
/// The continuous-query lock is taken *before* the batch is applied and
/// held through notification, so concurrent mutation requests notify in
/// strict sub-epoch order — each registration's total moves batch by batch
/// over the exact snapshot pair the delta identity needs.
pub(crate) fn exec_mutate(
    state: &ServerState,
    graph_name: &str,
    adds: &[(u32, u32)],
    dels: &[(u32, u32)],
) -> Reply {
    let to_vids = |pairs: &[(u32, u32)]| -> Vec<(VertexId, VertexId)> {
        pairs.iter().map(|&(a, b)| (vid(a), vid(b))).collect()
    };
    exec_mutate_vids(state, graph_name, &to_vids(adds), &to_vids(dels))
}

/// [`exec_mutate`] over edges in file ids, which are translated into the
/// entry's ids here, once, for both `BATCH` forms.
fn exec_mutate_vids(
    state: &ServerState,
    graph_name: &str,
    adds: &[(VertexId, VertexId)],
    dels: &[(VertexId, VertexId)],
) -> Reply {
    let entry = state.graph(graph_name)?;
    let translate =
        |edges| (entry.entry_edges(edges)).map_err(|e| state.fail(ErrorCode::Mutation, e));
    let (adds, dels) = (translate(adds)?, translate(dels)?);
    let mut continuous = state.continuous.lock();
    let t0 = Instant::now();
    let config = state.config();
    let outcome = entry
        .apply_batch(&adds, &dels, config.compact_threshold, config.dirty_log_cap)
        .unwrap_or_else(|never| match never {});
    let apply = t0.elapsed();
    let mut delta_time = Duration::ZERO;
    if outcome.applied() > 0 {
        ServerMetrics::inc(&state.metrics.mutation_batches);
        ServerMetrics::add(&state.metrics.edges_added, outcome.added.len() as u64);
        ServerMetrics::add(&state.metrics.edges_deleted, outcome.deleted.len() as u64);
        if outcome.compacted {
            ServerMetrics::inc(&state.metrics.compactions);
        }
        let mut dead: Vec<String> = Vec::new();
        for (name, cq) in continuous.iter_mut() {
            if cq.graph != graph_name || cq.epoch != entry.epoch {
                continue;
            }
            debug_assert_eq!(
                cq.sub_epoch + 1,
                outcome.sub_epoch,
                "in-order notification is guaranteed by the continuous lock"
            );
            // The embedding delta (new − retired) reads the two snapshots
            // and the batch's edges only; no index of the query is involved.
            // Contained like a build.
            let t_delta = Instant::now();
            let delta = catch_unwind(AssertUnwindSafe(|| {
                batch_delta(
                    &outcome.old_graph,
                    &outcome.new_graph,
                    &cq.plan,
                    &outcome.added,
                    &outcome.deleted,
                )
            }));
            delta_time += t_delta.elapsed();
            let Ok(delta) = delta else {
                // The total can no longer be carried forward.
                dead.push(name.clone());
                continue;
            };
            cq.total = delta.apply_to(cq.total);
            cq.sub_epoch = outcome.sub_epoch;
            let event = format!(
                "EVENT DELTA query={name} graph={graph_name} batch={} new={} retired={} total={}",
                outcome.sub_epoch, delta.new_matches, delta.retired_matches, cq.total,
            );
            if cq.sink.write_lines(&[event]).is_err() {
                // The registering connection is gone (socket error, closed,
                // or its write queue overflowed): auto-unregister so dead
                // subscribers don't accumulate, and record the failure.
                ServerMetrics::inc(&state.metrics.event_push_failures);
                dead.push(name.clone());
            } else {
                ServerMetrics::inc(&state.metrics.continuous_events);
            }
        }
        for name in dead {
            continuous.remove(&name);
        }
    }
    if state.tracer.enabled() {
        let args = vec![
            ("applied", outcome.applied() as u64),
            ("sub_epoch", outcome.sub_epoch),
            ("compacted", outcome.compacted as u64),
        ];
        // `service.mutate`, tiled like `service.request`: `service.apply`
        // (the registry's `apply_batch`) → `service.delta` (Σ `batch_delta`
        // over the notified registrations) → `service.notify` (the rest).
        let ns = |d: Duration| d.as_nanos() as u64;
        let stages = [
            ("service.apply", ns(apply)),
            ("service.delta", ns(delta_time)),
        ];
        let total = ns(t0.elapsed());
        let tracer = &state.tracer;
        record_tiled_spans(
            tracer,
            "service.mutate",
            total,
            args,
            &stages,
            "service.notify",
        );
    }
    Ok(vec![format!(
        "OK MUTATED graph={graph_name} added={} deleted={} sub_epoch={} pending={} compacted={} \
         apply_us={} delta_us={}",
        outcome.added.len(),
        outcome.deleted.len(),
        outcome.sub_epoch,
        outcome.pending,
        outcome.compacted as u8,
        apply.as_micros(),
        delta_time.as_micros(),
    )])
}

/// `BATCH <graph> FILE <path>`: reads a SNAP temporal edge list server-side
/// and applies every edge as one batch of additions (timestamps order the
/// file; the whole file is one batch boundary here — a client that wants
/// finer boundaries slices the file into per-timestamp batches with
/// [`graph_io::batch_by_timestamp`] and sends each as an inline `BATCH`).
pub(crate) fn exec_batch_file(state: &ServerState, graph_name: &str, path: &str) -> Reply {
    let edges = graph_io::load_temporal(path)
        .map_err(|e| state.fail(ErrorCode::Mutation, format!("batch file load failed: {e}")))?;
    let adds: Vec<(VertexId, VertexId)> = edges.iter().map(|e| (e.src, e.dst)).collect();
    exec_mutate_vids(state, graph_name, &adds, &[])
}

/// `REGISTER <name> <graph> <query-path>`: counts the continuous query's
/// embeddings on the graph's current snapshot (one ordinary index build,
/// dropped after the count) and records that initial total. Holding the
/// continuous lock across the snapshot+build keeps the registration's
/// sub-epoch exactly in step with the mutation notifier (a batch can never
/// slip between the snapshot and the insert).
pub(crate) fn exec_register(
    state: &ServerState,
    name: &str,
    graph_name: &str,
    query_path: &str,
    sink: SharedWriter,
) -> Reply {
    let entry = state.graph(graph_name)?;
    let query = state.query(query_path)?;
    let mut continuous = state.continuous.lock();
    let (graph, sub_epoch) = entry.snapshot();
    let built = catch_unwind(AssertUnwindSafe(|| {
        let plan = Arc::new(QueryPlan::new(query, &graph));
        let ceci = Ceci::build(&graph, &plan);
        let total = count_embeddings(&graph, &plan, &ceci);
        (plan, total)
    }));
    let (plan, total) = built.map_err(|_| {
        let what = "index build for the continuous query panicked";
        state.fail(ErrorCode::Register, what)
    })?;
    continuous.insert(
        name.to_string(),
        ContinuousQuery {
            graph: graph_name.to_string(),
            epoch: entry.epoch,
            sub_epoch,
            plan,
            total,
            sink,
        },
    );
    Ok(vec![format!(
        "OK REGISTERED name={name} graph={graph_name} total={total} sub_epoch={sub_epoch}"
    )])
}

/// `UNREGISTER <name>`: drops a continuous-query registration.
pub(crate) fn exec_unregister(state: &ServerState, name: &str) -> Reply {
    let removed = state.continuous.lock().remove(name);
    let unknown = || {
        state.fail(
            ErrorCode::Register,
            format!("unknown registration {name:?}"),
        )
    };
    removed.ok_or_else(unknown)?;
    Ok(vec![format!("OK UNREGISTERED name={name}")])
}
