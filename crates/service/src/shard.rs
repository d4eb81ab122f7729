//! The shard plane of the one server: a *fragment source* — the graph a
//! `ceci-shard` process serves plus the plans `PREPARE`d on it — and the
//! two verbs that read it.
//!
//! ## Execution model
//!
//! A `ceci-shard` is the `ceci-serve` core (`crate::server`) whose
//! [`ServerState`] holds a [`FragmentPlane`]: same event loop, same bounded
//! pool and `BUSY` admission, same panic isolation, idle sweep, `CHAOS` and
//! `STATS`. `PREPARE` and `EXEC` are ordinary data-plane jobs. The store is
//! either a heap [`Graph`] or a memory-mapped CSR ([`MappedCsr`], for
//! graphs larger than RAM), and each `EXEC <name> <pivot> <epoch>` is
//! served self-contained by [`count_fragment`] — the §8 physical
//! decomposition, one pivot at a time. The per-pivot count is a pure
//! function of `(graph, plan, pivot)`, which is what makes the
//! coordinator's first-commit-wins result board bit-identical to a
//! single-process run under any kill/restart schedule.
//!
//! ## Fault surface
//!
//! The server's: `CHAOS EXIT [after-ms]` exits the process with status 42
//! (the deterministic stand-in for `kill -9` mid-enumeration); `CHAOS STALL
//! <ms>` delays every data-plane job, so a stalled shard stays
//! heartbeat-alive (`PING` runs inline) while tripping the coordinator's RPC
//! timeout — the slow-shard re-scatter lever; an `EXEC` that panics answers
//! `ERR E_WORKER_DROPPED` on a connection that stays usable. A killed
//! shard can rebind its port at once: `std`'s listener sets `SO_REUSEADDR`.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ceci_distributed::{count_fragment, AdjacencySource, PlanSpec};
use ceci_graph::io::MappedCsr;
use ceci_graph::{vid, Graph};

use crate::event_loop::lock_recover;
use crate::metrics::ServerMetrics;
use crate::protocol::ErrorCode;
use crate::server::{record_tiled_spans, Reply, ServerState};

/// The shard's graph: heap CSR or mmap'd CSR view.
pub enum GraphStore {
    /// Fully-loaded in-memory graph.
    Heap(Graph),
    /// Zero-copy view over an on-disk `CECIGRF1` file — serves graphs
    /// larger than RAM (the page cache keeps the hot balls resident).
    Mapped(MappedCsr),
}

impl GraphStore {
    /// The store as the adjacency fragments are extracted from.
    pub fn source(&self) -> &dyn AdjacencySource {
        match self {
            GraphStore::Heap(g) => g,
            GraphStore::Mapped(m) => m,
        }
    }
}

/// What makes a server a shard: the graph it cuts fragments from and the
/// coordinator plans pinned on it by `PREPARE`, by handle.
pub struct FragmentPlane {
    store: GraphStore,
    plans: Mutex<HashMap<String, Arc<PlanSpec>>>,
}

impl FragmentPlane {
    pub(crate) fn new(store: GraphStore) -> FragmentPlane {
        FragmentPlane {
            store,
            plans: Mutex::new(HashMap::new()),
        }
    }

    /// Vertices of the served graph (the `shard_vertices` row of `STATS`).
    pub fn num_vertices(&self) -> usize {
        self.store.source().num_vertices()
    }
}

/// The fragment plane, or the `ERR E_SHARD` reply of a query daemon.
fn plane(state: &ServerState) -> Result<&FragmentPlane, Vec<String>> {
    state.fragments().ok_or_else(|| {
        state.fail(
            ErrorCode::Shard,
            "this is a ceci-serve query daemon; PREPARE/EXEC are served by ceci-shard",
        )
    })
}

/// `PREPARE <name> <query-path> ROOT .. ORDER .. RADIUS ..`: loads the
/// query, checks the coordinator's decisions against it and pins them under
/// `name`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn exec_prepare(
    state: &ServerState,
    name: &str,
    query_path: &str,
    root: u32,
    order: &[u32],
    radius: usize,
    sym: &[(u32, u32)],
    sym_complete: bool,
) -> Reply {
    let plane = plane(state)?;
    let query = state.query(query_path)?;
    let spec = PlanSpec::from_wire(query, root, order, sym, sym_complete, radius)
        .map_err(|e| state.fail(ErrorCode::Shard, format!("PREPARE {e}")))?;
    // Re-PREPARE under the same name is idempotent by design: coordinator
    // drivers re-send it after every (re)connect.
    lock_recover(&plane.plans).insert(name.to_string(), Arc::new(spec));
    ServerMetrics::inc(&state.metrics.shard_prepares);
    Ok(vec![format!("OK PREPARED name={name} radius={radius}")])
}

/// `EXEC <name> <pivot> <epoch>`: counts one pivot's embedding cluster
/// inside its own fragment; the epoch is echoed for the coordinator's board.
pub(crate) fn exec_exec(
    state: &ServerState,
    name: &str,
    pivot: u32,
    epoch: u32,
    queue_wait: Duration,
) -> Reply {
    let t0 = Instant::now();
    let plane = plane(state)?;
    let spec = lock_recover(&plane.plans).get(name).cloned();
    let spec = spec.ok_or_else(|| {
        let unknown = format!("unknown PREPARE handle {name:?}; (re)send PREPARE first");
        state.fail(ErrorCode::Shard, unknown)
    })?;
    if pivot as usize >= plane.num_vertices() {
        return Err(state.fail(ErrorCode::Shard, format!("pivot {pivot} out of range")));
    }
    let run = count_fragment(plane.store.source(), &spec, &[vid(pivot)]);
    ServerMetrics::inc(&state.metrics.shard_execs);
    if state.tracer.enabled() {
        let ns = |d: Duration| d.as_nanos() as u64;
        let stages = [
            ("service.queue", ns(queue_wait)),
            ("shard.extract", ns(run.extract_time)),
            ("shard.match", ns(run.match_time)),
        ];
        let total = ns(queue_wait + t0.elapsed());
        let args = vec![("pivot", pivot as u64), ("embeddings", run.embeddings)];
        record_tiled_spans(
            &state.tracer,
            "service.exec",
            total,
            args,
            &stages,
            "service.serialize",
        );
    }
    let count = run.embeddings;
    Ok(vec![format!(
        "OK EXEC pivot={pivot} epoch={epoch} count={count}"
    )])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::coord::prepare_line;
    use crate::server::{start, start_with_state, ServeConfig};
    use ceci_core::{count_embeddings, Ceci};
    use ceci_graph::generators::{attach_pendants, kronecker_default};
    use ceci_query::{PaperQuery, QueryPlan};

    /// One server core, two planes: the same `start_with_state` serves the
    /// shard verbs over state that holds a fragment plane — typed refusals,
    /// exact per-pivot counts, its rows in the one counter table, `EXEC`
    /// spans on a traced server — and refuses them without one.
    #[test]
    fn a_server_holding_a_fragment_plane_serves_prepare_and_exec() {
        let graph = attach_pendants(&kronecker_default(7, 5, 23), 60, 24);
        let query = PaperQuery::Qg3.build();
        let dir = std::env::temp_dir().join(format!("ceci_shard_plane_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let qpath = dir.join("q.graph");
        let mut file = std::fs::File::create(&qpath).unwrap();
        ceci_graph::io::write_labeled(query.as_graph(), &mut file).unwrap();
        let qpath = qpath.to_str().unwrap();
        let plan = QueryPlan::new(query, &graph);
        let want = count_embeddings(&graph, &plan, &Ceci::build(&graph, &plan));
        let spec = PlanSpec::of(&plan);
        let pivots = plan.initial_candidates(plan.root());

        let config = ServeConfig {
            trace: true,
            ..ServeConfig::default()
        };
        let store = GraphStore::Heap(graph.clone());
        let state = Arc::new(ServerState::new(config).with_fragments(store));
        let handle = start_with_state(Arc::clone(&state)).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        let refused = |client: &mut Client, line: &str| {
            let resp = client.request(line).unwrap();
            assert!(resp.terminal.starts_with("ERR E_SHARD"), "{line}: {resp:?}");
        };

        refused(&mut client, "EXEC h 0 1"); // no such handle yet
        let resp = client.request(&prepare_line("h", qpath, &spec)).unwrap();
        assert!(resp.is_ok(), "{}", resp.terminal);
        // Decisions `QueryPlan::from_parts` would panic on never get pinned.
        let mut unrooted = spec.clone();
        unrooted.order.swap(0, 1);
        refused(&mut client, &prepare_line("bad", qpath, &unrooted));
        refused(&mut client, "EXEC bad 0 1");
        refused(&mut client, &format!("EXEC h {} 1", graph.num_vertices()));

        let mut total = 0;
        for (i, p) in pivots.iter().enumerate() {
            let resp = client.request(&format!("EXEC h {} {i}", p.0)).unwrap();
            assert_eq!(resp.field_u64("epoch"), Some(i as u64), "{}", resp.terminal);
            total += resp.field_u64("count").expect("a count");
        }
        assert_eq!(total, want, "Σ per-pivot EXEC = the full-graph count");

        let stats = client.request("STATS").unwrap().payload;
        for (key, value) in [
            ("shard_prepares", 1),
            ("shard_execs", pivots.len()),
            ("shard_vertices", graph.num_vertices()),
        ] {
            let row = format!("STAT {key} {value}");
            assert!(stats.contains(&row), "{row} missing: {stats:?}");
        }
        let spans = state.tracer.snapshot();
        let execs: Vec<_> = spans.iter().filter(|s| s.name == "service.exec").collect();
        assert_eq!(execs.len(), pivots.len(), "one span per answered EXEC");
        for exec in execs {
            let stages: Vec<_> = spans.iter().filter(|s| s.parent == exec.id).collect();
            let names: Vec<&str> = stages.iter().map(|s| s.name).collect();
            let tiling = [
                "service.queue",
                "shard.extract",
                "shard.match",
                "service.serialize",
            ];
            assert_eq!(names, tiling);
            let tiled: u64 = stages.iter().map(|s| s.dur_ns).sum();
            assert_eq!(tiled, exec.dur_ns, "stages tile the EXEC");
        }
        assert!(handle.shutdown().clean());

        // A query daemon holds no fragment plane and says so.
        let handle = start(ServeConfig::default()).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        refused(&mut client, &prepare_line("h", qpath, &spec));
        refused(&mut client, "EXEC h 0 1");
        assert!(handle.shutdown().clean());
        std::fs::remove_dir_all(&dir).ok();
    }
}
