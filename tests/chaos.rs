//! Chaos suite: deterministic fault injection must never change an answer.
//!
//! The contract under test is the headline of the fault work: for any
//! seeded [`FaultPlan`] — crashes pinned to virtual time, stragglers,
//! lost steal messages — the distributed simulation commits **bit-identical
//! match counts** to the fault-free run, because recovery is built on
//! per-pivot ownership epochs and first-commit-wins accounting rather than
//! on trusting any machine to die cleanly. On the serving side, injected
//! worker and build panics must be isolated, typed, and recoverable.

use std::sync::Arc;
use std::time::Duration;

use ceci::distributed::{
    run_distributed, run_distributed_with_faults, ClusterConfig, FaultPlan, StorageMode,
};
use ceci::prelude::*;
use ceci_graph::generators::{
    attach_pendants, erdos_renyi, inject_random_labels, kronecker_default,
};
use ceci_graph::io;
use ceci_service::{start_with_state, Client, RetryPolicy, ServeConfig, ServerState};

fn data() -> Graph {
    let core = kronecker_default(9, 6, 42);
    attach_pendants(&core, 400, 43)
}

fn expected(graph: &Graph, plan: &QueryPlan) -> u64 {
    let ceci = Ceci::build(graph, plan);
    ceci::core::count_embeddings(graph, plan, &ceci)
}

// ---------------------------------------------------------------------------
// Distributed simulation under faults
// ---------------------------------------------------------------------------

#[test]
fn crash_recovery_commits_bit_identical_counts() {
    let graph = data();
    for q in [PaperQuery::Qg1, PaperQuery::Qg3] {
        let plan = QueryPlan::new(q.build(), &graph);
        let want = expected(&graph, &plan);
        assert!(want > 0);
        // Machine 1 dies on its first completed cluster; machine 2 dies a
        // little later on its virtual clock. Machine 0 always survives.
        let faults = FaultPlan::new(7)
            .crash(1, Duration::ZERO)
            .crash(2, Duration::from_micros(200));
        for machines in [3usize, 4] {
            for storage in [StorageMode::Replicated, StorageMode::Shared] {
                let config = ClusterConfig {
                    machines,
                    threads_per_machine: 2,
                    storage,
                    ..Default::default()
                };
                let result = run_distributed_with_faults(&graph, &plan, &config, Some(&faults))
                    .expect("crash m1 @0 + m2 @200us");
                assert_eq!(
                    result.total_embeddings,
                    want,
                    "{} machines={machines} {storage:?}: counts must survive crashes",
                    q.name()
                );
                assert!(
                    result.recovery.crashed_machines >= 1,
                    "at least one crash must actually fire"
                );
                assert!(result.makespan_inflation() >= 1.0);
            }
        }
    }
}

#[test]
fn stragglers_and_steal_loss_preserve_counts() {
    let graph = data();
    let plan = QueryPlan::new(PaperQuery::Qg1.build(), &graph);
    let want = expected(&graph, &plan);
    let faults = FaultPlan::new(99).straggler(0, 8.0).with_steal_loss(0.5);
    let config = ClusterConfig {
        machines: 4,
        threads_per_machine: 2,
        ..Default::default()
    };
    let result = run_distributed_with_faults(&graph, &plan, &config, Some(&faults))
        .expect("straggler x8 + steal loss 50%");
    assert_eq!(result.total_embeddings, want);
    // The straggler's modeled time is visibly inflated.
    assert!(result.reports[0].straggle_virtual > Duration::ZERO);
    assert!(result.recovery.straggle_virtual > Duration::ZERO);
}

#[test]
fn fault_seeds_never_change_the_answer() {
    let graph = data();
    let plan = QueryPlan::new(PaperQuery::Qg3.build(), &graph);
    let config = ClusterConfig {
        machines: 3,
        threads_per_machine: 2,
        ..Default::default()
    };
    let baseline = run_distributed(&graph, &plan, &config).total_embeddings;
    let mut counts = Vec::new();
    for seed in [1u64, 2, 3] {
        let faults = FaultPlan::new(seed)
            .crash(2, Duration::from_micros(50))
            .straggler(1, 6.0)
            .with_steal_loss(0.3);
        // Same seed twice: the *plan* is deterministic, and the counts are
        // identical both to each other and to the fault-free baseline.
        let scenario = "crash m2 @50us + straggler x6 + steal loss 30%";
        let a = run_distributed_with_faults(&graph, &plan, &config, Some(&faults)).expect(scenario);
        let b = run_distributed_with_faults(&graph, &plan, &config, Some(&faults)).expect(scenario);
        assert_eq!(a.total_embeddings, baseline, "seed {seed}");
        assert_eq!(b.total_embeddings, baseline, "seed {seed} (rerun)");
        counts.push(a.total_embeddings);
    }
    assert!(counts.iter().all(|&c| c == baseline));
}

// ---------------------------------------------------------------------------
// Service under injected panics
//
// A panicked build's quarantine until re-LOAD, and the cache's bytes
// through it, are the seeded replay's (`crates/service/src/sim.rs`). What
// stays here needs a socket or threads: the worker respawn, single-flight
// waiters of a panicked leader, BUSY storms.
// ---------------------------------------------------------------------------

/// A per-test scratch directory for graph/query files.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("ceci-chaos-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn write_graph(&self, name: &str, graph: &Graph) -> String {
        let path = self.0.join(name);
        let mut f = std::fs::File::create(&path).unwrap();
        io::write_labeled(graph, &mut f).unwrap();
        path.display().to_string()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn small_graph() -> Graph {
    inject_random_labels(&erdos_renyi(200, 600, 5), 3, 6)
}

fn query_from(graph: &Graph, seed: u64) -> Graph {
    ceci_graph::extract::extract_query(graph, 3, seed, 50)
        .expect("extractable query")
        .pattern
}

fn direct_count(graph: &Graph, pattern: &Graph) -> u64 {
    let query = ceci_query::QueryGraph::from_graph(pattern).unwrap();
    let plan = QueryPlan::new(query, graph);
    let ceci = Ceci::build(graph, &plan);
    ceci::core::count_embeddings(graph, &plan, &ceci)
}

fn serve_chaos(
    pool_workers: usize,
    queue_cap: usize,
) -> (ceci_service::ServerHandle, Arc<ServerState>) {
    let state = Arc::new(ServerState::new(ServeConfig {
        pool_workers,
        queue_cap,
        chaos: true,
        ..ServeConfig::default()
    }));
    let handle = start_with_state(Arc::clone(&state)).expect("bind loopback");
    (handle, state)
}

#[test]
fn chaos_is_refused_unless_enabled() {
    let state = Arc::new(ServerState::new(ServeConfig::default()));
    let handle = start_with_state(Arc::clone(&state)).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    for cmd in ["CHAOS PANIC", "CHAOS BUILDPANIC", "CHAOS DELAY 5"] {
        let resp = client.request(cmd).unwrap();
        assert!(
            resp.terminal.starts_with("ERR E_CHAOS_DISABLED"),
            "{cmd}: {}",
            resp.terminal
        );
    }
    assert_eq!(
        state
            .metrics
            .chaos_injected
            .load(std::sync::atomic::Ordering::Relaxed),
        0,
        "disabled CHAOS must inject nothing"
    );
    handle.shutdown();
}

#[test]
fn worker_panic_is_isolated_typed_and_survivable() {
    // A single worker: if the respawn were fake, the second request would
    // hang forever instead of completing.
    let (handle, state) = serve_chaos(1, 8);
    let mut client = Client::connect(handle.addr()).unwrap();

    let resp = client.request("CHAOS PANIC").unwrap();
    assert!(
        resp.terminal.starts_with("ERR E_WORKER_DROPPED"),
        "{}",
        resp.terminal
    );
    // The sole worker respawned and keeps serving the data plane.
    let resp = client.request("CHAOS DELAY 5").unwrap();
    assert_eq!(resp.terminal, "OK CHAOS delayed_ms=5");

    let g = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(g(&state.metrics.worker_drops), 1);
    assert_eq!(g(&state.metrics.panics_caught), 1);
    assert!(g(&state.metrics.chaos_injected) >= 2);
    handle.shutdown();
}

#[test]
fn panicked_build_leader_fails_singleflight_waiters_quarantined() {
    // Single-flight failure path: when several identical MATCHes share one
    // in-flight build and the leader's build panics, the leader reports the
    // typed build failure and every waiter fails fast with E_QUARANTINED —
    // nobody retries the poisoned build, nobody hangs.
    let scratch = Scratch::new("sf-panic");
    let graph = small_graph();
    let pattern = query_from(&graph, 31);
    let want = direct_count(&graph, &pattern);
    let graph_path = scratch.write_graph("g.graph", &graph);
    let query_path = scratch.write_graph("q.graph", &pattern);

    let (handle, state) = serve_chaos(8, 16);
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();
    client.request(&format!("LOAD g {graph_path}")).unwrap();

    // Delay-then-panic: the delay holds the flight gate open long enough
    // for all followers to pile up as waiters, then the build panics.
    let resp = client.request("CHAOS BUILDDELAY 400").unwrap();
    assert!(resp.is_ok(), "{}", resp.terminal);
    let resp = client.request("CHAOS BUILDPANIC").unwrap();
    assert!(resp.is_ok(), "{}", resp.terminal);

    let barrier = Arc::new(std::sync::Barrier::new(4));
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            let req = format!("MATCH g {query_path}");
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                barrier.wait();
                c.request(&req).unwrap()
            })
        })
        .collect();
    let terminals: Vec<String> = threads
        .into_iter()
        .map(|t| t.join().unwrap().terminal)
        .collect();

    let panics = terminals
        .iter()
        .filter(|t| t.starts_with("ERR E_BUILD_PANIC"))
        .count();
    let quarantined = terminals
        .iter()
        .filter(|t| t.starts_with("ERR E_QUARANTINED"))
        .count();
    assert_eq!(panics, 1, "exactly one leader panics: {terminals:?}");
    assert_eq!(
        quarantined, 3,
        "all waiters fail quarantined: {terminals:?}"
    );

    let g = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(state.metrics.build_latency.count(), 0, "no build completed");
    assert_eq!(g(&state.metrics.cache_quarantined), 1);
    assert!(
        g(&state.metrics.singleflight_waits) >= 1,
        "waiters did wait"
    );

    // Recovery is unchanged from the solo case: re-LOAD sweeps the
    // quarantine and the query builds and counts exactly.
    client.request(&format!("LOAD g {graph_path}")).unwrap();
    let resp = client.request(&format!("MATCH g {query_path}")).unwrap();
    assert!(resp.is_ok(), "{}", resp.terminal);
    assert_eq!(resp.field_u64("count"), Some(want));
    handle.shutdown();
}

#[test]
fn client_retry_rides_out_busy_storms() {
    // One worker, one queue slot: two parked delays guarantee BUSY for any
    // immediate third request.
    let (handle, _state) = serve_chaos(1, 1);
    let addr = handle.addr();
    let sleepers: Vec<_> = (0..2)
        .map(|_| {
            let t = std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.request("CHAOS DELAY 1200").unwrap()
            });
            std::thread::sleep(Duration::from_millis(300));
            t
        })
        .collect();

    let mut probe = Client::connect(addr).unwrap();
    // Without retries the probe bounces...
    let resp = probe.request("CHAOS DELAY 1").unwrap();
    assert!(resp.is_busy(), "expected BUSY, got {}", resp.terminal);
    // ...with retries it backs off until a worker frees up.
    let policy = RetryPolicy {
        max_retries: 60,
        base_delay: Duration::from_millis(20),
        max_delay: Duration::from_millis(200),
        jitter_seed: 1,
    };
    let outcome = probe.request_with_retry("CHAOS DELAY 1", &policy).unwrap();
    assert!(outcome.response.is_ok(), "{}", outcome.response.terminal);
    assert!(outcome.attempts > 1, "first attempt must have been BUSY");
    assert_eq!(outcome.reconnects, 0);

    for s in sleepers {
        let r = s.join().unwrap();
        assert!(r.is_ok(), "sleeper got {}", r.terminal);
    }
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// A dead shard fleet in front of a LOADed entry
// ---------------------------------------------------------------------------

/// A coordinator whose every shard refuses connections counts the whole
/// scatter itself. Its entry is numbered by degree; the fallback counts in
/// the file ids a live shard would have used, and the total is exact.
#[test]
fn a_dead_fleet_falls_back_in_file_ids_on_a_loaded_entry() {
    let graph = data();
    let scratch = Scratch::new("fleet");
    let graph_path = scratch.write_graph("data.graph", &graph);
    let qg = PaperQuery::Qg3.build();
    let query_path = scratch.write_graph("qg3.graph", qg.as_graph());
    let want = expected(&graph, &QueryPlan::new(qg, &graph));

    // Port 1 on loopback refuses at once: both drivers give up after one
    // retry and the coordinator finishes every pivot locally.
    let state = Arc::new(ServerState::new(ServeConfig {
        shards: vec!["127.0.0.1:1".to_string(), "127.0.0.1:1".to_string()],
        shard_retries: 1,
        shard_heartbeat_ms: 0,
        ..ServeConfig::default()
    }));
    let handle = start_with_state(state).expect("bind loopback");
    let mut client = Client::connect(handle.addr()).unwrap();
    let resp = client.request(&format!("LOAD g {graph_path}")).unwrap();
    assert!(resp.field_u64("rank_us").is_some(), "{}", resp.terminal);
    let resp = client.request(&format!("MATCH g {query_path}")).unwrap();
    let line = &resp.terminal;
    assert_eq!(resp.field("mode"), Some("SHARDED"), "{line}");
    assert_eq!(resp.field_u64("count"), Some(want), "{line}");
    assert_eq!(resp.field_u64("shard_commits"), Some(0), "{line}");
    assert!(resp.field_u64("local_fallback") > Some(0), "{line}");
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// Streaming mutations under chaos
// ---------------------------------------------------------------------------

/// Differential sweep of the streaming layer under fault injection: random
/// mutation batches interleaved with injected worker panics, with
/// compaction forced mid-sweep. Every MATCH after every batch must count
/// bit-identically to a from-scratch enumeration of a locally maintained
/// reference copy — panicked workers, repaired caches, and compacted
/// snapshots included.
#[test]
fn mutation_sweep_stays_bit_identical_under_worker_panics() {
    use std::collections::BTreeSet;

    let graph = small_graph();
    let pattern = query_from(&graph, 77);
    let state = Arc::new(ServerState::new(ServeConfig {
        chaos: true,
        // Low threshold so the sweep compacts at least once.
        compact_threshold: 8,
        ..ServeConfig::default()
    }));
    let handle = start_with_state(Arc::clone(&state)).expect("bind loopback");

    let dir = std::env::temp_dir().join(format!("ceci-chaos-stream-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph_path = dir.join("data.graph");
    let query_path = dir.join("query.graph");
    io::write_labeled(&graph, &mut std::fs::File::create(&graph_path).unwrap()).unwrap();
    io::write_labeled(&pattern, &mut std::fs::File::create(&query_path).unwrap()).unwrap();

    let mut client = Client::connect(handle.addr()).unwrap();
    client
        .request(&format!("LOAD g {}", graph_path.display()))
        .unwrap();

    // Local reference edge set, mirrored batch by batch.
    let mut edges: BTreeSet<(u32, u32)> = BTreeSet::new();
    for a in 0..graph.num_vertices() as u32 {
        for &b in graph.neighbors(vid(a)) {
            if a < b.0 {
                edges.insert((a, b.0));
            }
        }
    }
    let n = graph.num_vertices() as u64;
    let mut x: u64 = 0xC0FFEE;
    let mut rng = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };

    let mut compacted_once = false;
    for round in 0..10 {
        // A panic right before every third batch: the worker dies, the
        // supervisor respawns it, and the stream state must be untouched.
        if round % 3 == 0 {
            let resp = client.request("CHAOS PANIC").unwrap();
            assert!(
                resp.terminal.starts_with("ERR E_WORKER_DROPPED"),
                "{}",
                resp.terminal
            );
        }

        let add = loop {
            let (a, b) = ((rng() % n) as u32, (rng() % n) as u32);
            if a != b && !edges.contains(&(a.min(b), a.max(b))) {
                break (a.min(b), a.max(b));
            }
        };
        let del = *edges.iter().nth((rng() as usize) % edges.len()).unwrap();
        let resp = client
            .request(&format!(
                "BATCH g +{}:{} -{}:{}",
                add.0, add.1, del.0, del.1
            ))
            .unwrap();
        assert!(resp.is_ok(), "round {round}: {}", resp.terminal);
        assert_eq!(resp.field_u64("added"), Some(1));
        assert_eq!(resp.field_u64("deleted"), Some(1));
        compacted_once |= resp.field_u64("compacted") == Some(1);
        edges.insert(add);
        edges.remove(&del);

        let reference = Graph::new(
            (0..graph.num_vertices() as u32)
                .map(|v| graph.labels(vid(v)).clone())
                .collect(),
            &edges
                .iter()
                .map(|&(a, b)| (vid(a), vid(b)))
                .collect::<Vec<_>>(),
            false,
        );
        let resp = client
            .request(&format!("MATCH g {}", query_path.display()))
            .unwrap();
        assert!(resp.is_ok(), "round {round}: {}", resp.terminal);
        assert_eq!(
            resp.field_u64("count"),
            Some(direct_count(&reference, &pattern)),
            "diverged from reference at round {round}"
        );
    }
    assert!(compacted_once, "sweep never compacted");

    std::fs::remove_dir_all(&dir).ok();
    handle.shutdown();
}
