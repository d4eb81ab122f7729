//! `repro service` — connection-scaling sweep for the event-driven server
//! core (PR 10).
//!
//! Drives the same closed-loop `MATCH` workload at a roughly constant
//! offered rate while the *connection count* scales from a handful to
//! thousands: each client loop sleeps `think_ms = clients × 1000 /
//! TARGET_RPS` between requests (Little's law), so adding connections adds
//! mostly-idle sockets, not load. That is exactly the regime the epoll
//! readiness loop exists for — a thread-per-connection server burns a stack
//! and a scheduler slot per idle socket; the event loop pays one `HashMap`
//! entry.
//!
//! The sweep **asserts** zero dropped responses (no `ERR`, no transport
//! errors, no `BUSY`) at every point and that embedding counts stay
//! bit-identical to a direct enumeration, then reports per-point p50/p99
//! latency and the p99 inflation of the largest point over the smallest
//! (target: ≤ `TARGET_P99_RATIO` = 2×; a miss warns rather than fails — tail
//! ratios on a loaded host are not deterministic, response integrity is).
//! Writes `bench_results/service.json` with a `connections` axis.

use std::sync::Arc;

use ceci_core::{count_embeddings, Ceci};
use ceci_graph::extract::extract_query;
use ceci_graph::generators::{erdos_renyi, inject_random_labels};
use ceci_graph::io;
use ceci_query::{QueryGraph, QueryPlan};
use ceci_service::{run_load, start_with_state, Client, LoadConfig, ServeConfig, ServerState};

use crate::json::JsonValue;
use crate::table::Table;
use crate::Scale;

/// Offered load held constant across the connection axis.
const TARGET_RPS: u64 = 500;

/// p99 inflation budget for the largest point vs the smallest.
const TARGET_P99_RATIO: f64 = 2.0;

struct Point {
    connections: usize,
    requests_per_client: usize,
    think_ms: u64,
    ok: u64,
    wall_ms: u64,
    throughput_rps: f64,
    p50_us: u64,
    p99_us: u64,
}

/// Runs the connection-scaling sweep and writes `bench_results/service.json`.
pub fn run(scale: Scale) {
    let (graph_n, axis, requests): (usize, &[usize], usize) = match scale {
        Scale::Quick => (1000, &[8, 512, 2048], 3),
        Scale::Full => (2000, &[8, 512, 2048, 4096], 5),
    };

    // Deterministic workload: a labeled ER graph and a query carved out of
    // it (at least one embedding guaranteed), served from the index cache
    // after the first request.
    let graph = inject_random_labels(&erdos_renyi(graph_n, graph_n * 4, 0xCEC1), 4, 0xCEC1);
    let extracted =
        extract_query(&graph, 4, 7, 50).expect("extractable query on the synthetic graph");
    let expected = {
        let query = QueryGraph::from_graph(&extracted.pattern).expect("valid query");
        let plan = QueryPlan::new(query, &graph);
        let ceci = Ceci::build(&graph, &plan);
        count_embeddings(&graph, &plan, &ceci)
    };
    let dir = std::env::temp_dir().join(format!("ceci-bench-service-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let query_path = dir.join("query.graph");
    {
        let mut f = std::fs::File::create(&query_path).expect("query file");
        io::write_labeled(&extracted.pattern, &mut f).expect("serialize query");
    }

    println!(
        "connection-scaling sweep: {} vertices, {} edges, query size 4, \
         offered ~{TARGET_RPS} req/s at every point",
        graph.num_vertices(),
        graph.num_edges()
    );

    let max_conns = axis.iter().copied().max().unwrap_or(2048);
    let mut points: Vec<Point> = Vec::new();
    for &connections in axis {
        // Fresh server per point so per-point metrics are isolated.
        let state = Arc::new(ServerState::new(ServeConfig {
            pool_workers: 4,
            queue_cap: 256,
            max_conns: max_conns + 64,
            ..ServeConfig::default()
        }));
        state.registry.insert("bench", graph.clone());
        let handle = start_with_state(Arc::clone(&state)).expect("bind loopback");

        // Warm the index cache so every measured request is the steady
        // state (cache-hit enumeration), not a one-off build.
        let mut ctl = Client::connect(handle.addr()).expect("control connection");
        let warm = ctl
            .request(&format!("MATCH bench {}", query_path.display()))
            .expect("warmup MATCH");
        assert!(warm.is_ok(), "warmup failed: {}", warm.terminal);
        assert_eq!(
            warm.field_u64("count"),
            Some(expected),
            "server count diverged from direct enumeration"
        );

        let think_ms = connections as u64 * 1000 / TARGET_RPS;
        let report = run_load(
            handle.addr(),
            &LoadConfig {
                clients: connections,
                requests_per_client: requests,
                request: format!("MATCH bench {}", query_path.display()),
                think_ms,
            },
        );

        // Response integrity is asserted, not reported: every request at
        // every connection count gets exactly one OK answer.
        let total = (connections * requests) as u64;
        assert_eq!(
            report.ok, total,
            "dropped responses at {connections}: {report:?}"
        );
        assert_eq!(report.err, 0, "{connections} connections: {report:?}");
        assert_eq!(report.io_errors, 0, "{connections} connections: {report:?}");
        assert_eq!(report.busy, 0, "{connections} connections: {report:?}");

        points.push(Point {
            connections,
            requests_per_client: requests,
            think_ms,
            ok: report.ok,
            wall_ms: report.wall.as_millis() as u64,
            throughput_rps: report.throughput_rps(),
            p50_us: report.latency.quantile_us(0.50),
            p99_us: report.latency.quantile_us(0.99),
        });
        handle.shutdown();
    }
    std::fs::remove_dir_all(&dir).ok();

    let mut table = Table::new(vec![
        "connections",
        "think_ms",
        "ok",
        "wall_ms",
        "rps",
        "p50_us",
        "p99_us",
    ]);
    for p in &points {
        table.row(vec![
            p.connections.to_string(),
            p.think_ms.to_string(),
            p.ok.to_string(),
            p.wall_ms.to_string(),
            format!("{:.1}", p.throughput_rps),
            p.p50_us.to_string(),
            p.p99_us.to_string(),
        ]);
    }
    table.print();

    let base = points.first().expect("at least one point");
    let peak = points.last().expect("at least one point");
    let p99_ratio = peak.p99_us as f64 / base.p99_us.max(1) as f64;
    println!(
        "\np99 inflation {} -> {} connections: {:.2}x (target <= {TARGET_P99_RATIO}x)",
        base.connections, peak.connections, p99_ratio
    );
    if p99_ratio > TARGET_P99_RATIO {
        println!(
            "WARNING: p99 ratio {p99_ratio:.2}x exceeds the {TARGET_P99_RATIO}x target \
             (tail latency is host-dependent; zero-drop integrity was asserted)"
        );
    }

    let point_rows: Vec<JsonValue> = points
        .iter()
        .map(|p| {
            JsonValue::object()
                .field("connections", p.connections as u64)
                .field("requests_per_client", p.requests_per_client as u64)
                .field("think_ms", p.think_ms)
                .field("ok", p.ok)
                .field("err", 0u64)
                .field("io_errors", 0u64)
                .field("busy", 0u64)
                .field("wall_ms", p.wall_ms)
                .field("throughput_rps", p.throughput_rps)
                .field("latency_p50_us", p.p50_us)
                .field("latency_p99_us", p.p99_us)
        })
        .collect();
    let json = JsonValue::object()
        .field("benchmark", "service_connection_scaling")
        .field("target_offered_rps", TARGET_RPS)
        .field("graph_n", graph.num_vertices() as u64)
        .field("query_size", 4u64)
        .field("expected_count", expected)
        .field("connections", JsonValue::Array(point_rows))
        .field("p99_ratio_peak_vs_base", p99_ratio)
        .field("target_p99_ratio", TARGET_P99_RATIO)
        .field("p99_within_target", p99_ratio <= TARGET_P99_RATIO)
        .field("zero_dropped_responses", true);
    crate::harness::persist("service", &json);
}
