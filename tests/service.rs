//! Integration tests for `ceci-serve`: a real server on a loopback
//! ephemeral port, exercised over TCP through the real client.
//!
//! Covers the acceptance criteria of the serving layer over real requests:
//! correct counts vs direct enumeration, LIMIT, index-cache hits on
//! repeated templates, DEADLINE returning partial counts in bounded time,
//! BUSY under queue overflow, and 8 concurrent clients sustained without
//! error. The seeded replay in `crates/service/src/sim.rs` checks random
//! interleavings of the same verbs against one model, without a socket.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ceci_core::{
    count_embeddings, enumerate_parallel, Ceci, EnumOptions, ParallelOptions, Strategy,
};
use ceci_graph::extract::extract_query;
use ceci_graph::generators::{erdos_renyi, inject_random_labels};
use ceci_graph::io;
use ceci_graph::Graph;
use ceci_query::{CanonicalQuery, QueryGraph, QueryPlan};
use ceci_service::{
    run_load, start_with_state, CachedIndex, Client, LoadConfig, ServeConfig, ServerHandle,
    ServerState,
};

/// A per-test scratch directory under the target-adjacent temp dir.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("ceci-service-test-{tag}-{}", std::process::id()));
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
    inject_random_labels(&erdos_renyi(300, 900, 11), 3, 12)
}

fn query_from(graph: &Graph, size: usize, seed: u64) -> Graph {
    extract_query(graph, size, seed, 50)
        .expect("extractable query")
        .pattern
}

fn direct_count(graph: &Graph, pattern: &Graph) -> u64 {
    let query = QueryGraph::from_graph(pattern).unwrap();
    let plan = QueryPlan::new(query, graph);
    let ceci = Ceci::build(graph, &plan);
    count_embeddings(graph, &plan, &ceci)
}

fn serve(config: ServeConfig) -> (ServerHandle, Arc<ServerState>) {
    let state = Arc::new(ServerState::new(config));
    let handle = start_with_state(Arc::clone(&state)).expect("bind loopback");
    (handle, state)
}

#[test]
fn limit_truncates_and_repeat_hits_cache() {
    let scratch = Scratch::new("cache");
    let graph = small_graph();
    let pattern = query_from(&graph, 3, 5);
    let expected = direct_count(&graph, &pattern);
    assert!(expected > 1, "need a query with multiple embeddings");
    let graph_path = scratch.write_graph("data.graph", &graph);
    let query_path = scratch.write_graph("query.graph", &pattern);

    let (handle, state) = serve(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    client.request(&format!("LOAD g {graph_path}")).unwrap();

    // Cold: builds and caches the index.
    let resp = client.request(&format!("MATCH g {query_path}")).unwrap();
    assert_eq!(resp.field("cache"), Some("MISS"));
    // Warm, with LIMIT: same template skips the build and truncates.
    let resp = client
        .request(&format!("MATCH g {query_path} LIMIT 1"))
        .unwrap();
    assert!(resp.is_ok());
    assert_eq!(resp.field_u64("count"), Some(1));
    assert_eq!(resp.field("cache"), Some("HIT"));
    assert_eq!(
        resp.field_u64("build_us"),
        Some(0),
        "cache hit must skip build"
    );

    // STATS reflects it.
    let resp = client.request("STATS").unwrap();
    assert_eq!(resp.terminal, "OK STATS");
    let stat = |key: &str| -> u64 {
        resp.payload
            .iter()
            .find_map(|l| l.strip_prefix(&format!("STAT {key} ")))
            .unwrap_or_else(|| panic!("missing STAT {key} in {:?}", resp.payload))
            .parse()
            .unwrap()
    };
    assert!(stat("cache_hits") >= 1);
    assert_eq!(stat("cache_misses"), 1);
    assert_eq!(stat("graphs_loaded"), 1);
    assert!(stat("cache_bytes") > 0);
    // Exactly one cache-miss build happened, and its filter/refine phase
    // split is surfaced (one observation each; phase times can round to 0 µs
    // on tiny graphs, so only the counts and p99 presence are asserted).
    assert_eq!(stat("build_latency_count"), 1);
    assert!(stat("build_latency_p50_us") <= stat("build_latency_p99_us"));
    // Quantiles are midpoint-interpolated bucket estimates: with power-of-
    // two buckets the estimate is within 2x of any observation, so the
    // exact mean is bounded by twice the p99 estimate (+2 for bucket 0).
    assert!(stat("build_filter_mean_us") <= 2 * stat("build_filter_p99_us") + 2);
    assert!(stat("build_refine_mean_us") <= 2 * stat("build_refine_p99_us") + 2);
    assert_eq!(
        state
            .metrics
            .cache_hits
            .load(std::sync::atomic::Ordering::Relaxed),
        stat("cache_hits")
    );

    handle.shutdown();
}

#[test]
fn automorphic_query_presentations_share_one_cache_entry() {
    let scratch = Scratch::new("iso");
    let graph = small_graph();
    let pattern = query_from(&graph, 3, 9);
    // Re-present the same pattern with vertices renumbered in reverse.
    let n = pattern.num_vertices();
    let relabel: Vec<u32> = (0..n as u32).rev().collect();
    let labels: Vec<_> = (0..n)
        .map(|i| {
            let orig = relabel.iter().position(|&r| r as usize == i).unwrap();
            pattern.labels(ceci_graph::VertexId(orig as u32)).clone()
        })
        .collect();
    let mut edges = Vec::new();
    for v in pattern.vertices() {
        for &nb in pattern.neighbors(v) {
            if v < nb {
                edges.push((
                    ceci_graph::VertexId(relabel[v.index()]),
                    ceci_graph::VertexId(relabel[nb.index()]),
                ));
            }
        }
    }
    let renumbered = Graph::new(labels, &edges, false);

    let graph_path = scratch.write_graph("data.graph", &graph);
    let q1 = scratch.write_graph("q1.graph", &pattern);
    let q2 = scratch.write_graph("q2.graph", &renumbered);

    let (handle, state) = serve(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    client.request(&format!("LOAD g {graph_path}")).unwrap();
    let r1 = client.request(&format!("MATCH g {q1}")).unwrap();
    let r2 = client.request(&format!("MATCH g {q2}")).unwrap();
    assert_eq!(r1.field("cache"), Some("MISS"));
    assert_eq!(
        r2.field("cache"),
        Some("HIT"),
        "isomorphic presentation must hit the same entry"
    );
    assert_eq!(r1.field_u64("count"), r2.field_u64("count"));
    assert_eq!(state.cache.len(), 1);
    handle.shutdown();
}

#[test]
fn deadline_returns_partial_count_in_bounded_time() {
    let scratch = Scratch::new("deadline");
    // Big enough that full enumeration takes well over the deadline.
    let graph = inject_random_labels(&erdos_renyi(3000, 30_000, 21), 2, 22);
    let pattern = query_from(&graph, 4, 7);
    let graph_path = scratch.write_graph("data.graph", &graph);
    let query_path = scratch.write_graph("query.graph", &pattern);

    let (handle, state) = serve(ServeConfig {
        trace: true,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(handle.addr()).unwrap();
    client.request(&format!("LOAD g {graph_path}")).unwrap();
    // Warm the cache so DEADLINE 1 exercises *enumeration* cancellation
    // rather than tripping during the index build.
    let warm = client
        .request(&format!("MATCH g {query_path} LIMIT 1"))
        .unwrap();
    assert!(warm.is_ok(), "warmup failed: {}", warm.terminal);

    // The drain runs until the deadline stops it, then answers the pivots
    // that drained exactly and estimates the rest: an interval that never
    // reaches below the exact part, never a truncated count.
    let t0 = Instant::now();
    let resp = client
        .request(&format!("MATCH g {query_path} DEADLINE 1"))
        .unwrap();
    let elapsed = t0.elapsed();
    assert!(resp.is_ok(), "deadline response: {}", resp.terminal);
    assert_eq!(resp.field("status"), Some("OK"), "{}", resp.terminal);
    assert_eq!(resp.field("mode"), Some("APPROX"), "{}", resp.terminal);
    assert_eq!(resp.field("cache"), Some("HIT"));
    let value = |key: &str| -> f64 { resp.field(key).unwrap().parse().unwrap() };
    let exact = resp.field_u64("exact").expect("exact=") as f64;
    let (lo, mean, hi) = (value("ci95_lo"), value("mean"), value("ci95_hi"));
    assert!(exact <= lo && lo <= mean && mean <= hi, "{}", resp.terminal);
    let count = resp.field_u64("count").expect("count=") as f64;
    assert!((count - mean).abs() <= 0.55, "{}", resp.terminal);
    assert!(
        elapsed < Duration::from_secs(5),
        "deadline response took {elapsed:?}"
    );

    // The drain's width is the request's own: a heavy template (over a
    // million walked units) without `WORKERS` drains on one worker, and
    // `WORKERS 2` on two.
    let resp = client
        .request(&format!("MATCH g {query_path} LIMIT 1 WORKERS 2"))
        .unwrap();
    assert!(resp.is_ok(), "{}", resp.terminal);
    let widths: Vec<u64> = state
        .tracer
        .snapshot()
        .iter()
        .filter(|s| s.name == "service.request")
        .map(|s| s.args.iter().find(|(k, _)| *k == "workers").unwrap().1)
        .collect();
    // The warm-up, the deadline run, then `WORKERS 2`.
    assert_eq!(widths, [1, 1, 2]);
    handle.shutdown();
}

/// A drain with nothing left to do is exact, whatever its deadline: "cut
/// short" means some unit the deadline stopped, not a clock read after the
/// join. A triangle over a star passes the label-pair filter, but its index
/// has no pivots, so `DEADLINE 0` answers an exact zero; a `LIMIT` reached
/// before a short deadline answers exactly too.
#[test]
fn a_drain_with_nothing_left_is_exact_whatever_its_deadline() {
    use ceci_graph::vid;
    let scratch = Scratch::new("nothing-left");
    let edges: Vec<_> = (1..=7).map(|leaf| (vid(0), vid(leaf))).collect();
    let star = scratch.write_graph("star.graph", &Graph::unlabeled(8, &edges));
    let triangle = [(vid(0), vid(1)), (vid(1), vid(2)), (vid(2), vid(0))];
    let triangle = scratch.write_graph("triangle.graph", &Graph::unlabeled(3, &triangle));
    let graph = small_graph();
    let pattern = query_from(&graph, 4, 7);
    let heavy = scratch.write_graph("data.graph", &graph);
    let query = scratch.write_graph("query.graph", &pattern);
    assert!(direct_count(&graph, &pattern) > 3);

    let (handle, _state) = serve(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    client.request(&format!("LOAD s {star}")).unwrap();
    client.request(&format!("LOAD g {heavy}")).unwrap();
    client.request(&format!("MATCH g {query}")).unwrap();
    for (request, count) in [
        (format!("MATCH s {triangle} DEADLINE 0"), 0),
        (format!("MATCH s {triangle} DEADLINE 0 WORKERS 2"), 0),
        (format!("MATCH g {query} LIMIT 3 DEADLINE 5000"), 3),
        (
            format!("MATCH g {query} LIMIT 3 DEADLINE 5000 WORKERS 2"),
            3,
        ),
    ] {
        let was = prom(&mut client);
        let resp = client.request(&request).unwrap();
        let now = prom(&mut client);
        assert!(resp.is_ok(), "{request}: {}", resp.terminal);
        assert_eq!(resp.field("filter"), None, "{request}: {}", resp.terminal);
        assert_eq!(resp.field("status"), Some("OK"), "{request}");
        assert_eq!(resp.field("mode"), None, "{request}: {}", resp.terminal);
        assert_eq!(resp.field_u64("count"), Some(count), "{request}");
        let exceeded = "ceci_deadline_exceeded_total";
        assert_eq!(now[exceeded], was[exceeded], "{request}");
    }
    handle.shutdown();
}

#[test]
fn queue_overflow_answers_busy() {
    let (handle, state) = serve(ServeConfig {
        pool_workers: 1,
        queue_cap: 1,
        chaos: true,
        ..ServeConfig::default()
    });
    // Two parked delays: one occupies the single worker, one fills the
    // queue. Each needs its own connection (a connection blocks on its
    // in-flight request), and they are staggered so the first is popped by
    // the worker before the second is submitted — submitting both at once
    // would race the second sleeper against the pop and bounce it.
    let addr = handle.addr();
    let sleepers: Vec<_> = (0..2)
        .map(|_| {
            let t = std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.request("CHAOS DELAY 2000").unwrap()
            });
            std::thread::sleep(Duration::from_millis(400));
            t
        })
        .collect();

    let mut probe = Client::connect(addr).unwrap();
    let resp = probe.request("CHAOS DELAY 1").unwrap();
    assert!(resp.is_busy(), "expected BUSY, got {}", resp.terminal);
    // Control plane stays responsive while the data plane is saturated.
    let resp = probe.request("PING").unwrap();
    assert_eq!(resp.terminal, "OK PONG");

    for s in sleepers {
        let r = s.join().unwrap();
        assert!(r.is_ok(), "sleeper got {}", r.terminal);
    }
    assert!(
        state
            .metrics
            .rejected_busy
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    handle.shutdown();
}

#[test]
fn eight_concurrent_clients_sustained_without_error() {
    let scratch = Scratch::new("load");
    let graph = small_graph();
    let pattern = query_from(&graph, 4, 13);
    let query_path = scratch.write_graph("query.graph", &pattern);

    let (handle, state) = serve(ServeConfig {
        pool_workers: 4,
        queue_cap: 64,
        ..ServeConfig::default()
    });
    state.registry.insert("g", graph);

    let report = run_load(
        handle.addr(),
        &LoadConfig {
            clients: 8,
            requests_per_client: 20,
            request: format!("MATCH g {query_path}"),
            ..LoadConfig::default()
        },
    );
    assert_eq!(report.ok, 8 * 20, "all requests succeed: {report:?}");
    assert_eq!(report.err, 0);
    assert_eq!(report.io_errors, 0);
    assert_eq!(report.busy, 0, "queue_cap=64 admits the closed loop");
    // The repeated template is served from cache after the cold start.
    let hits = state
        .metrics
        .cache_hits
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(hits >= 8 * 20 - 8, "expected mostly cache hits, got {hits}");
    handle.shutdown();
}

#[test]
fn errors_and_explain() {
    let scratch = Scratch::new("errs");
    let graph = small_graph();
    let pattern = query_from(&graph, 3, 17);
    let graph_path = scratch.write_graph("data.graph", &graph);
    let query_path = scratch.write_graph("query.graph", &pattern);

    let (handle, _state) = serve(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();

    // Unknown graph / bad paths produce ERR with context, not hangs.
    let resp = client.request(&format!("MATCH nope {query_path}")).unwrap();
    assert!(resp.terminal.starts_with("ERR"), "{}", resp.terminal);
    assert!(resp.terminal.contains("nope"));

    client.request(&format!("LOAD g {graph_path}")).unwrap();
    let resp = client.request("MATCH g /no/such/query.graph").unwrap();
    assert!(resp.terminal.starts_with("ERR"));
    assert!(resp.terminal.contains("query.graph"), "{}", resp.terminal);

    let resp = client.request("FROBNICATE").unwrap();
    assert!(resp.terminal.starts_with("ERR"));

    // EXPLAIN produces a payload report with `| ` prefixed lines.
    let resp = client.request(&format!("EXPLAIN g {query_path}")).unwrap();
    assert_eq!(resp.terminal, "OK EXPLAIN");
    assert!(!resp.payload.is_empty());
    assert!(resp.payload.iter().all(|l| l.starts_with("| ")));

    // QUIT closes cleanly.
    let resp = client.request("QUIT").unwrap();
    assert_eq!(resp.terminal, "OK BYE");
    handle.shutdown();
}

#[test]
fn stats_prom_emits_valid_exposition_format() {
    let scratch = Scratch::new("prom");
    let graph = small_graph();
    let pattern = query_from(&graph, 3, 17);
    let graph_path = scratch.write_graph("g.graph", &graph);
    let query_path = scratch.write_graph("q.graph", &pattern);

    let (handle, _state) = serve(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    client.request(&format!("LOAD g {graph_path}")).unwrap();
    let resp = client.request(&format!("MATCH g {query_path}")).unwrap();
    assert!(resp.is_ok(), "{}", resp.terminal);

    let resp = client.request("STATS PROM").unwrap();
    assert_eq!(resp.terminal, "OK STATS");
    let text = resp.payload.join("\n") + "\n";
    // The output must pass the strict exposition-format validator
    // (histogram invariants included: +Inf bucket present, cumulative
    // counts monotone, +Inf == _count).
    let summary = ceci_trace::prom::validate(&text)
        .unwrap_or_else(|e| panic!("invalid Prometheus exposition: {e}\n{text}"));
    assert!(summary.families >= 20, "families: {}", summary.families);
    assert_eq!(summary.histograms, 5, "latency histogram families");

    let samples = ceci_trace::prom::parse(&text).unwrap();
    let value = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name && s.labels.is_empty())
            .map(|s| s.value)
    };
    assert_eq!(value("ceci_match_requests_total"), Some(1.0));
    assert_eq!(value("ceci_load_requests_total"), Some(1.0));
    assert_eq!(value("ceci_cache_misses_total"), Some(1.0));
    assert_eq!(value("ceci_graphs_loaded"), Some(1.0));
    // The match latency histogram observed exactly one request.
    assert_eq!(
        samples
            .iter()
            .find(|s| s.name == "ceci_match_latency_us_count")
            .map(|s| s.value),
        Some(1.0)
    );
    handle.shutdown();
}

#[test]
fn explain_analyze_profile_sums_match_global_counters() {
    let scratch = Scratch::new("analyze");
    let labeled = small_graph();
    // One label, and a template with three interchangeable leaves: a
    // count-only run answers them as a twin tail, in closed form.
    let unlabeled = erdos_renyi(400, 2_400, 5);
    let vid = ceci_graph::vid;
    let star = Graph::unlabeled(4, &[(vid(0), vid(1)), (vid(0), vid(2)), (vid(0), vid(3))]);
    // A labeled A–B–C–D path over six A's sharing three B's, each B with
    // two C's and each C with two D's: the order cuts cleanly, and the
    // key repeats under every sibling of the vertex outside it.
    let label = |l: u32| ceci_graph::LabelSet::single(ceci_graph::lid(l));
    let labels = [[0; 6].as_slice(), &[1; 3], &[2; 6], &[3; 12]].concat();
    let mut edges: Vec<_> = (0..6)
        .flat_map(|a| (6..9).map(move |b| (vid(a), vid(b))))
        .collect();
    for (i, b) in (6..9u32).enumerate() {
        for (j, c) in [9 + 2 * i as u32, 10 + 2 * i as u32]
            .into_iter()
            .enumerate()
        {
            let d = 15 + 2 * (2 * i + j) as u32;
            edges.extend([(vid(b), vid(c)), (vid(c), vid(d)), (vid(c), vid(d + 1))]);
        }
    }
    let fan = Graph::new(labels.into_iter().map(label).collect(), &edges, false);
    let path_labels = [0, 1, 2, 3].map(label);
    let path = Graph::new(
        path_labels.to_vec(),
        &[(vid(0), vid(1)), (vid(1), vid(2)), (vid(2), vid(3))],
        false,
    );
    let cases = [
        ("g", &labeled, query_from(&labeled, 4, 29), false, false),
        ("s", &unlabeled, star, true, false),
        ("p", &fan, path, false, true),
    ];

    let (handle, state) = serve(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    // Pull `key=value` fields out of the profile rows.
    let kv = |line: &str, key: &str| -> Option<u64> {
        line.split_whitespace()
            .filter_map(|tok| tok.split_once('='))
            .find(|(k, _)| *k == key)
            .and_then(|(_, v)| v.parse().ok())
    };
    for (name, graph, pattern, twins, memo) in &cases {
        let graph_path = scratch.write_graph(&format!("{name}.graph"), graph);
        let query_path = scratch.write_graph(&format!("{name}-q.graph"), pattern);
        client
            .request(&format!("LOAD {name} {graph_path}"))
            .unwrap();
        let resp = client
            .request(&format!("EXPLAIN {name} {query_path} ANALYZE"))
            .unwrap();
        assert_eq!(resp.terminal, "OK EXPLAIN");
        assert!(resp.payload.iter().all(|l| l.starts_with("| ")));
        let closed = resp.payload.iter().any(|l| l.contains("leaf=TWINS("));
        assert_eq!(closed, *twins, "{name}: {:?}", resp.payload);
        let depth_rows: Vec<&String> = resp
            .payload
            .iter()
            .filter(|l| l.starts_with("| depth="))
            .collect();
        assert!(!depth_rows.is_empty(), "per-depth rows missing:\n{resp:?}");
        let totals = resp
            .payload
            .iter()
            .find(|l| l.starts_with("| totals"))
            .expect("totals row");

        // Acceptance criterion: per-depth intersection ops are exact, so
        // their sum equals the run's global intersection counter
        // bit-for-bit.
        let depth_isect: u64 = depth_rows.iter().map(|l| kv(l, "isect").unwrap()).sum();
        assert_eq!(Some(depth_isect), kv(totals, "intersection_ops"));
        // Same for emitted embeddings and recursive calls.
        let depth_emit: u64 = depth_rows.iter().map(|l| kv(l, "emit").unwrap()).sum();
        assert_eq!(Some(depth_emit), kv(totals, "embeddings"));
        let depth_calls: u64 = depth_rows.iter().map(|l| kv(l, "calls").unwrap()).sum();
        assert_eq!(Some(depth_calls), kv(totals, "recursive_calls"));
        // The memo's counters close the totals row; where the template
        // memoises, its clean cut is named beside the leaf mode.
        let hits = kv(totals, "memo_hits").expect("memo_hits field");
        assert!(kv(totals, "memo_keys").is_some(), "{name}: {totals}");
        if *memo {
            let cut = resp.payload.iter().any(|l| l.contains(" cut depth="));
            assert!(cut && hits > 0, "{name}: {:?}", resp.payload);
        }
        // The estimate row above a clean cut counts every search that
        // entered the cut, its memo hits included: on `p` (cut at depth 2,
        // fifteen hits) 3 walked searches and 15 answered from the memo.
        // Below the cut only the walked searches are seen, so the rows from
        // the cut to the penultimate depth observe nothing, and the last
        // row counts every embedding, the memo's included.
        let estimate_row = |d: usize| {
            let row = format!("| estimate depth={d} ");
            let row = resp.payload.iter().find(|l| l.starts_with(&row));
            row.unwrap_or_else(|| panic!("estimate row of depth {d}: {resp:?}"))
        };
        if *name == "p" {
            let row = estimate_row(1);
            assert!(
                resp.payload.iter().any(|l| l.contains(" cut depth=2 ")),
                "{resp:?}"
            );
            let walked = depth_rows.iter().find(|l| l.starts_with("| depth=2 "));
            let walked = kv(walked.expect("depth 2 row"), "calls");
            assert_eq!(
                (kv(row, "actual"), walked, hits),
                (Some(18), Some(3), 15),
                "{row}"
            );
            let memoised = estimate_row(2);
            assert!(
                memoised.ends_with(" actual=- qerr=- (memoised)"),
                "{memoised}"
            );
            assert!(estimate_row(3).contains(" actual=72 "), "{resp:?}");
        }

        // ANALYZE profiles the enumeration `MATCH` runs, not another one:
        // it counts what the unprofiled MATCH and the direct enumeration
        // count, and its work is exactly what the same drain does
        // unprofiled over the served entry (one worker, the server's leaf
        // pruning and memo).
        let resp = client
            .request(&format!("MATCH {name} {query_path}"))
            .unwrap();
        let expected = direct_count(graph, pattern);
        assert_eq!(resp.field_u64("count"), Some(expected), "{name}");
        assert_eq!(Some(expected), kv(totals, "embeddings"), "{name}");
        let (snapshot, _) = state.registry.get(name).unwrap().snapshot();
        let canonical = CanonicalQuery::of(&QueryGraph::from_graph(pattern).unwrap());
        let entries = state.cache.entries();
        let served = entries
            .iter()
            .find(|e| e.canonical == canonical && e.plan.describes(&snapshot))
            .expect("the served entry");
        let options = ParallelOptions {
            workers: 1,
            strategy: Strategy::Static,
            enumeration: EnumOptions {
                prune_redundant: ServeConfig::default().prune_redundant,
                ..EnumOptions::default()
            },
            ..ParallelOptions::default()
        };
        let plain = enumerate_parallel(&snapshot, &served.plan, &served.ceci, &options).counters;
        assert_eq!(
            [
                kv(totals, "recursive_calls"),
                kv(totals, "intersection_ops"),
                kv(totals, "embeddings"),
                Some(hits),
            ],
            [
                Some(plain.recursive_calls),
                Some(plain.intersection_ops),
                Some(plain.embeddings),
                Some(plain.memo_hits),
            ],
            "{name}: {totals}"
        );
    }
    handle.shutdown();
}

#[test]
fn traced_server_records_request_stage_spans() {
    let scratch = Scratch::new("spans");
    let graph = small_graph();
    let pattern = query_from(&graph, 3, 41);
    let graph_path = scratch.write_graph("g.graph", &graph);
    let query_path = scratch.write_graph("q.graph", &pattern);

    let (handle, state) = serve(ServeConfig {
        trace: true,
        ..Default::default()
    });
    let mut client = Client::connect(handle.addr()).unwrap();
    client.request(&format!("LOAD g {graph_path}")).unwrap();
    let resp = client.request(&format!("MATCH g {query_path}")).unwrap();
    assert!(resp.is_ok(), "{}", resp.terminal);
    let resp = client.request(&format!("MATCH g {query_path}")).unwrap();
    assert_eq!(resp.field("cache"), Some("HIT"));

    let spans = state.tracer.snapshot();
    let requests: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "service.request")
        .collect();
    assert_eq!(requests.len(), 2, "one request span per MATCH");
    for req in &requests {
        // Every stage child present, parented on the request, and the
        // stages tile the request span end to end.
        let children: Vec<_> = spans.iter().filter(|s| s.parent == req.id).collect();
        let names: Vec<&str> = children.iter().map(|s| s.name).collect();
        for stage in [
            "service.queue",
            "service.cache_probe",
            "service.build",
            "service.enumerate",
            "service.serialize",
        ] {
            assert!(names.contains(&stage), "{stage} missing: {names:?}");
        }
        let stage_total: u64 = children.iter().map(|s| s.dur_ns).sum();
        assert!(
            stage_total <= req.dur_ns,
            "stages ({stage_total}) exceed request ({})",
            req.dur_ns
        );
        for c in &children {
            assert!(c.ts_ns >= req.ts_ns);
            assert!(c.ts_ns + c.dur_ns <= req.ts_ns + req.dur_ns);
        }
    }
    // The cache-hit request records a zero-duration build stage.
    let hit_req = requests
        .iter()
        .find(|r| r.args.iter().any(|&(k, v)| k == "cache_hit" && v == 1))
        .expect("hit request span");
    let hit_build = spans
        .iter()
        .find(|s| s.parent == hit_req.id && s.name == "service.build")
        .unwrap();
    assert_eq!(hit_build.dur_ns, 0, "cache hit must not charge build time");
    handle.shutdown();
}

#[test]
fn admission_filter_rejects_impossible_query_before_any_build() {
    let scratch = Scratch::new("filter");
    // Data graph: a path A—B—C. The label pairs across edges are (A,B) and
    // (B,C); the pair (A,C) never occurs across any data edge.
    let lid = ceci_graph::lid;
    let vid = ceci_graph::vid;
    let data = Graph::new(
        vec![
            ceci_graph::LabelSet::single(lid(0)),
            ceci_graph::LabelSet::single(lid(1)),
            ceci_graph::LabelSet::single(lid(2)),
        ],
        &[(vid(0), vid(1)), (vid(1), vid(2))],
        false,
    );
    // Query: an A—C edge — provably zero embeddings by the pair test alone.
    let impossible = Graph::new(
        vec![
            ceci_graph::LabelSet::single(lid(0)),
            ceci_graph::LabelSet::single(lid(2)),
        ],
        &[(vid(0), vid(1))],
        false,
    );
    assert_eq!(direct_count(&data, &impossible), 0);
    let graph_path = scratch.write_graph("data.graph", &data);
    let query_path = scratch.write_graph("impossible.graph", &impossible);

    let (handle, state) = serve(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    client.request(&format!("LOAD g {graph_path}")).unwrap();

    // The filter answers count=0 without probing the cache or building.
    let resp = client.request(&format!("MATCH g {query_path}")).unwrap();
    assert!(resp.is_ok(), "{}", resp.terminal);
    assert_eq!(resp.field_u64("count"), Some(0));
    assert_eq!(resp.field("filter"), Some("REJECTED"));
    assert_eq!(resp.field("cache"), Some("NONE"));
    let g = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(g(&state.metrics.filter_rejected), 1);
    assert_eq!(g(&state.metrics.cache_misses), 0, "no cache probe");
    assert_eq!(state.metrics.build_latency.count(), 0, "no build");

    // RAW bypasses the filter: the full pipeline runs and agrees (0).
    let resp = client
        .request(&format!("MATCH g {query_path} RAW"))
        .unwrap();
    assert!(resp.is_ok(), "{}", resp.terminal);
    assert_eq!(resp.field_u64("count"), Some(0));
    assert_eq!(resp.field("filter"), None, "RAW skips the filter");
    assert_eq!(resp.field("cache"), Some("MISS"));
    assert_eq!(state.metrics.build_latency.count(), 1, "RAW really built");

    // A satisfiable query on the same graph passes the filter untouched.
    let possible = Graph::new(
        vec![
            ceci_graph::LabelSet::single(lid(0)),
            ceci_graph::LabelSet::single(lid(1)),
        ],
        &[(vid(0), vid(1))],
        false,
    );
    let ok_path = scratch.write_graph("possible.graph", &possible);
    let resp = client.request(&format!("MATCH g {ok_path}")).unwrap();
    assert!(resp.is_ok(), "{}", resp.terminal);
    assert_eq!(
        resp.field_u64("count"),
        Some(direct_count(&data, &possible))
    );
    assert_eq!(resp.field("filter"), None);
    assert_eq!(g(&state.metrics.filter_rejected), 1, "no false rejection");
    handle.shutdown();

    // A graph that reaches the registry without LOAD (`ceci-serve
    // --preload`) gets the same filter: every label of the impossible query
    // occurs in it, so only the label-pair index — which the registry must
    // have built — can reject it.
    let state = Arc::new(ServerState::new(ServeConfig::default()));
    state.registry.insert("g", data);
    let handle = start_with_state(Arc::clone(&state)).expect("bind loopback");
    let mut client = Client::connect(handle.addr()).unwrap();
    let resp = client.request(&format!("MATCH g {query_path}")).unwrap();
    assert_eq!(resp.field("filter"), Some("REJECTED"), "{}", resp.terminal);
    assert_eq!(state.metrics.build_latency.count(), 0, "no build");
    handle.shutdown();
}

#[test]
fn concurrent_identical_matches_build_once_single_flight() {
    let scratch = Scratch::new("singleflight");
    let graph = small_graph();
    let pattern = query_from(&graph, 4, 13);
    let expected = direct_count(&graph, &pattern);
    let graph_path = scratch.write_graph("data.graph", &graph);
    let query_path = scratch.write_graph("query.graph", &pattern);

    // 8 pool workers so all 8 MATCHes are genuinely in flight at once;
    // chaos mode for the BUILDDELAY lever that widens the window.
    let (handle, state) = serve(ServeConfig {
        pool_workers: 8,
        chaos: true,
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();
    client.request(&format!("LOAD g {graph_path}")).unwrap();
    let resp = client.request("CHAOS BUILDDELAY 500").unwrap();
    assert!(resp.is_ok(), "{}", resp.terminal);

    // 8 identical MATCHes released together: exactly one builds (and it
    // sleeps 500 ms first), the other 7 wait on its flight gate.
    let barrier = Arc::new(std::sync::Barrier::new(8));
    let threads: Vec<_> = (0..8)
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
    for t in threads {
        let resp = t.join().unwrap();
        assert!(resp.is_ok(), "{}", resp.terminal);
        assert_eq!(resp.field_u64("count"), Some(expected));
    }

    let g = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(
        state.metrics.build_latency.count(),
        1,
        "exactly one CECI build across 8 identical concurrent MATCHes"
    );
    assert_eq!(g(&state.metrics.cache_misses), 1);
    assert_eq!(g(&state.metrics.singleflight_waits), 7, "N-1 waiters");
    assert_eq!(g(&state.metrics.cache_hits), 7, "waiters share the entry");

    // STATS surfaces the wait counter under its documented key.
    let resp = client.request("STATS").unwrap();
    assert!(resp
        .payload
        .iter()
        .any(|l| l == "STAT cache_singleflight_waits 7"));
    assert!(resp
        .payload
        .iter()
        .any(|l| l == "STAT build_latency_count 1"));
    handle.shutdown();
}

/// Every form of `MATCH` drains the cached index through one enumeration
/// entry point, so every form counts what the reference matcher counts —
/// on a skewed unlabeled graph with a pendant tail (symmetry windows, tally
/// and ordered leaf reuse all engaged) and on a labeled one.
#[test]
fn every_match_form_counts_the_same_through_one_drain() {
    use ceci_baselines::reference;
    use ceci_graph::generators::{attach_pendants, barabasi_albert};
    use ceci_graph::vid;

    let scratch = Scratch::new("one-drain");
    let unlabeled = |n: usize, edges: &[(u32, u32)]| {
        let edges: Vec<_> = edges.iter().map(|&(a, b)| (vid(a), vid(b))).collect();
        Graph::unlabeled(n, &edges)
    };
    let skewed = attach_pendants(&barabasi_albert(400, 4, 7), 300, 8);
    let labeled = small_graph();
    // (template, name its graph is loaded under, that graph, pattern)
    let cases: Vec<(&str, &str, &Graph, Graph)> = vec![
        (
            "triangle",
            "skewed",
            &skewed,
            unlabeled(3, &[(0, 1), (1, 2), (2, 0)]),
        ),
        (
            "clique4",
            "skewed",
            &skewed,
            unlabeled(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
        ),
        (
            "diamond",
            "skewed",
            &skewed,
            unlabeled(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
        ),
        ("labeled", "labeled", &labeled, query_from(&labeled, 4, 27)),
    ];

    let (handle, _state) = serve(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let skewed_path = scratch.write_graph("skewed.graph", &skewed);
    let labeled_path = scratch.write_graph("labeled.graph", &labeled);
    client
        .request(&format!("LOAD skewed {skewed_path}"))
        .unwrap();
    client
        .request(&format!("LOAD labeled {labeled_path}"))
        .unwrap();

    for (name, graph_name, graph, pattern) in &cases {
        let query = QueryGraph::from_graph(pattern).unwrap();
        let plan = QueryPlan::new(query.clone(), graph);
        let expected = reference::count_all(graph, &query, plan.symmetry_constraints());
        assert!(
            expected > 2,
            "{name}: need a template with several embeddings"
        );
        let query_path = scratch.write_graph(&format!("{name}.graph"), pattern);
        let mut ask = |suffix: &str| {
            let resp = client
                .request(&format!("MATCH {graph_name} {query_path}{suffix}"))
                .unwrap();
            assert!(resp.is_ok(), "{name}{suffix}: {}", resp.terminal);
            assert_eq!(resp.field("status"), Some("OK"), "{name}{suffix}");
            assert_eq!(
                resp.field("batch"),
                None,
                "{name}{suffix}: {}",
                resp.terminal
            );
            resp.field_u64("count").expect("count field")
        };
        // Miss, hit, and every option that used to pick another path.
        for suffix in [
            "",
            "",
            " RAW",
            " WORKERS 2",
            " WORKERS 1",
            " DEADLINE 60000",
        ] {
            assert_eq!(ask(suffix), expected, "{name}{suffix}");
        }
        for k in [1, 2, expected, expected + 5] {
            assert_eq!(
                ask(&format!(" LIMIT {k}")),
                k.min(expected),
                "{name} LIMIT {k}"
            );
        }
    }

    for verb in ["STATS", "STATS PROM"] {
        let resp = client.request(verb).unwrap();
        assert!(resp.is_ok(), "{verb}: {}", resp.terminal);
        assert!(!resp.payload.is_empty());
        for row in &resp.payload {
            assert!(!row.contains("frontier"), "{verb} still reports {row:?}");
        }
    }
    handle.shutdown();
}

/// `LOAD` serves a graph numbered by ascending label class and degree, and
/// every vertex id on the wire stays a file id. On random labeled graphs (some vertices
/// with two labels), every `MATCH` form counts what the reference matcher
/// counts on the file graph. A `BATCH` sequence written in file ids moves a
/// registration's `EVENT DELTA` total as an edge-set model of the file
/// graph says: duplicates, reversed pairs, deletes of pending adds, and an
/// out-of-range edge refused with the file ids it named.
#[test]
fn loaded_graphs_are_served_in_ranked_ids_and_answer_in_file_ids() {
    use ceci_baselines::reference;
    use ceci_graph::generators::{barabasi_albert, inject_random_multilabels};
    use ceci_graph::vid;
    use std::collections::BTreeSet;

    let scratch = Scratch::new("ranked");
    let (handle, _state) = serve(ServeConfig {
        compact_threshold: 16,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(handle.addr()).unwrap();
    let reference_count = |graph: &Graph, pattern: &Graph| {
        let query = QueryGraph::from_graph(pattern).unwrap();
        let plan = QueryPlan::new(query.clone(), graph);
        assert!(plan.symmetry_complete());
        reference::count_all(graph, &query, plan.symmetry_constraints())
    };
    let graphs = [
        inject_random_multilabels(&barabasi_albert(120, 3, 41), 3, 1, 2, 42),
        inject_random_multilabels(&erdos_renyi(100, 400, 43), 3, 1, 2, 44),
    ];
    for (i, file) in graphs.iter().enumerate() {
        assert!(file.vertices().any(|v| file.labels(v).len() == 2));
        let path = scratch.write_graph(&format!("g{i}.graph"), file);
        let resp = client.request(&format!("LOAD g{i} {path}")).unwrap();
        assert!(resp.field_u64("rank_us").is_some(), "{}", resp.terminal);
        for size in [3, 4] {
            let pattern = query_from(file, size, 7 + i as u64);
            let want = reference_count(file, &pattern);
            let qpath = scratch.write_graph(&format!("g{i}-{size}.graph"), &pattern);
            let limit = format!(" LIMIT {}", want.max(2) - 1);
            for (suffix, expect) in [
                ("", want),
                (" RAW", want),
                (" WORKERS 2", want),
                (" LIMIT 1", want.min(1)),
                (limit.as_str(), want.min(want.max(2) - 1)),
            ] {
                let resp = client
                    .request(&format!("MATCH g{i} {qpath}{suffix}"))
                    .unwrap();
                assert_eq!(resp.field_u64("count"), Some(expect), "g{i} {size}{suffix}");
            }
        }
    }

    let file = &graphs[0];
    let n = file.num_vertices() as u32;
    let pattern = query_from(file, 3, 5);
    let qpath = scratch.write_graph("q.graph", &pattern);
    let resp = client.request(&format!("REGISTER q g0 {qpath}")).unwrap();
    assert_eq!(
        resp.field_u64("total"),
        Some(reference_count(file, &pattern))
    );
    let key = |(a, b): (u32, u32)| (a.min(b), a.max(b));
    let mut model: BTreeSet<(u32, u32)> = (file.vertices())
        .flat_map(|a| file.neighbors(a).iter().map(move |&b| key((a.0, b.0))))
        .collect();
    let model_graph = |model: &BTreeSet<(u32, u32)>| {
        let labels = file.vertices().map(|v| file.labels(v).clone()).collect();
        let edges: Vec<_> = (model.iter()).map(|&(a, b)| (vid(a), vid(b))).collect();
        Graph::new(labels, &edges, false)
    };
    let mut x = 0x5EED_u64;
    let mut rng = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % n as u64) as u32
    };
    let mut last_adds: Vec<(u32, u32)> = Vec::new();
    for round in 0..8 {
        if round == 3 {
            // Refused before anything applies, naming the file ids sent.
            for (line, edge) in [
                (format!("BATCH g0 +1:2 -0:{n}"), format!("(0, {n})")),
                (format!("ADDEDGE g0 {n} 1"), format!("({n}, 1)")),
            ] {
                let resp = client.request(&line).unwrap();
                let text = format!("edge {edge} out of range for a graph of {n} vertices");
                assert_eq!(resp.terminal, format!("ERR E_MUTATION {text}"));
            }
        }
        let mut adds: Vec<(u32, u32)> = (0..4).map(|_| (rng(), rng())).collect();
        adds.push(adds[0]);
        adds.push((adds[1].1, adds[1].0));
        let present: Vec<_> = model.iter().copied().collect();
        let (a, b) = present[rng() as usize % present.len()];
        // A reversed delete, a delete of this batch's own add, a delete of
        // the previous batch's (pending) add.
        let mut dels = vec![(b, a), adds[2]];
        dels.extend(last_adds.first());
        let tokens = (adds.iter().map(|&(a, b)| format!("+{a}:{b}")))
            .chain(dels.iter().map(|&(a, b)| format!("-{a}:{b}")));
        let line = format!("BATCH g0 {}", tokens.collect::<Vec<_>>().join(" "));
        let resp = client.request(&line).unwrap();
        assert!(resp.is_ok(), "{line}: {}", resp.terminal);

        let added = (adds.iter()).filter(|&&(a, b)| a != b && model.insert(key((a, b))));
        let added = added.count() as u64;
        let deleted = dels.iter().filter(|&&e| model.remove(&key(e))).count() as u64;
        assert_eq!(resp.field_u64("added"), Some(added), "{line}");
        assert_eq!(resp.field_u64("deleted"), Some(deleted), "{line}");
        if added + deleted > 0 {
            let event = client.wait_event().unwrap();
            let total = event
                .split_whitespace()
                .find_map(|t| t.strip_prefix("total="));
            let want = reference_count(&model_graph(&model), &pattern);
            assert_eq!(total, Some(want.to_string().as_str()), "{line}: {event}");
        }
        last_adds = adds;
    }
    let resp = client.request(&format!("MATCH g0 {qpath}")).unwrap();
    let want = reference_count(&model_graph(&model), &pattern);
    assert_eq!(resp.field_u64("count"), Some(want));
    handle.shutdown();
}

/// The point of ranking at `LOAD`: on the skewed graph of the perf ledger's
/// `hot-enum` workload, the symmetry windows of the 4-clique cut a
/// degree-ranked entry's lists to a third of the intersections, or less,
/// that an entry in the generator's numbering spends.
#[test]
fn degree_ranked_entry_intersects_a_third_of_a_file_numbered_one() {
    use ceci_graph::generators::{attach_pendants, kronecker_default};
    use ceci_query::PaperQuery;

    let scratch = Scratch::new("rank-guard");
    let file = attach_pendants(&kronecker_default(9, 4, 3), 5_120, 4);
    let path = scratch.write_graph("g.graph", &file);
    let qpath = scratch.write_graph("qg4.graph", PaperQuery::Qg4.build().as_graph());
    let (handle, state) = serve(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    assert!(client
        .request(&format!("LOAD ranked {path}"))
        .unwrap()
        .is_ok());
    state.registry.insert("file", file);
    let analyze = |client: &mut Client, name: &str| -> (u64, u64, String) {
        let resp = client
            .request(&format!("EXPLAIN {name} {qpath} ANALYZE"))
            .unwrap();
        let line = |prefix: &str| {
            let found = resp.payload.iter().find(|l| l.starts_with(prefix));
            found.expect(prefix).clone()
        };
        let totals = line("| totals");
        let field = |key: &str| {
            let value = totals.split_whitespace().find_map(|t| t.strip_prefix(key));
            value.and_then(|v| v.parse().ok()).expect(key)
        };
        let ids = line("| index:")
            .split_whitespace()
            .last()
            .unwrap()
            .to_string();
        (field("intersection_ops="), field("embeddings="), ids)
    };
    let (ranked_ops, ranked_found, ranked_ids) = analyze(&mut client, "ranked");
    let (file_ops, file_found, file_ids) = analyze(&mut client, "file");
    assert_eq!(
        (ranked_ids.as_str(), file_ids.as_str()),
        ("ids=ranked", "ids=file")
    );
    assert_eq!(ranked_found, file_found);
    assert!(
        3 * ranked_ops <= file_ops,
        "ranked {ranked_ops} vs file-numbered {file_ops} intersections"
    );
    handle.shutdown();
}

/// Rebuilds a graph with the given undirected edges toggled: `adds` joined,
/// `dels` removed. Labels are carried over unchanged.
fn mutated_copy(graph: &Graph, adds: &[(u32, u32)], dels: &[(u32, u32)]) -> Graph {
    use std::collections::BTreeSet;
    let mut set: BTreeSet<(u32, u32)> = BTreeSet::new();
    for a in 0..graph.num_vertices() as u32 {
        for &b in graph.neighbors(ceci_graph::vid(a)) {
            if a < b.0 {
                set.insert((a, b.0));
            }
        }
    }
    for &(a, b) in dels {
        set.remove(&(a.min(b), a.max(b)));
    }
    for &(a, b) in adds {
        set.insert((a.min(b), a.max(b)));
    }
    let labels = (0..graph.num_vertices() as u32)
        .map(|v| graph.labels(ceci_graph::vid(v)).clone())
        .collect();
    let edges: Vec<_> = set
        .into_iter()
        .map(|(a, b)| (ceci_graph::vid(a), ceci_graph::vid(b)))
        .collect();
    Graph::new(labels, &edges, false)
}

/// A (add, del) pair guaranteed applicable to `graph`: the added edge is
/// absent, the deleted one present, and neither is a self-loop.
fn applicable_mutation(graph: &Graph, seed: u64) -> ((u32, u32), (u32, u32)) {
    let n = graph.num_vertices() as u32;
    let mut x = seed | 1;
    let mut rng = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % n as u64) as u32
    };
    let add = loop {
        let (a, b) = (rng(), rng());
        if a != b && !graph.has_edge(ceci_graph::vid(a), ceci_graph::vid(b)) {
            break (a, b);
        }
    };
    let del = loop {
        let a = rng();
        if let Some(&b) = graph.neighbors(ceci_graph::vid(a)).first() {
            break (a, b.0);
        }
    };
    (add, del)
}

#[test]
fn mutation_verbs_agree_with_direct_enumeration_and_repair_the_cache() {
    let scratch = Scratch::new("mutate");
    let graph = small_graph();
    let pattern = query_from(&graph, 4, 7);
    let graph_path = scratch.write_graph("data.graph", &graph);
    let query_path = scratch.write_graph("query.graph", &pattern);

    let (handle, state) = serve(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    client.request(&format!("LOAD g {graph_path}")).unwrap();

    // Cold build caches the index at sub-epoch 0.
    let resp = client.request(&format!("MATCH g {query_path}")).unwrap();
    assert_eq!(resp.field("cache"), Some("MISS"));
    assert_eq!(
        resp.field_u64("count"),
        Some(direct_count(&graph, &pattern))
    );

    // ADDEDGE + DELEDGE, then a mixed BATCH; track a local reference copy.
    let ((a1, b1), (d1, d2)) = applicable_mutation(&graph, 97);
    let resp = client.request(&format!("ADDEDGE g {a1} {b1}")).unwrap();
    assert!(resp.is_ok(), "{}", resp.terminal);
    assert_eq!(resp.field_u64("added"), Some(1));
    assert_eq!(resp.field_u64("sub_epoch"), Some(1));
    let resp = client.request(&format!("DELEDGE g {d1} {d2}")).unwrap();
    assert_eq!(resp.field_u64("deleted"), Some(1));
    let reference = mutated_copy(&graph, &[(a1, b1)], &[(d1, d2)]);

    let ((a2, b2), (d3, d4)) = applicable_mutation(&reference, 131);
    let resp = client
        .request(&format!("BATCH g +{a2}:{b2} -{d3}:{d4}"))
        .unwrap();
    assert!(resp.is_ok(), "{}", resp.terminal);
    assert_eq!(resp.field_u64("added"), Some(1));
    assert_eq!(resp.field_u64("deleted"), Some(1));
    assert_eq!(resp.field_u64("sub_epoch"), Some(3));
    let reference = mutated_copy(&reference, &[(a2, b2)], &[(d3, d4)]);

    // Re-applying a present edge is a net no-op and does not advance the
    // sub-epoch.
    let resp = client.request(&format!("ADDEDGE g {a2} {b2}")).unwrap();
    assert_eq!(resp.field_u64("added"), Some(0));
    assert_eq!(resp.field_u64("sub_epoch"), Some(3));

    // The cached frozen index is repaired, not rebuilt, and the count is
    // exactly the from-scratch count on the mutated graph.
    let resp = client.request(&format!("MATCH g {query_path}")).unwrap();
    assert!(resp.is_ok(), "{}", resp.terminal);
    assert_eq!(resp.field("cache"), Some("REPAIRED"));
    assert_eq!(
        resp.field_u64("count"),
        Some(direct_count(&reference, &pattern))
    );

    let g = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(g(&state.metrics.mutation_batches), 3, "net-applied batches");
    assert_eq!(g(&state.metrics.edges_added), 2);
    assert_eq!(g(&state.metrics.edges_deleted), 2);
    assert_eq!(g(&state.metrics.index_repairs), 1);
    assert_eq!(state.metrics.index_repair_latency.count(), 1);

    // Out-of-range endpoints answer a typed mutation error.
    let resp = client.request("ADDEDGE g 0 99999").unwrap();
    assert!(
        resp.terminal.starts_with("ERR E_MUTATION"),
        "{}",
        resp.terminal
    );
    handle.shutdown();
}

#[test]
fn batch_file_replays_a_temporal_stream() {
    let scratch = Scratch::new("batchfile");
    let graph = small_graph();
    let pattern = query_from(&graph, 3, 9);
    let graph_path = scratch.write_graph("data.graph", &graph);
    let query_path = scratch.write_graph("query.graph", &pattern);

    // Three timestamped additions, none already present.
    let (e1, _) = applicable_mutation(&graph, 11);
    let r1 = mutated_copy(&graph, &[e1], &[]);
    let (e2, _) = applicable_mutation(&r1, 23);
    let r2 = mutated_copy(&r1, &[e2], &[]);
    let (e3, _) = applicable_mutation(&r2, 37);
    let reference = mutated_copy(&r2, &[e3], &[]);
    let stream_path = scratch.0.join("stream.txt");
    std::fs::write(
        &stream_path,
        format!(
            "{} {} 1\n{} {} 2\n{} {} 3\n",
            e1.0, e1.1, e2.0, e2.1, e3.0, e3.1
        ),
    )
    .unwrap();

    let (handle, _state) = serve(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    client.request(&format!("LOAD g {graph_path}")).unwrap();
    let resp = client
        .request(&format!("BATCH g FILE {}", stream_path.display()))
        .unwrap();
    assert!(resp.is_ok(), "{}", resp.terminal);
    assert_eq!(resp.field_u64("added"), Some(3));
    assert_eq!(resp.field_u64("sub_epoch"), Some(1));

    let resp = client.request(&format!("MATCH g {query_path}")).unwrap();
    assert_eq!(
        resp.field_u64("count"),
        Some(direct_count(&reference, &pattern))
    );

    // A missing stream file is a mutation error, not a hang or a panic.
    let resp = client
        .request("BATCH g FILE /nonexistent/stream.txt")
        .unwrap();
    assert!(
        resp.terminal.starts_with("ERR E_MUTATION"),
        "{}",
        resp.terminal
    );
    handle.shutdown();
}

#[test]
fn register_emits_ordered_deltas_and_unregister_stops_them() {
    let scratch = Scratch::new("register");
    let graph = small_graph();
    let pattern = query_from(&graph, 3, 13);
    let graph_path = scratch.write_graph("data.graph", &graph);
    let query_path = scratch.write_graph("query.graph", &pattern);

    let (handle, state) = serve(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    client.request(&format!("LOAD g {graph_path}")).unwrap();

    let resp = client
        .request(&format!("REGISTER q g {query_path}"))
        .unwrap();
    assert!(resp.is_ok(), "{}", resp.terminal);
    let initial = resp.field_u64("total").unwrap();
    assert_eq!(initial, direct_count(&graph, &pattern));
    assert_eq!(state.continuous_len(), 1);

    // Three mutation batches; each must push one EVENT DELTA to this
    // connection, in sub-epoch order, with totals matching a from-scratch
    // count of the mutated snapshot.
    let mut reference = mutated_copy(&graph, &[], &[]);
    let mut running = initial;
    for round in 0..3u64 {
        let (add, del) = applicable_mutation(&reference, 61 + round);
        let resp = client
            .request(&format!(
                "BATCH g +{}:{} -{}:{}",
                add.0, add.1, del.0, del.1
            ))
            .unwrap();
        assert!(resp.is_ok(), "{}", resp.terminal);
        reference = mutated_copy(&reference, &[add], &[del]);

        let event = client.wait_event().unwrap();
        let fields: std::collections::HashMap<&str, &str> = event
            .split_whitespace()
            .filter_map(|t| t.split_once('='))
            .collect();
        assert!(event.starts_with("EVENT DELTA"), "{event}");
        assert_eq!(fields.get("query"), Some(&"q"), "{event}");
        assert_eq!(fields.get("graph"), Some(&"g"), "{event}");
        assert_eq!(
            fields.get("batch").and_then(|v| v.parse::<u64>().ok()),
            Some(round + 1),
            "events arrive in sub-epoch order: {event}"
        );
        let new: u64 = fields["new"].parse().unwrap();
        let retired: u64 = fields["retired"].parse().unwrap();
        let total: u64 = fields["total"].parse().unwrap();
        assert_eq!(total, running + new - retired, "{event}");
        running = total;
        assert_eq!(
            total,
            direct_count(&reference, &pattern),
            "delta total diverged from rebuild at round {round}"
        );
    }

    // Deltas keep flowing even between MATCH requests on the same
    // connection — EVENT lines must never corrupt a response payload.
    let resp = client.request(&format!("MATCH g {query_path}")).unwrap();
    assert_eq!(resp.field_u64("count"), Some(running));

    let resp = client.request("UNREGISTER q").unwrap();
    assert!(resp.is_ok(), "{}", resp.terminal);
    assert_eq!(state.continuous_len(), 0);
    let resp = client.request("UNREGISTER q").unwrap();
    assert!(
        resp.terminal.starts_with("ERR E_REGISTER"),
        "{}",
        resp.terminal
    );

    // A post-unregister mutation emits nothing: the next round-trip sees
    // no stashed events.
    let (add, _) = applicable_mutation(&reference, 997);
    client
        .request(&format!("ADDEDGE g {} {}", add.0, add.1))
        .unwrap();
    client.request("PING").unwrap();
    assert!(client.take_events().is_empty(), "delta after UNREGISTER");

    let g = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(g(&state.metrics.continuous_events), 3);
    handle.shutdown();
}

#[test]
fn reload_drops_continuous_registrations() {
    let scratch = Scratch::new("reload-cq");
    let graph = small_graph();
    let pattern = query_from(&graph, 3, 21);
    let graph_path = scratch.write_graph("data.graph", &graph);
    let query_path = scratch.write_graph("query.graph", &pattern);

    let (handle, state) = serve(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    client.request(&format!("LOAD g {graph_path}")).unwrap();
    client
        .request(&format!("REGISTER q g {query_path}"))
        .unwrap();
    assert_eq!(state.continuous_len(), 1);

    // Replacing the graph invalidates the registration: its epoch no
    // longer matches, so mutations of the fresh load emit no stale deltas.
    client.request(&format!("LOAD g {graph_path}")).unwrap();
    let (add, _) = applicable_mutation(&graph, 43);
    let resp = client
        .request(&format!("ADDEDGE g {} {}", add.0, add.1))
        .unwrap();
    assert!(resp.is_ok(), "{}", resp.terminal);
    client.request("PING").unwrap();
    assert!(
        client.take_events().is_empty(),
        "stale registration survived a reload"
    );
    handle.shutdown();
}

#[test]
fn estimate_verb_reports_interval_and_shares_cache() {
    let scratch = Scratch::new("estimate");
    let graph = small_graph();
    let pattern = query_from(&graph, 4, 31);
    let expected = direct_count(&graph, &pattern);
    let graph_path = scratch.write_graph("data.graph", &graph);
    let query_path = scratch.write_graph("query.graph", &pattern);

    let (handle, state) = serve(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    client.request(&format!("LOAD g {graph_path}")).unwrap();

    // ESTIMATE builds (and caches) the index, then answers from walks.
    let resp = client.request(&format!("ESTIMATE g {query_path}")).unwrap();
    assert!(resp.is_ok(), "{}", resp.terminal);
    assert!(
        resp.terminal.starts_with("OK ESTIMATE"),
        "{}",
        resp.terminal
    );
    let mean: f64 = resp.field("mean").unwrap().parse().unwrap();
    let lo: f64 = resp.field("ci95_lo").unwrap().parse().unwrap();
    let hi: f64 = resp.field("ci95_hi").unwrap().parse().unwrap();
    assert!(resp.field("std_error").is_some());
    assert_eq!(resp.field("exact_zero"), Some("0"));
    assert_eq!(resp.field_u64("walks"), Some(1000), "server default budget");
    assert!(mean >= 0.0 && lo >= 0.0 && lo <= hi, "{}", resp.terminal);
    // Sanity, not statistics (the estimator's accuracy has its own
    // proptest suite): the estimate is the right order of magnitude.
    assert!(
        mean <= 100.0 * (expected as f64).max(1.0) + 100.0,
        "mean {mean} vs exact {expected}"
    );
    assert_eq!(state.cache.len(), 1, "ESTIMATE must populate the cache");

    // WALKS override round-trips.
    let resp = client
        .request(&format!("ESTIMATE g {query_path} WALKS 200"))
        .unwrap();
    assert_eq!(resp.field_u64("walks"), Some(200));
    assert_eq!(resp.field("cache"), Some("HIT"));

    // A later MATCH reuses the same entry: one build for both verbs.
    let resp = client.request(&format!("MATCH g {query_path}")).unwrap();
    assert_eq!(resp.field_u64("count"), Some(expected));
    assert_eq!(resp.field("cache"), Some("HIT"));

    // A query whose label cannot occur is answered exact-zero by the
    // admission filter without touching the index cache.
    let mut qb = ceci_graph::GraphBuilder::new();
    let a = qb.add_vertex(ceci_graph::LabelId(9));
    let b = qb.add_vertex(ceci_graph::LabelId(9));
    qb.add_edge(a, b);
    let zero_path = scratch.write_graph("zero.graph", &qb.build());
    let resp = client.request(&format!("ESTIMATE g {zero_path}")).unwrap();
    assert!(resp.is_ok(), "{}", resp.terminal);
    assert_eq!(resp.field("exact_zero"), Some("1"));
    assert_eq!(resp.field("mean"), Some("0.0"));
    assert_eq!(resp.field("cache"), Some("NONE"));
    handle.shutdown();
}

#[test]
fn adaptive_counts_bit_identical_to_raw_and_fixed() {
    let scratch = Scratch::new("adaptive-diff");
    let graph = small_graph();
    let graph_path = scratch.write_graph("data.graph", &graph);

    let (handle, _state) = serve(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    client.request(&format!("LOAD g {graph_path}")).unwrap();
    // Every `EXPLAIN` names the served plan: there is no server without it.
    let assert_plan_row = |client: &mut Client, request: String| {
        let explain = client.request(&request).unwrap();
        assert_eq!(explain.terminal, "OK EXPLAIN");
        let plan = explain.payload.iter().any(|l| l.starts_with("| plan: "));
        assert!(plan, "{request}: {:?}", explain.payload);
    };

    for (size, seed) in [(3, 41), (4, 42), (5, 43), (6, 44)] {
        let pattern = query_from(&graph, size, seed);
        // The reference: the default plan, built and counted outside the
        // server.
        let expected = direct_count(&graph, &pattern);
        let query_path = scratch.write_graph(&format!("q{size}-{seed}.graph"), &pattern);
        // The miss, then the hit.
        let first = client.request(&format!("MATCH g {query_path}")).unwrap();
        let second = client.request(&format!("MATCH g {query_path}")).unwrap();
        // RAW bypasses every optimization.
        let raw = client
            .request(&format!("MATCH g {query_path} RAW"))
            .unwrap();
        for (tag, resp) in [("first", &first), ("second", &second), ("raw", &raw)] {
            assert_eq!(
                resp.field_u64("count"),
                Some(expected),
                "{tag} run of q{size}-{seed}: {}",
                resp.terminal
            );
        }
        assert_plan_row(&mut client, format!("EXPLAIN g {query_path}"));
    }

    // A long-served entry: the order-sensitive template read 60 times,
    // then the same four ways again.
    let (graph, pattern) = order_sensitive();
    let expected = direct_count(&graph, &pattern);
    let graph_path = scratch.write_graph("skewed.graph", &graph);
    let query_path = scratch.write_graph("order-sensitive.graph", &pattern);
    client.request(&format!("LOAD s {graph_path}")).unwrap();
    assert_plan_row(&mut client, format!("EXPLAIN s {query_path}"));
    let request = format!("MATCH s {query_path}");
    let served: Vec<Served> = (0..60)
        .map(|_| served(&client.request(&request).unwrap()))
        .collect();
    assert!(served.iter().all(|r| r.count == expected), "{served:?}");
    for request in [
        format!("MATCH s {query_path}"),
        format!("MATCH s {query_path} RAW"),
        format!("MATCH s {query_path} LIMIT 1000000"),
        format!("MATCH s {query_path} WORKERS 2"),
    ] {
        let resp = client.request(&request).unwrap();
        assert_eq!(resp.field("cache"), Some("HIT"), "{}", resp.terminal);
        assert_eq!(resp.field_u64("count"), Some(expected), "{request}");
    }
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// A miss plans once, connectivity-first, and its entry serves that plan for
// as long as it lives.
// ---------------------------------------------------------------------------

/// An Erdős–Rényi graph under a skewed 55/25/15/5 four-label alphabet, and a
/// five-vertex cyclic template whose served plan (the paper's root, the
/// default order) does about ten times the work of the best order, which
/// starts from another root: the template on which serving another plan
/// would show.
fn order_sensitive() -> (Graph, Graph) {
    let base = erdos_renyi(600, 3_000, 0xADAE);
    let mut b = ceci_graph::GraphBuilder::new();
    for v in base.vertices() {
        let label = match ceci_query::splitmix64(v.0 as u64 ^ 0xADAE) % 100 {
            0..=54 => 0,
            55..=79 => 1,
            80..=94 => 2,
            _ => 3,
        };
        b.add_vertex(ceci_graph::LabelId(label));
    }
    for v in base.vertices() {
        for &nb in base.neighbors(v) {
            if v < nb {
                b.add_edge(v, nb);
            }
        }
    }
    let graph = b.build();
    let extracted = extract_query(&graph, 5, 66, 10).expect("extractable query");
    (graph, extracted.pattern)
}

/// What one `MATCH` reply said.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Served {
    count: u64,
    cache: String,
    /// The reply's `build_us=` (0 on a hit).
    build_us: u64,
}

fn served(resp: &ceci_service::Response) -> Served {
    assert!(resp.is_ok(), "{}", resp.terminal);
    // No reply re-plans its entry, so none carries a re-plan's time.
    assert_eq!(resp.field("replan_us"), None, "{}", resp.terminal);
    Served {
        count: resp.field_u64("count").expect("count field"),
        cache: resp.field("cache").expect("cache field").to_string(),
        build_us: resp.field_u64("build_us").expect("build_us field"),
    }
}

/// The server's Prometheus samples by name (unlabeled ones).
fn prom(client: &mut Client) -> std::collections::BTreeMap<String, f64> {
    let resp = client.request("STATS PROM").unwrap();
    let text = resp.payload.join("\n") + "\n";
    ceci_trace::prom::parse(&text)
        .unwrap()
        .into_iter()
        .filter(|s| s.labels.is_empty())
        .map(|s| (s.name, s.value))
        .collect()
}

/// `n` templates extracted from `graph`, no two of them isomorphic, written
/// to `scratch`: `(query path, pattern)` each.
fn distinct_templates(scratch: &Scratch, graph: &Graph, n: usize) -> Vec<(String, Graph)> {
    let mut seen = std::collections::HashSet::new();
    let mut templates = Vec::new();
    let mut seed = 0;
    while templates.len() < n {
        seed += 1;
        let Some(extracted) = extract_query(graph, 3 + (seed % 4) as usize, seed, 50) else {
            continue;
        };
        let query = QueryGraph::from_graph(&extracted.pattern).unwrap();
        if seen.insert(ceci_query::canonical_hash(&query)) {
            let path = scratch.write_graph(&format!("q{seed}.graph"), &extracted.pattern);
            templates.push((path, extracted.pattern));
        }
    }
    templates
}

#[test]
fn one_shot_matches_never_score_a_portfolio() {
    let scratch = Scratch::new("one-shot");
    let graph = small_graph();
    let graph_path = scratch.write_graph("data.graph", &graph);
    let (handle, _state) = serve(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    client.request(&format!("LOAD g {graph_path}")).unwrap();

    // 50 templates no two of which are isomorphic, each asked once.
    for (path, pattern) in distinct_templates(&scratch, &graph, 50) {
        let reply = served(&client.request(&format!("MATCH g {path}")).unwrap());
        assert_eq!(reply.cache, "MISS", "{path}");
        assert_eq!(reply.count, direct_count(&graph, &pattern));
    }
    let stats = prom(&mut client);
    assert_eq!(stats["ceci_cache_misses_total"], 50.0);
    assert_eq!(stats["ceci_build_latency_us_count"], 50.0);
    handle.shutdown();
}

#[test]
fn an_order_sensitive_template_keeps_its_miss_plan() {
    let scratch = Scratch::new("keeps-plan");
    let (graph, pattern) = order_sensitive();
    let expected = direct_count(&graph, &pattern);
    let graph_path = scratch.write_graph("data.graph", &graph);
    let query_path = scratch.write_graph("query.graph", &pattern);
    let request = format!("MATCH g {query_path}");
    let explain = format!("EXPLAIN g {query_path}");
    let plan_row = |client: &mut Client| {
        let resp = client.request(&explain).unwrap();
        let row = resp.payload.iter().find(|l| l.starts_with("| plan: "));
        row.expect("the served plan's row").clone()
    };

    // Two fresh servers, the same 60 requests: both serve them alike.
    let mut runs: Vec<Vec<(u64, String)>> = Vec::new();
    for run in 0..2 {
        let (handle, state) = serve(ServeConfig {
            trace: true,
            ..ServeConfig::default()
        });
        let mut client = Client::connect(handle.addr()).unwrap();
        client.request(&format!("LOAD g {graph_path}")).unwrap();
        let mut replies = vec![served(&client.request(&request).unwrap())];
        let missed = plan_row(&mut client);
        let plan = Arc::clone(&state.cache.entries()[0].plan);
        replies.extend((1..60).map(|_| served(&client.request(&request).unwrap())));

        // Identical counts throughout; one miss, then hits that build
        // nothing.
        assert!(replies.iter().all(|r| r.count == expected), "{replies:?}");
        assert_eq!(replies[0].cache, "MISS");
        assert!(
            replies[1..]
                .iter()
                .all(|r| r.cache == "HIT" && r.build_us == 0),
            "{replies:?}"
        );
        let stats = prom(&mut client);
        assert_eq!(stats["ceci_cache_misses_total"], 1.0);
        // 59 reads and the `EXPLAIN` after the miss.
        assert_eq!(stats["ceci_cache_hits_total"], 60.0);
        assert_eq!(stats["ceci_build_latency_us_count"], 1.0);
        assert_eq!(stats["ceci_index_repairs_total"], 0.0);
        assert_eq!(stats["ceci_index_repair_fallbacks_total"], 0.0);
        assert_eq!(stats["ceci_cache_evictions_total"], 0.0);
        assert_eq!(stats["ceci_cache_entries"], 1.0);

        // Every request's stages tile it, and none is a re-plan.
        let spans = state.tracer.snapshot();
        let requests: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "service.request")
            .collect();
        assert_eq!(requests.len(), 60);
        for request in requests {
            let stages: Vec<_> = spans.iter().filter(|s| s.parent == request.id).collect();
            assert!(stages.iter().all(|s| s.name != "service.replan"));
            let tiled: u64 = stages.iter().map(|s| s.dur_ns).sum();
            assert_eq!(tiled, request.dur_ns, "stages tile the request");
        }

        // After 200 reads the entry still serves the miss's plan: the
        // connectivity-first order, the same plan object.
        if run == 0 {
            for _ in 60..200 {
                assert_eq!(served(&client.request(&request).unwrap()).cache, "HIT");
            }
            assert!(missed.contains(" strategy=EdgeRank "), "{missed}");
            assert_eq!(plan_row(&mut client), missed);
            assert!(Arc::ptr_eq(&state.cache.entries()[0].plan, &plan));
        }
        runs.push(replies.into_iter().map(|r| (r.count, r.cache)).collect());
        handle.shutdown();
    }
    assert_eq!(runs[0], runs[1]);
}

// ---------------------------------------------------------------------------
// One repair rung: whatever the gap, a stale read rebuilds the frozen index
// under the entry's plan over candidate sets patched at the gap's endpoints.
// ---------------------------------------------------------------------------

/// Applies one applicable add + delete as a `BATCH` and returns the mutated
/// reference copy.
fn batch_one(client: &mut Client, reference: &Graph, seed: u64) -> Graph {
    let ((a, b), (c, d)) = applicable_mutation(reference, seed);
    let resp = client
        .request(&format!("BATCH g +{a}:{b} -{c}:{d}"))
        .unwrap();
    assert!(resp.is_ok(), "{}", resp.terminal);
    mutated_copy(reference, &[(a, b)], &[(c, d)])
}

/// Applies `edges` applicable add + delete pairs as one `BATCH` and returns
/// the mutated reference copy.
fn batch_many(client: &mut Client, reference: &Graph, seed: u64, edges: u64) -> Graph {
    let mut reference = reference.clone();
    let mut line = String::from("BATCH g");
    for i in 0..edges {
        let ((a, b), (c, d)) = applicable_mutation(&reference, seed + 977 * i);
        line.push_str(&format!(" +{a}:{b} -{c}:{d}"));
        reference = mutated_copy(&reference, &[(a, b)], &[(c, d)]);
    }
    let resp = client.request(&line).unwrap();
    assert!(resp.is_ok(), "{}", resp.terminal);
    reference
}

/// Where each `service.repair` span recorded so far took its candidate sets
/// from (`sets=patch` / `sets=scan`), in order.
fn repair_sets(state: &ServerState) -> Vec<&'static str> {
    state
        .tracer
        .snapshot()
        .iter()
        .filter(|s| s.name == "service.repair")
        .map(|s| {
            let sets = s.args.iter().find(|(k, _)| k.starts_with("sets="));
            sets.expect("a repair span says where its sets came from").0
        })
        .collect()
}

#[test]
fn every_stale_read_repairs_over_patched_sets_whatever_the_gap() {
    let scratch = Scratch::new("one-rung");
    let graph = small_graph();
    let pattern = query_from(&graph, 4, 7);
    let graph_path = scratch.write_graph("data.graph", &graph);
    let query_path = scratch.write_graph("query.graph", &pattern);
    let request = format!("MATCH g {query_path}");

    let (handle, state) = serve(ServeConfig {
        dirty_log_cap: 2,
        trace: true,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(handle.addr()).unwrap();
    client.request(&format!("LOAD g {graph_path}")).unwrap();
    assert_eq!(served(&client.request(&request).unwrap()).cache, "MISS");
    let owner = state.cache.entries().pop().unwrap();
    let (index_bytes, sets_bytes) = entry_bytes(&owner);
    assert_eq!(state.cache.bytes(), index_bytes + sets_bytes);
    let mut index = Arc::clone(&owner.ceci);

    // A one-edge gap, a 120-edge gap, and three unread batches the
    // two-batch dirty log no longer reaches back over.
    let mut reference = graph.clone();
    for (gap, batches, edges, sets) in [
        ("1 edge", 1, 1, "sets=patch"),
        ("120 edges", 1, 120, "sets=patch"),
        ("off the log", 3, 1, "sets=scan"),
    ] {
        for round in 0..batches {
            reference = batch_many(&mut client, &reference, 97 + 31 * round, edges);
        }
        let was = prom(&mut client);
        let reply = served(&client.request(&request).unwrap());
        assert_eq!(reply.cache, "REPAIRED", "{gap}");
        assert_eq!(reply.count, direct_count(&reference, &pattern), "{gap}");
        let raw = served(&client.request(&format!("{request} RAW")).unwrap());
        assert_eq!(
            (raw.count, raw.cache.as_str()),
            (reply.count, "HIT"),
            "{gap}"
        );
        assert_eq!(repair_sets(&state).last(), Some(&sets), "{gap}");
        let now = prom(&mut client);
        let moved = |key: &str| now[key] - was[key];
        assert_eq!(moved("ceci_index_repairs_total"), 1.0, "{gap}");
        let scanned = (sets == "sets=scan") as u64 as f64;
        assert_eq!(moved("ceci_index_repair_set_scans_total"), scanned, "{gap}");
        // A new index; the plan object is handed on, and the cache charges
        // the frozen indexes and their candidate sets.
        let entries = state.cache.entries();
        assert!(!Arc::ptr_eq(&entries[0].ceci, &index), "{gap}: a new index");
        index = Arc::clone(&entries[0].ceci);
        assert!(Arc::ptr_eq(&entries[0].plan, &owner.plan), "{gap}: plan");
        let held: usize = (entries.iter().map(|e| entry_bytes(e)))
            .map(|(index, sets)| index + sets)
            .sum();
        assert_eq!(state.cache.bytes(), held, "{gap}");
        assert_eq!(now["ceci_cache_bytes"], held as f64, "{gap}");
    }

    // An EXPLAIN ANALYZE that is itself the stale read says REPAIRED, and
    // the plan's candidate counts still date from the miss; the MATCH after
    // it hits.
    reference = batch_one(&mut client, &reference, 211);
    let explain = client
        .request(&format!("EXPLAIN g {query_path} ANALYZE"))
        .unwrap();
    assert!(explain.is_ok(), "{}", explain.terminal);
    let line = |needle: &str| explain.payload.iter().find(|l| l.contains(needle)).unwrap();
    assert_eq!(line("| path:"), "| path: drain cache=REPAIRED");
    assert!(
        line("| index:").contains("cache=REPAIRED ids="),
        "{}",
        line("| index:")
    );
    let header = line("per-node preprocessing");
    assert!(header.contains("(sets@sub_epoch=0 (lagging))"), "{header}");
    // Its estimate is walked over the repaired index it serves, not carried
    // over from the miss.
    let repaired = state.cache.entries().pop().unwrap();
    let (snapshot, _) = state.registry.get("g").unwrap().snapshot();
    let fresh = ceci_core::served_cost(&snapshot, &repaired.plan, &repaired.ceci);
    let volume = format!(" est_volume={:.1}", fresh.volume());
    assert!(line("exec:").ends_with(&volume), "{}", line("exec:"));
    let reply = served(&client.request(&request).unwrap());
    assert_eq!(reply.cache, "HIT");
    assert_eq!(reply.count, direct_count(&reference, &pattern));
    assert!(!Arc::ptr_eq(&state.cache.entries()[0].ceci, &index));
    let stats = prom(&mut client);
    assert_eq!(stats["ceci_index_repairs_total"], 4.0);
    assert_eq!(stats["ceci_index_repair_fallbacks_total"], 0.0);
    assert_eq!(stats["ceci_cache_misses_total"], 1.0);
    handle.shutdown();
}

/// What a live entry holds: its frozen index and, once per allocation, its
/// candidate sets, each a list of 4-byte ids plus a bitset of one bit per
/// id from its first to its last candidate, in 8-byte words.
fn entry_bytes(entry: &CachedIndex) -> (usize, usize) {
    let span = |c: &[ceci_graph::VertexId]| c.last().map_or(0, |l| (l.0 - c[0].0) as usize + 1);
    let sets = |sets: &[ceci_query::candidates::CandidateSet]| -> usize {
        sets.iter()
            .map(|s| 4 * s.candidates.len() + 8 * span(&s.candidates).div_ceil(64))
            .sum()
    };
    let (own, plans) = (entry.ceci.candidate_sets(), &**entry.plan.candidate_sets());
    let shared = std::ptr::eq(own.as_ptr(), plans.as_ptr());
    let sets = sets(own) + if shared { 0 } else { sets(plans) };
    (entry.ceci.size_bytes(), sets)
}

/// The cache charges each entry its frozen index and its candidate sets,
/// once: over 50 entries, after misses and after every repair, `bytes` is
/// the sum of what the live entries hold. On a wide graph with sparse
/// candidates the bitsets span the candidates, not the graph.
#[test]
fn cache_bytes_equal_the_live_frozen_indexes_over_fifty_entries() {
    let scratch = Scratch::new("cache-bytes");
    let graph = small_graph();
    let graph_path = scratch.write_graph("data.graph", &graph);
    let (handle, state) = serve(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    client.request(&format!("LOAD g {graph_path}")).unwrap();

    // What the live entries hold, against what the cache charges.
    let held = |state: &ServerState| -> usize {
        let entries = state.cache.entries();
        let sizes = entries.iter().map(|e| entry_bytes(e));
        let held: usize = sizes.map(|(index, sets)| index + sets).sum();
        assert_eq!(state.cache.bytes(), held);
        held
    };

    // 50 one-shot misses.
    let templates = distinct_templates(&scratch, &graph, 50);
    for (path, _) in &templates {
        client.request(&format!("MATCH g {path}")).unwrap();
    }
    assert_eq!(state.cache.len(), 50);
    let index = held(&state);
    assert_eq!(prom(&mut client)["ceci_cache_bytes"], index as f64);

    // A batch and one read: the repaired entry replaces the stale one ...
    let request = format!("MATCH g {}", templates[0].0);
    let reference = batch_one(&mut client, &graph, 97);
    assert_eq!(served(&client.request(&request).unwrap()).cache, "REPAIRED");
    assert_eq!(state.cache.len(), 50);
    let charged = held(&state);
    assert_eq!(prom(&mut client)["ceci_cache_bytes"], charged as f64);

    // ... and after the next repair is still charged once, not twice.
    batch_one(&mut client, &reference, 131);
    assert_eq!(served(&client.request(&request).unwrap()).cache, "REPAIRED");
    assert_eq!(state.cache.len(), 50);
    let charged = held(&state);
    assert_eq!(prom(&mut client)["ceci_cache_bytes"], charged as f64);

    // 20 000 vertices, eight of them on a labeled path: an edge query has
    // four candidates a side, each side one class of four ranks, so each
    // bitset is one word where a |V|-wide one was 313.
    use ceci_graph::{lid, vid, LabelSet};
    let (wide, label) = (20_000, |l| LabelSet::single(lid(l)));
    let labels = (0..wide as u32).map(|v| label(if v < 8 { 1 + v % 2 } else { 0 }));
    let path: Vec<_> = (0..7).map(|v| (vid(v), vid(v + 1))).collect();
    let wide_graph = Graph::new(labels.collect(), &path, false);
    let wide_path = scratch.write_graph("wide.graph", &wide_graph);
    let edge = Graph::new(vec![label(1), label(2)], &[(vid(0), vid(1))], false);
    let edge_path = scratch.write_graph("edge.graph", &edge);
    client.request(&format!("LOAD w {wide_path}")).unwrap();
    let before = state.cache.bytes();
    let resp = client.request(&format!("MATCH w {edge_path}")).unwrap();
    assert_eq!(resp.field_u64("count"), Some(7), "{}", resp.terminal);
    let entry = (state.cache.entries().into_iter())
        .find(|e| e.ceci.candidate_sets()[0].candidates.len() == 4)
        .expect("the wide entry");
    let (index, sets) = entry_bytes(&entry);
    assert_eq!(sets, 2 * (4 * 4 + 8));
    assert_eq!(state.cache.bytes() - before, index + sets);
    handle.shutdown();
}

/// One counter per path: every local `ExecPath` variant driven once, its
/// reply carrying exactly its own tokens and `STATS` moving exactly its own
/// counter — plus, for a path over an index, the counter of how the index
/// was come by. Mirrors DESIGN's "`ExecPath` → tokens / counter / span".
#[test]
fn every_exec_path_moves_its_own_counter_and_carries_its_own_tokens() {
    let scratch = Scratch::new("one-counter");
    let graph = small_graph();
    let pattern = query_from(&graph, 4, 7);
    let graph_path = scratch.write_graph("data.graph", &graph);
    let query_path = scratch.write_graph("query.graph", &pattern);
    // A label the data graph does not carry: provably zero.
    let mut qb = ceci_graph::GraphBuilder::new();
    let (a, b) = (
        qb.add_vertex(ceci_graph::LabelId(9)),
        qb.add_vertex(ceci_graph::LabelId(9)),
    );
    qb.add_edge(a, b);
    let zero_path = scratch.write_graph("zero.graph", &qb.build());

    let (handle, state) = serve(ServeConfig {
        trace: true,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(handle.addr()).unwrap();
    client.request(&format!("LOAD g {graph_path}")).unwrap();

    // What a row does before its request.
    enum Before {
        Nothing,
        SmallBatch(u64),
        BigBatch(u64),
    }
    use Before::*;
    // `STATS PROM` names: `ceci_<key>_total`.
    const WATCHED: [&str; 8] = [
        "filter_rejected",
        "cache_hits",
        "cache_misses",
        "index_repairs",
        "index_repair_set_scans",
        "deadline_exceeded",
        "index_repair_fallbacks",
        "cache_collisions",
    ];
    // (path, before, request, [filter=, mode=, cache=], counters moved by one)
    type Row<'a> = (&'a str, Before, String, [Option<&'a str>; 3], &'a [&'a str]);
    let plain = format!("MATCH g {query_path}");
    let rows: Vec<Row> = vec![
        (
            "rejected",
            Nothing,
            format!("MATCH g {zero_path}"),
            [Some("REJECTED"), None, Some("NONE")],
            &["filter_rejected"],
        ),
        (
            "drain/miss",
            Nothing,
            plain.clone(),
            [None, None, Some("MISS")],
            &["cache_misses"],
        ),
        (
            "drain/hit",
            Nothing,
            plain.clone(),
            [None, None, Some("HIT")],
            &["cache_hits"],
        ),
        (
            "drain raw/hit",
            Nothing,
            format!("{plain} RAW"),
            [None, None, Some("HIT")],
            &["cache_hits"],
        ),
        // A deadline past before the first unit: nothing drains, so the
        // reply is an interval over every pivot.
        (
            "interval/hit",
            Nothing,
            format!("{plain} DEADLINE 0"),
            [None, Some("APPROX"), Some("HIT")],
            &["deadline_exceeded", "cache_hits"],
        ),
        // Every gap on the dirty log repairs one way, small or big.
        (
            "drain/repaired",
            SmallBatch(97),
            plain.clone(),
            [None, None, Some("REPAIRED")],
            &["index_repairs"],
        ),
        (
            "drain/repaired again",
            SmallBatch(131),
            plain.clone(),
            [None, None, Some("REPAIRED")],
            &["index_repairs"],
        ),
        (
            "drain/repaired big",
            BigBatch(173),
            plain.clone(),
            [None, None, Some("REPAIRED")],
            &["index_repairs"],
        ),
        (
            "drain/repaired big again",
            BigBatch(211),
            plain.clone(),
            [None, None, Some("REPAIRED")],
            &["index_repairs"],
        ),
    ];

    let mut reference = graph.clone();
    for (path, before, request, [filter, mode, cache], moved) in rows {
        match before {
            Nothing => {}
            SmallBatch(seed) => reference = batch_one(&mut client, &reference, seed),
            BigBatch(seed) => reference = batch_many(&mut client, &reference, seed, 120),
        }
        let was = prom(&mut client);
        let resp = client.request(&request).unwrap();
        let now = prom(&mut client);
        for key in WATCHED {
            let name = format!("ceci_{key}_total");
            let expected = moved.contains(&key) as u64 as f64;
            assert_eq!(now[&name] - was[&name], expected, "{path}: {key}");
        }
        assert_eq!(resp.field("filter"), filter, "{path}: {}", resp.terminal);
        assert_eq!(resp.field("mode"), mode, "{path}: {}", resp.terminal);
        assert_eq!(resp.field("cache"), cache, "{path}: {}", resp.terminal);
        assert!(resp.is_ok(), "{path}: {}", resp.terminal);
        if path.starts_with("drain") {
            let expected = direct_count(&reference, &pattern);
            assert_eq!(resp.field_u64("count"), Some(expected), "{path}");
        }
    }
    // Every index was built with candidate sets, so every repair on the log
    // patches them, and its span says how many endpoints its gap had.
    assert_eq!(repair_sets(&state), ["sets=patch"; 4]);
    let spans = state.tracer.snapshot();
    let repairs = spans.iter().filter(|s| s.name == "service.repair");
    for span in repairs {
        let keys: Vec<&str> = span.args.iter().map(|a| a.0).collect();
        let expected = [
            "sets=patch",
            "dirty_vertices",
            "from_sub_epoch",
            "to_sub_epoch",
        ];
        assert_eq!(keys, expected);
        assert!(span.args[1].1 > 0, "{:?}", span.args);
    }
    handle.shutdown();
}

#[test]
fn eight_concurrent_readers_after_one_batch_elect_one_repairer() {
    let scratch = Scratch::new("repair-concurrent");
    let graph = small_graph();
    let pattern = query_from(&graph, 4, 7);
    let graph_path = scratch.write_graph("data.graph", &graph);
    let query_path = scratch.write_graph("query.graph", &pattern);
    let request = format!("MATCH g {query_path}");

    let (handle, _state) = serve(ServeConfig {
        pool_workers: 8,
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();
    client.request(&format!("LOAD g {graph_path}")).unwrap();
    // Miss, then a batch: eight readers race for the stale entry.
    client.request(&request).unwrap();
    let reference = batch_one(&mut client, &graph, 97);
    let expected = direct_count(&reference, &pattern);

    let barrier = Arc::new(std::sync::Barrier::new(8));
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            let request = request.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                barrier.wait();
                served(&c.request(&request).unwrap())
            })
        })
        .collect();
    let replies: Vec<Served> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    assert!(replies.iter().all(|r| r.count == expected), "{replies:?}");
    // One reader repaired; the rest waited on it or came after it, and hit.
    assert_eq!(replies.iter().filter(|r| r.cache == "REPAIRED").count(), 1);
    assert_eq!(replies.iter().filter(|r| r.cache == "HIT").count(), 7);
    let stats = prom(&mut client);
    assert_eq!(stats["ceci_index_repairs_total"], 1.0);
    assert_eq!(stats["ceci_index_repair_fallbacks_total"], 0.0);
    assert_eq!(stats["ceci_cache_misses_total"], 1.0);
    handle.shutdown();
}

#[test]
fn dirty_log_overflow_rebases_under_the_plan_instead_of_missing() {
    let scratch = Scratch::new("log-overflow");
    let (graph, pattern) = order_sensitive();
    let other = query_from(&graph, 3, 5);
    let graph_path = scratch.write_graph("data.graph", &graph);
    let query_path = scratch.write_graph("query.graph", &pattern);
    let other_path = scratch.write_graph("other.graph", &other);
    let request = format!("MATCH g {query_path}");

    let (handle, state) = serve(ServeConfig {
        dirty_log_cap: 2,
        trace: true,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(handle.addr()).unwrap();
    client.request(&format!("LOAD g {graph_path}")).unwrap();
    client.request(&request).unwrap();
    client.request(&format!("MATCH g {other_path}")).unwrap();
    // `query` is repaired once on the log; `other` stays as missed.
    let mut reference = batch_one(&mut client, &graph, 97);
    assert_eq!(served(&client.request(&request).unwrap()).cache, "REPAIRED");

    // Four unread batches: the two-batch log no longer reaches back.
    for round in 0..4 {
        reference = batch_one(&mut client, &reference, 131 + round);
    }
    let reply = served(&client.request(&request).unwrap());
    assert_eq!(reply.cache, "REPAIRED", "repaired, not rebuilt as a miss");
    assert_eq!(reply.count, direct_count(&reference, &pattern));
    // So is the entry that missed before every batch.
    let reply = served(&client.request(&format!("MATCH g {other_path}")).unwrap());
    assert_eq!(reply.cache, "REPAIRED");
    assert_eq!(reply.count, direct_count(&reference, &other));

    // Off the log there are no endpoints to patch the sets at.
    assert_eq!(
        repair_sets(&state),
        ["sets=patch", "sets=scan", "sets=scan"]
    );
    let stats = prom(&mut client);
    assert_eq!(stats["ceci_index_repairs_total"], 3.0);
    assert_eq!(stats["ceci_index_repair_set_scans_total"], 2.0);
    assert_eq!(stats["ceci_index_repair_fallbacks_total"], 0.0);
    assert_eq!(stats["ceci_cache_misses_total"], 2.0);
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// Connection lifecycle: the event-driven server core under malformed input,
// abrupt disconnects, half-open peers, dead subscribers, and thousands of
// concurrent connections.
// ---------------------------------------------------------------------------

/// Reads one `\n`-terminated line from a raw socket (no client framing).
fn read_raw_line(stream: &mut std::net::TcpStream) -> std::io::Result<String> {
    use std::io::Read;
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        let n = stream.read(&mut byte)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!("EOF after {:?}", String::from_utf8_lossy(&line)),
            ));
        }
        if byte[0] == b'\n' {
            return Ok(String::from_utf8_lossy(&line).into_owned());
        }
        line.push(byte[0]);
    }
}

/// Polls `probe` until it returns true or the deadline passes.
fn wait_until(deadline: Duration, mut probe: impl FnMut() -> bool) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < deadline {
        if probe() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    probe()
}

#[test]
fn malformed_frames_get_typed_errors_not_crashes() {
    use std::io::Write;
    let scratch = Scratch::new("malformed");
    let graph = small_graph();
    let graph_path = scratch.write_graph("data.graph", &graph);
    let (handle, _state) = serve(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    client.request(&format!("LOAD g {graph_path}")).unwrap();

    // Exact malformed frames, each answered with a typed ERR on the same
    // connection — never a hang, a close, or a panic.
    for (frame, code) in [
        ("FROBNICATE", "ERR E_PARSE"),              // unknown verb
        ("MATCH g", "ERR E_PARSE"),                 // truncated MATCH
        ("MATCH", "ERR E_PARSE"),                   // bare verb
        ("ADDEDGE g 1 banana", "ERR E_PARSE"),      // bad mutation endpoint
        ("BATCH g +1:2 -x:y extra", "ERR E_PARSE"), // mangled batch token
        ("MATCH g /q LIMIT banana", "ERR E_PARSE"), // bad LIMIT operand
    ] {
        let resp = client.request(frame).unwrap();
        assert!(
            resp.terminal.starts_with(code),
            "{frame:?} answered {:?}",
            resp.terminal
        );
    }
    // The connection survives the whole gauntlet.
    assert_eq!(client.request("PING").unwrap().terminal, "OK PONG");

    // Raw non-UTF-8 bytes: typed parse error, connection still usable.
    let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    raw.write_all(b"MATCH g \xff\xfe\xfd\n").unwrap();
    let line = read_raw_line(&mut raw).unwrap();
    assert!(line.starts_with("ERR E_PARSE"), "{line:?}");
    raw.write_all(b"PING\n").unwrap();
    assert_eq!(read_raw_line(&mut raw).unwrap(), "OK PONG");
    handle.shutdown();
}

#[test]
fn oversized_request_line_is_rejected_and_closed() {
    use std::io::Write;
    let (handle, state) = serve(ServeConfig::default());
    let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // > 1 MiB of garbage with no newline: the server must bound its buffer,
    // answer a typed parse error, and close — not accumulate forever.
    let chunk = vec![b'A'; 64 * 1024];
    for _ in 0..17 {
        if raw.write_all(&chunk).is_err() {
            break; // server already closed on us mid-send; fine
        }
    }
    raw.flush().ok();
    match read_raw_line(&mut raw) {
        Ok(line) => {
            assert!(line.starts_with("ERR E_PARSE"), "{line:?}");
            assert!(line.contains("exceeds"), "{line:?}");
            // After the error the server closes the connection.
            let mut rest = Vec::new();
            std::io::Read::read_to_end(&mut raw, &mut rest).ok();
        }
        Err(e) => panic!("no typed error before close: {e}"),
    }
    assert!(
        state
            .metrics
            .errors
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    handle.shutdown();
}

#[test]
fn abrupt_disconnect_mid_request_does_not_wedge_the_server() {
    use std::io::Write;
    let (handle, state) = serve(ServeConfig {
        chaos: true,
        ..ServeConfig::default()
    });

    // Park a request on the data plane, then vanish without reading the
    // response: the worker's completion lands on a dead connection and must
    // be discarded, not crash the loop or leak the slot.
    {
        let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
        raw.write_all(b"CHAOS DELAY 300\n").unwrap();
        raw.flush().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        // Drop: RST/FIN while the request is in flight.
    }
    // A half-written request (no newline) followed by a vanish exercises
    // the partial-read teardown path too.
    {
        let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
        raw.write_all(b"PIN").unwrap();
        raw.flush().unwrap();
    }

    // The server keeps serving and eventually reaps both connections.
    let gauge = || {
        state
            .metrics
            .connections_open
            .load(std::sync::atomic::Ordering::Relaxed)
    };
    let mut probe = Client::connect(handle.addr()).unwrap();
    assert_eq!(probe.request("PING").unwrap().terminal, "OK PONG");
    assert!(
        wait_until(Duration::from_secs(5), || gauge() <= 1),
        "dead connections never reaped: {} still open",
        gauge()
    );
    assert_eq!(probe.request("PING").unwrap().terminal, "OK PONG");
    handle.shutdown();
}

#[test]
fn half_open_idle_connection_times_out_with_typed_notice() {
    let (handle, state) = serve(ServeConfig {
        io_timeout_ms: 200,
        ..ServeConfig::default()
    });
    // A peer that connects and then never sends a complete request — the
    // shape of a half-open socket — is expired by the idle sweep with a
    // typed notice instead of holding its slot forever.
    let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let t0 = Instant::now();
    let line = read_raw_line(&mut raw).expect("timeout notice before close");
    assert!(line.starts_with("ERR E_TIMEOUT"), "{line:?}");
    assert!(
        t0.elapsed() < Duration::from_secs(8),
        "sweep took {:?}",
        t0.elapsed()
    );
    // ...and then the connection is closed.
    let mut rest = Vec::new();
    std::io::Read::read_to_end(&mut raw, &mut rest).ok();
    assert!(
        state
            .metrics
            .timeouts
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    handle.shutdown();
}

#[test]
fn eof_without_trailing_newline_still_answers() {
    use std::io::Write;
    let (handle, _state) = serve(ServeConfig::default());
    // "PING" + FIN, no newline: EOF terminates the final line, the request
    // runs, and the response comes back before the close.
    let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    raw.write_all(b"PING").unwrap();
    raw.flush().unwrap();
    raw.shutdown(std::net::Shutdown::Write).unwrap();
    assert_eq!(read_raw_line(&mut raw).unwrap(), "OK PONG");
    handle.shutdown();
}

#[test]
fn dead_subscriber_is_auto_unregistered_on_push_failure() {
    let scratch = Scratch::new("dead-sub");
    let graph = small_graph();
    let pattern = query_from(&graph, 3, 13);
    let graph_path = scratch.write_graph("data.graph", &graph);
    let query_path = scratch.write_graph("query.graph", &pattern);

    let (handle, state) = serve(ServeConfig::default());
    let mut mutator = Client::connect(handle.addr()).unwrap();
    mutator.request(&format!("LOAD g {graph_path}")).unwrap();

    // REGISTER from a connection that then dies without UNREGISTER.
    {
        let mut sub = Client::connect(handle.addr()).unwrap();
        let resp = sub.request(&format!("REGISTER q g {query_path}")).unwrap();
        assert!(resp.is_ok(), "{}", resp.terminal);
    }
    assert_eq!(state.continuous_len(), 1, "registration outlives the drop");

    // Wait for the server to reap the dead connection (its sink is then
    // closed), then mutate: the EVENT push fails, the registration is
    // auto-removed, and the failure is counted — no wedge, no leak.
    let gauge = || {
        state
            .metrics
            .connections_open
            .load(std::sync::atomic::Ordering::Relaxed)
    };
    assert!(
        wait_until(Duration::from_secs(5), || gauge() <= 1),
        "subscriber connection never reaped"
    );
    let (add, _) = applicable_mutation(&graph, 53);
    let resp = mutator
        .request(&format!("ADDEDGE g {} {}", add.0, add.1))
        .unwrap();
    assert!(resp.is_ok(), "{}", resp.terminal);
    assert!(
        wait_until(Duration::from_secs(5), || state.continuous_len() == 0),
        "dead registration survived a failed push"
    );
    assert!(
        state
            .metrics
            .event_push_failures
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    // Later mutations no longer try the dead sink.
    let (add2, _) = applicable_mutation(&mutated_copy(&graph, &[add], &[]), 59);
    let resp = mutator
        .request(&format!("ADDEDGE g {} {}", add2.0, add2.1))
        .unwrap();
    assert!(resp.is_ok(), "{}", resp.terminal);
    handle.shutdown();
}

#[test]
fn connection_cap_rejects_with_busy_and_counts_it() {
    let (handle, state) = serve(ServeConfig {
        max_conns: 2,
        ..ServeConfig::default()
    });
    let mut a = Client::connect(handle.addr()).unwrap();
    let mut b = Client::connect(handle.addr()).unwrap();
    assert_eq!(a.request("PING").unwrap().terminal, "OK PONG");
    assert_eq!(b.request("PING").unwrap().terminal, "OK PONG");

    // The third connection is answered BUSY and closed at accept time.
    let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let line = read_raw_line(&mut raw).expect("BUSY before close");
    assert_eq!(line, "BUSY");
    assert!(
        state
            .metrics
            .connections_rejected
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    // Existing connections are unaffected.
    assert_eq!(a.request("PING").unwrap().terminal, "OK PONG");
    assert_eq!(b.request("PING").unwrap().terminal, "OK PONG");
    handle.shutdown();
}

#[test]
fn two_thousand_concurrent_clients_sustained_without_drops() {
    let (handle, state) = serve(ServeConfig::default());
    let report = run_load(
        handle.addr(),
        &LoadConfig {
            clients: 2000,
            requests_per_client: 3,
            request: "PING".to_string(),
            // Closed loops with think time: ~2000 concurrent mostly-idle
            // connections at a bounded offered rate, which is exactly the
            // shape the event loop exists for.
            think_ms: 200,
        },
    );
    assert_eq!(report.ok, 2000 * 3, "dropped responses: {report:?}");
    assert_eq!(report.err, 0, "{report:?}");
    assert_eq!(report.io_errors, 0, "{report:?}");
    assert_eq!(report.busy, 0, "{report:?}");
    let accepted = state
        .metrics
        .connections_accepted
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(accepted >= 2000, "accepted {accepted}");
    assert!(handle.shutdown().clean());
}

#[test]
fn shutdown_reports_clean_join() {
    let (handle, _state) = serve(ServeConfig::default());
    let report = handle.shutdown();
    assert!(report.clean(), "event-loop shutdown: {report:?}");
}

#[test]
fn explain_shows_plan_choice_and_estimate_accuracy() {
    let scratch = Scratch::new("explain-choice");
    let graph = small_graph();
    let pattern = query_from(&graph, 4, 37);
    let graph_path = scratch.write_graph("data.graph", &graph);
    let query_path = scratch.write_graph("query.graph", &pattern);

    let (handle, _state) = serve(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    client.request(&format!("LOAD g {graph_path}")).unwrap();

    let resp = client
        .request(&format!("EXPLAIN g {query_path} ANALYZE"))
        .unwrap();
    assert_eq!(resp.terminal, "OK EXPLAIN");
    let has = |needle: &str| resp.payload.iter().any(|l| l.contains(needle));
    // One row names the served plan: the miss's connectivity-first order
    // and its walked cost. No portfolio is weighed, so none is listed.
    assert!(
        has("| plan: strategy=EdgeRank root=u") && has(" work_se="),
        "missing the served plan: {:?}",
        resp.payload
    );
    assert!(
        !has("plan choice:") && !has("chosen="),
        "{:?}",
        resp.payload
    );
    assert!(has("exec: strategy="), "missing execution decision");
    assert!(
        !has("kernels:"),
        "kernel pins are gone, and so is their line"
    );
    assert!(has("estimate depth="), "missing est-vs-actual table");
    assert!(has("qerr="), "missing q-error column");
    assert!(has("| path: drain cache=MISS"), "{:?}", resp.payload);

    // The section is not an option: the plain form, a hit this time, carries
    // it too, and so does the `EXPLAIN` of every other template.
    for (size, seed) in [(4, 37), (3, 5), (5, 7)] {
        let path = scratch.write_graph("other.graph", &query_from(&graph, size, seed));
        let resp = client.request(&format!("EXPLAIN g {path}")).unwrap();
        assert_eq!(resp.terminal, "OK EXPLAIN");
        let plan = resp.payload.iter().any(|l| l.starts_with("| plan: "));
        assert!(plan, "size={size} seed={seed}: {:?}", resp.payload);
    }
    handle.shutdown();
}
