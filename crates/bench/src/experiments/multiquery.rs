//! `repro multiquery` — mixed-workload throughput sweep for the multi-query
//! optimization layer (PR 6).
//!
//! Runs the same closed-loop workload — 4 concurrent clients, 100 MATCH
//! requests over ~10 query templates, some of them provably unsatisfiable —
//! against two in-process servers:
//!
//! * **optimized**: the default [`ServeConfig`] — label-pair admission
//!   filter, single-flight index builds and redundant-extension pruning
//!   all on;
//! * **unoptimized**: the same server with all three switches off.
//!
//! The sweep **asserts** that every template's embedding count is
//! bit-identical between the two configurations and against a per-template
//! `MATCH ... RAW` differential pass, then reports the throughput ratio and
//! writes `bench_results/multiquery.json`. The ratio is recorded, not gated:
//! wall-clock ratios over a 40 ms workload are host-dependent, and since
//! every `MATCH` form shares one drain the all-off server no longer runs a
//! slower enumeration path — what separates the two is the 32 rejected
//! requests and the builds they spare (1.0–1.2x at `--scale quick`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use ceci_graph::extract::extract_query;
use ceci_graph::{io, lid, vid, Graph, LabelSet, VertexId};
use ceci_service::{start_with_state, Client, ServeConfig, ServerState};

use crate::json::JsonValue;
use crate::table::Table;
use crate::Scale;

/// Closed-loop clients issuing the workload.
const CLIENTS: usize = 4;
/// Requests per client (total workload = `CLIENTS * REQUESTS_PER_CLIENT`).
const REQUESTS_PER_CLIENT: usize = 25;

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Deterministic data graph: `n` vertices labeled uniformly from {0,1,2}
/// plus 4 *isolated* vertices labeled 3. Label 3 therefore occurs in the
/// graph but never across an edge, so any query joining label 3 to anything
/// is rejected by the pair test (not the cheaper label-occurrence test),
/// and label 4+ queries are rejected by label occurrence alone.
fn data_graph(n: u32, m: usize, seed: u64) -> Graph {
    let mut s = seed | 1;
    let mut labels: Vec<LabelSet> = (0..n)
        .map(|_| LabelSet::single(lid((xorshift(&mut s) % 3) as u32)))
        .collect();
    let mut seen = std::collections::HashSet::new();
    let mut edges: Vec<(VertexId, VertexId)> = Vec::with_capacity(m);
    while edges.len() < m {
        let a = (xorshift(&mut s) % n as u64) as u32;
        let b = (xorshift(&mut s) % n as u64) as u32;
        if a == b {
            continue;
        }
        let key = (a.min(b), a.max(b));
        if seen.insert(key) {
            edges.push((vid(key.0), vid(key.1)));
        }
    }
    for _ in 0..4 {
        labels.push(LabelSet::single(lid(3)));
    }
    Graph::new(labels, &edges, false)
}

struct Template {
    name: String,
    pattern: Graph,
    /// The admission filter should reject this template (and therefore the
    /// true count must be 0).
    impossible: bool,
}

/// ~10 templates: 6 satisfiable patterns extracted from the data graph plus
/// 4 provably-impossible ones (absent label / absent label pair).
fn templates(graph: &Graph, scale: Scale) -> Vec<Template> {
    let sizes: &[(usize, u64)] = match scale {
        Scale::Quick => &[(3, 7), (4, 11), (4, 19), (5, 23), (3, 31), (4, 43)],
        Scale::Full => &[(4, 7), (5, 11), (5, 19), (6, 23), (4, 31), (5, 43)],
    };
    let mut out: Vec<Template> = sizes
        .iter()
        .map(|&(size, seed)| Template {
            name: format!("sat_s{size}_r{seed}"),
            pattern: extract_query(graph, size, seed, 50)
                .expect("extractable query template")
                .pattern,
            impossible: false,
        })
        .collect();
    let tri = |l: [u32; 3]| {
        Graph::new(
            l.iter().map(|&x| LabelSet::single(lid(x))).collect(),
            &[(vid(0), vid(1)), (vid(1), vid(2)), (vid(2), vid(0))],
            false,
        )
    };
    out.push(Template {
        name: "absent_label_edge".into(),
        pattern: Graph::new(
            vec![LabelSet::single(lid(9)), LabelSet::single(lid(9))],
            &[(vid(0), vid(1))],
            false,
        ),
        impossible: true,
    });
    out.push(Template {
        name: "absent_label_tri".into(),
        pattern: tri([9, 0, 1]),
        impossible: true,
    });
    out.push(Template {
        name: "absent_pair_edge".into(),
        pattern: Graph::new(
            vec![LabelSet::single(lid(0)), LabelSet::single(lid(3))],
            &[(vid(0), vid(1))],
            false,
        ),
        impossible: true,
    });
    out.push(Template {
        name: "absent_pair_path".into(),
        pattern: Graph::new(
            vec![
                LabelSet::single(lid(1)),
                LabelSet::single(lid(3)),
                LabelSet::single(lid(2)),
            ],
            &[(vid(0), vid(1)), (vid(1), vid(2))],
            false,
        ),
        impossible: true,
    });
    out
}

/// Metrics snapshot taken after one workload rep.
#[derive(Clone, Copy, Default)]
struct MetricsSnap {
    builds: u64,
    cache_hits: u64,
    cache_misses: u64,
    filter_rejected: u64,
    singleflight_waits: u64,
}

struct RunOutcome {
    elapsed: Duration,
    /// Per-template embedding count, validated consistent across clients.
    counts: Vec<u64>,
    snap: MetricsSnap,
}

/// Runs the closed-loop workload once against a fresh server with `config`:
/// `CLIENTS` threads, each issuing `REQUESTS_PER_CLIENT` MATCHes cycling
/// through the template list in the same order (so identical queries
/// collide in flight — the single-flight case).
fn run_workload(config: ServeConfig, graph_path: &str, query_paths: &[String]) -> RunOutcome {
    let state = Arc::new(ServerState::new(config));
    let handle = start_with_state(Arc::clone(&state)).expect("bind loopback");
    let addr = handle.addr();
    let mut ctl = Client::connect(addr).expect("control connection");
    let resp = ctl.request(&format!("LOAD g {graph_path}")).expect("LOAD");
    assert!(resp.is_ok(), "LOAD failed: {}", resp.terminal);

    let barrier = Arc::new(Barrier::new(CLIENTS + 1));
    let threads: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            let paths = query_paths.to_vec();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("client connection");
                barrier.wait();
                let mut counts: Vec<(usize, u64)> = Vec::with_capacity(REQUESTS_PER_CLIENT);
                for i in 0..REQUESTS_PER_CLIENT {
                    let t = i % paths.len();
                    let resp = client
                        .request(&format!("MATCH g {}", paths[t]))
                        .expect("MATCH");
                    assert!(resp.is_ok(), "MATCH failed: {}", resp.terminal);
                    counts.push((t, resp.field_u64("count").expect("count field")));
                }
                counts
            })
        })
        .collect();
    barrier.wait();
    let t0 = Instant::now();
    let mut counts: Vec<Option<u64>> = vec![None; query_paths.len()];
    for t in threads {
        for (idx, count) in t.join().expect("client thread") {
            match counts[idx] {
                None => counts[idx] = Some(count),
                Some(prev) => assert_eq!(
                    prev, count,
                    "template {idx}: divergent counts within one server"
                ),
            }
        }
    }
    let elapsed = t0.elapsed();
    let g = |c: &AtomicU64| c.load(Ordering::Relaxed);
    let snap = MetricsSnap {
        builds: state.metrics.build_latency.count(),
        cache_hits: g(&state.metrics.cache_hits),
        cache_misses: g(&state.metrics.cache_misses),
        filter_rejected: g(&state.metrics.filter_rejected),
        singleflight_waits: g(&state.metrics.singleflight_waits),
    };
    handle.shutdown();
    RunOutcome {
        elapsed,
        counts: counts
            .into_iter()
            .map(|c| c.expect("every template covered by the workload"))
            .collect(),
        snap,
    }
}

/// Optimized-vs-RAW differential on one server: both forms of every
/// template must report the same count, rejected templates must short-
/// circuit with `filter=REJECTED`, and the count must be zero exactly for
/// the impossible templates.
fn raw_differential(graph_path: &str, query_paths: &[String], templates: &[Template]) -> Vec<u64> {
    let state = Arc::new(ServerState::new(ServeConfig::default()));
    let handle = start_with_state(Arc::clone(&state)).expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let resp = client
        .request(&format!("LOAD g {graph_path}"))
        .expect("LOAD");
    assert!(resp.is_ok(), "{}", resp.terminal);
    let mut counts = Vec::with_capacity(templates.len());
    for (path, template) in query_paths.iter().zip(templates) {
        let optimized = client.request(&format!("MATCH g {path}")).expect("MATCH");
        let raw = client
            .request(&format!("MATCH g {path} RAW"))
            .expect("MATCH RAW");
        assert!(optimized.is_ok() && raw.is_ok(), "{}", template.name);
        let count = optimized.field_u64("count").expect("count");
        assert_eq!(
            Some(count),
            raw.field_u64("count"),
            "{}: optimized vs RAW disagree",
            template.name
        );
        if template.impossible {
            assert_eq!(
                count, 0,
                "{}: impossible template has matches",
                template.name
            );
            assert_eq!(
                optimized.field("filter"),
                Some("REJECTED"),
                "{}: filter let an impossible template through",
                template.name
            );
        } else {
            assert_eq!(optimized.field("filter"), None, "{}", template.name);
        }
        counts.push(count);
    }
    handle.shutdown();
    counts
}

fn optimized_config() -> ServeConfig {
    ServeConfig {
        pool_workers: CLIENTS,
        ..ServeConfig::default()
    }
}

fn unoptimized_config() -> ServeConfig {
    ServeConfig {
        pool_workers: CLIENTS,
        admission_filter: false,
        single_flight: false,
        prune_redundant: false,
        ..ServeConfig::default()
    }
}

/// Runs the sweep and writes `bench_results/multiquery.json`.
pub fn run(scale: Scale) {
    let (n, m) = match scale {
        Scale::Quick => (2_000u32, 10_000usize),
        Scale::Full => (8_000u32, 40_000usize),
    };
    let reps = match scale {
        Scale::Quick => 3,
        Scale::Full => 5,
    };
    let total_requests = (CLIENTS * REQUESTS_PER_CLIENT) as u64;
    println!(
        "Multi-query throughput: {total_requests} MATCHes, {CLIENTS} closed-loop clients, \
         data graph n={n} m={m}, best of {reps} reps per config\n"
    );

    let graph = data_graph(n, m, 0x5eed);
    let templates = templates(&graph, scale);

    // Stage the graph and every template on disk for the LOAD/MATCH verbs.
    let dir = std::env::temp_dir().join(format!("ceci-multiquery-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let write = |name: &str, g: &Graph| -> String {
        let path = dir.join(name);
        let mut f = std::fs::File::create(&path).expect("create graph file");
        io::write_labeled(g, &mut f).expect("write graph file");
        path.display().to_string()
    };
    let graph_path = write("data.graph", &graph);
    let query_paths: Vec<String> = templates
        .iter()
        .enumerate()
        .map(|(i, t)| write(&format!("q{i}.graph"), &t.pattern))
        .collect();

    // Differential pass first: optimized vs RAW, filter verdicts, zero
    // counts on impossible templates.
    let expected_counts = raw_differential(&graph_path, &query_paths, &templates);

    // Interleaved reps, best-of per config.
    let mut best_off: Option<RunOutcome> = None;
    let mut best_on: Option<RunOutcome> = None;
    for _ in 0..reps {
        let off = run_workload(unoptimized_config(), &graph_path, &query_paths);
        let on = run_workload(optimized_config(), &graph_path, &query_paths);
        assert_eq!(
            off.counts, expected_counts,
            "unoptimized server diverges from the differential pass"
        );
        assert_eq!(
            on.counts, expected_counts,
            "optimized server diverges from the differential pass"
        );
        let keep_min = |slot: &mut Option<RunOutcome>, candidate: RunOutcome| {
            if slot
                .as_ref()
                .map_or(true, |b| candidate.elapsed < b.elapsed)
            {
                *slot = Some(candidate);
            }
        };
        keep_min(&mut best_off, off);
        keep_min(&mut best_on, on);
    }
    let off = best_off.expect("at least one rep");
    let on = best_on.expect("at least one rep");

    let mut t = Table::new(vec!["template", "vertices", "edges", "count", "class"]);
    let mut template_rows = Vec::new();
    for (template, &count) in templates.iter().zip(&expected_counts) {
        let class = if template.impossible {
            "impossible"
        } else {
            "satisfiable"
        };
        t.row(vec![
            template.name.clone(),
            template.pattern.num_vertices().to_string(),
            template.pattern.num_edges().to_string(),
            count.to_string(),
            class.to_string(),
        ]);
        template_rows.push(
            JsonValue::object()
                .field("name", template.name.as_str())
                .field("vertices", template.pattern.num_vertices() as u64)
                .field("edges", template.pattern.num_edges() as u64)
                .field("count", count)
                .field("impossible", template.impossible),
        );
    }
    t.print();

    let qps = |o: &RunOutcome| total_requests as f64 / o.elapsed.as_secs_f64().max(1e-12);
    let speedup = qps(&on) / qps(&off).max(1e-12);
    println!("\nClosed-loop workload, best rep per config:\n");
    let mut t = Table::new(vec![
        "config", "elapsed", "qps", "builds", "rejects", "sf waits",
    ]);
    let config_row = |name: &str, o: &RunOutcome| {
        vec![
            name.to_string(),
            format!("{:.2} ms", o.elapsed.as_secs_f64() * 1e3),
            format!("{:.0}", qps(o)),
            o.snap.builds.to_string(),
            o.snap.filter_rejected.to_string(),
            o.snap.singleflight_waits.to_string(),
        ]
    };
    t.row(config_row("unoptimized", &off));
    t.row(config_row("optimized", &on));
    t.print();
    println!(
        "\nthroughput ratio optimized/unoptimized: {speedup:.2}x, \
         counts bit-identical across all {} templates",
        templates.len()
    );

    let snap_json = |o: &RunOutcome| {
        JsonValue::object()
            .field("elapsed_ns", o.elapsed.as_nanos() as u64)
            .field("throughput_qps", qps(o))
            .field("builds", o.snap.builds)
            .field("cache_hits", o.snap.cache_hits)
            .field("cache_misses", o.snap.cache_misses)
            .field("filter_rejected", o.snap.filter_rejected)
            .field("singleflight_waits", o.snap.singleflight_waits)
    };
    let json = JsonValue::object()
        .field(
            "workload",
            JsonValue::object()
                .field("clients", CLIENTS as u64)
                .field("requests", total_requests)
                .field("data_vertices", graph.num_vertices() as u64)
                .field("data_edges", graph.num_edges() as u64)
                .field("reps", reps as u64)
                .field("templates", JsonValue::Array(template_rows)),
        )
        .field("unoptimized", snap_json(&off))
        .field("optimized", snap_json(&on))
        .field("speedup", speedup)
        .field("counts_bit_identical", true)
        .to_pretty();

    let out_dir = std::path::Path::new("bench_results");
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("warning: cannot create {}: {e}", out_dir.display());
    } else {
        let path = out_dir.join("multiquery.json");
        match std::fs::write(&path, json) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn impossible_templates_have_zero_embeddings() {
        let graph = data_graph(300, 900, 0x5eed);
        for t in templates(&graph, Scale::Quick) {
            if !t.impossible {
                continue;
            }
            let query = ceci_query::QueryGraph::from_graph(&t.pattern).unwrap();
            let plan = ceci_query::QueryPlan::new(query, &graph);
            let ceci = ceci_core::Ceci::build(&graph, &plan);
            assert_eq!(
                ceci_core::count_embeddings(&graph, &plan, &ceci),
                0,
                "{}",
                t.name
            );
        }
    }
}
