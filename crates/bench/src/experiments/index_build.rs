//! CECI construction scaling sweep (§6.4 companion).
//!
//! The paper's Figure 10 discussion notes that on large data graphs index
//! construction is a large — often dominant — share of end-to-end time.
//! This experiment measures the parallel BFS-filter fan-out directly: a
//! fixed query set (DFS-extracted labeled queries, plus the QG catalog's
//! structure) is built against a labeled power-law (Kronecker) stand-in at
//! 1..N build threads, and each build reports the filter/refine/merge
//! breakdown, the modeled build time (serial span + busiest worker's CPU
//! time — meaningful on hosts with fewer cores than workers, like the
//! enumeration scalability figures), and arena vs. total index bytes.
//!
//! Determinism is asserted on every run: each multi-thread build must
//! produce the same candidate-edge counts, pivots, cardinality total, and
//! exact index bytes as the 1-thread build. Results land in
//! `bench_results/index_build.json`.

use std::time::Duration;

use ceci_core::{BuildOptions, BuildStats, Ceci};
use ceci_graph::generators::{inject_random_labels, kronecker_default};
use ceci_graph::{extract_query, Graph};
use ceci_query::{QueryGraph, QueryPlan};

use crate::json::JsonValue;
use crate::table::{fmt_duration, fmt_speedup, Table};
use crate::Scale;

/// Thread counts swept.
pub const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Builds the labeled power-law stand-in: a Kronecker (R-MAT) core with a
/// small uniform label alphabet, so per-node candidate frontiers stay large
/// and the filter fan-out has real work per frontier vertex.
fn powerlaw_labeled(scale: Scale) -> Graph {
    let (kron_scale, edge_factor) = match scale {
        Scale::Quick => (13, 8),
        Scale::Full => (14, 8),
    };
    let seed = 0xCEC1_1DE8;
    let core = kronecker_default(kron_scale, edge_factor, seed);
    inject_random_labels(&core, 4, seed + 1)
}

/// Fixed query set: DFS-extracted labeled queries (guaranteed non-empty
/// candidate structure) at a few sizes.
fn query_set(graph: &Graph, scale: Scale) -> Vec<(String, QueryGraph)> {
    let per_size = match scale {
        Scale::Quick => 2,
        Scale::Full => 4,
    };
    let mut out = Vec::new();
    for size in [6usize, 10, 14] {
        let mut found = 0;
        let mut seed = size as u64 * 7_001;
        while found < per_size && seed < size as u64 * 7_001 + 10_000 {
            if let Some(q) = extract_query(graph, size, seed, 5) {
                if let Ok(qg) = QueryGraph::from_graph(&q.pattern) {
                    out.push((format!("q{size}_{found}"), qg));
                    found += 1;
                }
            }
            seed += 1;
        }
    }
    out
}

struct BuildSample {
    threads: usize,
    modeled: Duration,
    stats: BuildStats,
}

/// A digest of the frozen index used for the determinism cross-check.
#[derive(Debug, PartialEq, Eq)]
struct IndexDigest {
    te_entries: usize,
    nte_entries: usize,
    pivots: usize,
    size_bytes: usize,
    arena_bytes: usize,
    total_cardinality: u64,
}

fn digest(ceci: &Ceci) -> IndexDigest {
    IndexDigest {
        te_entries: ceci.stats().te_entries_after_refine,
        nte_entries: ceci.stats().nte_entries_after_refine,
        pivots: ceci.pivots().len(),
        size_bytes: ceci.size_bytes(),
        arena_bytes: ceci.arena_bytes(),
        total_cardinality: ceci.total_cardinality(),
    }
}

/// Runs the sweep and writes `bench_results/index_build.json`.
pub fn run(scale: Scale) {
    run_with(scale, None)
}

/// [`run`] with an optional `--build-threads` pin: when set, the sweep is
/// `{1, n}` (1 stays so the speedup column is still meaningful).
pub fn run_with(scale: Scale, build_threads: Option<usize>) {
    let sweep: Vec<usize> = match build_threads {
        Some(n) if n > 1 => vec![1, n],
        Some(_) => vec![1],
        None => THREADS.to_vec(),
    };
    println!(
        "Index construction scaling: parallel BFS filter, labeled power-law stand-in, \
         scale {scale:?}, threads {sweep:?}\n"
    );
    let graph = powerlaw_labeled(scale);
    println!(
        "graph: {} vertices, {} edges, {} labels\n",
        graph.num_vertices(),
        graph.num_edges(),
        graph.num_labels()
    );
    let queries = query_set(&graph, scale);

    let mut rows = Vec::new();
    let mut per_query_speedup4 = Vec::new();
    for (name, query) in &queries {
        let plan = QueryPlan::new(query.clone(), &graph);
        let mut samples: Vec<BuildSample> = Vec::new();
        let mut reference: Option<IndexDigest> = None;
        for &threads in sweep.iter() {
            // Best-of-3 to tame timer noise on small hosts.
            let mut best: Option<(Duration, BuildStats, IndexDigest)> = None;
            for _ in 0..3 {
                let ceci = Ceci::build_with(
                    &graph,
                    &plan,
                    BuildOptions {
                        threads,
                        ..Default::default()
                    },
                );
                let stats = *ceci.stats();
                let modeled = stats.modeled_build_time();
                let d = digest(&ceci);
                if best.as_ref().map(|(m, _, _)| modeled < *m).unwrap_or(true) {
                    best = Some((modeled, stats, d));
                }
            }
            let (modeled, stats, d) = best.expect("at least one build");
            match &reference {
                None => reference = Some(d),
                Some(r) => assert_eq!(
                    r, &d,
                    "{name}: {threads}-thread build diverges from 1-thread build"
                ),
            }
            samples.push(BuildSample {
                threads,
                modeled,
                stats,
            });
        }

        let base = samples[0].modeled;
        let mut t = Table::new(vec![
            "threads", "modeled", "filter", "refine", "merge", "busy max", "speedup",
        ]);
        for s in &samples {
            let speedup = base.as_secs_f64() / s.modeled.as_secs_f64().max(1e-9);
            if s.threads == 4 {
                per_query_speedup4.push(speedup);
            }
            t.row(vec![
                format!("{}", s.threads),
                fmt_duration(s.modeled),
                fmt_duration(s.stats.filter_time),
                fmt_duration(s.stats.refine_time),
                fmt_duration(s.stats.merge_time),
                fmt_duration(s.stats.filter_busy_max),
                fmt_speedup(speedup),
            ]);
            rows.push(
                JsonValue::object()
                    .field("query", name.as_str())
                    .field("threads", s.threads)
                    .field("modeled_build_ms", s.modeled.as_secs_f64() * 1e3)
                    .field("filter_ms", s.stats.filter_time.as_secs_f64() * 1e3)
                    .field("refine_ms", s.stats.refine_time.as_secs_f64() * 1e3)
                    .field("merge_ms", s.stats.merge_time.as_secs_f64() * 1e3)
                    .field(
                        "fanout_wall_ms",
                        s.stats.filter_fanout_wall.as_secs_f64() * 1e3,
                    )
                    .field(
                        "filter_busy_max_ms",
                        s.stats.filter_busy_max.as_secs_f64() * 1e3,
                    )
                    .field(
                        "filter_busy_total_ms",
                        s.stats.filter_busy_total.as_secs_f64() * 1e3,
                    )
                    .field("speedup_vs_1t", speedup)
                    .field("index_bytes", s.stats.size_bytes as u64)
                    .field("arena_bytes", s.stats.arena_bytes as u64)
                    .field("te_entries", s.stats.te_entries_after_refine as u64)
                    .field("nte_entries", s.stats.nte_entries_after_refine as u64),
            );
        }
        println!("{name} (query {} vertices):", query.num_vertices());
        t.print();
        println!();
    }

    let geo4 = crate::harness::geometric_mean(&per_query_speedup4);
    println!(
        "geometric-mean modeled speedup at 4 threads vs 1: {}",
        fmt_speedup(geo4)
    );

    let json = JsonValue::object()
        .field("graph_vertices", graph.num_vertices() as u64)
        .field("graph_edges", graph.num_edges() as u64)
        .field("geomean_speedup_4t", geo4)
        .field("builds", JsonValue::Array(rows));
    crate::harness::persist("index_build", &json);
}
