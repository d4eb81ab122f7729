//! `repro stream` — incremental CECI maintenance vs from-scratch rebuild on
//! an SMFresh-style temporal batch sweep (PR 7).
//!
//! The workload replays a synthetic wiki-talk-shaped temporal stream against
//! a labeled base graph: the stream is written as a SNAP `src dst ts` file,
//! read back through the temporal loader, grouped into ~10k-edge mutation
//! batches by timestamp, and applied through the service registry's delta
//! overlay (with one mid-sweep CSR compaction). At every batch boundary,
//! for each registered query template, the sweep times
//!
//! * **maintain** — the continuous-query path: `batch_delta` (new/retired
//!   matches) over the two snapshots, which carries the embedding total
//!   forward without any index of the query;
//! * **repair** — the server's one cache-repair rung: the previous index's
//!   candidate sets re-tested at the batch's dirty endpoints
//!   (`QueryPlan::on_graph_patched`), then `Ceci::build_with` under the
//!   retained plan;
//! * **rebuild** — the from-scratch reference: fresh `QueryPlan` +
//!   `Ceci::build` + full `count_embeddings` on the post-batch snapshot.
//!
//! Counts are **asserted** bit-identical three ways at every boundary —
//! delta-maintained total ≡ rebuilt count ≡ count over the repaired
//! index — and `bench_results/stream.json` records per-batch wall times plus
//! the amortized speedups (target: maintenance ≥ 3× faster than rebuild,
//! excluding the initial build). A shortfall prints a warning rather than
//! failing the run (wall-clock ratios are host-dependent); count identity is
//! always asserted.
//!
//! A second, **served-shaped** sweep ([`served_sweep`]) asks the question
//! the serving layer's repair path poses, and answers it with the calls the
//! server makes: an entry holds a frozen index of one snapshot, a batch of
//! 1 / 100 / 1 000 / 10 000 mutations lands, and the next read either
//! repairs (the index's candidate sets patched at the batch's endpoints,
//! then the frozen build under the retained plan) or would have rebuilt
//! (the retained plan re-set on the snapshot by a candidate scan +
//! `Ceci::build_with`, the scan inside the timed region because a real
//! rebuild pays it). It records both costs per size on the wiki-talk
//! stand-in and **asserts** `repair_never_slower` (repair ≤
//! [`REPAIR_SLACK`] × rebuild at every size).

use std::time::Duration;

use ceci_core::{batch_delta, count_embeddings, BuildOptions, Ceci};
use ceci_graph::extract::extract_query;
use ceci_graph::io::{batch_by_timestamp, load_temporal};
use ceci_graph::{lid, vid, Graph, LabelSet, VertexId};
use ceci_query::{PaperQuery, QueryGraph, QueryPlan};
use ceci_service::{BatchOutcome, GraphRegistry};

use crate::harness::time;
use crate::json::JsonValue;
use crate::table::Table;
use crate::{Dataset, Scale};

/// Amortized rebuild/maintain wall-time ratio the incremental path is
/// expected to clear at 10k-edge batches.
const TARGET_SPEEDUP: f64 = 3.0;

/// How far a repair may exceed the rebuild it replaces, at any batch size,
/// before the served-shaped sweep fails.
const REPAIR_SLACK: f64 = 1.1;

/// Batch sizes of the served-shaped sweep.
const SERVED_BATCHES: [usize; 4] = [1, 100, 1_000, 10_000];

/// Timed repeats per cell of the served-shaped sweep; a cell reports its
/// quickest (interference on a shared host only ever adds time).
const SERVED_REPEATS: usize = 7;

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Deterministic labeled base graph: `n` vertices labeled uniformly from
/// {0,1,2}, `m` distinct random edges.
fn base_graph(n: u32, m: usize, seed: u64) -> (Graph, Vec<(VertexId, VertexId)>) {
    let mut s = seed | 1;
    let labels: Vec<LabelSet> = (0..n)
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
    (Graph::new(labels, &edges, false), edges)
}

/// Writes the add-stream as a SNAP temporal file (`src dst ts`, ts = batch
/// index) and reads it back through the loader — the batches the sweep
/// applies are exactly what `load_temporal` + `batch_by_timestamp` recover.
fn stage_stream(
    dir: &std::path::Path,
    n: u32,
    batches: usize,
    batch_size: usize,
    seed: u64,
) -> Vec<Vec<(VertexId, VertexId)>> {
    let mut s = seed | 1;
    let path = dir.join("stream.temporal");
    let mut text = String::from("# synthetic wiki-talk-style temporal stream\n");
    for ts in 0..batches {
        let mut written = 0usize;
        while written < batch_size {
            let a = (xorshift(&mut s) % n as u64) as u32;
            let b = (xorshift(&mut s) % n as u64) as u32;
            if a == b {
                continue;
            }
            text.push_str(&format!("{a} {b} {ts}\n"));
            written += 1;
        }
    }
    std::fs::write(&path, text).expect("write temporal stream");
    let edges = load_temporal(&path).expect("load temporal stream");
    let grouped = batch_by_timestamp(&edges, batch_size);
    assert_eq!(grouped.len(), batches, "one batch per timestamp");
    grouped
        .iter()
        .map(|batch| batch.iter().map(|e| (e.src, e.dst)).collect())
        .collect()
}

/// Per-query live state carried across batches.
struct LiveQuery {
    name: String,
    pattern: Graph,
    /// Plan built once at registration: the repair and `batch_delta` keep
    /// its root, tree and order across mutations.
    plan: QueryPlan,
    /// The repaired index of the latest snapshot (its candidate sets are
    /// the next repair's starting point).
    index: Ceci,
    /// Delta-maintained embedding total.
    total: u64,
}

/// The server's repair, split in its two timed halves: the plan over
/// `previous`'s candidate sets patched at the batch's endpoints, then the
/// frozen build on the new snapshot.
fn patch_sets(plan: &QueryPlan, previous: &Ceci, outcome: &BatchOutcome) -> QueryPlan {
    plan.on_graph_patched(
        &outcome.new_graph,
        previous.candidate_sets(),
        &outcome.endpoints,
    )
}

#[derive(Default)]
struct BatchRow {
    added: usize,
    deleted: usize,
    compacted: bool,
    dirty_vertices: usize,
    /// The registry's `apply_batch`: next snapshot, label-pair index, log.
    apply: Duration,
    sets: Duration,
    delta: Duration,
    build: Duration,
    rebuild_index: Duration,
    rebuild_count: Duration,
    counts: Vec<u64>,
}

impl BatchRow {
    fn maintain(&self) -> Duration {
        self.delta
    }
    fn repair(&self) -> Duration {
        self.sets + self.build
    }
    fn rebuild(&self) -> Duration {
        self.rebuild_index + self.rebuild_count
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs the sweep and writes `bench_results/stream.json`.
pub fn run(scale: Scale) {
    let (n, m, batches, batch_size, dels_per_batch) = match scale {
        Scale::Quick => (600_000u32, 1_200_000usize, 3usize, 10_000usize, 500usize),
        Scale::Full => (900_000u32, 1_800_000usize, 5usize, 10_000usize, 1_000usize),
    };
    let sizes: &[(usize, u64)] = match scale {
        Scale::Quick => &[(3, 7), (4, 11)],
        Scale::Full => &[(4, 7), (4, 19), (5, 23)],
    };
    println!(
        "Streaming maintenance: base n={n} m={m}, {batches} batches of {batch_size} adds + \
         {dels_per_batch} deletes, {} query templates\n",
        sizes.len()
    );

    let dir = std::env::temp_dir().join(format!("ceci-stream-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");

    let (graph, base_edges) = base_graph(n, m, 0x5eed);
    let add_batches = stage_stream(&dir, n, batches, batch_size, 0xfeed);
    // Deletions: distinct base edges, never re-deleted, drawn round-robin.
    let del_batches: Vec<Vec<(VertexId, VertexId)>> = (0..batches)
        .map(|b| base_edges[b * dels_per_batch..(b + 1) * dels_per_batch].to_vec())
        .collect();

    // Register the query templates against the base snapshot (the untimed
    // initial build the amortized gate excludes).
    let mut queries: Vec<LiveQuery> = sizes
        .iter()
        .map(|&(size, seed)| {
            let pattern = extract_query(&graph, size, seed, 50)
                .expect("extractable query template")
                .pattern;
            let query = QueryGraph::from_graph(&pattern).expect("valid query");
            let plan = QueryPlan::new(query, &graph);
            let index = Ceci::build(&graph, &plan);
            let total = count_embeddings(&graph, &plan, &index);
            LiveQuery {
                name: format!("q_s{size}_r{seed}"),
                pattern,
                plan,
                index,
                total,
            }
        })
        .collect();

    // Apply the stream through the registry's delta overlay, compacting the
    // CSR once mid-sweep so both regimes (overlay reads / post-compaction
    // reads) appear in the timings.
    let registry = GraphRegistry::new();
    let (entry, _) = registry.insert("g", graph);
    let compact_threshold = (batches / 2).max(1) * (batch_size + dels_per_batch) + 1;

    let mut rows: Vec<BatchRow> = Vec::new();
    for b in 0..batches {
        let (outcome, apply) =
            time(|| entry.apply_batch(&add_batches[b], &del_batches[b], compact_threshold, 64));
        let outcome = outcome.expect("in-range mutation batch");
        let mut row = BatchRow {
            added: outcome.added.len(),
            deleted: outcome.deleted.len(),
            compacted: outcome.compacted,
            dirty_vertices: outcome.endpoints.len(),
            apply,
            ..BatchRow::default()
        };
        for q in queries.iter_mut() {
            // Cache repair, first half: carry the candidate sets forward.
            let (on_new, sets_t) = time(|| patch_sets(&q.plan, &q.index, &outcome));
            // Continuous-query maintenance: carry the total forward by the
            // batch delta.
            let (delta, delta_t) = time(|| {
                batch_delta(
                    &outcome.old_graph,
                    &outcome.new_graph,
                    &q.plan,
                    &outcome.added,
                    &outcome.deleted,
                )
            });
            q.total = delta.apply_to(q.total);
            // Cache repair, second half: the frozen build over them.
            let (repaired, build_t) =
                time(|| Ceci::build_with(&outcome.new_graph, &on_new, BuildOptions::default()));
            // From-scratch reference on the same snapshot (fresh plan: the
            // initial candidate sets are graph-dependent).
            let ((rebuilt_plan, rebuilt_ceci), rebuild_index_t) = time(|| {
                let query = QueryGraph::from_graph(&q.pattern).expect("valid query");
                let plan = QueryPlan::new(query, &outcome.new_graph);
                let ceci = Ceci::build(&outcome.new_graph, &plan);
                (plan, ceci)
            });
            let (rebuilt_count, rebuild_count_t) =
                time(|| count_embeddings(&outcome.new_graph, &rebuilt_plan, &rebuilt_ceci));
            // The differential gate: all three agree, bit-identical.
            assert_eq!(
                q.total, rebuilt_count,
                "{} batch {b}: delta-maintained total diverges from rebuild",
                q.name
            );
            let repaired_count = count_embeddings(&outcome.new_graph, &q.plan, &repaired);
            assert_eq!(
                repaired_count, rebuilt_count,
                "{} batch {b}: repaired index diverges from rebuild",
                q.name
            );
            q.index = repaired;
            row.sets += sets_t;
            row.delta += delta_t;
            row.build += build_t;
            row.rebuild_index += rebuild_index_t;
            row.rebuild_count += rebuild_count_t;
            row.counts.push(rebuilt_count);
        }
        rows.push(row);
    }

    let mut t = Table::new(vec![
        "batch", "adds", "dels", "dirty", "apply", "maintain", "repair", "rebuild", "ratio",
    ]);
    for (b, row) in rows.iter().enumerate() {
        t.row(vec![
            format!("{b}{}", if row.compacted { "*" } else { "" }),
            row.added.to_string(),
            row.deleted.to_string(),
            row.dirty_vertices.to_string(),
            format!("{:.0} us", us(row.apply)),
            format!("{:.0} us", us(row.maintain())),
            format!("{:.0} us", us(row.repair())),
            format!("{:.0} us", us(row.rebuild())),
            format!("{:.1}x", us(row.rebuild()) / us(row.maintain()).max(1e-9)),
        ]);
    }
    t.print();
    println!("(* = batch triggered CSR compaction)");

    let sum = |f: fn(&BatchRow) -> Duration| -> Duration { rows.iter().map(f).sum() };
    let total_maintain = sum(BatchRow::maintain);
    let total_repair = sum(BatchRow::repair);
    let total_rebuild = sum(BatchRow::rebuild);
    let maintain_speedup = us(total_rebuild) / us(total_maintain).max(1e-9);
    let repair_speedup = us(sum(|r| r.rebuild_index)) / us(total_repair).max(1e-9);
    println!(
        "\namortized over {batches} batches: maintenance {maintain_speedup:.2}x faster than \
         rebuild (target {TARGET_SPEEDUP}x), cache repair {repair_speedup:.2}x faster than \
         index rebuild; counts bit-identical at every boundary"
    );
    if maintain_speedup < TARGET_SPEEDUP {
        println!("warning: maintenance speedup below target on this host/run");
    }

    let batch_rows: Vec<JsonValue> = rows
        .iter()
        .enumerate()
        .map(|(b, row)| {
            JsonValue::object()
                .field("batch", b as u64)
                .field("added", row.added)
                .field("deleted", row.deleted)
                .field("compacted", row.compacted)
                .field("dirty_vertices", row.dirty_vertices)
                .field("apply_us", us(row.apply))
                .field("sets_us", us(row.sets))
                .field("delta_us", us(row.delta))
                .field("build_us", us(row.build))
                .field("maintain_us", us(row.maintain()))
                .field("repair_us", us(row.repair()))
                .field("rebuild_index_us", us(row.rebuild_index))
                .field("rebuild_count_us", us(row.rebuild_count))
                .field("rebuild_us", us(row.rebuild()))
                .field(
                    "counts",
                    JsonValue::Array(row.counts.iter().map(|&c| c.into()).collect()),
                )
        })
        .collect();
    let query_rows: Vec<JsonValue> = queries
        .iter()
        .map(|q| {
            JsonValue::object()
                .field("name", q.name.as_str())
                .field("vertices", q.pattern.num_vertices())
                .field("edges", q.pattern.num_edges())
                .field("final_total", q.total)
        })
        .collect();
    let json = JsonValue::object()
        .field(
            "workload",
            JsonValue::object()
                .field("base_vertices", n as u64)
                .field("base_edges", m)
                .field("batches", batches)
                .field("batch_size", batch_size)
                .field("deletes_per_batch", dels_per_batch)
                .field("compact_threshold", compact_threshold)
                .field("queries", JsonValue::Array(query_rows)),
        )
        .field("batches", JsonValue::Array(batch_rows))
        .field("total_maintain_us", us(total_maintain))
        .field("total_repair_us", us(total_repair))
        .field("total_rebuild_us", us(total_rebuild))
        .field("maintain_speedup", maintain_speedup)
        .field("repair_speedup", repair_speedup)
        .field("target_speedup", TARGET_SPEEDUP)
        .field("counts_bit_identical", true)
        .field("served_sweep", served_sweep(scale))
        .to_pretty();

    let out_dir = std::path::Path::new("bench_results");
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("warning: cannot create {}: {e}", out_dir.display());
    } else {
        let path = out_dir.join("stream.json");
        match std::fs::write(&path, json) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    // Silence the unused-field lint path: the entry keeps the final snapshot.
    let _ = entry.pending();
}

/// The served-shaped sweep: per batch size, what the read after the batch
/// pays to repair an entry holding a frozen index of the pre-batch
/// snapshot, against what rebuilding it under the same plan would have cost.
fn served_sweep(scale: Scale) -> JsonValue {
    let graph = Dataset::Wt.build(scale);
    println!(
        "\nServed-shaped repair vs rebuild on the WT stand-in (n={} m={}), quickest of \
         {SERVED_REPEATS}:\n",
        graph.num_vertices(),
        graph.num_edges()
    );
    let n = graph.num_vertices() as u64;
    let plans: Vec<(PaperQuery, QueryPlan)> = [PaperQuery::Qg1, PaperQuery::Qg2]
        .into_iter()
        .map(|q| (q, QueryPlan::new(q.build(), &graph)))
        .collect();
    let (entry, _) = GraphRegistry::new().insert("wt", graph);
    let mut s = 0x5e7_feed_u64;
    let mut t = Table::new(vec![
        "batch", "apply", "query", "dirty", "repair", "rebuild", "ratio",
    ]);
    let mut rows: Vec<JsonValue> = Vec::new();
    let mut never_slower = true;
    for size in SERVED_BATCHES {
        let before = entry.graph();
        // stream-rw's mix: one deletion of a present edge per twenty
        // mutations, the rest additions between random vertices.
        let dels: Vec<(VertexId, VertexId)> = (0..size / 20)
            .filter_map(|_| {
                let a = vid((xorshift(&mut s) % n) as u32);
                let nbrs = before.neighbors(a);
                let b = *nbrs.get(xorshift(&mut s) as usize % nbrs.len().max(1))?;
                Some((a, b))
            })
            .collect();
        let adds: Vec<(VertexId, VertexId)> = (dels.len()..size)
            .map(|_| {
                let a = vid((xorshift(&mut s) % n) as u32);
                let b = vid((xorshift(&mut s) % n) as u32);
                (a, b)
            })
            .filter(|(a, b)| a != b)
            .collect();
        let (outcome, apply) = time(|| entry.apply_batch(&adds, &dels, usize::MAX, 64));
        let outcome = outcome.expect("in-range mutation batch");
        let after = &outcome.new_graph;
        let build = |plan: &QueryPlan| Ceci::build_with(after, plan, BuildOptions::default());
        for (q, plan) in &plans {
            // The entry holds a frozen index of `before`, whose candidate
            // sets the repair patches.
            let held = Ceci::build_with(&before, &plan.on_graph(&before), BuildOptions::default());
            let mut repair_t = Duration::MAX;
            let mut rebuild_t = Duration::MAX;
            for _ in 0..SERVED_REPEATS {
                let (repaired, took) = time(|| build(&patch_sets(plan, &held, &outcome)));
                repair_t = repair_t.min(took);
                // A full rebuild: the retained plan with candidate sets of
                // the snapshot from a scan, then the build.
                let (rebuilt, took) = time(|| build(&plan.on_graph(after)));
                rebuild_t = rebuild_t.min(took);
                assert_eq!(
                    count_embeddings(after, plan, &repaired),
                    count_embeddings(after, plan, &rebuilt),
                    "{} batch of {size}: repaired index diverges from rebuild",
                    q.name()
                );
            }
            let ratio = us(repair_t) / us(rebuild_t).max(1e-9);
            never_slower &= ratio <= REPAIR_SLACK;
            t.row(vec![
                outcome.applied().to_string(),
                format!("{:.0} us", us(apply)),
                q.name().to_string(),
                outcome.endpoints.len().to_string(),
                format!("{:.0} us", us(repair_t)),
                format!("{:.0} us", us(rebuild_t)),
                format!("{ratio:.2}x"),
            ]);
            rows.push(
                JsonValue::object()
                    .field("batch_size", size)
                    .field("applied", outcome.applied())
                    .field("apply_us", us(apply))
                    .field("query", q.name())
                    .field("dirty_vertices", outcome.endpoints.len())
                    .field("repair_us", us(repair_t))
                    .field("rebuild_us", us(rebuild_t))
                    .field("repair_over_rebuild", ratio),
            );
        }
    }
    t.print();
    assert!(
        never_slower,
        "a repair cost more than {REPAIR_SLACK}x the rebuild it replaces (table above)"
    );
    JsonValue::object()
        .field("dataset", "WT stand-in")
        .field("repeats", SERVED_REPEATS)
        .field("slack", REPAIR_SLACK)
        .field("rows", JsonValue::Array(rows))
        .field("repair_never_slower", never_slower)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_staging_round_trips_through_the_temporal_loader() {
        let dir = std::env::temp_dir().join(format!("ceci-stream-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let batches = stage_stream(&dir, 100, 3, 50, 0xfeed);
        assert_eq!(batches.len(), 3);
        assert!(batches.iter().all(|b| b.len() == 50));
        std::fs::remove_dir_all(&dir).ok();
    }
}
