//! Integration tests for the streaming-mutation subsystem: the temporal
//! edge-list loader, the label-pair index maintained across batches, and
//! the differential invariant that repaired-index counts (the server's one
//! repair rung, [`repair`]) and running [`batch_delta`] totals stay
//! bit-identical to a from-scratch rebuild at every batch boundary. The
//! registry's applied sets, snapshots and compaction are checked against an
//! edge-set model in `crates/service/src/registry.rs`; served batches —
//! every add before every delete, `EVENT DELTA` totals — are the seeded
//! replay's (`crates/service/src/sim.rs`).

use std::collections::BTreeSet;
use std::io::Cursor;

use ceci_core::{batch_delta, count_embeddings, Ceci};
use ceci_graph::extract::extract_query;
use ceci_graph::generators::{erdos_renyi, inject_random_labels};
use ceci_graph::io::{batch_by_timestamp, load_temporal, read_temporal};
use ceci_graph::{vid, Graph, VertexId};
use ceci_query::{QueryGraph, QueryPlan};
use ceci_service::{BatchOutcome, GraphRegistry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn small_graph(n: usize, m: usize, seed: u64) -> Graph {
    inject_random_labels(&erdos_renyi(n, m, seed), 3, seed.wrapping_add(1))
}

fn pattern_plan(graph: &Graph, size: usize, seed: u64) -> QueryPlan {
    let pattern = extract_query(graph, size, seed, 50)
        .expect("extractable query")
        .pattern;
    let query = QueryGraph::from_graph(&pattern).unwrap();
    QueryPlan::new(query, graph)
}

/// From-scratch reference: fresh plan (initial candidates are
/// graph-dependent) + fresh index on the given snapshot.
fn rebuild_count(graph: &Graph, pattern_source: &QueryPlan) -> u64 {
    let query = pattern_source.query().clone();
    let plan = QueryPlan::new(query, graph);
    let ceci = Ceci::build(graph, &plan);
    count_embeddings(graph, &plan, &ceci)
}

/// The server's one repair rung: `previous`'s candidate sets re-tested at
/// the batch's endpoints under the same root, order and symmetry, then the
/// frozen build on the new snapshot over them. The patched plan is what a
/// repaired cache entry keeps, so the next batch patches from it.
fn repair(previous: &QueryPlan, outcome: &BatchOutcome) -> (QueryPlan, Ceci) {
    let sets = previous.candidate_sets();
    let plan = previous.on_graph_patched(&outcome.new_graph, sets, &outcome.endpoints);
    let ceci = Ceci::build(&outcome.new_graph, &plan);
    (plan, ceci)
}

/// Undirected edge set of a graph, canonically oriented.
fn edge_set(graph: &Graph) -> BTreeSet<(u32, u32)> {
    let mut set = BTreeSet::new();
    for a in 0..graph.num_vertices() as u32 {
        for &b in graph.neighbors(vid(a)) {
            if a < b.0 {
                set.insert((a, b.0));
            }
        }
    }
    set
}

/// An applicable edge batch: pairs oriented `(lo, hi)` in the vertex space.
type EdgeBatch = (Vec<(VertexId, VertexId)>, Vec<(VertexId, VertexId)>);

/// Random mutation batch against the current edge set: `adds` absent
/// pairs, `dels` present ones.
fn random_batch(
    rng: &mut StdRng,
    n: u32,
    edges: &BTreeSet<(u32, u32)>,
    adds: usize,
    dels: usize,
) -> EdgeBatch {
    let mut add = Vec::new();
    while add.len() < adds {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a == b {
            continue;
        }
        let key = (a.min(b), a.max(b));
        if !edges.contains(&key) && !add.contains(&(vid(key.0), vid(key.1))) {
            add.push((vid(key.0), vid(key.1)));
        }
    }
    let pool: Vec<(u32, u32)> = edges.iter().copied().collect();
    let mut del = Vec::new();
    while del.len() < dels.min(pool.len()) {
        let &(a, b) = &pool[rng.gen_range(0..pool.len())];
        if !del.contains(&(vid(a), vid(b))) {
            del.push((vid(a), vid(b)));
        }
    }
    (add, del)
}

#[test]
fn temporal_loader_sorts_stably_and_batches_on_timestamps() {
    let file = "# comment\n\
                % also a comment\n\
                3 4 20\n\
                \n\
                0 1 10\n\
                5 6 20\n\
                7 8\n\
                2 3 10\n";
    let edges = read_temporal(Cursor::new(file)).unwrap();
    // Missing timestamp defaults to 0 and sorts first; equal timestamps
    // keep file order (stable sort).
    let got: Vec<(u32, u32, u64)> = edges.iter().map(|e| (e.src.0, e.dst.0, e.ts)).collect();
    assert_eq!(
        got,
        vec![(7, 8, 0), (0, 1, 10), (2, 3, 10), (3, 4, 20), (5, 6, 20),]
    );

    // A batch boundary never splits a timestamp: batch_size 1 still groups
    // the two ts=10 edges (and the two ts=20 edges) together.
    let batches = batch_by_timestamp(&edges, 1);
    let sizes: Vec<usize> = batches.iter().map(|b| b.len()).collect();
    assert_eq!(sizes, vec![1, 2, 2]);
    for batch in &batches {
        let first = batch[0].ts;
        assert!(batch.iter().all(|e| e.ts == first) || batch.len() > 1);
    }

    // Malformed rows fail with the offending line number in the message.
    let err = read_temporal(Cursor::new("0 1 5\nbogus\n")).unwrap_err();
    assert!(err.to_string().contains('2'), "error names line 2: {err}");
}

#[test]
fn temporal_loader_round_trips_through_a_file() {
    let dir = std::env::temp_dir().join(format!("ceci-stream-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("stream.txt");
    std::fs::write(&path, "0 1 1\n2 3 2\n4 5 2\n").unwrap();
    let edges = load_temporal(&path).unwrap();
    assert_eq!(edges.len(), 3);
    assert_eq!(batch_by_timestamp(&edges, 2).len(), 2);

    // A missing file reports the path, not just the raw I/O error.
    let missing = dir.join("nope.txt");
    let err = load_temporal(&missing).unwrap_err();
    assert!(err.to_string().contains("nope.txt"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn incremental_maintenance_is_bit_identical_to_rebuild() {
    let graph = small_graph(300, 1_000, 11);
    let registry = GraphRegistry::new();
    let (entry, _) = registry.insert("g", graph);

    // Three live queries of different shapes, each with a repaired index
    // and a running total maintained purely through batch deltas.
    let snapshot = entry.graph();
    let mut live: Vec<(QueryPlan, Ceci, u64)> = [(3usize, 5u64), (4, 13), (4, 29)]
        .iter()
        .map(|&(size, seed)| {
            let plan = pattern_plan(&snapshot, size, seed);
            let ceci = Ceci::build(&snapshot, &plan);
            let total = count_embeddings(&snapshot, &plan, &ceci);
            (plan, ceci, total)
        })
        .collect();

    let mut rng = StdRng::seed_from_u64(4242);
    let mut edges = edge_set(&snapshot);
    for round in 0..6 {
        let (adds, dels) = random_batch(&mut rng, 300, &edges, 30, 10);
        let outcome = entry.apply_batch(&adds, &dels, usize::MAX, 64).unwrap();
        for &(a, b) in &outcome.added {
            edges.insert((a.0.min(b.0), a.0.max(b.0)));
        }
        for &(a, b) in &outcome.deleted {
            edges.remove(&(a.0.min(b.0), a.0.max(b.0)));
        }

        for (plan, index, total) in &mut live {
            let delta = batch_delta(
                &outcome.old_graph,
                &outcome.new_graph,
                plan,
                &outcome.added,
                &outcome.deleted,
            );
            *total = delta.apply_to(*total);

            let expected = rebuild_count(&outcome.new_graph, plan);
            // Repaired index enumerates the same count as a fresh build...
            (*plan, *index) = repair(plan, &outcome);
            let repaired_count = count_embeddings(&outcome.new_graph, plan, index);
            assert_eq!(repaired_count, expected, "repair diverged at round {round}");
            // ...and the delta-maintained running total tracks it too.
            assert_eq!(*total, expected, "delta total diverged at round {round}");
        }
    }
}

#[test]
fn single_edge_patches_match_rebuild_on_a_sparse_graph() {
    // Large vertex count relative to the mutation: the repair re-tests two
    // endpoints of 2 000 vertices.
    let graph = small_graph(2_000, 6_000, 23);
    let registry = GraphRegistry::new();
    let (entry, _) = registry.insert("g", graph);

    let snapshot = entry.graph();
    let mut plan = pattern_plan(&snapshot, 4, 17);

    // One lone ADDEDGE, then one lone DELEDGE of an existing edge.
    let add = {
        let edges = edge_set(&snapshot);
        let mut rng = StdRng::seed_from_u64(5);
        loop {
            let a = rng.gen_range(0..2_000u32);
            let b = rng.gen_range(0..2_000u32);
            if a != b && !edges.contains(&(a.min(b), a.max(b))) {
                break (vid(a.min(b)), vid(a.max(b)));
            }
        }
    };
    let del = {
        let e = *edge_set(&snapshot).iter().next().unwrap();
        (vid(e.0), vid(e.1))
    };

    for (adds, dels) in [(vec![add], vec![]), (vec![], vec![del])] {
        let outcome = entry.apply_batch(&adds, &dels, usize::MAX, 16).unwrap();
        assert_eq!(outcome.applied(), 1);
        let (next, index) = repair(&plan, &outcome);
        let got = count_embeddings(&outcome.new_graph, &next, &index);
        assert_eq!(got, rebuild_count(&outcome.new_graph, &next));
        plan = next;
    }
}

#[test]
fn maintained_label_pair_index_stays_sound_across_batches() {
    // The clone-and-absorb label-pair maintenance must only ever
    // overestimate: for every label pair the maintained maximum is >= the
    // exact maximum of a fresh rebuild on the mutated graph.
    let mut graph = small_graph(150, 500, 31);
    graph.build_label_pair_index();
    let registry = GraphRegistry::new();
    let (entry, _) = registry.insert("g", graph);

    let mut rng = StdRng::seed_from_u64(8);
    let mut edges = edge_set(&entry.graph());
    for _ in 0..5 {
        let (adds, dels) = random_batch(&mut rng, 150, &edges, 15, 8);
        let outcome = entry.apply_batch(&adds, &dels, usize::MAX, 32).unwrap();
        for &(a, b) in &outcome.added {
            edges.insert((a.0.min(b.0), a.0.max(b.0)));
        }
        for &(a, b) in &outcome.deleted {
            edges.remove(&(a.0.min(b.0), a.0.max(b.0)));
        }

        let maintained = outcome.new_graph.label_pair_index().cloned();
        let maintained = maintained.expect("mutated snapshot keeps its label-pair index");
        // Built from scratch: on a clone the index is already there and
        // `build_label_pair_index` would hand the maintained one back.
        let mut exact = from_edge_set(&outcome.new_graph, &edges);
        exact.build_label_pair_index();
        let exact = exact.label_pair_index().unwrap();
        let labels = outcome.new_graph.num_labels();
        for l in 0..labels {
            for m in 0..labels {
                let (l, m) = (ceci_graph::lid(l), ceci_graph::lid(m));
                assert!(
                    maintained.max_count(l, m) >= exact.max_count(l, m),
                    "maintained index underestimates pair ({l:?}, {m:?})"
                );
            }
        }
    }
}

/// A graph built from scratch (no optional index) over `graph`'s labels
/// and the given edge set.
fn from_edge_set(graph: &Graph, edges: &BTreeSet<(u32, u32)>) -> Graph {
    let labels = graph.vertices().map(|v| graph.labels(v).clone()).collect();
    let edges: Vec<_> = edges.iter().map(|&(a, b)| (vid(a), vid(b))).collect();
    Graph::new(labels, &edges, false)
}
