//! Label-major ids move no work on a single-labeled graph.
//!
//! `LOAD` numbers vertices by ascending `(class, degree, file id)`
//! ([`rank_by_label_and_degree`]) so the filter can read one label's span
//! of each adjacency list. On a graph whose vertices carry one label each,
//! every candidate list lies in one class, inside which the order is the
//! `(degree, file id)` order the numbering had before. So a plan, its
//! index and its enumeration must do exactly the work they do under a
//! `(degree, file id)` numbering, built here from an edge list: the same
//! matching order, frontier degree sum (the re-plan price), TE / NTE entry
//! counts, embeddings, intersections and recursive calls.

use ceci_core::{enumerate_sequential, Ceci, CountSink, EnumOptions};
use ceci_graph::generators::{inject_random_labels, kronecker_default};
use ceci_graph::{extract_query, rank_by_label_and_degree, Graph, VertexId};
use ceci_query::{QueryGraph, QueryPlan};

/// `file_of` in ascending `(degree, file id)` order.
fn degree_order(file: &Graph) -> Vec<VertexId> {
    let mut order: Vec<VertexId> = file.vertices().collect();
    order.sort_by_key(|&v| (file.degree(v), v));
    order
}

/// `file` renumbered by `(degree, file id)`, rebuilt from its edge list.
fn rank_by_degree(file: &Graph) -> Graph {
    let file_of = degree_order(file);
    let mut rank_of = vec![VertexId(0); file.num_vertices()];
    for (r, &f) in file_of.iter().enumerate() {
        rank_of[f.index()] = VertexId::from_index(r);
    }
    let labels = file_of.iter().map(|&f| file.labels(f).clone()).collect();
    let mut edges = Vec::with_capacity(file.num_edges());
    for a in file.vertices() {
        for &b in file.neighbors(a).iter().filter(|&&b| a < b) {
            edges.push((rank_of[a.index()], rank_of[b.index()]));
        }
    }
    Graph::new(labels, &edges, false)
}

/// Everything a cache miss and its count-only drain do: the matching order
/// and the work counts.
fn work(graph: &Graph, query: &QueryGraph) -> (Vec<VertexId>, [u64; 9]) {
    let plan = QueryPlan::new(query.clone(), graph);
    let ceci = Ceci::build(graph, &plan);
    let stats = *ceci.stats();
    let options = EnumOptions {
        prune_redundant: true,
        ..EnumOptions::default()
    };
    let mut sink = CountSink::unbounded();
    let counters = enumerate_sequential(graph, &plan, &ceci, options, &mut sink);
    let counts = [
        stats.filter_scans,
        stats.te_entries_after_filter as u64,
        stats.nte_entries_after_filter as u64,
        stats.te_entries_after_refine as u64,
        stats.nte_entries_after_refine as u64,
        sink.count(),
        counters.embeddings,
        counters.intersection_ops,
        counters.recursive_calls,
    ];
    (plan.matching_order().to_vec(), counts)
}

#[test]
fn single_labeled_graphs_do_the_same_work_under_both_numberings() {
    let mut templates = 0;
    for (seed, labels) in [(11u64, 8u32), (12, 12), (13, 16), (14, 20)] {
        let file = inject_random_labels(&kronecker_default(10, 8, seed), labels, seed);
        let by_degree = rank_by_degree(&file);
        let (label_major, _) = rank_by_label_and_degree(&file);
        for t in 0..40u64 {
            let size = 3 + (t % 4) as usize;
            let Some(extracted) = extract_query(&file, size, seed * 1000 + t, 32) else {
                continue;
            };
            let query = QueryGraph::from_graph(&extracted.pattern).unwrap();
            assert_eq!(
                work(&by_degree, &query),
                work(&label_major, &query),
                "graph seed {seed} ({labels} labels), template {t} (size {size})"
            );
            templates += 1;
        }
    }
    assert!(templates >= 150, "only {templates} templates sampled");
}

#[test]
fn a_one_label_graph_ranks_the_same_under_both_keys() {
    let file = kronecker_default(10, 8, 7);
    let (_, ids) = rank_by_label_and_degree(&file);
    let ranked: Vec<VertexId> = file.vertices().map(|r| ids.file(r)).collect();
    assert_eq!(ranked, degree_order(&file));
}
