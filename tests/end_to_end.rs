//! End-to-end pipelines through the public API: loaders → plan → index →
//! enumeration, plus first-k semantics and the facade prelude.

use ceci::prelude::*;
use ceci_graph::generators::{erdos_renyi, inject_random_labels, kronecker_default};
use ceci_graph::io;

#[test]
fn text_loader_to_enumeration() {
    // A labeled t/v/e file: two A-B-C triangles sharing the A vertex.
    let text = "\
t 5 6
v 0 0 4
v 1 1 2
v 2 2 2
v 3 1 2
v 4 2 2
e 0 1
e 1 2
e 2 0
e 0 3
e 3 4
e 4 0
";
    let graph = io::read_labeled(text.as_bytes()).unwrap();
    let query =
        QueryGraph::with_labels(&[lid(0), lid(1), lid(2)], &[(0, 1), (1, 2), (2, 0)]).unwrap();
    let plan = QueryPlan::new(query, &graph);
    let ceci = Ceci::build(&graph, &plan);
    let found = ceci::core::collect_embeddings(&graph, &plan, &ceci);
    assert_eq!(found.len(), 2);
}

#[test]
fn snap_loader_to_triangle_count() {
    let text = "# snap-style\n1 2\n2 3\n3 1\n3 4\n4 5\n5 3\n";
    let graph = io::read_edge_list(text.as_bytes(), false).unwrap();
    let plan = QueryPlan::new(PaperQuery::Qg1.build(), &graph);
    let ceci = Ceci::build(&graph, &plan);
    assert_eq!(ceci::core::count_embeddings(&graph, &plan, &ceci), 2);
}

#[test]
fn binary_roundtrip_preserves_results() {
    let graph = inject_random_labels(&erdos_renyi(120, 400, 5), 4, 6);
    let mut buf = Vec::new();
    io::write_binary(&graph, &mut buf).unwrap();
    let graph2 = io::read_binary(&buf[..]).unwrap();
    let query = QueryGraph::with_labels(&[lid(0), lid(1)], &[(0, 1)]).unwrap();
    let plan1 = QueryPlan::new(query.clone(), &graph);
    let plan2 = QueryPlan::new(query, &graph2);
    let c1 = Ceci::build(&graph, &plan1);
    let c2 = Ceci::build(&graph2, &plan2);
    assert_eq!(
        ceci::core::collect_embeddings(&graph, &plan1, &c1),
        ceci::core::collect_embeddings(&graph2, &plan2, &c2)
    );
}

#[test]
fn first_k_returns_exactly_k_valid_embeddings() {
    let graph = kronecker_default(9, 6, 12);
    let plan = QueryPlan::new(PaperQuery::Qg1.build(), &graph);
    let ceci = Ceci::build(&graph, &plan);
    let total = ceci::core::count_embeddings(&graph, &plan, &ceci);
    assert!(total > 1024, "stand-in too small for the first-1024 check");
    let result = enumerate_parallel(
        &graph,
        &plan,
        &ceci,
        &ParallelOptions {
            workers: 4,
            limit: Some(1024),
            collect: true,
            ..Default::default()
        },
    );
    let got = result.embeddings.unwrap();
    assert_eq!(got.len(), 1024);
    for emb in &got {
        assert!(ceci::core::is_valid_embedding(&graph, &plan, emb));
    }
}

#[test]
fn extracted_queries_always_match_their_witness() {
    let graph = inject_random_labels(&erdos_renyi(200, 700, 8), 6, 9);
    for size in [3usize, 5, 8] {
        let extracted = ceci_graph::extract_query(&graph, size, size as u64, 10).unwrap();
        let query = QueryGraph::from_graph(&extracted.pattern).unwrap();
        let plan = QueryPlan::new(query, &graph);
        let ceci = Ceci::build(&graph, &plan);
        let count = ceci::core::count_embeddings(&graph, &plan, &ceci);
        assert!(count >= 1, "size {size}: extracted query must have a match");
    }
}

#[test]
fn empty_result_is_graceful() {
    // A query needing label 9 that the data graph lacks.
    let graph = Graph::unlabeled(10, &[(vid(0), vid(1))]);
    let query = QueryGraph::with_labels(&[lid(9), lid(9)], &[(0, 1)]).unwrap();
    let plan = QueryPlan::new(query, &graph);
    let ceci = Ceci::build(&graph, &plan);
    assert_eq!(ceci.pivots().len(), 0);
    assert_eq!(ceci::core::count_embeddings(&graph, &plan, &ceci), 0);
    let par = enumerate_parallel(&graph, &plan, &ceci, &ParallelOptions::default());
    assert_eq!(par.total_embeddings, 0);
}

#[test]
fn single_vertex_query_counts_label_matches() {
    let graph = inject_random_labels(&erdos_renyi(50, 100, 2), 2, 3);
    let query = QueryGraph::with_labels(&[lid(0)], &[]).unwrap();
    let plan = QueryPlan::new(query, &graph);
    let ceci = Ceci::build(&graph, &plan);
    let count = ceci::core::count_embeddings(&graph, &plan, &ceci);
    // Every label-0 vertex is an embedding.
    assert_eq!(count, graph.vertices_with_label(lid(0)).len() as u64);
}

/// The NLC index is the label-major numbering: the ranked copy counts
/// neighbour labels from class spans, and its matches are the file graph's.
/// Symmetry breaking compares ids, so each automorphism class may be found
/// through another representative; the image vertex sets, with
/// multiplicity, may not move.
#[test]
fn nlc_index_does_not_change_results() {
    let plain = inject_random_labels(&erdos_renyi(100, 350, 4), 3, 7);
    let (indexed, ids) = ceci_graph::rank_by_label_and_degree(&plain);
    for size in 3..=5 {
        let extracted = ceci_graph::extract_query(&plain, size, size as u64, 32).unwrap();
        let query = QueryGraph::from_graph(&extracted.pattern).unwrap();
        let images = |graph: &Graph, to_file: &dyn Fn(VertexId) -> VertexId| {
            let plan = QueryPlan::new(query.clone(), graph);
            let ceci = Ceci::build(graph, &plan);
            let mut found: Vec<Vec<VertexId>> = ceci::core::collect_embeddings(graph, &plan, &ceci)
                .into_iter()
                .map(|m| {
                    let mut image: Vec<VertexId> = m.into_iter().map(to_file).collect();
                    image.sort_unstable();
                    image
                })
                .collect();
            found.sort_unstable();
            found
        };
        let want = images(&plain, &|v| v);
        assert!(!want.is_empty(), "size {size}");
        assert_eq!(images(&indexed, &|r| ids.file(r)), want, "size {size}");
    }
}
