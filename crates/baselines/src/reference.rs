//! Brute-force reference enumerator — the correctness oracle.
//!
//! Deliberately shares almost nothing with the CECI machinery: it walks
//! query vertices in plain id order, tries every label-compatible data
//! vertex (every neighbor of one assigned neighbor's image, once there is
//! one), and checks *all* adjacent assigned query vertices by direct edge
//! lookup. Slow, obvious, and easy to audit; every other engine is tested
//! against it. Counting visits embeddings without storing them, so the
//! oracle also fits runs with 10^8 embeddings (`repro kernels`).

use ceci_graph::{Graph, VertexId};
use ceci_query::{OrderConstraint, QueryGraph};

/// Enumerates every isomorphic embedding of `query` in `graph`, subject to
/// optional symmetry-breaking `constraints` (`map(smaller) < map(larger)`).
///
/// Returns embeddings as `mapping[query vertex] = data vertex`, sorted
/// lexicographically.
pub fn enumerate_all(
    graph: &Graph,
    query: &QueryGraph,
    constraints: &[OrderConstraint],
) -> Vec<Vec<VertexId>> {
    let mut out = Vec::new();
    visit_all(graph, query, constraints, &mut |mapping| {
        out.push(mapping.iter().map(|m| m.unwrap()).collect());
    });
    out.sort();
    out
}

/// Counts embeddings without materializing them.
pub fn count_all(graph: &Graph, query: &QueryGraph, constraints: &[OrderConstraint]) -> u64 {
    let mut count = 0u64;
    visit_all(graph, query, constraints, &mut |_| count += 1);
    count
}

fn visit_all(
    graph: &Graph,
    query: &QueryGraph,
    constraints: &[OrderConstraint],
    visit: &mut dyn FnMut(&[Option<VertexId>]),
) {
    let mut mapping: Vec<Option<VertexId>> = vec![None; query.num_vertices()];
    rec(graph, query, constraints, 0, &mut mapping, visit);
}

fn rec(
    graph: &Graph,
    query: &QueryGraph,
    constraints: &[OrderConstraint],
    depth: usize,
    mapping: &mut Vec<Option<VertexId>>,
    visit: &mut dyn FnMut(&[Option<VertexId>]),
) {
    let n = query.num_vertices();
    if depth == n {
        visit(mapping);
        return;
    }
    let u = VertexId(depth as u32);
    // Every image of `u` neighbors the image of each assigned query
    // neighbor, so the shortest such adjacency list holds them all; with
    // none assigned yet, seed from the label index of the rarest member
    // label.
    let anchor = query
        .neighbors(u)
        .iter()
        .filter_map(|w| mapping[w.index()])
        .min_by_key(|&image| graph.neighbors(image).len());
    let candidates = match anchor {
        Some(image) => graph.neighbors(image),
        None => {
            let seed = query
                .labels(u)
                .iter()
                .min_by_key(|&l| graph.vertices_with_label(l).len())
                .expect("non-empty label set");
            graph.vertices_with_label(seed)
        }
    };
    for &v in candidates {
        // Injectivity: a query has a handful of vertices, so the partial
        // mapping itself is the used set.
        if mapping.contains(&Some(v)) {
            continue;
        }
        if !query.labels(u).is_subset_of(graph.labels(v)) {
            continue;
        }
        // Every query edge to an assigned vertex must exist in the graph.
        let edges_ok = query.neighbors(u).iter().all(|&w| {
            mapping[w.index()]
                .map(|img| graph.has_edge(v, img))
                .unwrap_or(true)
        });
        if !edges_ok {
            continue;
        }
        // Symmetry constraints against assigned endpoints.
        let sym_ok = constraints.iter().all(|c| {
            if c.smaller == u {
                mapping[c.larger.index()].map(|img| v < img).unwrap_or(true)
            } else if c.larger == u {
                mapping[c.smaller.index()]
                    .map(|img| img < v)
                    .unwrap_or(true)
            } else {
                true
            }
        });
        if !sym_ok {
            continue;
        }
        mapping[u.index()] = Some(v);
        rec(graph, query, constraints, depth + 1, mapping, visit);
        mapping[u.index()] = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceci_graph::vid;
    use ceci_query::nec::break_symmetry;
    use ceci_query::PaperQuery;

    #[test]
    fn triangle_counts_with_and_without_breaking() {
        // Two triangles sharing an edge: 0-1-2, 1-2-3.
        let graph = Graph::unlabeled(
            4,
            &[
                (vid(0), vid(1)),
                (vid(1), vid(2)),
                (vid(2), vid(0)),
                (vid(1), vid(3)),
                (vid(2), vid(3)),
            ],
        );
        let q = PaperQuery::Qg1.build();
        assert_eq!(count_all(&graph, &q, &[]), 12); // 2 triangles × 3! autos
        let (constraints, complete) = break_symmetry(&q, 1_000_000);
        assert!(complete);
        assert_eq!(count_all(&graph, &q, &constraints), 2);
    }

    #[test]
    fn square_count() {
        // 4-cycle data graph contains exactly one square.
        let graph = Graph::unlabeled(
            4,
            &[
                (vid(0), vid(1)),
                (vid(1), vid(2)),
                (vid(2), vid(3)),
                (vid(3), vid(0)),
            ],
        );
        let q = PaperQuery::Qg2.build();
        let (constraints, _) = break_symmetry(&q, 1_000_000);
        assert_eq!(count_all(&graph, &q, &constraints), 1);
        // Without breaking: |Aut(C4)| = 8 listings.
        assert_eq!(count_all(&graph, &q, &[]), 8);
    }

    #[test]
    fn labeled_matching_respects_labels() {
        use ceci_graph::{lid, LabelSet};
        let graph = Graph::new(
            vec![
                LabelSet::single(lid(0)),
                LabelSet::single(lid(1)),
                LabelSet::single(lid(1)),
            ],
            &[(vid(0), vid(1)), (vid(0), vid(2))],
            false,
        );
        let q = ceci_query::QueryGraph::with_labels(&[lid(0), lid(1)], &[(0, 1)]).unwrap();
        let found = enumerate_all(&graph, &q, &[]);
        assert_eq!(found, vec![vec![vid(0), vid(1)], vec![vid(0), vid(2)]]);
    }

    #[test]
    fn no_match_returns_empty() {
        let graph = Graph::unlabeled(3, &[(vid(0), vid(1))]);
        let q = PaperQuery::Qg1.build();
        assert!(enumerate_all(&graph, &q, &[]).is_empty());
    }
}
