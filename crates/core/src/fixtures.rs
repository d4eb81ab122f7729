//! Test fixtures, including the paper's running example.
//!
//! The Figure 1 / Figure 3 example is reconstructed exactly from the paper's
//! prose: query `u1(A)–u2(B)–u3(C)–u4(D)–u5(E)` with edges
//! `{u1u2, u1u3, u2u3, u2u4, u3u4, u3u5}`, and a 15-vertex data graph whose
//! CECI tables, cascades, cardinalities, and two embeddings
//! `{v1,v3,v4,v11,v12}` and `{v1,v5,v6,v13,v14}` all match the worked
//! example. Exposed publicly so integration tests and benches can reuse it.

use ceci_graph::{lid, Graph, LabelSet, VertexId};
use ceci_query::{PlanOptions, QueryGraph, QueryPlan};

/// The paper's Figure 1 example.
pub mod paper {
    use super::*;

    /// Paper vertex `v{i}` (1-based in the paper) as a 0-based [`VertexId`].
    pub fn v(i: u32) -> VertexId {
        assert!((1..=15).contains(&i));
        VertexId(i - 1)
    }

    /// Paper query node `u{i}` (1-based) as a 0-based [`VertexId`].
    pub fn u(i: u32) -> VertexId {
        assert!((1..=5).contains(&i));
        VertexId(i - 1)
    }

    /// Labels: A=0, B=1, C=2, D=3, E=4.
    pub const A: u32 = 0;
    /// Label B.
    pub const B: u32 = 1;
    /// Label C.
    pub const C: u32 = 2;
    /// Label D.
    pub const D: u32 = 3;
    /// Label E.
    pub const E: u32 = 4;

    /// The Figure 1 data graph (15 vertices, labels A–E).
    pub fn data_graph() -> Graph {
        let label_of = |i: u32| match i {
            1 | 2 => A,
            3 | 5 | 7 | 9 => B,
            4 | 6 | 8 | 10 => C,
            11 | 13 | 15 => D,
            12 | 14 => E,
            _ => unreachable!(),
        };
        let labels: Vec<LabelSet> = (1..=15)
            .map(|i| LabelSet::single(lid(label_of(i))))
            .collect();
        let e: &[(u32, u32)] = &[
            (1, 3),
            (1, 5),
            (1, 7),
            (1, 4),
            (1, 6),
            (2, 7),
            (2, 9),
            (2, 8),
            (3, 4),
            (3, 11),
            (5, 4),
            (5, 6),
            (5, 13),
            (7, 6),
            (7, 8),
            (7, 15),
            (9, 10),
            (9, 15),
            (9, 8),
            (4, 11),
            (4, 12),
            (6, 13),
            (6, 14),
            (8, 15),
        ];
        let edges: Vec<(VertexId, VertexId)> = e.iter().map(|&(a, b)| (v(a), v(b))).collect();
        Graph::new(labels, &edges, false)
    }

    /// The Figure 1 query graph: u1(A), u2(B), u3(C), u4(D), u5(E).
    pub fn query_graph() -> QueryGraph {
        QueryGraph::with_labels(
            &[lid(A), lid(B), lid(C), lid(D), lid(E)],
            &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4)],
        )
        .expect("figure 1 query is connected")
    }

    /// The data graph and the paper's plan: root `u1`, BFS matching order
    /// `(u1, u2, u3, u4, u5)` ([`PlanOptions::paper`]).
    pub fn figure1() -> (Graph, QueryPlan) {
        let graph = data_graph();
        let options = PlanOptions {
            root_override: Some(u(1)),
            ..PlanOptions::paper()
        };
        let plan = QueryPlan::with_options(query_graph(), &graph, &options);
        (graph, plan)
    }

    /// The two embeddings of Figure 1, as `mapping[query vertex] = data
    /// vertex` arrays.
    pub fn expected_embeddings() -> Vec<Vec<VertexId>> {
        vec![
            vec![v(1), v(3), v(4), v(11), v(12)],
            vec![v(1), v(5), v(6), v(13), v(14)],
        ]
    }
}

/// The paper's Figure 5 example: two embedding clusters with cardinalities
/// 1 and 9 — the motivating case for ExtremeCluster decomposition (§4.3).
///
/// With β = 1 and k = 2 workers the threshold is `1 × 10/2 = 5`;
/// `cardinality(u1, v4) = 9 > 5`, so EC2 splits into three sub-clusters of
/// cardinality 3 along the three matching nodes of `u2` — exactly the
/// walkthrough in §4.3.
pub mod figure5 {
    use super::*;

    /// Query: a labeled path `u1(A) – u2(B) – u3(C)`.
    pub fn query_graph() -> QueryGraph {
        QueryGraph::with_labels(&[lid(0), lid(1), lid(2)], &[(0, 1), (1, 2)])
            .expect("path is connected")
    }

    /// Data graph `g2`: cluster EC1 = {v0(A)-v1(B)-v2(C)} with one
    /// embedding; cluster EC2 = pivot v3(A) joined to three B vertices
    /// (v4, v5, v6), each adjacent to the three shared C vertices
    /// (v7, v8, v9) — nine embeddings.
    pub fn data_graph() -> Graph {
        let labels: Vec<LabelSet> = [
            0, 1, 2, // EC1: v0(A), v1(B), v2(C)
            0, // v3(A): EC2 pivot
            1, 1, 1, // v4..v6 (B)
            2, 2, 2, // v7..v9 (C)
        ]
        .iter()
        .map(|&l| LabelSet::single(lid(l)))
        .collect();
        let mut edges = vec![(VertexId(0), VertexId(1)), (VertexId(1), VertexId(2))];
        for b in 4..=6u32 {
            edges.push((VertexId(3), VertexId(b)));
            for c in 7..=9u32 {
                edges.push((VertexId(b), VertexId(c)));
            }
        }
        Graph::new(labels, &edges, false)
    }

    /// The data graph and a plan rooted at `u1` in BFS order.
    pub fn setup() -> (Graph, QueryPlan) {
        let graph = data_graph();
        let options = PlanOptions {
            root_override: Some(VertexId(0)),
            ..PlanOptions::paper()
        };
        let plan = QueryPlan::with_options(query_graph(), &graph, &options);
        (graph, plan)
    }
}

#[cfg(test)]
mod figure5_tests {
    use super::figure5;
    use crate::extreme::decompose;
    use crate::index::Ceci;
    use ceci_graph::vid;

    #[test]
    fn cluster_cardinalities_are_1_and_9() {
        let (graph, plan) = figure5::setup();
        let ceci = Ceci::build(&graph, &plan);
        let pivots = ceci.pivots();
        assert_eq!(pivots.len(), 2);
        assert_eq!(pivots[0], (vid(0), 1), "EC1");
        assert_eq!(pivots[1], (vid(3), 9), "EC2");
        assert_eq!(ceci.total_cardinality(), 10);
    }

    #[test]
    fn ten_embeddings_total_nine_in_ec2() {
        let (graph, plan) = figure5::setup();
        let ceci = Ceci::build(&graph, &plan);
        let all = crate::enumerate::collect_embeddings(&graph, &plan, &ceci);
        assert_eq!(all.len(), 10);
        let ec2 = all.iter().filter(|e| e[0] == vid(3)).count();
        assert_eq!(ec2, 9, "EC2 holds nine of the ten embeddings");
    }

    #[test]
    fn beta_1_two_workers_splits_ec2_into_three() {
        // §4.3 walkthrough: threshold = 1 × (10/2) = 5; EC2 (cardinality 9)
        // decomposes along u2's three matching nodes into units of
        // cardinality 3; EC1 stays whole.
        let (graph, plan) = figure5::setup();
        let ceci = Ceci::build(&graph, &plan);
        let units = decompose(&graph, &plan, &ceci, 2, 1.0);
        assert_eq!(units.len(), 4);
        let mut workloads: Vec<f64> = units.iter().map(|u| u.workload).collect();
        workloads.sort_by(f64::total_cmp);
        assert_eq!(workloads, vec![1.0, 3.0, 3.0, 3.0]);
        // The three sub-units are prefixes of length 2 rooted at v3.
        let subs: Vec<_> = units.iter().filter(|u| u.prefix.len() == 2).collect();
        assert_eq!(subs.len(), 3);
        assert!(subs.iter().all(|u| u.prefix[0] == vid(3)));
    }

    #[test]
    fn static_assignment_would_cap_speedup() {
        // §4.3: assigning EC2 to one worker caps the speedup at 10/9 ≈ 1.11.
        let (graph, plan) = figure5::setup();
        let ceci = Ceci::build(&graph, &plan);
        let biggest = ceci.pivots().iter().map(|&(_, c)| c).max().unwrap();
        let total = ceci.total_cardinality();
        let max_speedup = total as f64 / biggest as f64;
        assert!((max_speedup - 10.0 / 9.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod tests {
    use super::paper;

    #[test]
    fn figure1_shapes() {
        let g = paper::data_graph();
        assert_eq!(g.num_vertices(), 15);
        assert_eq!(g.num_edges(), 24);
        let q = paper::query_graph();
        assert_eq!(q.num_vertices(), 5);
        assert_eq!(q.num_edges(), 6);
    }

    #[test]
    fn plan_uses_paper_configuration() {
        let (_, plan) = paper::figure1();
        assert_eq!(plan.root(), paper::u(1));
        assert_eq!(
            plan.matching_order(),
            &[
                paper::u(1),
                paper::u(2),
                paper::u(3),
                paper::u(4),
                paper::u(5)
            ]
        );
        // Tree edges (u1,u2), (u1,u3), (u2,u4), (u3,u5); NTEs (u2,u3), (u3,u4).
        let t = plan.tree();
        assert_eq!(t.parent(paper::u(4)), Some(paper::u(2)));
        assert_eq!(t.parent(paper::u(5)), Some(paper::u(3)));
        assert_eq!(plan.backward_nte(paper::u(3)), &[paper::u(2)]);
        assert_eq!(plan.backward_nte(paper::u(4)), &[paper::u(3)]);
    }

    #[test]
    fn labeled_query_is_rigid() {
        let (_, plan) = paper::figure1();
        assert!(plan.symmetry_complete());
        assert!(plan.symmetry_constraints().is_empty());
    }

    #[test]
    fn expected_embeddings_are_valid() {
        let g = paper::data_graph();
        let q = paper::query_graph();
        for emb in paper::expected_embeddings() {
            for (a, b) in q.edges() {
                assert!(
                    g.has_edge(emb[a.index()], emb[b.index()]),
                    "embedding {emb:?} missing edge for query edge ({a:?},{b:?})"
                );
            }
            for u in q.vertices() {
                assert!(q.labels(u).is_subset_of(g.labels(emb[u.index()])));
            }
        }
    }

    #[test]
    fn initial_root_candidates_are_v1_v2() {
        let (_, plan) = paper::figure1();
        assert_eq!(
            plan.initial_candidates(paper::u(1)),
            &[paper::v(1), paper::v(2)]
        );
    }
}
