//! Property tests for the graph substrate: CSR invariants, loader
//! roundtrips, generator guarantees.

use ceci_graph::generators::{attach_pendants, erdos_renyi, kronecker_default};
use ceci_graph::{io, rank_by_label_and_degree, Graph, LabelId, LabelSet, VertexId};
use proptest::prelude::*;

fn arb_edges(max_n: u32) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2u32..=max_n).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..(3 * n as usize));
        (Just(n as usize), edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_adjacency_is_sorted_and_symmetric((n, raw) in arb_edges(40)) {
        let edges: Vec<(VertexId, VertexId)> =
            raw.iter().map(|&(a, b)| (VertexId(a), VertexId(b))).collect();
        let g = Graph::unlabeled(n, &edges);
        let mut degree_sum = 0usize;
        for v in g.vertices() {
            let nbrs = g.neighbors(v);
            degree_sum += nbrs.len();
            // Sorted, deduped, no self-loops.
            prop_assert!(nbrs.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(!nbrs.contains(&v));
            // Symmetry.
            for &nb in nbrs {
                prop_assert!(g.has_edge(nb, v));
                prop_assert!(g.neighbors(nb).contains(&v));
            }
        }
        prop_assert_eq!(degree_sum, 2 * g.num_edges());
    }

    #[test]
    fn has_edge_matches_adjacency((n, raw) in arb_edges(24)) {
        let edges: Vec<(VertexId, VertexId)> =
            raw.iter().map(|&(a, b)| (VertexId(a), VertexId(b))).collect();
        let g = Graph::unlabeled(n, &edges);
        for a in g.vertices() {
            for b in g.vertices() {
                let expected = g.neighbors(a).contains(&b);
                prop_assert_eq!(g.has_edge(a, b), expected);
            }
        }
    }

    #[test]
    fn binary_roundtrip((n, raw) in arb_edges(30), labels in 1u32..5) {
        let edges: Vec<(VertexId, VertexId)> =
            raw.iter().map(|&(a, b)| (VertexId(a), VertexId(b))).collect();
        let label_sets: Vec<LabelSet> = (0..n)
            .map(|i| LabelSet::single(LabelId(i as u32 % labels)))
            .collect();
        let g = Graph::new(label_sets, &edges, false);
        let mut buf = Vec::new();
        io::write_binary(&g, &mut buf).unwrap();
        let g2 = io::read_binary(&buf[..]).unwrap();
        prop_assert_eq!(g2.num_vertices(), g.num_vertices());
        prop_assert_eq!(g2.num_edges(), g.num_edges());
        for v in g.vertices() {
            prop_assert_eq!(g2.neighbors(v), g.neighbors(v));
            prop_assert_eq!(g2.labels(v), g.labels(v));
        }
    }

    #[test]
    fn labeled_text_roundtrip((n, raw) in arb_edges(20), labels in 1u32..4) {
        let edges: Vec<(VertexId, VertexId)> =
            raw.iter().map(|&(a, b)| (VertexId(a), VertexId(b))).collect();
        let label_sets: Vec<LabelSet> = (0..n)
            .map(|i| LabelSet::single(LabelId(i as u32 % labels)))
            .collect();
        let g = Graph::new(label_sets, &edges, false);
        let mut out = Vec::new();
        io::write_labeled(&g, &mut out).unwrap();
        let g2 = io::read_labeled(&out[..]).unwrap();
        for v in g.vertices() {
            prop_assert_eq!(g2.neighbors(v), g.neighbors(v));
            prop_assert_eq!(g2.labels(v), g.labels(v));
        }
    }

    /// The NLC index is the label-major numbering: on the ranked copy,
    /// every vertex's neighbour-label counts read from its list's class
    /// spans (and the multi-labeled class's span) equal the file graph's
    /// scans, for every label of the alphabet and one past it.
    #[test]
    fn nlc_index_agrees_with_scans(
        (n, raw) in arb_edges(20),
        labels in 1u32..4,
        second in proptest::collection::vec(0u32..6, 20),
    ) {
        let edges: Vec<(VertexId, VertexId)> =
            raw.iter().map(|&(a, b)| (VertexId(a), VertexId(b))).collect();
        let label_sets: Vec<LabelSet> = (0..n)
            .map(|i| {
                let l = (i as u32 * 7 + 1) % labels;
                match second[i] {
                    m if m < labels && m != l => LabelSet::from_labels([LabelId(l), LabelId(m)]),
                    _ => LabelSet::single(LabelId(l)),
                }
            })
            .collect();
        let plain = Graph::new(label_sets, &edges, false);
        let (indexed, ids) = rank_by_label_and_degree(&plain);
        for v in plain.vertices() {
            for l in 0..=labels {
                prop_assert_eq!(
                    plain.neighbor_label_count(v, LabelId(l)),
                    indexed.neighbor_label_count(ids.rank(v), LabelId(l))
                );
            }
        }
    }
}

#[test]
fn generators_are_deterministic_and_sized() {
    let er = erdos_renyi(300, 900, 5);
    assert_eq!(er.num_vertices(), 300);
    assert_eq!(er.num_edges(), 900);
    let rm = kronecker_default(9, 4, 5);
    assert_eq!(rm.num_vertices(), 512);
    let tailed = attach_pendants(&rm, 200, 6);
    assert_eq!(tailed.num_vertices(), rm.num_vertices() + 200);
    assert_eq!(tailed.num_edges(), rm.num_edges() + 200);
}
