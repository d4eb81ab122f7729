//! Matching (visit) orders (§2.2).
//!
//! Any order works as long as the tree parent of each node precedes it
//! (CECI keys a node's candidates by its tree parent's candidates). The
//! paper's running example visits the query tree in BFS order, and reports
//! up to 34.5% speedup from edge-ranked \[53\] or path-ranked \[17\] orders;
//! we provide greedy approximations of both. The default
//! ([`crate::PlanOptions`]) is the edge-ranked greedy: it takes the
//! most-constrained vertex next, so a cyclic query closes its non-tree
//! edges as early as the tree allows instead of expanding the root's
//! children one after another. BFS stays the paper's configuration
//! ([`crate::PlanOptions::paper`]).

use ceci_graph::VertexId;

use crate::plan::PlanOptions;
use crate::query_graph::QueryGraph;
use crate::tree::QueryTree;

/// Strategy for choosing the matching order. The default is
/// `PlanOptions::default().order`, and nowhere else.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OrderStrategy {
    /// Plain BFS order of the query tree (the paper's running example).
    Bfs,
    /// Edge-ranked greedy, connectivity first (the default): among
    /// vertices whose tree parent is placed, prefer the one with the most
    /// already-placed query neighbors (maximally constrained first),
    /// breaking ties toward fewer candidates, then toward the lower id.
    /// Approximates \[53\].
    EdgeRank,
    /// Path-ranked greedy: among eligible vertices, prefer the one with the
    /// fewest candidates (most selective first), breaking ties toward more
    /// placed neighbors. Approximates TurboIso's least-frequent-path order.
    PathRank,
    /// The default static order (`PlanOptions::default().order`), here and
    /// in the core layer's `plan_with_options`, which plans it as a cache
    /// miss does. Nothing scores orders any more: the variant is kept only
    /// because the perf ledger's replay (`benchmark/`) names it, and is
    /// retired by the `benchmark` change that stops naming it.
    Adaptive,
}

/// Computes a matching order under `strategy`.
///
/// `candidate_counts[u]` is the size of the initial candidate set of query
/// vertex `u` (used by the ranked strategies; pass all-zeros for `Bfs`).
///
/// The returned order always starts at the tree root and satisfies the
/// parent-precedes-child invariant.
pub fn matching_order(
    query: &QueryGraph,
    tree: &QueryTree,
    strategy: OrderStrategy,
    candidate_counts: &[usize],
) -> Vec<VertexId> {
    match strategy {
        OrderStrategy::Bfs => tree.bfs_order().to_vec(),
        OrderStrategy::EdgeRank | OrderStrategy::PathRank => {
            greedy_order(query, tree, strategy, candidate_counts)
        }
        OrderStrategy::Adaptive => {
            let fallback = PlanOptions::default().order;
            debug_assert_ne!(fallback, OrderStrategy::Adaptive);
            matching_order(query, tree, fallback, candidate_counts)
        }
    }
}

fn greedy_order(
    query: &QueryGraph,
    tree: &QueryTree,
    strategy: OrderStrategy,
    candidate_counts: &[usize],
) -> Vec<VertexId> {
    let n = query.num_vertices();
    assert_eq!(candidate_counts.len(), n, "need one count per query vertex");
    let mut placed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let root = tree.root();
    placed[root.index()] = true;
    order.push(root);
    while order.len() < n {
        let mut best: Option<(usize, usize, VertexId)> = None;
        for u in query.vertices() {
            if placed[u.index()] {
                continue;
            }
            let parent_placed = tree.parent(u).map(|p| placed[p.index()]).unwrap_or(false);
            if !parent_placed {
                continue;
            }
            let placed_neighbors = query
                .neighbors(u)
                .iter()
                .filter(|nb| placed[nb.index()])
                .count();
            let cand = candidate_counts[u.index()];
            // Encode the two-key preference as a (primary, secondary) pair
            // minimized lexicographically.
            let key = match strategy {
                // More placed neighbors first → minimize n - placed_neighbors.
                OrderStrategy::EdgeRank => (n - placed_neighbors, cand),
                // Fewer candidates first.
                OrderStrategy::PathRank => (cand, n - placed_neighbors),
                OrderStrategy::Bfs | OrderStrategy::Adaptive => unreachable!(),
            };
            let better = match best {
                None => true,
                Some((k1, k2, bu)) => key < (k1, k2) || (key == (k1, k2) && u < bu),
            };
            if better {
                best = Some((key.0, key.1, u));
            }
        }
        let (_, _, u) = best.expect("connected query always has an eligible vertex");
        placed[u.index()] = true;
        order.push(u);
    }
    order
}

/// Validates the invariants a matching order must satisfy: a permutation of
/// all query vertices, starting at the tree root, with every tree parent
/// preceding its child.
pub fn is_valid_order(tree: &QueryTree, order: &[VertexId]) -> bool {
    let n = tree.bfs_order().len();
    if order.len() != n || order.first() != Some(&tree.root()) {
        return false;
    }
    let mut pos = vec![usize::MAX; n];
    for (i, &u) in order.iter().enumerate() {
        if u.index() >= n || pos[u.index()] != usize::MAX {
            return false;
        }
        pos[u.index()] = i;
    }
    order.iter().all(|&u| match tree.parent(u) {
        None => true,
        Some(p) => pos[p.index()] < pos[u.index()],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::PaperQuery;
    use ceci_graph::vid;

    fn house() -> (QueryGraph, QueryTree) {
        let q = PaperQuery::Qg5.build();
        let t = QueryTree::build(&q, vid(0));
        (q, t)
    }

    #[test]
    fn bfs_order_is_tree_order() {
        let (q, t) = house();
        let o = matching_order(&q, &t, OrderStrategy::Bfs, &vec![0; q.num_vertices()]);
        assert_eq!(o, t.bfs_order());
        assert!(is_valid_order(&t, &o));
    }

    #[test]
    fn ranked_orders_are_valid() {
        let (q, t) = house();
        let counts = vec![10, 5, 8, 2, 7];
        for s in [OrderStrategy::EdgeRank, OrderStrategy::PathRank] {
            let o = matching_order(&q, &t, s, &counts);
            assert!(is_valid_order(&t, &o), "{s:?} produced invalid order {o:?}");
        }
    }

    #[test]
    fn path_rank_prefers_selective_vertices() {
        let (q, t) = house();
        // Vertex 3 has far fewer candidates; it should be visited as soon as
        // its parent is placed.
        let counts = vec![100, 100, 100, 1, 100];
        let o = matching_order(&q, &t, OrderStrategy::PathRank, &counts);
        let pos3 = o.iter().position(|&u| u == vid(3)).unwrap();
        // Parent of 3 in the BFS tree from 0 is 0 (edge 3-0), so 3 can come
        // second.
        assert_eq!(pos3, 1, "order was {o:?}");
    }

    #[test]
    fn edge_rank_prefers_constrained_vertices() {
        let q = PaperQuery::Qg4.build(); // 4-clique
        let t = QueryTree::build(&q, vid(0));
        let o = matching_order(&q, &t, OrderStrategy::EdgeRank, &[4, 4, 4, 4]);
        assert!(is_valid_order(&t, &o));
        // In a clique every vertex neighbors every placed vertex, so the
        // greedy tie-break picks ascending ids.
        assert_eq!(o, vec![vid(0), vid(1), vid(2), vid(3)]);
    }

    #[test]
    fn invalid_orders_rejected() {
        let (_, t) = house();
        // Wrong first vertex.
        assert!(!is_valid_order(
            &t,
            &[vid(1), vid(0), vid(2), vid(3), vid(4)]
        ));
        // Duplicate vertex.
        assert!(!is_valid_order(
            &t,
            &[vid(0), vid(1), vid(1), vid(3), vid(4)]
        ));
        // Too short.
        assert!(!is_valid_order(&t, &[vid(0), vid(1)]));
    }

    #[test]
    fn adaptive_without_planner_matches_the_default_order() {
        let (q, t) = house();
        let counts = vec![100, 100, 100, 1, 100];
        let adaptive = matching_order(&q, &t, OrderStrategy::Adaptive, &counts);
        let default = matching_order(&q, &t, PlanOptions::default().order, &counts);
        assert_eq!(PlanOptions::default().order, OrderStrategy::EdgeRank);
        assert_eq!(adaptive, default);
        assert!(is_valid_order(&t, &adaptive));
    }

    #[test]
    fn single_vertex_order() {
        let q = QueryGraph::unlabeled(1, &[]).unwrap();
        let t = QueryTree::build(&q, vid(0));
        let o = matching_order(&q, &t, OrderStrategy::PathRank, &[3]);
        assert_eq!(o, vec![vid(0)]);
    }
}
