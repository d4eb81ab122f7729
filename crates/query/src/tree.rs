//! BFS query tree (§2.2).
//!
//! A BFS traversal of the query graph from the root query node yields the
//! query tree `T_q`. Query edges on the tree are *tree edges* (TE); the rest
//! are *non-tree edges* (NTE). CECI is shaped like this tree: every non-root
//! query node stores candidates keyed by its tree parent's candidates.

use ceci_graph::VertexId;

use crate::query_graph::QueryGraph;

/// The BFS query tree of a query graph rooted at the chosen root node.
#[derive(Clone, Debug)]
pub struct QueryTree {
    root: VertexId,
    bfs_order: Vec<VertexId>,
    /// `parent[u] = None` iff `u` is the root.
    parent: Vec<Option<VertexId>>,
    children: Vec<Vec<VertexId>>,
    depth: Vec<u32>,
    tree_edges: Vec<(VertexId, VertexId)>,
    non_tree_edges: Vec<(VertexId, VertexId)>,
}

impl QueryTree {
    /// Builds the BFS tree of `query` from `root`. Neighbors are visited in
    /// ascending id order so the tree is deterministic.
    pub fn build(query: &QueryGraph, root: VertexId) -> Self {
        let n = query.num_vertices();
        assert!(root.index() < n, "root out of range");
        let mut parent = vec![None; n];
        let mut depth = vec![0u32; n];
        let mut visited = vec![false; n];
        let mut bfs_order = Vec::with_capacity(n);
        let mut queue = std::collections::VecDeque::new();
        visited[root.index()] = true;
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            bfs_order.push(u);
            for &nb in query.neighbors(u) {
                if !visited[nb.index()] {
                    visited[nb.index()] = true;
                    parent[nb.index()] = Some(u);
                    depth[nb.index()] = depth[u.index()] + 1;
                    queue.push_back(nb);
                }
            }
        }
        debug_assert_eq!(bfs_order.len(), n, "query graphs are connected");
        let mut children = vec![Vec::new(); n];
        let mut tree_edges = Vec::with_capacity(n.saturating_sub(1));
        for u in query.vertices() {
            if let Some(p) = parent[u.index()] {
                children[p.index()].push(u);
                tree_edges.push((p, u));
            }
        }
        let mut non_tree_edges = Vec::new();
        for &(a, b) in query.edges() {
            let is_tree = parent[a.index()] == Some(b) || parent[b.index()] == Some(a);
            if !is_tree {
                non_tree_edges.push((a, b));
            }
        }
        QueryTree {
            root,
            bfs_order,
            parent,
            children,
            depth,
            tree_edges,
            non_tree_edges,
        }
    }

    /// The root query node `u_s`.
    #[inline]
    pub fn root(&self) -> VertexId {
        self.root
    }

    /// The BFS traversal order (root first).
    #[inline]
    pub fn bfs_order(&self) -> &[VertexId] {
        &self.bfs_order
    }

    /// Tree parent of `u` (`None` for the root).
    #[inline]
    pub fn parent(&self, u: VertexId) -> Option<VertexId> {
        self.parent[u.index()]
    }

    /// Tree children of `u`.
    #[inline]
    pub fn children(&self, u: VertexId) -> &[VertexId] {
        &self.children[u.index()]
    }

    /// BFS depth of `u` (root = 0).
    #[inline]
    pub fn depth(&self, u: VertexId) -> u32 {
        self.depth[u.index()]
    }

    /// Tree edges as `(parent, child)` pairs.
    #[inline]
    pub fn tree_edges(&self) -> &[(VertexId, VertexId)] {
        &self.tree_edges
    }

    /// Non-tree edges as unordered pairs (orientation relative to a matching
    /// order is decided by the plan).
    #[inline]
    pub fn non_tree_edges(&self) -> &[(VertexId, VertexId)] {
        &self.non_tree_edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::PaperQuery;
    use ceci_graph::vid;

    /// The paper's Figure 1 query: u1 at the root; tree edges (u1,u2),
    /// (u1,u3), (u2,u4), (u3,u5); non-tree edges (u2,u3), (u3,u4).
    /// We use 0-based ids: u1 → 0, ..., u5 → 4.
    fn figure1_query() -> QueryGraph {
        QueryGraph::unlabeled(5, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4)]).unwrap()
    }

    #[test]
    fn figure1_tree_matches_paper() {
        let q = figure1_query();
        let t = QueryTree::build(&q, vid(0));
        assert_eq!(t.root(), vid(0));
        assert_eq!(t.bfs_order(), &[vid(0), vid(1), vid(2), vid(3), vid(4)]);
        let mut te = t.tree_edges().to_vec();
        te.sort();
        assert_eq!(
            te,
            vec![
                (vid(0), vid(1)),
                (vid(0), vid(2)),
                (vid(1), vid(3)),
                (vid(2), vid(4)),
            ]
        );
        let mut nte = t.non_tree_edges().to_vec();
        nte.sort();
        assert_eq!(nte, vec![(vid(1), vid(2)), (vid(2), vid(3))]);
    }

    #[test]
    fn parents_and_children_consistent() {
        let q = figure1_query();
        let t = QueryTree::build(&q, vid(0));
        assert_eq!(t.parent(vid(0)), None);
        assert_eq!(t.parent(vid(3)), Some(vid(1)));
        assert_eq!(t.children(vid(0)), &[vid(1), vid(2)]);
    }

    #[test]
    fn depths() {
        let q = figure1_query();
        let t = QueryTree::build(&q, vid(0));
        assert_eq!(t.depth(vid(0)), 0);
        assert_eq!(t.depth(vid(1)), 1);
        assert_eq!(t.depth(vid(4)), 2);
    }

    #[test]
    fn triangle_has_one_nte() {
        let q = PaperQuery::Qg1.build();
        let t = QueryTree::build(&q, vid(0));
        assert_eq!(t.tree_edges().len(), 2);
        assert_eq!(t.non_tree_edges().len(), 1);
        assert_eq!(t.non_tree_edges()[0], (vid(1), vid(2)));
    }

    #[test]
    fn clique_tree_edge_counts() {
        let q = PaperQuery::Qg4.build();
        let t = QueryTree::build(&q, vid(0));
        assert_eq!(t.tree_edges().len(), 3);
        assert_eq!(t.non_tree_edges().len(), 3);
    }

    #[test]
    fn different_roots_give_different_trees() {
        let q = PaperQuery::Qg5.build();
        let t0 = QueryTree::build(&q, vid(0));
        let t2 = QueryTree::build(&q, vid(2));
        assert_eq!(t0.root(), vid(0));
        assert_eq!(t2.root(), vid(2));
        assert_eq!(t0.bfs_order()[0], vid(0));
        assert_eq!(t2.bfs_order()[0], vid(2));
        // Both cover all vertices.
        assert_eq!(t0.bfs_order().len(), 5);
        assert_eq!(t2.bfs_order().len(), 5);
    }

    #[test]
    fn tree_plus_nontree_equals_all_edges() {
        for pq in PaperQuery::ALL {
            let q = pq.build();
            let t = QueryTree::build(&q, vid(0));
            assert_eq!(
                t.tree_edges().len() + t.non_tree_edges().len(),
                q.num_edges(),
                "{}",
                pq.name()
            );
        }
    }
}
