//! The query graph `G_q`.
//!
//! Query graphs are small, connected, undirected, labeled graphs (§2.1).
//! [`QueryGraph`] wraps the same storage as a data-graph [`Graph`] but
//! enforces the connectivity invariant at construction and adds the
//! query-side accessors the preprocessing pipeline needs.

use ceci_graph::{Graph, LabelId, LabelSet, VertexId};

/// A connected, undirected, labeled query graph.
///
/// # Examples
///
/// ```
/// use ceci_graph::lid;
/// use ceci_query::QueryGraph;
///
/// // A labeled triangle A-B-C.
/// let q = QueryGraph::with_labels(&[lid(0), lid(1), lid(2)],
///                                 &[(0, 1), (1, 2), (2, 0)]).unwrap();
/// assert_eq!(q.num_vertices(), 3);
/// assert_eq!(q.num_edges(), 3);
///
/// // Disconnected patterns are rejected (§2.1 requires connectivity).
/// assert!(QueryGraph::unlabeled(4, &[(0, 1), (2, 3)]).is_err());
/// ```
#[derive(Clone, Debug)]
pub struct QueryGraph {
    graph: Graph,
    edges: Vec<(VertexId, VertexId)>,
    /// `profiles[u]`: see [`QueryGraph::neighborhood_label_counts`].
    profiles: Vec<Box<[(LabelId, u32)]>>,
}

/// Error building a query graph.
#[derive(Debug, PartialEq, Eq)]
pub enum QueryGraphError {
    /// Query graphs must have at least one vertex.
    Empty,
    /// Query graphs must be connected (§2.1).
    Disconnected,
}

impl std::fmt::Display for QueryGraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryGraphError::Empty => write!(f, "query graph must have at least one vertex"),
            QueryGraphError::Disconnected => write!(f, "query graph must be connected"),
        }
    }
}

impl std::error::Error for QueryGraphError {}

impl QueryGraph {
    /// Builds a query graph from per-vertex label sets and an edge list.
    pub fn new(
        labels: Vec<LabelSet>,
        edges: &[(VertexId, VertexId)],
    ) -> Result<Self, QueryGraphError> {
        if labels.is_empty() {
            return Err(QueryGraphError::Empty);
        }
        let graph = Graph::new(labels, edges, false);
        if !is_connected(&graph) {
            return Err(QueryGraphError::Disconnected);
        }
        let edges = canonical_edges(&graph);
        let profiles = graph.vertices().map(|u| profile(&graph, u)).collect();
        Ok(QueryGraph {
            graph,
            edges,
            profiles,
        })
    }

    /// Builds a single-label-per-vertex query graph.
    pub fn with_labels(labels: &[LabelId], edges: &[(u32, u32)]) -> Result<Self, QueryGraphError> {
        let ls = labels.iter().map(|&l| LabelSet::single(l)).collect();
        let es: Vec<_> = edges
            .iter()
            .map(|&(a, b)| (VertexId(a), VertexId(b)))
            .collect();
        QueryGraph::new(ls, &es)
    }

    /// Builds an unlabeled query graph (every vertex labeled 0), as used by
    /// the paper's QG1–QG5 experiments.
    pub fn unlabeled(n: usize, edges: &[(u32, u32)]) -> Result<Self, QueryGraphError> {
        QueryGraph::with_labels(&vec![LabelId(0); n], edges)
    }

    /// Converts an extracted pattern (see `ceci_graph::extract`) into a
    /// query graph.
    pub fn from_graph(pattern: &Graph) -> Result<Self, QueryGraphError> {
        let labels: Vec<LabelSet> = pattern
            .vertices()
            .map(|v| pattern.labels(v).clone())
            .collect();
        let edges = canonical_edges(pattern);
        QueryGraph::new(labels, &edges)
    }

    /// Number of query vertices `|V_q|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Number of query edges `|E_q|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Iterator over query vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        self.graph.vertices()
    }

    /// Canonical `(a, b)` edge list with `a < b`.
    #[inline]
    pub fn edges(&self) -> &[(VertexId, VertexId)] {
        &self.edges
    }

    /// Sorted neighbors of `u`.
    #[inline]
    pub fn neighbors(&self, u: VertexId) -> &[VertexId] {
        self.graph.neighbors(u)
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: VertexId) -> usize {
        self.graph.degree(u)
    }

    /// Edge test.
    #[inline]
    pub fn has_edge(&self, a: VertexId, b: VertexId) -> bool {
        self.graph.has_edge(a, b)
    }

    /// Label set of `u`.
    #[inline]
    pub fn labels(&self, u: VertexId) -> &LabelSet {
        self.graph.labels(u)
    }

    /// Count of neighbors of `u` carrying label `l` — the query side
    /// `count_u(l)` of the NLC filter.
    #[inline]
    pub fn neighbor_label_count(&self, u: VertexId, l: LabelId) -> u32 {
        self.graph.neighbor_label_count(u, l)
    }

    /// Distinct labels appearing among the neighbors of `u`, sorted, with
    /// counts — the `(l, count_u(l))` pairs the NLC filter compares,
    /// counted once by [`QueryGraph::new`] and borrowed here.
    #[inline]
    pub fn neighborhood_label_counts(&self, u: VertexId) -> &[(LabelId, u32)] {
        &self.profiles[u.index()]
    }

    /// The underlying graph storage (used by automorphism search).
    #[inline]
    pub fn as_graph(&self) -> &Graph {
        &self.graph
    }
}

/// `u`'s neighbours' labels, sorted and counted into `(label, count)` runs.
fn profile(graph: &Graph, u: VertexId) -> Box<[(LabelId, u32)]> {
    let mut labels: Vec<LabelId> = (graph.neighbors(u).iter())
        .flat_map(|&nb| graph.labels(nb).iter())
        .collect();
    labels.sort_unstable();
    let mut runs: Vec<(LabelId, u32)> = Vec::new();
    for l in labels {
        match runs.last_mut() {
            Some((last, count)) if *last == l => *count += 1,
            _ => runs.push((l, 1)),
        }
    }
    runs.into()
}

fn canonical_edges(graph: &Graph) -> Vec<(VertexId, VertexId)> {
    let mut edges = Vec::with_capacity(graph.num_edges());
    for v in graph.vertices() {
        for &nb in graph.neighbors(v) {
            if v < nb {
                edges.push((v, nb));
            }
        }
    }
    edges
}

fn is_connected(graph: &Graph) -> bool {
    let n = graph.num_vertices();
    if n == 0 {
        return false;
    }
    let mut seen = vec![false; n];
    let mut stack = vec![VertexId(0)];
    seen[0] = true;
    let mut count = 0;
    while let Some(v) = stack.pop() {
        count += 1;
        for &nb in graph.neighbors(v) {
            if !seen[nb.index()] {
                seen[nb.index()] = true;
                stack.push(nb);
            }
        }
    }
    count == n
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceci_graph::{lid, vid};

    #[test]
    fn triangle_builds() {
        let q = QueryGraph::unlabeled(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        assert_eq!(q.num_vertices(), 3);
        assert_eq!(q.num_edges(), 3);
        assert_eq!(
            q.edges(),
            &[(vid(0), vid(1)), (vid(0), vid(2)), (vid(1), vid(2))]
        );
    }

    #[test]
    fn disconnected_rejected() {
        let err = QueryGraph::unlabeled(4, &[(0, 1), (2, 3)]).unwrap_err();
        assert_eq!(err, QueryGraphError::Disconnected);
    }

    #[test]
    fn empty_rejected() {
        let err = QueryGraph::unlabeled(0, &[]).unwrap_err();
        assert_eq!(err, QueryGraphError::Empty);
    }

    #[test]
    fn single_vertex_is_connected() {
        let q = QueryGraph::unlabeled(1, &[]).unwrap();
        assert_eq!(q.num_vertices(), 1);
        assert_eq!(q.num_edges(), 0);
    }

    #[test]
    fn labeled_construction() {
        let q = QueryGraph::with_labels(&[lid(0), lid(1), lid(2)], &[(0, 1), (1, 2)]).unwrap();
        assert_eq!(q.labels(vid(1)).primary(), lid(1));
        assert_eq!(q.degree(vid(1)), 2);
    }

    #[test]
    fn neighborhood_label_counts_sorted_with_counts() {
        // star: center 0 (label 9), leaves labeled 1, 1, 2
        let q =
            QueryGraph::with_labels(&[lid(9), lid(1), lid(1), lid(2)], &[(0, 1), (0, 2), (0, 3)])
                .unwrap();
        assert_eq!(
            q.neighborhood_label_counts(vid(0)),
            &[(lid(1), 2), (lid(2), 1)]
        );
        assert_eq!(q.neighborhood_label_counts(vid(1)), &[(lid(9), 1)]);
        // Multi-label vertices: a leaf {1, 3} counts once under each label,
        // and a {2, 9} leaf sees the {1, 3} centre through both.
        let q = QueryGraph::new(
            vec![
                LabelSet::from_labels([lid(1), lid(3)]),
                LabelSet::single(lid(3)),
                LabelSet::from_labels([lid(2), lid(9)]),
                LabelSet::from_labels([lid(1), lid(3)]),
            ],
            &[(vid(0), vid(1)), (vid(0), vid(2)), (vid(0), vid(3))],
        )
        .unwrap();
        assert_eq!(
            q.neighborhood_label_counts(vid(0)),
            &[(lid(1), 1), (lid(2), 1), (lid(3), 2), (lid(9), 1)]
        );
        assert_eq!(
            q.neighborhood_label_counts(vid(2)),
            &[(lid(1), 1), (lid(3), 1)]
        );
    }

    #[test]
    fn from_graph_roundtrip() {
        let g = Graph::unlabeled(3, &[(vid(0), vid(1)), (vid(1), vid(2))]);
        let q = QueryGraph::from_graph(&g).unwrap();
        assert_eq!(q.num_edges(), 2);
        assert!(q.has_edge(vid(0), vid(1)));
        assert!(!q.has_edge(vid(0), vid(2)));
    }
}
