//! Incremental graph construction.

use crate::graph::Graph;
use crate::ids::{LabelId, VertexId};
use crate::labels::LabelSet;

/// Builder for [`Graph`] when vertices and edges arrive incrementally
/// (loaders, generators, tests).
///
/// # Examples
///
/// ```
/// use ceci_graph::{lid, GraphBuilder};
///
/// let mut b = GraphBuilder::new();
/// let a = b.add_vertex(lid(0));
/// let c = b.add_vertex(lid(1));
/// b.add_edge(a, c);
/// let graph = b.build();
/// assert_eq!(graph.num_edges(), 1);
/// assert!(graph.has_edge(a, c));
/// ```
#[derive(Default)]
pub struct GraphBuilder {
    labels: Vec<LabelSet>,
    edges: Vec<(VertexId, VertexId)>,
    directed_input: bool,
}

impl GraphBuilder {
    /// A fresh builder for an undirected graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the source data as directed (adjacency is still symmetrized;
    /// the flag is provenance recorded on the built graph).
    pub fn directed(mut self) -> Self {
        self.directed_input = true;
        self
    }

    /// Adds a vertex with a single label, returning its id.
    pub fn add_vertex(&mut self, label: LabelId) -> VertexId {
        let id = VertexId::from_index(self.labels.len());
        self.labels.push(LabelSet::single(label));
        id
    }

    /// Adds a vertex with a full label set, returning its id.
    pub fn add_vertex_with_labels(&mut self, labels: LabelSet) -> VertexId {
        let id = VertexId::from_index(self.labels.len());
        self.labels.push(labels);
        id
    }

    /// Records an edge. Endpoints must already exist when `build` runs.
    pub fn add_edge(&mut self, a: VertexId, b: VertexId) -> &mut Self {
        self.edges.push((a, b));
        self
    }

    /// Number of vertices added so far.
    pub fn num_vertices(&self) -> usize {
        self.labels.len()
    }

    /// Finalizes the graph: symmetrizes, sorts, dedups.
    ///
    /// # Panics
    /// Panics if an edge references a vertex that was never added.
    pub fn build(self) -> Graph {
        Graph::new(self.labels, &self.edges, self.directed_input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::lid;

    #[test]
    fn incremental_build() {
        let mut b = GraphBuilder::new();
        let a = b.add_vertex(lid(0));
        let c = b.add_vertex(lid(1));
        let d = b.add_vertex_with_labels(LabelSet::from_labels([lid(0), lid(2)]));
        b.add_edge(a, c);
        b.add_edge(c, d);
        assert_eq!(b.num_vertices(), 3);
        let g = b.build();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(a, c));
        assert!(!g.has_edge(a, d));
        assert!(g.has_label(d, lid(2)));
    }

    #[test]
    fn bulk_vertices_share_label() {
        let mut b = GraphBuilder::new();
        for _ in 0..5 {
            b.add_vertex(lid(3));
        }
        assert_eq!(b.num_vertices(), 5);
        let g = b.build();
        assert_eq!(g.vertices_with_label(lid(3)).len(), 5);
    }

    #[test]
    fn directed_flag_propagates() {
        let mut b = GraphBuilder::new().directed();
        let a = b.add_vertex(lid(0));
        let c = b.add_vertex(lid(0));
        b.add_edge(a, c);
        let g = b.build();
        assert!(g.is_directed_input());
        // ... but adjacency is symmetric.
        assert!(g.has_edge(c, a));
    }

    #[test]
    fn duplicate_edges_deduped_at_build() {
        let mut b = GraphBuilder::new();
        let a = b.add_vertex(lid(0));
        let c = b.add_vertex(lid(0));
        b.add_edge(a, c);
        b.add_edge(c, a);
        b.add_edge(a, c);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
    }
}
