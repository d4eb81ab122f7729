//! Graph statistics used in dataset tables and workload estimation.

use crate::graph::Graph;

/// Summary statistics of a graph, as printed in dataset tables (Table 1).
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// `|V|`.
    pub num_vertices: usize,
    /// `|E|` (undirected).
    pub num_edges: usize,
    /// Size of the label alphabet.
    pub num_labels: u32,
    /// Largest degree.
    pub max_degree: usize,
    /// `2|E| / |V|`.
    pub avg_degree: f64,
    /// Whether the source data was directed.
    pub directed: bool,
}

impl GraphStats {
    /// Computes statistics for `graph`.
    pub fn of(graph: &Graph) -> Self {
        let n = graph.num_vertices();
        let m = graph.num_edges();
        GraphStats {
            num_vertices: n,
            num_edges: m,
            num_labels: graph.num_labels(),
            max_degree: graph.max_degree(),
            avg_degree: if n == 0 {
                0.0
            } else {
                2.0 * m as f64 / n as f64
            },
            directed: graph.is_directed_input(),
        }
    }
}

/// Estimated per-vertex workload used for distributed pivot placement (§5):
/// in-memory mode uses `deg(v) + Σ_{w ∈ N(v)} deg(w)`, scaled by vertex id to
/// account for automorphism-breaking order imbalance:
/// `((|V| − v) / |V|) × workload(v)`.
pub fn pivot_workload_in_memory(graph: &Graph, v: crate::ids::VertexId) -> f64 {
    let base = graph.degree(v) as f64
        + graph
            .neighbors(v)
            .iter()
            .map(|&w| graph.degree(w) as f64)
            .sum::<f64>();
    id_scale(graph, v) * base
}

/// Degree-only workload estimate for the shared-storage mode, where neighbor
/// degrees are not locally available (§5).
pub fn pivot_workload_shared(graph: &Graph, v: crate::ids::VertexId) -> f64 {
    id_scale(graph, v) * graph.degree(v) as f64
}

fn id_scale(graph: &Graph, v: crate::ids::VertexId) -> f64 {
    let n = graph.num_vertices() as f64;
    if n == 0.0 {
        return 0.0;
    }
    (n - v.index() as f64) / n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::vid;

    fn path4() -> Graph {
        Graph::unlabeled(4, &[(vid(0), vid(1)), (vid(1), vid(2)), (vid(2), vid(3))])
    }

    #[test]
    fn stats_of_path() {
        let s = GraphStats::of(&path4());
        assert_eq!(s.num_vertices, 4);
        assert_eq!(s.num_edges, 3);
        assert_eq!(s.max_degree, 2);
        assert!((s.avg_degree - 1.5).abs() < 1e-12);
        assert_eq!(s.num_labels, 1);
        assert!(!s.directed);
    }

    #[test]
    fn workload_scales_down_with_vertex_id() {
        let g = path4();
        // vertices 1 and 2 have identical structure; higher id scales lower.
        let w1 = pivot_workload_in_memory(&g, vid(1));
        let w2 = pivot_workload_in_memory(&g, vid(2));
        assert!(w1 > w2);
    }

    #[test]
    fn shared_workload_uses_degree_only() {
        let g = path4();
        let w = pivot_workload_shared(&g, vid(0));
        // deg = 1, scale = (4-0)/4 = 1.0
        assert!((w - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_stats() {
        let g = Graph::unlabeled(0, &[]);
        let s = GraphStats::of(&g);
        assert_eq!(s.avg_degree, 0.0);
        assert_eq!(s.num_vertices, 0);
    }
}
