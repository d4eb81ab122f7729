//! # CECI — Compact Embedding Cluster Index for Scalable Subgraph Matching
//!
//! A Rust reproduction of Bhattarai, Liu & Huang, SIGMOD 2019. This facade
//! crate re-exports the whole system:
//!
//! * [`graph`] — labeled CSR graphs, loaders, generators ([`ceci_graph`]).
//! * [`query`] — query graphs and preprocessing ([`ceci_query`]).
//! * [`core`] — the CECI index and enumeration engine ([`ceci_core`]).
//! * [`baselines`] — the comparison algorithms ([`ceci_baselines`]).
//! * [`distributed`] — the simulated MPI cluster ([`ceci_distributed`]).
//!
//! ## Quickstart
//!
//! ```
//! use ceci::prelude::*;
//!
//! // A labeled data graph: a triangle A-B-C plus a pendant B vertex.
//! let mut b = GraphBuilder::new();
//! let a = b.add_vertex(lid(0));
//! let x = b.add_vertex(lid(1));
//! let c = b.add_vertex(lid(2));
//! let y = b.add_vertex(lid(1));
//! b.add_edge(a, x);
//! b.add_edge(x, c);
//! b.add_edge(c, a);
//! b.add_edge(a, y);
//! let graph = b.build();
//!
//! // Query: an A-B edge.
//! let query = QueryGraph::with_labels(&[lid(0), lid(1)], &[(0, 1)]).unwrap();
//! let plan = QueryPlan::new(query, &graph);
//! let ceci = Ceci::build(&graph, &plan);
//! let embeddings = collect_embeddings(&graph, &plan, &ceci);
//! assert_eq!(embeddings.len(), 2); // (a, x) and (a, y)
//! ```

#![forbid(unsafe_code)]

pub use ceci_baselines as baselines;
pub use ceci_core as core;
pub use ceci_distributed as distributed;
pub use ceci_graph as graph;
pub use ceci_query as query;

/// Commonly used items, for `use ceci::prelude::*`.
pub mod prelude {
    pub use ceci_core::{
        collect_embeddings, count_embeddings, count_parallel, enumerate_parallel,
        enumerate_sequential, BuildOptions, CancelToken, Ceci, CollectSink, CountSink, Counters,
        EnumOptions, Enumerator, ParallelOptions, Strategy, VerifyMode,
    };
    pub use ceci_distributed::{run_distributed, ClusterConfig, StorageMode};
    pub use ceci_graph::{lid, vid, Graph, GraphBuilder, LabelId, LabelSet, VertexId};
    pub use ceci_query::{OrderStrategy, PaperQuery, PlanOptions, QueryGraph, QueryPlan};
}
