//! # ceci-graph
//!
//! Graph substrate for the CECI subgraph-matching system ([Bhattarai, Liu,
//! Huang — *CECI: Compact Embedding Cluster Index for Scalable Subgraph
//! Matching*, SIGMOD 2019]).
//!
//! Provides:
//!
//! * [`Graph`] — labeled graphs over sorted-adjacency CSR storage ([`Csr`]),
//!   with a label inverted index, the [`LabelPairIndex`] admission summary,
//!   and, on a label-major numbering, the class bounds from which the
//!   paper's NLC filter counts neighbour labels as spans of each list.
//!   A streamed batch of edge mutations nets to the next snapshot in one
//!   sort ([`Graph::with_batch`]), which patches the CSR in one pass.
//! * [`GraphBuilder`] — incremental construction.
//! * [`io`] — SNAP edge lists, the labeled `t/v/e` text format, and a compact
//!   binary format used by the simulated shared store.
//! * [`generators`] — deterministic Erdős–Rényi, Graph500-style Kronecker
//!   (R-MAT), and labeled-graph generators standing in for the paper's
//!   datasets.
//! * [`rank`] — a graph's copy numbered by ascending `(label class,
//!   degree)`, and the [`Ranking`] between file ids and ranks.
//! * [`extract`] — DFS-based connected query extraction (§6.2).
//! * [`stats`] — dataset statistics and the distributed pivot workload
//!   estimates of §5.

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod builder;
pub mod csr;
pub mod error;
pub mod extract;
pub mod generators;
pub mod graph;
pub mod ids;
pub mod io;
pub mod labels;
pub mod rank;
pub mod stats;

pub use builder::GraphBuilder;
pub use csr::Csr;
pub use error::{GraphError, Result};
pub use extract::{extract_query, ExtractedQuery};
pub use graph::{Graph, GraphStamp, LabelPairIndex};
pub use ids::{lid, vid, LabelId, VertexId};
pub use labels::LabelSet;
pub use rank::{rank_by_label_and_degree, Ranking};
pub use stats::GraphStats;
