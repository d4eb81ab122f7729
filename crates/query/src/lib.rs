//! # ceci-query
//!
//! Query graphs and preprocessing for the CECI subgraph-matching system
//! (SIGMOD 2019). Implements §2.2 of the paper end to end:
//!
//! * [`QueryGraph`] — connected, undirected, labeled query graphs, plus a
//!   [`catalog`] of the paper's Figure-6 queries (QG1–QG5) and common shapes.
//! * [`candidates`] — the label / degree / neighborhood-label-count filters
//!   applied globally to seed candidate sets.
//! * [`root`] — root selection by `argmin |candidate(u)| / degree(u)`.
//! * [`tree`] — the BFS query tree with tree / non-tree edge split.
//! * [`order`] — matching orders: edge-ranked (the default), BFS (the
//!   paper's, [`PlanOptions::paper`]), path-ranked.
//! * [`nec`] — NEC equivalence groups and complete Grochow–Kellis
//!   automorphism breaking.
//! * [`hash`] — canonical (isomorphism-invariant, label-aware) query
//!   hashing, the index-cache key of the serving layer.
//! * [`QueryPlan`] — the bundle every matching engine consumes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod candidates;
pub mod catalog;
pub mod hash;
pub mod nec;
pub mod order;
pub mod plan;
pub mod query_graph;
pub mod root;
pub mod tree;

pub use candidates::{admission_check, candidates_of, AdmissionVerdict};
pub use catalog::PaperQuery;
pub use hash::{canonical_hash, splitmix64, CanonicalQuery};
pub use nec::OrderConstraint;
pub use order::{is_valid_order, matching_order, OrderStrategy};
pub use plan::{PlanOptions, QueryPlan};
pub use query_graph::{QueryGraph, QueryGraphError};
pub use tree::QueryTree;
