//! # ceci-core
//!
//! The Compact Embedding Cluster Index (CECI) and its enumeration engine —
//! the primary contribution of *CECI: Compact Embedding Cluster Index for
//! Scalable Subgraph Matching* (SIGMOD 2019), reproduced in Rust.
//!
//! Pipeline:
//!
//! 1. [`filter`] — Algorithm 1: BFS-ordered candidate filtering (LF / DF /
//!    NLCF) building the TE and NTE candidate tables.
//! 2. [`refine`] — Algorithm 2: reverse-BFS refinement with per-(u, v)
//!    cardinalities.
//! 3. [`Ceci`] — the frozen compact index (sorted keys, flat arenas, exact
//!    size accounting for Table 2).
//! 4. [`enumerate`] — set-intersection backtracking enumeration, with an
//!    edge-verification ablation mode (§4.1).
//! 5. [`extreme`] — Algorithm 3: ExtremeCluster decomposition under the β
//!    threshold.
//! 6. [`parallel`] — ST / CGD / FGD work distribution across threads.
//!
//! The paper's Figure 1 running example ships as a reusable fixture in
//! [`fixtures::paper`]; unit tests assert every intermediate table the paper
//! works through.

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod adaptive;
pub mod batch;
pub mod bitmap;
pub mod delta;
pub mod enumerate;
pub mod estimate;
pub mod explain;
pub mod extreme;
pub mod filter;
pub mod fixtures;
pub mod index;
pub mod intersect;
pub mod memo;
pub mod metrics;
pub mod parallel;
pub mod refine;
pub mod sink;
pub mod tables;
pub mod twins;

pub use adaptive::{plan_with_options, served_cost, AdaptiveOptions, PlanChoice};
pub use batch::{enumerate_from_frontier, PrefixSpec};
pub use bitmap::VertexBitmap;
pub use delta::{batch_delta, count_matches_using, BatchDelta};
pub use enumerate::{
    collect_embeddings, count_embeddings, enumerate_sequential, is_valid_embedding, EnumOptions,
    Enumerator, LeafMode, VerifyMode,
};
pub use estimate::{
    estimate_cost, estimate_embeddings, estimate_pivots, CostEstimate, Estimate, EstimateOptions,
};
pub use explain::{
    cluster_skew, explain_estimates, explain_index, explain_plan, explain_profile, explain_served,
    ClusterSkew,
};
pub use extreme::{decompose, decompose_with, WorkUnit};
pub use filter::{bfs_filter, bfs_filter_from, BuilderState};
pub use index::{BuildOptions, BuildStats, Ceci};
pub use memo::CleanCut;
pub use metrics::{Counters, Phase, PhaseSpan, PhaseTimeline};
pub use parallel::{
    count_parallel, enumerate_parallel, Cut, ParallelOptions, ParallelResult, Strategy,
};
pub use sink::{canonicalize, CancelToken, CollectSink, CountSink, EmbeddingSink, SharedBudget};
pub use twins::TwinTail;

// Re-exported so downstream crates profile enumeration without depending on
// `ceci-trace` directly.
pub use ceci_trace::{DepthProfile, DepthStat};
