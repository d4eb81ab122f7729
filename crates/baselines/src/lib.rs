//! # ceci-baselines
//!
//! From-scratch implementations of the algorithms the CECI paper compares
//! against, sharing the same [`ceci_query::QueryPlan`] preprocessing so the
//! comparisons isolate the engine differences:
//!
//! * [`mod@reference`] — brute-force oracle used by every correctness test.
//! * [`bare`] — index-free parallel backtracking (the Figure 19 baseline).
//! * [`psgl`] — PsgL-style all-embeddings-at-once level expansion with
//!   materialized intermediates (Figures 7, 8, 13, 14, 18).
//! * [`turboiso`] — TurboIso-style per-region candidate exploration with
//!   edge verification (Figure 10).
//! * [`boostiso`] — Boosted-TurboIso: BoostIso-style data-vertex twin
//!   compression with compressed search + expansion (Figure 10).
//! * [`cfl`] — CFLMatch-style CPI (TE-only index) + edge verification, with
//!   the adjacency-matrix size guard the paper criticizes (Figure 9, §6.4).
//! * [`dualsim`] — DualSim-style paged-IO behavioural model (Figures 7, 8).
//!
//! Simplifications relative to the originals are documented in each module
//! and in DESIGN.md; all engines are validated against [`mod@reference`] on
//! random graphs in the workspace property tests.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bare;
pub mod boostiso;
pub mod cfl;
pub mod dualsim;
pub mod psgl;
pub mod reference;
pub mod turboiso;

pub use bare::{enumerate_bare, BareOptions, BareResult};
pub use boostiso::{
    enumerate_boosted, enumerate_boosted_with, BoostOptions, BoostResult, VertexEquivalence,
};
pub use cfl::{enumerate_cfl, AdjacencyMatrix, CflOptions, CflResult};
pub use dualsim::{enumerate_dualsim, DualSimOptions, DualSimResult, PagedGraph};
pub use psgl::{enumerate_psgl, PsglOptions, PsglResult};
pub use reference::{count_all, enumerate_all};
pub use turboiso::{enumerate_turboiso, TurboOptions, TurboResult};
