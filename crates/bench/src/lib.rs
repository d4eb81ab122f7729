//! # ceci-bench
//!
//! Benchmark harness reproducing every table and figure of the CECI paper's
//! evaluation (§6) on synthetic stand-in datasets, plus the intersection
//! kernel sweep (`repro kernels`) and the service, fault and shard runs.
//!
//! Run `cargo run --release -p ceci-bench --bin repro -- help` for the
//! experiment index; each subcommand prints the rows/series of its paper
//! counterpart and dumps JSON records under `bench_results/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod datasets;
pub mod experiments;
pub mod harness;
pub mod json;
pub mod table;

pub use datasets::{Dataset, Scale};
