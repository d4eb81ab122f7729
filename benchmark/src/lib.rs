//! Shared harness code of the perf ledger.
//!
//! Nothing in this library touches a `ceci-*` crate: generators, the wire
//! client, the statistics and the counting oracle are all the benchmark's
//! own, so a later change to the system can neither break the served-path
//! harness by changing a signature nor change a workload by changing a
//! generator. Only `src/bin/ledger_layers.rs` calls the library crates.

pub mod affinity;
pub mod gen;
pub mod json;
pub mod matcher;
pub mod metrics;
pub mod rng;
pub mod served;
pub mod stats;
pub mod wire;
pub mod workload;
