//! `ceci-trace` — structured tracing and per-stage profiling for the CECI
//! stack.
//!
//! This crate is always compiled (no feature gate) and has **zero external
//! dependencies** so it can be threaded through every layer of the workspace
//! without pulling anything from crates.io. It provides:
//!
//! * [`Tracer`] — a span recorder with atomic span-id allocation and a
//!   process-epoch monotonic clock; spans are recorded at stage boundaries
//!   into one shared store.
//! * [`SpanRecord`] — one named stage occurrence (`service.request`,
//!   `service.repair`, `distributed.machine{m}`, …) with span id / parent
//!   id, nanosecond timestamp + duration, and small static-key integer args.
//! * [`DepthProfile`] — a preallocated per-matching-order-depth profile for
//!   the enumeration hot path: exact candidate fan-out / intersection-op /
//!   backtrack counters plus stride-sampled coarse timestamps, with **zero
//!   allocations** in the steady state.
//! * [`prom`] — Prometheus text-exposition writer and a tiny validating
//!   parser (used by tests and CI; no external dependency).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod profile;
pub mod prom;
pub mod tracer;

pub use profile::{DepthProfile, DepthStat};
pub use prom::PromWriter;
pub use tracer::{SpanRecord, Tracer};
