//! `ceci-service`: a concurrent subgraph-query service over TCP.
//!
//! The serving layer wraps the CECI matching engine (build-once index,
//! enumerate-many) in the machinery a long-running query server needs:
//!
//! * a **graph registry** of named, immutable CSR graphs with
//!   replace-on-`LOAD` epochs ([`registry`]),
//! * an **index cache** memoizing frozen CECI structures by
//!   `(graph epoch, canonical query hash)` under an LRU byte budget
//!   ([`cache`]) — repeated query templates skip the BFS filter / reverse
//!   refinement entirely,
//! * a **bounded worker pool** with admission control: a full queue answers
//!   `BUSY` instead of building invisible backlog ([`pool`]),
//! * an **event-driven server core**: one epoll readiness loop owns every
//!   connection, each a sans-IO line-protocol state machine with a bounded
//!   write queue, scaling to 10k+ mostly-idle connections — backpressure
//!   degrades to `BUSY` (admission, connection cap) and slow-reader
//!   disconnects before memory does ([`server`]),
//! * **per-request deadlines** threaded into enumeration as cooperative
//!   cancellation (`ceci_core::CancelToken`): a drain the deadline stops
//!   answers the exact count of the pivots that drained plus a random-walk
//!   estimate of the rest, as an interval (`mode=APPROX exact=…`,
//!   [`server`]),
//! * **one way to serve a query**: every `MATCH` / `ESTIMATE` / `EXPLAIN`
//!   resolves, in one function, to one execution path — the label-pair
//!   admission filter answering provably-zero queries before any build,
//!   single-flight deduplication of concurrent identical builds
//!   ([`cache`]), leaf-level redundant-extension pruning; `MATCH ... RAW`
//!   is the one per-request lever left for differential verification,
//! * a **streaming-mutation layer**: `ADDEDGE`/`DELEDGE`/`BATCH` verbs
//!   publish the next immutable CSR snapshot as the current one patched by
//!   the batch's edges (the exact label-pair index rebuilt at a
//!   configurable threshold, maintained in between), cached indexes are
//!   **repaired** under their plan instead of rebuilt as a miss — the old
//!   index's candidate sets re-tested at the per-batch dirty endpoints, then
//!   the frozen build ([`registry`], [`cache`]) — and `REGISTER`ed **continuous
//!   queries** emit per-batch embedding-count deltas (`EVENT DELTA`)
//!   to their connection ([`server`]),
//! * **rent the connectivity-first plan, buy the portfolio**: a cache miss
//!   plans the paper's root with the default connectivity-first order
//!   (the most-constrained vertex next) and builds that index, estimating
//!   nothing (a `MATCH` drains on its own
//!   `WORKERS n`, one worker without it); the plan portfolio is
//!   scored at most once per cached entry, and only after the entry's own
//!   reuse has spent as much enumeration work as scoring and one rebuild
//!   cost (`ceci_core::adaptive`); `ESTIMATE` answers the cardinality
//!   question directly,
//! * a line-oriented **text protocol** ([`protocol`]) and lock-free
//!   **metrics** surfaced via `STATS` ([`metrics`]),
//! * a blocking **client** doubling as a closed-loop load generator
//!   ([`client`]).
//!
//! Everything is std-only: no async runtime, no external crates. Three bins
//! ship with the crate: `ceci-serve` (the daemon), `ceci-client` (one-shot
//! commands and interactive piping) and
//! `ceci-shard` (the same server core over state that holds a fragment
//! plane, [`shard`]: it answers a coordinator's `PREPARE` / `EXEC`).

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod cache;
pub mod client;
mod conn;
pub mod coord;
mod event_loop;
mod index;
pub mod metrics;
mod mutate;
pub mod pool;
pub mod protocol;
mod query;
pub mod registry;
pub mod server;
pub mod shard;
#[cfg(test)]
mod sim;
mod stats;

pub use cache::{CachedIndex, Flight, FlightGuard, FlightProbe, FlightWait, IndexCache};
pub use client::{run_load, Client, LoadConfig, LoadReport, Response, RetryOutcome, RetryPolicy};
pub use coord::{
    scatter_match, spawn_heartbeat, validate_shards, CoordConfig, CoordError, HeartbeatHandle,
    ScatterReport, ShardLiveness, ShardSet, ShardStatus,
};
pub use metrics::{LatencyHistogram, ServerMetrics};
pub use pool::{Admission, PoolHandle, WorkerPool};
pub use protocol::{parse_request, ChaosCommand, ErrorCode, MatchForm, ParseError, Request};
pub use registry::{BatchOutcome, ContinuousRegistry, GraphEntry, GraphRegistry};
pub use server::{start, start_with_state, ServeConfig, ServerHandle, ServerState, ShutdownReport};
pub use shard::{FragmentPlane, GraphStore};
