//! # ceci-distributed
//!
//! Simulated distributed-memory CECI (paper §5). The paper runs on a
//! 16-node MPI cluster with a lustre file system; this crate reproduces the
//! *system design* on one host:
//!
//! * machines → executors of one recovery state machine ([`recovery`]),
//!   their worker threads → lanes of a single-threaded discrete-event
//!   scheduler ([`run`]) whose virtual clock orders every event,
//! * `MPI_Send`/`MPI_Recv` pivot scatter and `MPI_Get` work stealing →
//!   per-machine queues inside that state machine, with virtual-time
//!   communication charges,
//! * replicated in-memory graph vs. shared lustre-like storage → a
//!   [`config::CostModel`] that charges per-entry IO latency in shared mode,
//! * pivot placement → degree-based workload estimates with vertex-id
//!   scaling and Jaccard-similarity cluster co-location.
//!
//! The simulation executes the real algorithms — every cluster is really
//! enumerated and its CPU time measured — and reports both the real wall
//! time and a *modeled makespan* that includes the virtual IO/communication
//! time, the quantity Figures 16, 17, and 20 are about. The same recovery
//! state machine is what `ceci-service`'s shard coordinator drives over
//! real processes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod fault;
pub mod partition;
pub mod physical;
pub mod recovery;
pub mod run;

pub use config::{ClusterConfig, CostModel, StorageMode};
pub use fault::{CrashFault, FaultPlan, FaultPlanError, StragglerFault};
pub use partition::{distribute_pivots, jaccard, workload_estimate, Partition};
pub use physical::{
    count_fragment, extract_fragment, run_physical, AdjacencySource, Fragment, FragmentCount,
    PhysicalResult, PlanSpec,
};
pub use recovery::{Recovery, Work, WorkKind};
pub use run::{
    count_pivot_cluster, run_distributed, run_distributed_traced, run_distributed_with_faults,
    DistributedResult, MachineReport, RecoveryStats,
};
