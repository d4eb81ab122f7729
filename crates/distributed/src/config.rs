//! Cluster configuration and cost model for the distributed simulation.

use std::time::Duration;

/// How the data graph is made available to machines (§5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageMode {
    /// Every machine holds the whole graph in memory ("in-memory data
    /// graph"): no IO charges; pivot workload estimates may use neighbor
    /// degrees.
    Replicated,
    /// One copy on a networked (lustre-like) store in CSR format ("shared
    /// data graph"): every adjacency entry touched during CECI construction
    /// and stealing is charged IO latency; workload estimates see only local
    /// degrees.
    Shared,
}

/// Virtual-time cost model for communication and storage. The simulation
/// really computes and *accounts* (never sleeps) these latencies, reporting
/// a modeled makespan.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Fixed cost of one MPI-style message (send/recv pair).
    pub msg_latency: Duration,
    /// Marginal cost per pivot id inside an assignment/steal message.
    pub per_pivot_comm: Duration,
    /// Cost per candidate entry fetched from a remote CECI during stealing.
    pub per_entry_comm: Duration,
    /// Cost per adjacency entry read from the shared store.
    pub per_entry_io: Duration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            // Commodity-cluster ballparks: ~50µs per small message,
            // bandwidth-bound marginal costs per item.
            msg_latency: Duration::from_micros(50),
            per_pivot_comm: Duration::from_nanos(100),
            per_entry_comm: Duration::from_nanos(40),
            per_entry_io: Duration::from_nanos(200),
        }
    }
}

/// Full configuration of a simulated cluster run.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Number of machines.
    pub machines: usize,
    /// Worker threads per machine (the paper runs 4 OpenMP threads per
    /// machine in Figures 16–17).
    pub threads_per_machine: usize,
    /// Storage mode.
    pub storage: StorageMode,
    /// Cost model for comm/IO accounting.
    pub costs: CostModel,
    /// Enable MPI_Get-style work stealing from the machine with the most
    /// unexplored clusters.
    pub work_stealing: bool,
    /// Co-locate highly overlapping clusters (Jaccard ≥ threshold) on the
    /// same machine (replicated mode only).
    pub jaccard_colocation: bool,
    /// Jaccard similarity threshold (paper: 0.5).
    pub jaccard_threshold: f64,
    /// Only the largest this-many clusters participate in similarity
    /// grouping (paper: 1,000).
    pub jaccard_top_k: usize,
    /// Workload cap per machine as a multiple of the mean machine load
    /// ("the total workload does not exceed the maximum allowed workload").
    pub max_load_factor: f64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            machines: 4,
            threads_per_machine: 4,
            storage: StorageMode::Replicated,
            costs: CostModel::default(),
            work_stealing: true,
            jaccard_colocation: true,
            jaccard_threshold: 0.5,
            jaccard_top_k: 1000,
            max_load_factor: 1.25,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = ClusterConfig::default();
        assert_eq!(c.jaccard_threshold, 0.5);
        assert_eq!(c.jaccard_top_k, 1000);
        assert_eq!(c.threads_per_machine, 4);
        assert!(c.work_stealing);
    }

    #[test]
    fn cost_model_nonzero() {
        let m = CostModel::default();
        assert!(m.msg_latency > Duration::ZERO);
        assert!(m.per_entry_io > m.per_entry_comm);
    }
}
