//! One module per paper table/figure, plus the `kernels`, `physical`,
//! `faults`, `service` and `shard` sweeps; each exposes
//! `run(...)` printing its rows/series (plus a JSON record dump under
//! `bench_results/`).

pub mod ablation;
pub mod faults;
pub mod fig11;
pub mod fig12;
pub mod fig13_14;
pub mod fig15;
pub mod fig16_17;
pub mod fig18;
pub mod fig19;
pub mod fig20;
pub mod fig7_8;
pub mod fig9_10;
pub mod kernels;
pub mod physical;
pub mod queries;
pub mod service;
pub mod shard;
pub mod table1;
pub mod table2;

use std::time::Duration;

use ceci_baselines::{enumerate_dualsim, enumerate_psgl, DualSimOptions, PsglOptions};
use ceci_core::Counters;
use ceci_graph::Graph;
use ceci_query::{PlanOptions, QueryGraph, QueryPlan};

/// Default worker count for parallel experiments: the host's cores, but at
/// least 4 and at most 16. Workers above the physical core count still
/// produce meaningful results because all makespans are modeled from
/// per-worker thread-CPU time (see `ceci_core::metrics::thread_cpu_time`).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(4, 16)
}

/// Timed PsgL-lite run (plan + enumeration). Returns the modeled makespan
/// (Σ per-level max-chunk CPU time) so thread sweeps are meaningful on
/// hosts with fewer cores than workers.
pub fn run_psgl(graph: &Graph, query: QueryGraph, workers: usize) -> (Duration, Counters, u64) {
    let (result, plan_time) =
        crate::harness::time(|| QueryPlan::with_options(query, graph, &PlanOptions::paper()));
    let plan = result;
    let psgl = enumerate_psgl(
        graph,
        &plan,
        &PsglOptions {
            workers,
            ..Default::default()
        },
    );
    (
        plan_time + psgl.modeled_time,
        psgl.counters,
        psgl.total_embeddings,
    )
}

/// Timed DualSim-lite run; returns the *modeled* time (CPU + paged IO).
pub fn run_dualsim(graph: &Graph, query: QueryGraph) -> (Duration, Counters, u64) {
    let plan = QueryPlan::with_options(query, graph, &PlanOptions::paper());
    let result = enumerate_dualsim(graph, &plan, &DualSimOptions::default());
    (
        result.modeled_time,
        result.counters,
        result.total_embeddings,
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn default_workers_positive() {
        assert!(super::default_workers() >= 1);
    }
}
