//! Figures 16 & 17 — distributed scalability (simulated cluster): speedup
//! of the modeled makespan with 1–16 machines (4 threads each), for the
//! replicated in-memory graph (Fig 16) and the shared lustre-like store
//! (Fig 17).

use ceci_distributed::{run_distributed, ClusterConfig, StorageMode};
use ceci_query::{PaperQuery, PlanOptions, QueryPlan};

use crate::datasets::{Dataset, Scale};
use crate::table::{fmt_duration, fmt_speedup, Table};

const MACHINE_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

/// Runs Figure 16 (replicated).
pub fn run_fig16(scale: Scale) {
    run_distributed_scaling("Figure 16", StorageMode::Replicated, scale);
}

/// Runs Figure 17 (shared storage).
pub fn run_fig17(scale: Scale) {
    run_distributed_scaling("Figure 17", StorageMode::Shared, scale);
}

fn run_distributed_scaling(title: &str, storage: StorageMode, scale: Scale) {
    println!(
        "{title}: modeled-makespan speedup with increasing machines (4 threads each, \
         {storage:?} storage), scale {scale:?}\n"
    );
    for d in [Dataset::Fs, Dataset::Ok] {
        let graph = d.build(scale);
        for q in [PaperQuery::Qg1, PaperQuery::Qg4] {
            let plan = QueryPlan::with_options(q.build(), &graph, &PlanOptions::paper());
            let mut t = Table::new(vec![
                "machines",
                "makespan (modeled)",
                "speedup",
                "embeddings",
                "stolen clusters",
            ]);
            let mut base = None;
            for &machines in &MACHINE_COUNTS {
                let cfg = ClusterConfig {
                    machines,
                    threads_per_machine: 4,
                    storage,
                    ..Default::default()
                };
                let result = run_distributed(&graph, &plan, &cfg);
                let b = *base.get_or_insert(result.makespan);
                let stolen: usize = result.reports.iter().map(|r| r.stolen_clusters).sum();
                t.row(vec![
                    machines.to_string(),
                    fmt_duration(result.makespan),
                    fmt_speedup(b.as_secs_f64() / result.makespan.as_secs_f64()),
                    result.total_embeddings.to_string(),
                    stolen.to_string(),
                ]);
            }
            println!("{} / {}:", d.abbrev(), q.name());
            t.print();
            println!();
        }
    }
    match storage {
        StorageMode::Replicated => println!(
            "(paper: up to 13.7x / 14.9x at 16 machines on FS; smaller graphs flatten early \
             for lack of workload)"
        ),
        StorageMode::Shared => println!(
            "(paper: up to 12.6x / 13.6x at 16 machines — slightly below the replicated mode \
             because CECI construction pays shared-storage IO)"
        ),
    }
}
