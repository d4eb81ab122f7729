//! Figure 20 — breakdown of CECI construction into IO / communication /
//! compute on the shared (lustre-like) store, as machines scale.

use ceci_distributed::{run_distributed, ClusterConfig, StorageMode};
use ceci_query::{PaperQuery, PlanOptions, QueryPlan};

use crate::datasets::{Dataset, Scale};
use crate::table::{fmt_duration, Table};

/// Runs Figure 20 on the FS stand-in.
pub fn run(scale: Scale) {
    println!(
        "Figure 20: CECI construction breakdown (IO / comm / compute) on shared storage, \
         FS stand-in, scale {scale:?}\n"
    );
    let graph = Dataset::Fs.build(scale);
    let plan = QueryPlan::with_options(PaperQuery::Qg1.build(), &graph, &PlanOptions::paper());
    let mut t = Table::new(vec!["machines", "IO", "comm", "compute", "IO share"]);
    for machines in [2usize, 4, 8, 16] {
        let cfg = ClusterConfig {
            machines,
            threads_per_machine: 4,
            storage: StorageMode::Shared,
            ..Default::default()
        };
        let result = run_distributed(&graph, &plan, &cfg);
        let (io, comm, compute) = result.build_breakdown();
        let total = (io + comm + compute).as_secs_f64();
        t.row(vec![
            machines.to_string(),
            fmt_duration(io),
            fmt_duration(comm),
            fmt_duration(compute),
            format!("{:.0}%", 100.0 * io.as_secs_f64() / total.max(1e-12)),
        ]);
    }
    t.print();
    println!(
        "\n(paper shape: on networked storage the construction cost is dominated by \
         on-demand loads of graph partitions — IO-heavy, growing with machine count)"
    );
}
