//! Figure 12 — effect of β on per-worker finish times (QG3 on the FS
//! stand-in): smaller β trims the tail skew at the cost of more
//! decomposition work.

use ceci_core::{enumerate_parallel, Ceci, ParallelOptions, Strategy};
use ceci_query::{PaperQuery, PlanOptions, QueryPlan};

use crate::datasets::{Dataset, Scale};
use crate::experiments::default_workers;
use crate::table::{fmt_duration, Table};

/// β values swept (the paper's Figure 12 uses 1, 0.2, 0.1).
pub const BETAS: [f64; 3] = [1.0, 0.2, 0.1];

/// Runs Figure 12.
pub fn run(scale: Scale) {
    let workers = default_workers();
    println!(
        "Figure 12: per-worker busy time under different beta (QG3 on FS stand-in, \
         {workers} workers), scale {scale:?}\n"
    );
    let graph = Dataset::Fs.build(scale);
    let plan = QueryPlan::with_options(PaperQuery::Qg3.build(), &graph, &PlanOptions::paper());
    let ceci = Ceci::build(&graph, &plan);
    let mut t = Table::new(vec![
        "beta",
        "units",
        "decompose",
        "min worker",
        "max worker",
        "skew (max/min)",
        "wall",
    ]);
    for beta in BETAS {
        let result = enumerate_parallel(
            &graph,
            &plan,
            &ceci,
            &ParallelOptions {
                workers,
                strategy: Strategy::FineDynamic { beta },
                ..Default::default()
            },
        );
        let min = result.worker_busy.iter().min().copied().unwrap_or_default();
        let max = result.worker_busy.iter().max().copied().unwrap_or_default();
        let skew = if min.as_secs_f64() > 0.0 {
            max.as_secs_f64() / min.as_secs_f64()
        } else {
            f64::INFINITY
        };
        t.row(vec![
            format!("{beta}"),
            result.num_units.to_string(),
            fmt_duration(result.distribute_time),
            fmt_duration(min),
            fmt_duration(max),
            format!("{skew:.2}"),
            fmt_duration(result.enumerate_time),
        ]);
    }
    t.print();
    println!(
        "\n(paper shape: smaller beta -> more units, higher one-time decomposition cost, \
         flatter per-worker profile at the tail)"
    );
}
