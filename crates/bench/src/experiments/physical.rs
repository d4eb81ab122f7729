//! §8 future work — physical decomposition: each machine holds only the
//! radius-`depth(T_q)` fragment around its pivots instead of the whole
//! graph. The headline is the per-machine memory share as machines scale.

use ceci_distributed::{run_physical, ClusterConfig};
use ceci_query::{PaperQuery, PlanOptions, QueryPlan};

use crate::datasets::{Dataset, Scale};
use crate::table::{fmt_duration, Table};

/// Runs the physical-decomposition experiment.
pub fn run(scale: Scale) {
    println!(
        "Future work (§8): physical decomposition — per-machine graph fragments instead \
         of a replicated graph, scale {scale:?}\n"
    );
    for d in [Dataset::Wt, Dataset::Lj] {
        let graph = d.build(scale);
        for q in [PaperQuery::Qg1, PaperQuery::Qg3] {
            let plan = QueryPlan::with_options(q.build(), &graph, &PlanOptions::paper());
            let mut t = Table::new(vec![
                "machines",
                "embeddings",
                "max fragment edges",
                "max edge share",
                "mean edge share",
                "extract (max)",
                "match (max)",
            ]);
            for machines in [1usize, 2, 4, 8, 16] {
                let cfg = ClusterConfig {
                    machines,
                    jaccard_colocation: false,
                    ..Default::default()
                };
                let result = run_physical(&graph, &plan, &cfg);
                let max_edges = result
                    .reports
                    .iter()
                    .map(|r| r.run.fragment_edges)
                    .max()
                    .unwrap_or(0);
                let mean_frac = result.reports.iter().map(|r| r.edge_fraction).sum::<f64>()
                    / result.reports.len().max(1) as f64;
                let extract = result
                    .reports
                    .iter()
                    .map(|r| r.run.extract_time)
                    .max()
                    .unwrap_or_default();
                let match_t = result
                    .reports
                    .iter()
                    .map(|r| r.run.match_time)
                    .max()
                    .unwrap_or_default();
                t.row(vec![
                    machines.to_string(),
                    result.total_embeddings.to_string(),
                    max_edges.to_string(),
                    format!("{:.0}%", 100.0 * result.max_edge_fraction),
                    format!("{:.0}%", 100.0 * mean_frac),
                    fmt_duration(extract),
                    fmt_duration(match_t),
                ]);
            }
            println!("{} / {}:", d.abbrev(), q.name());
            t.print();
            println!();
        }
    }
    println!(
        "(embedding counts stay exact while the mean per-machine share of the graph \
         shrinks with machine count — the property that would let the logical \
         decomposition scale to trillion-edge graphs; hub fragments bound the max share \
         in power-law graphs)"
    );
}
