//! Figure 15 — CPU usage over the program lifetime: low during serialized
//! load/preprocess/filter phases, near-100% during enumeration (which
//! dominates the runtime).

use ceci_core::{enumerate_parallel, Ceci, ParallelOptions, Phase, PhaseTimeline, Strategy};
use ceci_query::{PaperQuery, PlanOptions, QueryPlan};

use crate::datasets::{Dataset, Scale};
use crate::experiments::default_workers;
use crate::table::{fmt_duration, Table};

/// Runs Figure 15 on the OK stand-in (the paper uses Orkut, 32 threads).
pub fn run(scale: Scale) {
    let workers = default_workers();
    println!(
        "Figure 15: phase-tagged utilization on OK stand-in ({workers} workers), scale {scale:?}\n"
    );
    let mut t = Table::new(vec![
        "Query",
        "phase",
        "wall",
        "% of total",
        "active workers",
        "utilization",
    ]);
    for q in [PaperQuery::Qg1, PaperQuery::Qg3, PaperQuery::Qg5] {
        let mut timeline = PhaseTimeline::new();
        let graph = timeline.record(Phase::Load, 1, || Dataset::Ok.build(scale));
        let plan = timeline.record(Phase::Preprocess, 1, || {
            QueryPlan::with_options(q.build(), &graph, &PlanOptions::paper())
        });
        let ceci = timeline.record(Phase::Filter, 1, || Ceci::build(&graph, &plan));
        timeline.record(Phase::Enumerate, workers, || {
            enumerate_parallel(
                &graph,
                &plan,
                &ceci,
                &ParallelOptions {
                    workers,
                    strategy: Strategy::FineDynamic { beta: 0.2 },
                    ..Default::default()
                },
            )
        });
        let total = timeline.total().as_secs_f64();
        for span in timeline.spans() {
            t.row(vec![
                q.name().to_string(),
                span.phase.name().to_string(),
                fmt_duration(span.duration),
                format!("{:.1}%", 100.0 * span.duration.as_secs_f64() / total),
                span.active_workers.to_string(),
                format!(
                    "{:.0}%",
                    100.0 * span.active_workers.min(workers) as f64 / workers as f64
                ),
            ]);
        }
        t.row(vec![
            q.name().to_string(),
            "MEAN".to_string(),
            fmt_duration(timeline.total()),
            "100%".to_string(),
            String::new(),
            format!("{:.0}%", 100.0 * timeline.mean_utilization(workers)),
        ]);
    }
    t.print();
    println!(
        "\n(paper shape: enumeration takes >95% of runtime at ~100% per-core utilization; \
         serialized load/CECI phases keep early utilization low)"
    );
}
