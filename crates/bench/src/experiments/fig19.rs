//! Figure 19 — breakdown of CECI's speedup over the bare-graph baseline
//! into its techniques, by toggling them cumulatively:
//!
//! 1. `bare`        — backtracking on the raw graph (the baseline),
//! 2. `+index`      — CECI TE tables, no refinement, edge verification,
//! 3. `+refine`     — plus reverse-BFS refinement,
//! 4. `+intersect`  — plus NTE tables and intersection (full CECI).
//!
//! All runs include index construction time, as the paper does.

use std::time::{Duration, Instant};

use ceci_baselines::{enumerate_bare, BareOptions};
use ceci_core::{
    enumerate_parallel, BuildOptions, Ceci, EnumOptions, ParallelOptions, Strategy, VerifyMode,
};
use ceci_query::{PaperQuery, PlanOptions, QueryPlan};

use crate::datasets::{Dataset, Scale};
use crate::experiments::default_workers;
use crate::table::{fmt_duration, fmt_speedup, Table};

fn timed_ceci_variant(
    graph: &ceci_graph::Graph,
    q: PaperQuery,
    workers: usize,
    build: BuildOptions,
    verify: VerifyMode,
) -> (Duration, u64) {
    let start = Instant::now();
    let plan = QueryPlan::with_options(q.build(), graph, &PlanOptions::paper());
    let ceci = Ceci::build_with(graph, &plan, build);
    let result = enumerate_parallel(
        graph,
        &plan,
        &ceci,
        &ParallelOptions {
            workers,
            strategy: Strategy::CoarseDynamic, // same distribution for all variants
            enumeration: EnumOptions {
                verify,
                ..EnumOptions::default()
            },
            ..Default::default()
        },
    );
    (start.elapsed(), result.total_embeddings)
}

/// Runs Figure 19.
pub fn run(scale: Scale) {
    let workers = default_workers();
    println!(
        "Figure 19: speedup over the bare-graph baseline, technique by technique \
         ({workers} workers, CGD for all variants), scale {scale:?}\n"
    );
    for d in [Dataset::Wt, Dataset::Lj] {
        let graph = d.build(scale);
        let mut t = Table::new(vec![
            "Query",
            "bare",
            "+index",
            "+refine",
            "+intersect",
            "speedup(final)",
        ]);
        for q in [PaperQuery::Qg1, PaperQuery::Qg3, PaperQuery::Qg5] {
            let (bare, bn) = {
                let start = Instant::now();
                let plan = QueryPlan::with_options(q.build(), &graph, &PlanOptions::paper());
                let r = enumerate_bare(
                    &graph,
                    &plan,
                    &BareOptions {
                        workers,
                        ..Default::default()
                    },
                );
                (start.elapsed(), r.total_embeddings)
            };
            let (idx, idx_n) = timed_ceci_variant(
                &graph,
                q,
                workers,
                BuildOptions {
                    build_nte: false,
                    refine: false,
                },
                VerifyMode::EdgeVerification,
            );
            let (refine, refine_n) = timed_ceci_variant(
                &graph,
                q,
                workers,
                BuildOptions {
                    build_nte: false,
                    refine: true,
                },
                VerifyMode::EdgeVerification,
            );
            let (full, full_n) = timed_ceci_variant(
                &graph,
                q,
                workers,
                BuildOptions {
                    build_nte: true,
                    refine: true,
                },
                VerifyMode::Intersection,
            );
            assert_eq!(bn, idx_n);
            assert_eq!(bn, refine_n);
            assert_eq!(bn, full_n);
            t.row(vec![
                q.name().to_string(),
                fmt_duration(bare),
                fmt_duration(idx),
                fmt_duration(refine),
                fmt_duration(full),
                fmt_speedup(bare.as_secs_f64() / full.as_secs_f64()),
            ]);
        }
        println!("{}:", d.abbrev());
        t.print();
        println!();
    }
    println!(
        "(paper: CECI including construction overhead is up to two orders of magnitude \
         faster than bare-graph listing; construction takes <5% of total runtime)"
    );
}
