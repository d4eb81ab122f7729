//! Ablations backing two in-text claims:
//!
//! * §2.2 — edge-ranked / path-ranked matching orders give up to 34.5%
//!   speedup over naive BFS order, more on larger queries.
//! * §4.1 — intersection-based enumeration improves runtime by 13–170% over
//!   edge verification, more with more non-tree edges.

use std::time::{Duration, Instant};

use ceci_core::{enumerate_sequential, BuildOptions, Ceci, CountSink, EnumOptions, VerifyMode};
use ceci_graph::extract_query;
use ceci_query::{OrderStrategy, PaperQuery, PlanOptions, QueryGraph, QueryPlan};

use crate::datasets::{Dataset, Scale};
use crate::harness::geometric_mean;
use crate::table::{fmt_duration, fmt_speedup, Table};

/// Runs the matching-order ablation (§2.2) on extracted labeled queries.
pub fn run_order(scale: Scale) {
    println!(
        "Ablation (§2.2): matching order — BFS vs edge-ranked vs path-ranked \
         (labeled queries on RD stand-in, all embeddings), scale {scale:?}\n"
    );
    let graph = Dataset::Rd.build(scale);
    let mut t = Table::new(vec![
        "query size",
        "BFS",
        "EdgeRank",
        "PathRank",
        "best gain",
    ]);
    let mut gains = Vec::new();
    for size in [6usize, 10, 16, 24] {
        let mut times = [Duration::ZERO; 3];
        let mut queries = 0;
        for seed in 0..4u64 {
            let Some(extracted) = extract_query(&graph, size, seed * 31 + size as u64, 10) else {
                continue;
            };
            let Ok(q) = QueryGraph::from_graph(&extracted.pattern) else {
                continue;
            };
            queries += 1;
            for (i, order) in [
                OrderStrategy::Bfs,
                OrderStrategy::EdgeRank,
                OrderStrategy::PathRank,
            ]
            .into_iter()
            .enumerate()
            {
                let start = Instant::now();
                let plan = QueryPlan::with_options(
                    q.clone(),
                    &graph,
                    &PlanOptions {
                        order,
                        ..Default::default()
                    },
                );
                let ceci = Ceci::build(&graph, &plan);
                let mut sink = CountSink::unbounded();
                enumerate_sequential(&graph, &plan, &ceci, EnumOptions::default(), &mut sink);
                times[i] += start.elapsed();
            }
        }
        if queries == 0 {
            continue;
        }
        let bfs = times[0].as_secs_f64();
        let best = times[1].min(times[2]).as_secs_f64();
        let gain = (bfs / best - 1.0) * 100.0;
        gains.push(bfs / best);
        t.row(vec![
            size.to_string(),
            fmt_duration(times[0] / queries),
            fmt_duration(times[1] / queries),
            fmt_duration(times[2] / queries),
            format!("{gain:.1}%"),
        ]);
    }
    t.print();
    println!("\n(paper: ranked orders give up to 34.5% over naive BFS, growing with query size)");
}

/// Runs the intersection-vs-edge-verification ablation (§4.1) on QG1–QG5.
pub fn run_intersection(scale: Scale) {
    println!(
        "Ablation (§4.1): intersection vs edge verification during enumeration \
         (same full CECI index, single thread), scale {scale:?}\n"
    );
    let mut improvements = Vec::new();
    for d in [Dataset::Wt, Dataset::Lj] {
        let graph = d.build(scale);
        let mut t = Table::new(vec![
            "Query",
            "NTEs",
            "intersection",
            "edge verify",
            "improvement",
        ]);
        for q in PaperQuery::ALL {
            let plan = QueryPlan::with_options(q.build(), &graph, &PlanOptions::paper());
            let ntes = plan
                .query()
                .vertices()
                .map(|u| plan.backward_nte(u).len())
                .sum::<usize>();
            let ceci = Ceci::build_with(&graph, &plan, BuildOptions::default());
            let timing = |verify: VerifyMode| {
                let start = Instant::now();
                let mut sink = CountSink::unbounded();
                let counters = enumerate_sequential(
                    &graph,
                    &plan,
                    &ceci,
                    EnumOptions {
                        verify,
                        ..Default::default()
                    },
                    &mut sink,
                );
                (start.elapsed(), counters.embeddings)
            };
            let (ti, ni) = timing(VerifyMode::Intersection);
            let (tv, nv) = timing(VerifyMode::EdgeVerification);
            assert_eq!(ni, nv, "{} on {}", q.name(), d.abbrev());
            let improvement = (tv.as_secs_f64() / ti.as_secs_f64() - 1.0) * 100.0;
            improvements.push(tv.as_secs_f64() / ti.as_secs_f64());
            t.row(vec![
                q.name().to_string(),
                ntes.to_string(),
                fmt_duration(ti),
                fmt_duration(tv),
                format!("{improvement:.0}%"),
            ]);
        }
        println!("{}:", d.abbrev());
        t.print();
        println!();
    }
    println!(
        "geomean ratio: {} (paper: 13-170% improvement, larger for more NTEs)",
        fmt_speedup(geometric_mean(&improvements))
    );
}
