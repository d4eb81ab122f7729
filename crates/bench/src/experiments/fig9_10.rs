//! Figures 9 & 10 — larger labeled queries, first 1,024 embeddings.
//!
//! Query graphs of size 3–50 are DFS-extracted from the data graph (§6.2),
//! so each has at least one embedding. Figure 9 compares CECI with the
//! CFLMatch-style engine on RD and HU; Figure 10 compares with the
//! TurboIso-style engine on HU. All engines single-threaded, first 1,024
//! embeddings, averaging over several queries per size.

use std::time::Duration;

use ceci_baselines::{
    enumerate_boosted_with, enumerate_cfl, enumerate_turboiso, BoostOptions, CflOptions,
    TurboOptions, VertexEquivalence,
};
use ceci_graph::{extract_query, Graph};
use ceci_query::{PlanOptions, QueryGraph, QueryPlan};

use crate::datasets::{Dataset, Scale};
use crate::harness::{geometric_mean, persist_records, run_ceci, RunRecord};
use crate::table::{fmt_duration, fmt_speedup, Table};

/// First-k limit used by the paper.
pub const LIMIT: u64 = 1024;

/// Query sizes swept (the paper sweeps 3–50 in steps).
pub const SIZES: [usize; 6] = [4, 8, 12, 16, 24, 32];

/// Queries per size (the paper runs 100; scaled down for quick runs).
fn queries_per_size(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 5,
        Scale::Full => 20,
    }
}

fn extract_queries(graph: &Graph, size: usize, count: usize) -> Vec<QueryGraph> {
    let mut out = Vec::new();
    let mut seed = size as u64 * 1000;
    while out.len() < count && seed < size as u64 * 1000 + 10_000 {
        if let Some(q) = extract_query(graph, size, seed, 5) {
            if let Ok(qg) = QueryGraph::from_graph(&q.pattern) {
                out.push(qg);
            }
        }
        seed += 1;
    }
    out
}

/// Runs Figure 9: CECI vs CFL-lite on RD and HU.
pub fn run_fig9(scale: Scale) {
    println!(
        "Figure 9: first {LIMIT} embeddings of labeled queries (size sweep) — CECI vs \
         CFLMatch-lite, single-threaded, scale {scale:?}\n"
    );
    let mut records = Vec::new();
    for d in [Dataset::Rd, Dataset::Hu] {
        let graph = d.build(scale);
        let mut t = Table::new(vec![
            "query size",
            "queries",
            "CECI avg",
            "CFL-lite avg",
            "speedup",
        ]);
        let mut speedups = Vec::new();
        for size in SIZES {
            let queries = extract_queries(&graph, size, queries_per_size(scale));
            if queries.is_empty() {
                continue;
            }
            let mut ceci_total = Duration::ZERO;
            let mut cfl_total = Duration::ZERO;
            for q in &queries {
                let (ct, cc, _) = run_ceci(&graph, q.clone(), 1, Some(LIMIT));
                ceci_total += ct;
                records.push(RunRecord::new(
                    "ceci",
                    d.abbrev(),
                    &format!("q{size}"),
                    1,
                    ct,
                    &cc,
                ));
                let (res, ft) = crate::harness::time(|| {
                    let plan = QueryPlan::with_options(q.clone(), &graph, &PlanOptions::paper());
                    enumerate_cfl(
                        &graph,
                        &plan,
                        &CflOptions {
                            limit: Some(LIMIT),
                            collect: false,
                        },
                    )
                });
                cfl_total += ft;
                records.push(RunRecord::new(
                    "cfl-lite",
                    d.abbrev(),
                    &format!("q{size}"),
                    1,
                    ft,
                    &res.counters,
                ));
            }
            let n = queries.len() as u32;
            let (ceci_avg, cfl_avg) = (ceci_total / n, cfl_total / n);
            let s = cfl_avg.as_secs_f64() / ceci_avg.as_secs_f64();
            speedups.push(s);
            t.row(vec![
                size.to_string(),
                queries.len().to_string(),
                fmt_duration(ceci_avg),
                fmt_duration(cfl_avg),
                fmt_speedup(s),
            ]);
        }
        println!("{} ({}):", d.name(), d.abbrev());
        t.print();
        println!(
            "geomean speedup on {}: {}\n",
            d.abbrev(),
            fmt_speedup(geometric_mean(&speedups))
        );
    }
    println!("(paper: CECI beats CFLMatch by 3.5x on RD and 1.9x on HU on average)");
    persist_records("fig9", &records);
}

/// Runs Figure 10: CECI vs TurboIso-lite on HU.
pub fn run_fig10(scale: Scale) {
    println!(
        "Figure 10: first {LIMIT} embeddings of labeled queries on HU — CECI vs \
         TurboIso-lite vs Boosted-TurboIso-lite, single-threaded, scale {scale:?}\n"
    );
    let graph = Dataset::Hu.build(scale);
    // BoostIso adapts the data graph offline; compute the twin classes once
    // per dataset and report the one-time cost separately.
    let (eq, eq_time) = crate::harness::time(|| VertexEquivalence::compute(&graph));
    println!(
        "(one-time BoostIso graph adaptation: {} — {} nontrivial twin classes covering {} vertices)\n",
        crate::table::fmt_duration(eq_time),
        eq.num_nontrivial_classes(),
        eq.compressed_vertices()
    );
    let mut records = Vec::new();
    let mut t = Table::new(vec![
        "query size",
        "queries",
        "CECI avg",
        "TurboIso avg",
        "Boosted avg",
        "vs Turbo",
        "vs Boosted",
    ]);
    let mut speedups = Vec::new();
    let mut boosted_speedups = Vec::new();
    for size in SIZES {
        let queries = extract_queries(&graph, size, queries_per_size(scale));
        if queries.is_empty() {
            continue;
        }
        let mut ceci_total = Duration::ZERO;
        let mut turbo_total = Duration::ZERO;
        let mut boost_total = Duration::ZERO;
        for q in &queries {
            let (ct, cc, _) = run_ceci(&graph, q.clone(), 1, Some(LIMIT));
            ceci_total += ct;
            records.push(RunRecord::new(
                "ceci",
                "HU",
                &format!("q{size}"),
                1,
                ct,
                &cc,
            ));
            let (res, tt) = crate::harness::time(|| {
                let plan = QueryPlan::with_options(q.clone(), &graph, &PlanOptions::paper());
                enumerate_turboiso(
                    &graph,
                    &plan,
                    &TurboOptions {
                        limit: Some(LIMIT),
                        collect: false,
                    },
                )
            });
            turbo_total += tt;
            records.push(RunRecord::new(
                "turboiso-lite",
                "HU",
                &format!("q{size}"),
                1,
                tt,
                &res.counters,
            ));
            let (bres, bt) = crate::harness::time(|| {
                let plan = QueryPlan::with_options(q.clone(), &graph, &PlanOptions::paper());
                enumerate_boosted_with(
                    &graph,
                    &plan,
                    &eq,
                    &BoostOptions {
                        limit: Some(LIMIT),
                        collect: false,
                    },
                )
            });
            boost_total += bt;
            records.push(RunRecord::new(
                "boosted-turboiso-lite",
                "HU",
                &format!("q{size}"),
                1,
                bt,
                &bres.counters,
            ));
        }
        let n = queries.len() as u32;
        let (ceci_avg, turbo_avg, boost_avg) = (ceci_total / n, turbo_total / n, boost_total / n);
        let s = turbo_avg.as_secs_f64() / ceci_avg.as_secs_f64();
        let sb = boost_avg.as_secs_f64() / ceci_avg.as_secs_f64();
        speedups.push(s);
        boosted_speedups.push(sb);
        t.row(vec![
            size.to_string(),
            queries.len().to_string(),
            fmt_duration(ceci_avg),
            fmt_duration(turbo_avg),
            fmt_duration(boost_avg),
            fmt_speedup(s),
            fmt_speedup(sb),
        ]);
    }
    t.print();
    println!(
        "geomean speedup: {} over TurboIso-lite, {} over Boosted-TurboIso-lite \
         (paper: 2.71x over TurboIso, 2.52x over Boosted-TurboIso; note the dense-random \
         HU stand-in has little twin structure for BoostIso to exploit, unlike the real \
         Human PPI graph)",
        fmt_speedup(geometric_mean(&speedups)),
        fmt_speedup(geometric_mean(&boosted_speedups))
    );
    persist_records("fig10", &records);
    twin_rich_supplement(scale);
}

/// Supplemental series: on a twin-rich graph (the pendant-heavy WT stand-in)
/// with low-degree query nodes, BoostIso's compression pays off — the
/// regime the BoostIso paper targets.
fn twin_rich_supplement(scale: Scale) {
    const SUP_LIMIT: u64 = 100_000;
    println!(
        "\nFigure 10 supplement: twin-rich graph (WT stand-in), first {SUP_LIMIT} \
         embeddings — TurboIso-lite vs Boosted-TurboIso-lite\n"
    );
    let graph = Dataset::Wt.build(scale);
    let (eq, eq_time) = crate::harness::time(|| VertexEquivalence::compute(&graph));
    println!(
        "(adaptation: {} — {} twin classes covering {} vertices)\n",
        crate::table::fmt_duration(eq_time),
        eq.num_nontrivial_classes(),
        eq.compressed_vertices()
    );
    let mut t = Table::new(vec![
        "query",
        "embeddings",
        "TurboIso",
        "Boosted",
        "compressed embeddings",
        "Boosted speedup",
    ]);
    for (name, query) in [
        ("star3", ceci_query::catalog::star(3)),
        ("path4", ceci_query::catalog::path(4)),
    ] {
        let plan = QueryPlan::with_options(query, &graph, &PlanOptions::paper());
        let (tres, tt) = crate::harness::time(|| {
            enumerate_turboiso(
                &graph,
                &plan,
                &TurboOptions {
                    limit: Some(SUP_LIMIT),
                    collect: false,
                },
            )
        });
        let (bres, bt) = crate::harness::time(|| {
            enumerate_boosted_with(
                &graph,
                &plan,
                &eq,
                &BoostOptions {
                    limit: Some(SUP_LIMIT),
                    collect: false,
                },
            )
        });
        assert_eq!(tres.total_embeddings, bres.total_embeddings, "{name}");
        t.row(vec![
            name.to_string(),
            tres.total_embeddings.to_string(),
            fmt_duration(tt),
            fmt_duration(bt),
            bres.compressed_embeddings.to_string(),
            fmt_speedup(tt.as_secs_f64() / bt.as_secs_f64()),
        ]);
    }
    t.print();
}
