//! `ceci-match` — command-line subgraph matching.
//!
//! ```text
//! ceci-match --graph data.graph --query pattern.graph [options]
//!
//!   --graph FILE       data graph (labeled t/v/e format, or SNAP edge list
//!                      with --edge-list)
//!   --query FILE       query graph (labeled t/v/e format)
//!   --edge-list        treat --graph as a SNAP-style edge list (unlabeled)
//!   --directed         mark the edge-list input as directed
//!   --limit K          stop after K embeddings
//!   --workers N        worker threads (default: available cores)
//!   --strategy S       st | cgd | fgd (default fgd)
//!   --beta F           FGD threshold factor (default 0.2)
//!   --order S          bfs | edge-rank | path-rank (default edge-rank,
//!                      the library's default order)
//!   --print            print each embedding (default: count only)
//!   --stats            print plan/index reports (EXPLAIN-style)
//!   --estimate N       skip enumeration; estimate the count with N walks
//! ```

#![forbid(unsafe_code)]

use std::process::exit;

use ceci::prelude::*;
use ceci_graph::io;

struct Args {
    graph: String,
    query: String,
    edge_list: bool,
    directed: bool,
    limit: Option<u64>,
    workers: usize,
    strategy: Strategy,
    order: OrderStrategy,
    print: bool,
    stats: bool,
    estimate: Option<u64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: ceci-match --graph FILE --query FILE [--edge-list] [--directed] \
         [--limit K] [--workers N] [--strategy st|cgd|fgd] [--beta F] \
         [--order bfs|edge-rank|path-rank] [--print] [--stats] [--estimate N]"
    );
    exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        graph: String::new(),
        query: String::new(),
        edge_list: false,
        directed: false,
        limit: None,
        workers: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        strategy: Strategy::FineDynamic { beta: 0.2 },
        order: PlanOptions::default().order,
        print: false,
        stats: false,
        estimate: None,
    };
    let mut beta = 0.2f64;
    let mut strategy_name = String::from("fgd");
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        raw.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < raw.len() {
        match raw[i].as_str() {
            "--graph" => args.graph = value(&mut i),
            "--query" => args.query = value(&mut i),
            "--edge-list" => args.edge_list = true,
            "--directed" => args.directed = true,
            "--limit" => args.limit = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            "--workers" => args.workers = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--strategy" => strategy_name = value(&mut i),
            "--beta" => beta = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--order" => {
                args.order = match value(&mut i).as_str() {
                    "bfs" => OrderStrategy::Bfs,
                    "edge-rank" => OrderStrategy::EdgeRank,
                    "path-rank" => OrderStrategy::PathRank,
                    _ => usage(),
                }
            }
            "--print" => args.print = true,
            "--stats" => args.stats = true,
            "--estimate" => args.estimate = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    args.strategy = match strategy_name.as_str() {
        "st" => Strategy::Static,
        "cgd" => Strategy::CoarseDynamic,
        "fgd" => Strategy::FineDynamic { beta },
        _ => usage(),
    };
    if args.graph.is_empty() || args.query.is_empty() {
        usage();
    }
    args
}

fn main() {
    let args = parse_args();
    let t0 = std::time::Instant::now();
    let graph = if args.edge_list {
        io::load_edge_list(&args.graph, args.directed)
    } else {
        io::load_labeled(&args.graph)
    }
    .unwrap_or_else(|e| {
        eprintln!("error loading graph {}: {e}", args.graph);
        exit(1)
    });
    let query_graph = io::load_labeled(&args.query).unwrap_or_else(|e| {
        eprintln!("error loading query {}: {e}", args.query);
        exit(1)
    });
    let query = QueryGraph::from_graph(&query_graph).unwrap_or_else(|e| {
        eprintln!("error: invalid query graph: {e}");
        exit(1)
    });
    let load_time = t0.elapsed();

    let t1 = std::time::Instant::now();
    let plan = QueryPlan::with_options(
        query,
        &graph,
        &PlanOptions {
            order: args.order,
            ..Default::default()
        },
    );
    let ceci = Ceci::build(&graph, &plan);
    let build_time = t1.elapsed();

    if args.stats {
        eprint!(
            "{}",
            ceci::core::explain_plan(&plan, &ceci, &graph, Default::default())
        );
        eprint!("{}", ceci::core::explain_index(&ceci, &plan));
    }
    if let Some(walks) = args.estimate {
        let est = ceci::core::estimate_embeddings(
            &graph,
            &plan,
            &ceci,
            &ceci::core::estimate::EstimateOptions { walks, seed: 0xE57 },
        );
        let (lo, hi) = est.interval(2.0);
        eprintln!(
            "estimated embeddings: {:.1} ± {:.1} (95% ~ [{:.1}, {:.1}]) from {} walks",
            est.mean, est.std_error, lo, hi, est.walks
        );
        println!("{:.0}", est.mean);
        return;
    }

    let t2 = std::time::Instant::now();
    let result = enumerate_parallel(
        &graph,
        &plan,
        &ceci,
        &ParallelOptions {
            workers: args.workers.max(1),
            strategy: args.strategy,
            limit: args.limit,
            collect: args.print,
            ..Default::default()
        },
    );
    let enum_time = t2.elapsed();

    if args.stats {
        eprintln!(
            "times: load {load_time:?}, build {build_time:?}, enumerate {enum_time:?} \
             ({} work units, {} recursive calls)",
            result.num_units, result.counters.recursive_calls
        );
    }
    if args.print {
        for emb in result.embeddings.as_deref().unwrap_or(&[]) {
            let cells: Vec<String> = emb.iter().map(|v| v.to_string()).collect();
            println!("{}", cells.join(" "));
        }
    }
    println!("{}", result.total_embeddings);
}
