//! Differential tests for observability: attaching the per-depth profile
//! must be **invisible** to the engine's answers.
//!
//! For every worker count, the run with `profile: true` must produce the
//! *bit-identical* exact [`Counters`] struct, the same embedding count, and
//! (when collected) the same canonical embedding list as the run with
//! profiling off. On top of that, the profile's own
//! exact totals must reconcile with the global counters — per-depth
//! intersections sum to `intersection_ops`, per-depth calls to
//! `recursive_calls`, per-depth emissions to `embeddings`.

use ceci_core::{enumerate_parallel, Ceci, Counters, ParallelOptions, ParallelResult};
use ceci_graph::generators::{barabasi_albert, erdos_renyi, inject_random_labels};
use ceci_graph::Graph;
use ceci_query::{PaperQuery, QueryGraph, QueryPlan};

fn datasets() -> Vec<(&'static str, Graph)> {
    vec![
        (
            "ba-600",
            inject_random_labels(&barabasi_albert(600, 3, 0xCEC1), 3, 0x1AB),
        ),
        (
            "er-400",
            inject_random_labels(&erdos_renyi(400, 2_400, 0x5EED), 2, 0x2AB),
        ),
    ]
}

fn queries() -> Vec<(&'static str, QueryGraph)> {
    vec![
        ("qg1", PaperQuery::Qg1.build()),
        ("qg3", PaperQuery::Qg3.build()),
        ("path4", ceci_query::catalog::path(4)),
        ("cycle5", ceci_query::catalog::cycle(5)),
    ]
}

fn run(
    graph: &Graph,
    plan: &QueryPlan,
    ceci: &Ceci,
    workers: usize,
    profile: bool,
    collect: bool,
) -> ParallelResult {
    enumerate_parallel(
        graph,
        plan,
        ceci,
        &ParallelOptions {
            workers,
            profile,
            collect,
            ..Default::default()
        },
    )
}

fn assert_identical(label: &str, off: &ParallelResult, on: &ParallelResult) {
    assert_eq!(
        off.total_embeddings, on.total_embeddings,
        "{label}: embedding count changed with profiling on"
    );
    // `Counters` is `PartialEq + Eq` over every exact field — one assert
    // covers recursive calls, intersection ops, edge verifications,
    // injectivity and symmetry rejections, and embeddings.
    let (a, b): (&Counters, &Counters) = (&off.counters, &on.counters);
    assert_eq!(a, b, "{label}: exact counters changed with profiling on");
    assert_eq!(
        off.embeddings, on.embeddings,
        "{label}: collected embeddings changed with profiling on"
    );
    assert!(
        off.profile.is_none(),
        "{label}: profile materialized without being requested"
    );
    let p = on
        .profile
        .as_ref()
        .unwrap_or_else(|| panic!("{label}: profile requested but missing"));
    assert_eq!(
        p.total_intersections(),
        on.counters.intersection_ops,
        "{label}: per-depth intersections must sum to the global counter"
    );
    assert_eq!(
        p.total_calls(),
        on.counters.recursive_calls,
        "{label}: per-depth calls must sum to the global counter"
    );
    assert_eq!(
        p.total_emitted(),
        on.counters.embeddings,
        "{label}: per-depth emissions must sum to the global counter"
    );
}

#[test]
fn profiling_is_invisible_across_kernels_and_workers() {
    for (gname, graph) in datasets() {
        for (qname, query) in queries() {
            let plan = QueryPlan::new(query, &graph);
            let ceci = Ceci::build(&graph, &plan);
            for workers in [1usize, 4] {
                let label = format!("{gname}/{qname}/{workers}w");
                let off = run(&graph, &plan, &ceci, workers, false, false);
                let on = run(&graph, &plan, &ceci, workers, true, false);
                assert_identical(&label, &off, &on);
            }
        }
    }
}

#[test]
fn profiling_preserves_collected_embeddings_bitwise() {
    let graph = inject_random_labels(&barabasi_albert(300, 3, 0xF00D), 2, 0x3AB);
    for (qname, query) in queries() {
        let plan = QueryPlan::new(query, &graph);
        let ceci = Ceci::build(&graph, &plan);
        for workers in [1usize, 4] {
            let label = format!("collect/{qname}/{workers}w");
            let off = run(&graph, &plan, &ceci, workers, false, true);
            let on = run(&graph, &plan, &ceci, workers, true, true);
            assert_identical(&label, &off, &on);
            assert!(
                off.embeddings.is_some(),
                "{label}: collection must produce embeddings"
            );
        }
    }
}

#[test]
fn profiling_is_invisible_under_limits() {
    // First-k truncation takes the early-exit paths through the drain loop;
    // the batched profile flush must fire on those too.
    let graph = inject_random_labels(&barabasi_albert(500, 3, 0xBEEF), 3, 0x4AB);
    let plan = QueryPlan::new(PaperQuery::Qg1.build(), &graph);
    let ceci = Ceci::build(&graph, &plan);
    let full = run(&graph, &plan, &ceci, 1, false, false);
    assert!(full.total_embeddings > 8, "workload too small to truncate");
    for limit in [1u64, 7, full.total_embeddings / 2] {
        let mk = |profile: bool| {
            enumerate_parallel(
                &graph,
                &plan,
                &ceci,
                &ParallelOptions {
                    workers: 1,
                    limit: Some(limit),
                    profile,
                    ..Default::default()
                },
            )
        };
        let off = mk(false);
        let on = mk(true);
        assert_identical(&format!("limit={limit}"), &off, &on);
    }
}
