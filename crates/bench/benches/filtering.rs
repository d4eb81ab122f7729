//! Criterion micro-bench: the candidate filters (LF/DF/NLCF) and the
//! per-query-vertex global candidate computation, under file ids (label
//! index, adjacency walks) and label-major ranks (class ranges, spans).

use ceci_bench::{Dataset, Scale};
use ceci_graph::{rank_by_label_and_degree, Graph};
use ceci_query::candidates::{candidates_of, compute_candidates};
use ceci_query::{PaperQuery, QueryGraph};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// The RD stand-in numbered as `LOAD` serves it.
fn labeled_graph() -> Graph {
    rank_by_label_and_degree(&Dataset::Rd.build(Scale::Quick)).0
}

fn bench_candidates(c: &mut Criterion) {
    let mut group = c.benchmark_group("candidates");
    group.sample_size(20);
    let graph = labeled_graph();
    // A labeled 3-path query carved from the label alphabet.
    let query = QueryGraph::with_labels(
        &[ceci_graph::lid(1), ceci_graph::lid(2), ceci_graph::lid(3)],
        &[(0, 1), (1, 2)],
    )
    .unwrap();
    group.bench_function("compute_all", |b| {
        b.iter(|| std::hint::black_box(compute_candidates(&query, &graph)));
    });
    group.bench_function("single_vertex", |b| {
        b.iter(|| std::hint::black_box(candidates_of(&query, &graph, ceci_graph::vid(1))));
    });
    group.finish();
}

fn bench_nlc_filter(c: &mut Criterion) {
    let mut group = c.benchmark_group("nlc_filter");
    group.sample_size(20);
    let file = Dataset::Rd.build(Scale::Quick);
    let ranked = labeled_graph();
    let query = PaperQuery::Qg1.build();
    for (name, graph) in [("walk", &file), ("spans", &ranked)] {
        group.bench_with_input(BenchmarkId::from_parameter(name), graph, |b, graph| {
            b.iter(|| std::hint::black_box(compute_candidates(&query, graph)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_candidates, bench_nlc_filter);
criterion_main!(benches);
