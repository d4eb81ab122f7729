//! Criterion micro-bench: CECI construction (Algorithm 1 + Algorithm 2) on
//! stand-in datasets — the <5%-of-runtime cost the paper reports (§6.6).

use ceci_bench::{Dataset, Scale};
use ceci_core::{BuildOptions, Ceci};
use ceci_query::{PaperQuery, QueryPlan};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_index_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_build");
    group.sample_size(10);
    for dataset in [Dataset::Wt, Dataset::Yt, Dataset::Rd] {
        let graph = dataset.build(Scale::Quick);
        for query in [PaperQuery::Qg1, PaperQuery::Qg4] {
            let plan = QueryPlan::new(query.build(), &graph);
            group.bench_with_input(
                BenchmarkId::new(dataset.abbrev(), query.name()),
                &plan,
                |b, plan| {
                    b.iter(|| std::hint::black_box(Ceci::build(&graph, plan)));
                },
            );
        }
    }
    group.finish();
}

fn bench_build_stages(c: &mut Criterion) {
    let mut group = c.benchmark_group("build_stages");
    group.sample_size(10);
    let graph = Dataset::Wt.build(Scale::Quick);
    let plan = QueryPlan::new(PaperQuery::Qg3.build(), &graph);
    group.bench_function("filter_only", |b| {
        b.iter(|| {
            std::hint::black_box(Ceci::build_with(
                &graph,
                &plan,
                BuildOptions {
                    build_nte: true,
                    refine: false,
                },
            ))
        });
    });
    group.bench_function("filter_and_refine", |b| {
        b.iter(|| std::hint::black_box(Ceci::build(&graph, &plan)));
    });
    group.finish();
}

criterion_group!(benches, bench_index_build, bench_build_stages);
criterion_main!(benches);
