//! Criterion micro-bench: embedding enumeration over a prebuilt CECI —
//! sequential vs parallel strategies (ST/CGD/FGD).

use ceci_bench::{Dataset, Scale};
use ceci_core::{count_embeddings, enumerate_parallel, Ceci, ParallelOptions, Strategy};
use ceci_query::{PaperQuery, QueryPlan};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_sequential(c: &mut Criterion) {
    let mut group = c.benchmark_group("enumerate_sequential");
    group.sample_size(10);
    let graph = Dataset::Wt.build(Scale::Quick);
    for query in [PaperQuery::Qg1, PaperQuery::Qg3, PaperQuery::Qg5] {
        let plan = QueryPlan::new(query.build(), &graph);
        let ceci = Ceci::build(&graph, &plan);
        group.bench_with_input(
            BenchmarkId::from_parameter(query.name()),
            &ceci,
            |b, ceci| {
                b.iter(|| std::hint::black_box(count_embeddings(&graph, &plan, ceci)));
            },
        );
    }
    group.finish();
}

fn bench_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("enumerate_strategies");
    group.sample_size(10);
    let graph = Dataset::Wt.build(Scale::Quick);
    let plan = QueryPlan::new(PaperQuery::Qg1.build(), &graph);
    let ceci = Ceci::build(&graph, &plan);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8);
    for (name, strategy) in [
        ("ST", Strategy::Static),
        ("CGD", Strategy::CoarseDynamic),
        ("FGD", Strategy::FineDynamic { beta: 0.2 }),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                std::hint::black_box(enumerate_parallel(
                    &graph,
                    &plan,
                    &ceci,
                    &ParallelOptions {
                        workers,
                        strategy,
                        ..Default::default()
                    },
                ))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sequential, bench_strategies);
criterion_main!(benches);
