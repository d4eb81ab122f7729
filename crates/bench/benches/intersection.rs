//! Criterion micro-bench: the §4.1 claim in isolation — intersection-based
//! vs edge-verification enumeration over the same index, plus the raw
//! kernels and the dispatch that picks between them.

use ceci_bench::{Dataset, Scale};
use ceci_core::intersect::{gallop_intersect, intersect_into, merge_intersect, simd_intersect};
use ceci_core::{enumerate_sequential, Ceci, CountSink, EnumOptions, VerifyMode};
use ceci_graph::VertexId;
use ceci_query::{PaperQuery, QueryPlan};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_verify_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("verify_mode");
    group.sample_size(10);
    let graph = Dataset::Wt.build(Scale::Quick);
    for query in [PaperQuery::Qg3, PaperQuery::Qg4, PaperQuery::Qg5] {
        let plan = QueryPlan::new(query.build(), &graph);
        let ceci = Ceci::build(&graph, &plan);
        for (name, verify) in [
            ("intersect", VerifyMode::Intersection),
            ("edge_verify", VerifyMode::EdgeVerification),
        ] {
            group.bench_with_input(BenchmarkId::new(name, query.name()), &ceci, |b, ceci| {
                b.iter(|| {
                    let mut sink = CountSink::unbounded();
                    std::hint::black_box(enumerate_sequential(
                        &graph,
                        &plan,
                        ceci,
                        EnumOptions {
                            verify,
                            ..Default::default()
                        },
                        &mut sink,
                    ))
                });
            });
        }
    }
    group.finish();
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("intersect_kernels");
    let a: Vec<VertexId> = (0..10_000u32).map(|i| VertexId(i * 3)).collect();
    let b_list: Vec<VertexId> = (0..10_000u32).map(|i| VertexId(i * 5)).collect();
    let small: Vec<VertexId> = (0..100u32).map(|i| VertexId(i * 317)).collect();
    group.bench_function("merge_balanced", |bch| {
        let mut out = Vec::new();
        let mut ops = 0;
        bch.iter(|| {
            intersect_into(&a, &b_list, &mut out, &mut ops);
            std::hint::black_box(out.len())
        });
    });
    group.bench_function("gallop_skewed", |bch| {
        let mut out = Vec::new();
        let mut ops = 0;
        bch.iter(|| {
            intersect_into(&small, &a, &mut out, &mut ops);
            std::hint::black_box(out.len())
        });
    });
    group.finish();
}

/// An intersection kernel: appends `small ∩ large` to `out` and adds the
/// comparisons it made to `ops`.
type KernelFn = fn(&[VertexId], &[VertexId], &mut Vec<VertexId>, &mut u64);

/// Size-ratio sweep (1:1 … 1:1024) across the kernels and the dispatch — the
/// wall-time companion to `repro kernels`, which also records exact op
/// counts into `bench_results/kernels.json`.
fn bench_kernel_ratio_sweep(c: &mut Criterion) {
    const SMALL_LEN: u32 = 512;
    const KERNELS: [(&str, KernelFn); 4] = [
        ("merge", merge_intersect),
        ("gallop", gallop_intersect),
        ("simd", simd_intersect),
        ("dispatch", intersect_into),
    ];
    let small: Vec<VertexId> = (0..SMALL_LEN).map(|i| VertexId(i * 7)).collect();
    for ratio in [1u32, 4, 16, 64, 256, 1024] {
        let mut group = c.benchmark_group(format!("kernel_sweep_1_{ratio}"));
        let large: Vec<VertexId> = (0..SMALL_LEN * ratio).map(|i| VertexId(i * 3)).collect();
        for (name, kernel) in KERNELS {
            group.bench_function(name, |bch| {
                let mut out = Vec::new();
                let mut ops = 0u64;
                bch.iter(|| {
                    out.clear();
                    kernel(&small, &large, &mut out, &mut ops);
                    std::hint::black_box(out.len())
                });
            });
        }
        group.finish();
    }
}

criterion_group!(
    benches,
    bench_verify_modes,
    bench_kernels,
    bench_kernel_ratio_sweep
);
criterion_main!(benches);
