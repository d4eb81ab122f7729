//! Kernel sweep (§4 microscope): size-ratio sweep over the intersection
//! kernels plus an end-to-end check of the dispatch the enumerator runs.
//!
//! The sweep intersects a fixed-size small list against haystacks 1×…1024×
//! larger and reports, per kernel function and for the dispatch
//! (`intersect_into`), the exact comparison count and wall time. The
//! end-to-end section runs the QG1–QG5 enumeration under the dispatch and
//! checks every count against the `ceci-baselines` reference matcher
//! (`"counts_identical": true` on each record, asserted in-run). Beside it
//! the general path gets a number: per query, the wall of
//! `enumerate_parallel` at one worker over the wall of `enumerate_sequential`
//! on the same plan and index (`st1_over_sequential`, median of 5 each) —
//! what a served `MATCH` pays for going through the entry point every request
//! form shares. Everything is dumped to `bench_results/kernels.json` so
//! regressions are diffable.

use std::time::{Duration, Instant};

use ceci_baselines::reference;
use ceci_core::intersect::{gallop_intersect, intersect_into, merge_intersect, simd_intersect};
use ceci_core::{
    enumerate_parallel, enumerate_sequential, Ceci, CountSink, EnumOptions, ParallelOptions,
    Strategy,
};
use ceci_graph::VertexId;
use ceci_query::{PaperQuery, PlanOptions, QueryPlan};

use crate::json::JsonValue;
use crate::table::Table;
use crate::{Dataset, Scale};

/// An intersection kernel: appends `small ∩ large` to `out` and adds the
/// comparisons it made to `ops`.
type KernelFn = fn(&[VertexId], &[VertexId], &mut Vec<VertexId>, &mut u64);

/// What the sweep times, by name: the scalar merge reference first (every
/// speedup is against it), the two kernels the dispatch picks between, and
/// the dispatch itself.
const KERNELS: [(&str, KernelFn); 4] = [
    ("merge", merge_intersect),
    ("gallop", gallop_intersect),
    ("simd", simd_intersect),
    ("dispatch", intersect_into),
];

/// Haystack-to-needle size ratios of the sweep (1:1 … 1:1024).
const RATIOS: [usize; 6] = [1, 4, 16, 64, 256, 1024];
/// Needle size — comfortably above the SIMD block so every kernel exercises
/// its steady-state loop.
const SMALL_LEN: usize = 512;

/// Deterministic pseudo-random stream (splitmix64) — keeps the sweep
/// reproducible without pulling an RNG dependency into the bench crate.
fn splitmix64(state: &mut u64) -> u64 {
    let out = ceci_query::splitmix64(*state);
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    out
}

/// A sorted, deduplicated list of `len` ids drawn from `0..universe`.
fn random_sorted(len: usize, universe: u32, seed: u64) -> Vec<VertexId> {
    let mut state = seed;
    let mut out: Vec<VertexId> = (0..len * 2)
        .map(|_| VertexId((splitmix64(&mut state) % universe as u64) as u32))
        .collect();
    out.sort_unstable();
    out.dedup();
    out.truncate(len);
    out
}

fn time_kernel(
    kernel: KernelFn,
    a: &[VertexId],
    b: &[VertexId],
    reps: u32,
) -> (Duration, u64, usize) {
    let mut out = Vec::new();
    let mut ops = 0u64;
    // Warm-up + correctness probe.
    kernel(a, b, &mut out, &mut ops);
    let hits = out.len();
    ops = 0;
    let start = Instant::now();
    for _ in 0..reps {
        out.clear();
        kernel(a, b, &mut out, &mut ops);
        std::hint::black_box(out.len());
    }
    (start.elapsed() / reps, ops / reps as u64, hits)
}

/// Paired runs behind each `st1_over_sequential` median.
const GENERAL_PATH_REPS: usize = 5;

fn median(mut walls: Vec<Duration>) -> Duration {
    walls.sort_unstable();
    walls[walls.len() / 2]
}

/// Runs the full experiment (sweep + end-to-end).
pub fn run(scale: Scale) {
    let mut records: Vec<JsonValue> = Vec::new();

    // ------------------------------------------------------------------
    // Part 1: size-ratio sweep.
    // ------------------------------------------------------------------
    println!("Intersection kernel sweep — |small| = {SMALL_LEN}, ratios 1:1 … 1:1024\n");
    let mut t = Table::new(vec![
        "ratio".to_string(),
        "kernel".to_string(),
        "ops".to_string(),
        "time".to_string(),
        "vs merge".to_string(),
    ]);
    let reps = match scale {
        Scale::Quick => 200,
        Scale::Full => 2_000,
    };
    for ratio in RATIOS {
        let universe = (SMALL_LEN * ratio * 4) as u32;
        let small = random_sorted(SMALL_LEN, universe, 0xcec1 ^ ratio as u64);
        let large = random_sorted(SMALL_LEN * ratio, universe, 0x5eed ^ ratio as u64);
        let (merge_time, _, expected_hits) = time_kernel(merge_intersect, &small, &large, reps);
        for (name, kernel) in KERNELS {
            let (time, ops, hits) = time_kernel(kernel, &small, &large, reps);
            assert_eq!(hits, expected_hits, "{name} diverges at 1:{ratio}");
            let speedup = merge_time.as_secs_f64() / time.as_secs_f64().max(1e-12);
            t.row(vec![
                format!("1:{ratio}"),
                name.to_string(),
                ops.to_string(),
                format!("{:.2} µs", time.as_secs_f64() * 1e6),
                format!("{speedup:.2}×"),
            ]);
            records.push(
                JsonValue::object()
                    .field("section", "sweep")
                    .field("ratio", ratio)
                    .field("kernel", name)
                    .field("ops", ops)
                    .field("nanos", time.as_nanos() as u64)
                    .field("hits", hits as u64)
                    .field("speedup_vs_merge", speedup),
            );
        }
    }
    println!("{}", t.render());

    // ------------------------------------------------------------------
    // Part 2: end-to-end enumeration under the dispatch.
    // ------------------------------------------------------------------
    println!("\nEnd-to-end enumeration (WT stand-in, sequential)\n");
    let graph = Dataset::Wt.build(scale);
    let mut t = Table::new(vec![
        "query".to_string(),
        "embeddings".to_string(),
        "intersect ops".to_string(),
        "time".to_string(),
    ]);
    let mut general = Table::new(vec![
        "query".to_string(),
        "sequential".to_string(),
        "ST x 1".to_string(),
        "ST1 / sequential".to_string(),
    ]);
    let st1 = ParallelOptions {
        workers: 1,
        strategy: Strategy::Static,
        ..ParallelOptions::default()
    };
    for query in [
        PaperQuery::Qg1,
        PaperQuery::Qg2,
        PaperQuery::Qg3,
        PaperQuery::Qg4,
        PaperQuery::Qg5,
    ] {
        let plan = QueryPlan::with_options(query.build(), &graph, &PlanOptions::paper());
        let ceci = Ceci::build(&graph, &plan);
        // The oracle shares no code with the enumerator: plain id-order
        // backtracking under the plan's symmetry constraints.
        let oracle_start = Instant::now();
        let expected = reference::count_all(&graph, plan.query(), plan.symmetry_constraints());
        println!(
            "{}: reference matcher counts {expected} in {:.1} s",
            query.name(),
            oracle_start.elapsed().as_secs_f64()
        );

        // The general path against the bare sequential loop, same plan and
        // index. Alternated, so a host-load drift lands on both.
        let (mut sequential_walls, mut st1_walls) = (Vec::new(), Vec::new());
        let mut counters = None;
        for _ in 0..GENERAL_PATH_REPS {
            let mut sink = CountSink::unbounded();
            let start = Instant::now();
            let sequential =
                enumerate_sequential(&graph, &plan, &ceci, EnumOptions::default(), &mut sink);
            sequential_walls.push(start.elapsed());
            let start = Instant::now();
            let result = enumerate_parallel(&graph, &plan, &ceci, &st1);
            st1_walls.push(start.elapsed());
            assert_eq!(
                result.counters,
                sequential,
                "{}: one worker is not the sequential drain",
                query.name()
            );
            counters = Some(sequential);
        }
        let counters = counters.expect("GENERAL_PATH_REPS is positive");
        assert_eq!(
            counters.embeddings,
            expected,
            "the dispatch disagrees with the reference matcher on {}",
            query.name()
        );
        let (sequential, st1) = (median(sequential_walls), median(st1_walls));
        t.row(vec![
            query.name().to_string(),
            counters.embeddings.to_string(),
            counters.intersection_ops.to_string(),
            format!("{:.2} ms", sequential.as_secs_f64() * 1e3),
        ]);
        records.push(
            JsonValue::object()
                .field("section", "end_to_end")
                .field("query", query.name())
                .field("embeddings", counters.embeddings)
                .field("intersection_ops", counters.intersection_ops)
                .field("nanos", sequential.as_nanos() as u64)
                .field("counts_identical", true),
        );
        let ratio = st1.as_secs_f64() / sequential.as_secs_f64().max(1e-12);
        general.row(vec![
            query.name().to_string(),
            format!("{:.2} ms", sequential.as_secs_f64() * 1e3),
            format!("{:.2} ms", st1.as_secs_f64() * 1e3),
            format!("{ratio:.3}"),
        ]);
        records.push(
            JsonValue::object()
                .field("section", "general_path")
                .field("query", query.name())
                .field("reps", GENERAL_PATH_REPS as u64)
                .field("sequential_nanos", sequential.as_nanos() as u64)
                .field("st1_nanos", st1.as_nanos() as u64)
                .field("st1_over_sequential", ratio),
        );
    }
    println!("{}", t.render());

    println!("\nOne-worker parallel entry point vs sequential drain (same plan, index)\n");
    println!("{}", general.render());

    crate::harness::persist("kernels", &JsonValue::Array(records));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_sorted_is_sorted_and_unique() {
        let v = random_sorted(100, 1_000, 42);
        assert!(v.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(v, random_sorted(100, 1_000, 42), "must be deterministic");
    }

    #[test]
    fn time_kernel_agrees_across_kernels() {
        let a = random_sorted(64, 400, 1);
        let b = random_sorted(512, 400, 2);
        let (_, _, expected) = time_kernel(merge_intersect, &a, &b, 2);
        for (name, kernel) in KERNELS {
            let (_, _, hits) = time_kernel(kernel, &a, &b, 2);
            assert_eq!(hits, expected, "{name}");
        }
    }
}
