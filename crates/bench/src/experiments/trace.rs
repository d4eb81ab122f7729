//! `repro trace` — end-to-end trace capture plus the tracing-overhead gate.
//!
//! Captures one full pipeline run (CECI build → parallel enumeration →
//! 4-machine distributed simulation) into a [`ceci_trace::Tracer`], then
//! writes two artifacts under `bench_results/`:
//!
//! * `trace.json` — machine-readable summary: span inventory per category,
//!   the per-depth enumeration profile, and the measured tracing overhead.
//! * `trace_chrome.json` — Chrome `trace_event` JSON, loadable directly in
//!   `about:tracing` or Perfetto's legacy importer.
//!
//! It then runs the overhead gate: the QG1–QG5 end-to-end enumeration from
//! the kernels sweep, profile off vs. profile on, interleaved min-of-reps.
//! The run **asserts** that profiling costs `< 3%` (plus a small absolute
//! epsilon so sub-millisecond quick-scale runs are not decided by scheduler
//! noise) and that every counter is bit-identical with tracing on and off.

use std::time::{Duration, Instant};

use ceci_core::{enumerate_parallel_cancellable, record_build_spans, Ceci, ParallelOptions};
use ceci_distributed::{run_distributed_traced, ClusterConfig, StorageMode};
use ceci_query::{PaperQuery, QueryPlan};
use ceci_trace::{SpanRecord, Tracer};

use crate::experiments::default_workers;
use crate::json::JsonValue;
use crate::table::Table;
use crate::{Dataset, Scale};

/// Maximum tolerated relative tracing overhead on the end-to-end sweep.
const MAX_OVERHEAD_PCT: f64 = 3.0;
/// Absolute epsilon added to the overhead budget: quick-scale enumerations
/// finish in well under a millisecond per query, where one scheduler
/// preemption alone exceeds 3% — the epsilon keeps the gate meaningful on
/// long runs without making short runs flaky.
const OVERHEAD_EPSILON: Duration = Duration::from_micros(500);

/// Record the merged per-depth profile as `enumerate.depth{d}` child spans
/// tiling an `enumerate` root span of duration `enum_ns` ending at `end_ns`.
/// Each depth's share of the root is its share of the sampled time.
fn record_depth_spans(
    tracer: &Tracer,
    profile: &ceci_trace::DepthProfile,
    end_ns: u64,
    enum_ns: u64,
    args: Vec<(&'static str, u64)>,
) -> u64 {
    let start_ns = end_ns.saturating_sub(enum_ns.max(1));
    let root = tracer.span(
        "enumerate",
        "enumerate",
        0,
        0,
        start_ns,
        enum_ns.max(1),
        args,
    );
    let sampled_total = profile.total_time_ns().max(1);
    let mut cursor = start_ns;
    for (d, s) in profile.depths().iter().enumerate() {
        let dur = (enum_ns as u128 * s.time_ns as u128 / sampled_total as u128) as u64;
        tracer.record(SpanRecord {
            id: tracer.next_span_id(),
            parent: root,
            name: "enumerate.depth",
            index: Some(d as u32),
            cat: "enumerate",
            ts_ns: cursor,
            dur_ns: dur.max(1),
            tid: 0,
            args: vec![
                ("calls", s.calls),
                ("candidates", s.candidates),
                ("intersections", s.intersections),
                ("emitted", s.emitted),
                ("backtracks", s.backtracks),
                ("samples", s.samples),
            ],
        });
        cursor += dur;
    }
    root
}

/// Runs the capture + overhead gate and writes `bench_results/trace.json`
/// and `bench_results/trace_chrome.json`.
pub fn run(scale: Scale) {
    let workers = default_workers();
    println!("Trace capture: build -> enumerate ({workers} workers) -> distributed (4 machines)\n");

    // ------------------------------------------------------------------
    // Part 1: capture one full pipeline run.
    // ------------------------------------------------------------------
    let tracer = Tracer::new();
    let graph = Dataset::Wt.build(scale);
    let plan = QueryPlan::new(PaperQuery::Qg1.build(), &graph);

    let ceci = Ceci::build(&graph, &plan);
    record_build_spans(&tracer, 0, 0, ceci.stats());

    let t0 = Instant::now();
    let result = enumerate_parallel_cancellable(
        &graph,
        &plan,
        &ceci,
        &ParallelOptions {
            workers,
            profile: true,
            ..Default::default()
        },
        None,
    );
    let enum_wall = t0.elapsed();
    let profile = result
        .profile
        .as_ref()
        .expect("profile requested but missing");
    assert_eq!(
        profile.total_intersections(),
        result.counters.intersection_ops,
        "per-depth intersections must sum to the exact global counter"
    );
    record_depth_spans(
        &tracer,
        profile,
        tracer.now_ns(),
        enum_wall.as_nanos() as u64,
        vec![
            ("workers", workers as u64),
            ("embeddings", result.total_embeddings),
        ],
    );

    let config = ClusterConfig {
        machines: 4,
        storage: StorageMode::Replicated,
        ..Default::default()
    };
    let dist = run_distributed_traced(&graph, &plan, &config, None, Some(&tracer))
        .expect("fault-free traced run");
    assert_eq!(
        dist.total_embeddings, result.total_embeddings,
        "distributed run must agree with the single-machine run"
    );

    let spans = tracer.snapshot();
    let mut cats: Vec<(&str, u64, u64)> = Vec::new();
    for s in &spans {
        match cats.iter_mut().find(|(c, _, _)| *c == s.cat) {
            Some((_, n, ns)) => {
                *n += 1;
                *ns += s.dur_ns;
            }
            None => cats.push((s.cat, 1, s.dur_ns)),
        }
    }
    let mut t = Table::new(vec!["category", "spans", "span time"]);
    for (c, n, ns) in &cats {
        t.row(vec![
            c.to_string(),
            n.to_string(),
            format!("{:.2} ms", *ns as f64 / 1e6),
        ]);
    }
    t.print();

    println!("\nPer-depth enumeration profile (QG1 on WT, {workers} workers):\n");
    let mut t = Table::new(vec![
        "depth", "calls", "cand", "isect", "emit", "back", "time",
    ]);
    let mut depth_rows: Vec<JsonValue> = Vec::new();
    for (d, s) in profile.depths().iter().enumerate() {
        t.row(vec![
            d.to_string(),
            s.calls.to_string(),
            s.candidates.to_string(),
            s.intersections.to_string(),
            s.emitted.to_string(),
            s.backtracks.to_string(),
            format!("{:.2} ms", s.time_ns as f64 / 1e6),
        ]);
        depth_rows.push(
            JsonValue::object()
                .field("depth", d as u64)
                .field("calls", s.calls)
                .field("candidates", s.candidates)
                .field("intersections", s.intersections)
                .field("emitted", s.emitted)
                .field("backtracks", s.backtracks)
                .field("time_ns", s.time_ns)
                .field("samples", s.samples),
        );
    }
    t.print();

    // ------------------------------------------------------------------
    // Part 2: overhead gate — QG1-QG5 end-to-end, profile off vs. on.
    // ------------------------------------------------------------------
    let reps = match scale {
        Scale::Quick => 5,
        Scale::Full => 9,
    };
    println!("\nTracing overhead gate — QG1-QG5 end-to-end, min of {reps} interleaved reps\n");
    let mut t = Table::new(vec!["query", "plain", "profiled", "overhead"]);
    let mut plain_total = Duration::ZERO;
    let mut profiled_total = Duration::ZERO;
    let mut overhead_rows: Vec<JsonValue> = Vec::new();
    for query in [
        PaperQuery::Qg1,
        PaperQuery::Qg2,
        PaperQuery::Qg3,
        PaperQuery::Qg4,
        PaperQuery::Qg5,
    ] {
        let plan = QueryPlan::new(query.build(), &graph);
        let ceci = Ceci::build(&graph, &plan);
        let run_once = |profile: bool| {
            let start = Instant::now();
            let r = enumerate_parallel_cancellable(
                &graph,
                &plan,
                &ceci,
                &ParallelOptions {
                    workers: 1,
                    profile,
                    ..Default::default()
                },
                None,
            );
            (start.elapsed(), r)
        };
        let mut plain_min = Duration::MAX;
        let mut profiled_min = Duration::MAX;
        for _ in 0..reps {
            let (tp, rp) = run_once(false);
            let (tt, rt) = run_once(true);
            // Differential invariant: tracing must never change the answer
            // or any exact counter.
            assert_eq!(rp.total_embeddings, rt.total_embeddings, "{}", query.name());
            assert_eq!(rp.counters, rt.counters, "{}", query.name());
            plain_min = plain_min.min(tp);
            profiled_min = profiled_min.min(tt);
        }
        plain_total += plain_min;
        profiled_total += profiled_min;
        let pct = (profiled_min.as_secs_f64() / plain_min.as_secs_f64().max(1e-12) - 1.0) * 100.0;
        t.row(vec![
            query.name().to_string(),
            format!("{:.2} ms", plain_min.as_secs_f64() * 1e3),
            format!("{:.2} ms", profiled_min.as_secs_f64() * 1e3),
            format!("{pct:+.2}%"),
        ]);
        overhead_rows.push(
            JsonValue::object()
                .field("query", query.name())
                .field("plain_nanos", plain_min.as_nanos() as u64)
                .field("profiled_nanos", profiled_min.as_nanos() as u64)
                .field("overhead_pct", pct),
        );
    }
    t.print();
    let overhead_pct =
        (profiled_total.as_secs_f64() / plain_total.as_secs_f64().max(1e-12) - 1.0) * 100.0;
    let budget = plain_total.mul_f64(1.0 + MAX_OVERHEAD_PCT / 100.0) + OVERHEAD_EPSILON;
    println!(
        "\ntotal: plain {:.2} ms, profiled {:.2} ms -> overhead {overhead_pct:+.2}% \
         (budget {MAX_OVERHEAD_PCT}% + {} µs)",
        plain_total.as_secs_f64() * 1e3,
        profiled_total.as_secs_f64() * 1e3,
        OVERHEAD_EPSILON.as_micros(),
    );
    assert!(
        profiled_total <= budget,
        "tracing overhead gate failed: profiled {profiled_total:?} > budget {budget:?} \
         (plain {plain_total:?})"
    );
    println!("overhead gate passed (profiled <= plain x1.03 + epsilon)");

    // ------------------------------------------------------------------
    // Artifacts.
    // ------------------------------------------------------------------
    let dir = std::path::Path::new("bench_results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let chrome_path = dir.join("trace_chrome.json");
    match ceci_trace::chrome::write_file(&spans, &chrome_path) {
        Ok(()) => println!("\nwrote {} ({} events)", chrome_path.display(), spans.len()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", chrome_path.display()),
    }

    let json = JsonValue::object()
        .field("dataset", "WT")
        .field("query", "QG1")
        .field("workers", workers as u64)
        .field("embeddings", result.total_embeddings)
        .field("span_count", spans.len() as u64)
        .field("dropped_spans", tracer.dropped())
        .field(
            "categories",
            JsonValue::Array(
                cats.iter()
                    .map(|(c, n, ns)| {
                        JsonValue::object()
                            .field("category", *c)
                            .field("spans", *n)
                            .field("span_time_ns", *ns)
                    })
                    .collect(),
            ),
        )
        .field("depth_profile", JsonValue::Array(depth_rows))
        .field("overhead_pct", overhead_pct)
        .field("overhead_budget_pct", MAX_OVERHEAD_PCT)
        .field("overhead_gate_passed", true)
        .field("per_query_overhead", JsonValue::Array(overhead_rows))
        .to_pretty();
    let path = dir.join("trace.json");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_spans_tile_the_root() {
        let tracer = Tracer::new();
        let mut p = ceci_trace::DepthProfile::with_stride(3, 0);
        for d in 0..3 {
            for _ in 0..(d + 1) * 4 {
                p.on_call(d);
            }
        }
        let root = record_depth_spans(&tracer, &p, 1_000_000, 900_000, vec![("workers", 1)]);
        let spans = tracer.snapshot();
        let children: Vec<_> = spans.iter().filter(|s| s.parent == root).collect();
        assert_eq!(children.len(), 3);
        let root_span = spans.iter().find(|s| s.id == root).unwrap();
        for c in &children {
            assert!(c.ts_ns >= root_span.ts_ns);
            assert!(c.ts_ns + c.dur_ns <= root_span.ts_ns + root_span.dur_ns + 3);
            assert_eq!(c.name, "enumerate.depth");
            assert!(c.index.is_some());
        }
    }
}
