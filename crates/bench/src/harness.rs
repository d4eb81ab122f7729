//! Shared experiment harness: timing, run records, result persistence.

use std::time::{Duration, Instant};

use ceci_core::{enumerate_parallel, Ceci, Counters, ParallelOptions, Strategy};
use ceci_graph::Graph;
use ceci_query::{PlanOptions, QueryGraph, QueryPlan};

use crate::json::JsonValue;

/// Times a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Geometric mean of positive ratios (the paper reports average speedups).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// One engine execution record, serialized into `bench_results/`.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Engine name (`ceci`, `psgl-lite`, ...).
    pub engine: String,
    /// Dataset abbreviation.
    pub dataset: String,
    /// Query name (QG1..QG5 or `q<n>` for extracted queries).
    pub query: String,
    /// Worker threads used.
    pub workers: usize,
    /// Total runtime in seconds (build + enumerate where applicable).
    pub seconds: f64,
    /// Embeddings reported.
    pub embeddings: u64,
    /// Recursive calls into the matching routine.
    pub recursive_calls: u64,
    /// Intersection comparisons.
    pub intersection_ops: u64,
    /// Edge verifications.
    pub edge_verifications: u64,
}

impl RunRecord {
    /// Builds a record from counters.
    pub fn new(
        engine: &str,
        dataset: &str,
        query: &str,
        workers: usize,
        elapsed: Duration,
        counters: &Counters,
    ) -> Self {
        RunRecord {
            engine: engine.to_string(),
            dataset: dataset.to_string(),
            query: query.to_string(),
            workers,
            seconds: elapsed.as_secs_f64(),
            embeddings: counters.embeddings,
            recursive_calls: counters.recursive_calls,
            intersection_ops: counters.intersection_ops,
            edge_verifications: counters.edge_verifications,
        }
    }

    /// Renders the record as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object()
            .field("engine", self.engine.as_str())
            .field("dataset", self.dataset.as_str())
            .field("query", self.query.as_str())
            .field("workers", self.workers)
            .field("seconds", self.seconds)
            .field("embeddings", self.embeddings)
            .field("recursive_calls", self.recursive_calls)
            .field("intersection_ops", self.intersection_ops)
            .field("edge_verifications", self.edge_verifications)
    }
}

/// Writes `json` pretty-printed to `bench_results/<name>.json` (best effort;
/// failures are reported to stderr, not fatal).
pub fn persist(name: &str, json: &JsonValue) {
    let dir = std::path::Path::new("bench_results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match std::fs::write(&path, json.to_pretty()) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Writes records as a JSON array to `bench_results/<name>.json`.
pub fn persist_records(name: &str, records: &[RunRecord]) {
    persist(
        name,
        &JsonValue::Array(records.iter().map(RunRecord::to_json).collect()),
    );
}

/// A full CECI run: plan + build + parallel enumeration. Returns
/// `(elapsed_total, counters, embeddings)` — the paper's reported runtime
/// includes preprocessing and CECI creation (§6.1).
pub fn run_ceci(
    graph: &Graph,
    query: QueryGraph,
    workers: usize,
    limit: Option<u64>,
) -> (Duration, Counters, u64) {
    run_ceci_with(
        graph,
        query,
        workers,
        limit,
        Strategy::FineDynamic { beta: 0.2 },
    )
}

/// [`run_ceci`] with an explicit distribution strategy. The elapsed time is
/// the *modeled* total on a machine with one core per worker — serial setup
/// (plan + index build) plus the parallel result's modeled makespan — the
/// figure the scalability experiments report, since the experiment host
/// may have fewer cores than the paper's 28-core server.
pub fn run_ceci_with(
    graph: &Graph,
    query: QueryGraph,
    workers: usize,
    limit: Option<u64>,
    strategy: Strategy,
) -> (Duration, Counters, u64) {
    let start = Instant::now();
    let plan = QueryPlan::with_options(query, graph, &PlanOptions::paper());
    let ceci = Ceci::build(graph, &plan);
    let setup = start.elapsed();
    let options = ParallelOptions {
        workers,
        strategy,
        limit,
        ..Default::default()
    };
    let result = enumerate_parallel(graph, &plan, &ceci, &options);
    (
        setup + result.modeled_makespan(),
        result.counters,
        result.total_embeddings,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceci_query::PaperQuery;

    #[test]
    fn geometric_mean_basics() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[4.0]) - 4.0).abs() < 1e-9);
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn run_ceci_counts_triangles() {
        use ceci_graph::vid;
        let graph = Graph::unlabeled(
            4,
            &[
                (vid(0), vid(1)),
                (vid(1), vid(2)),
                (vid(2), vid(0)),
                (vid(1), vid(3)),
                (vid(2), vid(3)),
            ],
        );
        let (elapsed, counters, total) = run_ceci(&graph, PaperQuery::Qg1.build(), 2, None);
        assert_eq!(total, 2);
        assert_eq!(counters.embeddings, 2);
        assert!(elapsed > Duration::ZERO);
    }

    #[test]
    fn record_serializes() {
        let r = RunRecord::new(
            "ceci",
            "WT",
            "QG1",
            4,
            Duration::from_millis(12),
            &Counters::default(),
        );
        let json = r.to_json().to_compact();
        assert!(json.contains("\"engine\":\"ceci\""));
        assert!(json.contains("\"dataset\":\"WT\""));
    }
}
