//! Statistical property tests for the random-walk cardinality estimator.
//!
//! The estimator answers `ESTIMATE`, prices `EXPLAIN`'s `exec:` row and
//! estimates the undrained pivots of a drain its deadline stopped (the
//! APPROX answer): if it is biased, silently non-deterministic, or blind to
//! exact zeros, every one of those answers inherits the flaw.
//! Three properties are pinned here:
//!
//! 1. **Exact-zero detection** — an index with no surviving pivots must
//!    report `exact_zero` with a degenerate (0, 0) interval, across
//!    generator families.
//! 2. **Determinism per seed** — identical options ⇒ bit-identical
//!    estimates, and different seeds still converge on the same quantity.
//! 3. **Unbiasedness** (differential, property-based) — across generator
//!    graphs and paper queries, the estimate lands within 4 standard errors
//!    of the exact count (plus a small relative floor for near-zero-variance
//!    cases), and the per-depth cost decomposition stays consistent with the
//!    total. The same holds over a random subset of the pivots, against the
//!    sum of their own exact counts: the stratum a deadline leaves undrained.

use ceci_core::{
    count_embeddings, estimate_cost, estimate_embeddings, estimate_pivots, Ceci, CountSink,
    Counters, EnumOptions, Enumerator, EstimateOptions,
};
use ceci_graph::generators::{barabasi_albert, erdos_renyi, kronecker_default};
use ceci_graph::Graph;
use ceci_query::{PaperQuery, QueryPlan};
use proptest::prelude::*;

fn generator_graph(family: u8, scale: u8, seed: u64) -> Graph {
    let n = 1usize << scale;
    match family % 3 {
        0 => kronecker_default(scale as u32, 5, seed),
        1 => erdos_renyi(n, n * 4, seed),
        _ => barabasi_albert(n, 3, seed),
    }
}

fn paper_query(idx: u8) -> PaperQuery {
    [
        PaperQuery::Qg1,
        PaperQuery::Qg2,
        PaperQuery::Qg3,
        PaperQuery::Qg5,
    ][idx as usize % 4]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// Mean within 4σ of the exact count on arbitrary generator graphs, and
    /// the cost decomposition's deepest volume equals the mean; over the
    /// pivots `subset` picks, within 4σ of their exact counts' sum.
    #[test]
    fn estimate_mean_within_four_sigma(
        family in 0u8..3,
        scale in 7u8..9,
        graph_seed in 0u64..1_000,
        query_idx in 0u8..4,
        est_seed in 1u64..1_000,
        subset in any::<u64>(),
    ) {
        let graph = generator_graph(family, scale, graph_seed);
        let plan = QueryPlan::new(paper_query(query_idx).build(), &graph);
        let ceci = Ceci::build(&graph, &plan);
        let exact = count_embeddings(&graph, &plan, &ceci) as f64;
        let opts = EstimateOptions { walks: 4_000, seed: est_seed };
        let cost = estimate_cost(&graph, &plan, &ceci, &opts);
        let est = cost.estimate;
        if est.exact_zero {
            prop_assert_eq!(exact, 0.0);
        } else {
            // 4σ plus a 10% relative floor: a handful of (graph, seed)
            // combinations have heavy-tailed walk weights whose sample σ
            // under-covers; the floor keeps the test meaningful (the
            // estimate must still be the right magnitude) without flaking.
            let slack = 4.0 * est.std_error + 0.10 * exact.max(1.0);
            prop_assert!(
                (est.mean - exact).abs() <= slack,
                "estimate {} ± {} vs exact {}", est.mean, est.std_error, exact
            );
            // Decomposition consistency: deepest volume IS the mean, and
            // every volume is non-negative.
            let last = *cost.depth_volumes.last().unwrap();
            prop_assert!((last - est.mean).abs() < 1e-6 * est.mean.max(1.0));
            prop_assert!(cost.depth_volumes.iter().all(|&v| v >= 0.0));
            prop_assert!(cost.volume() >= est.mean - 1e-9);
        }
        // Pivot i is in the subset when bit i mod 64 of `subset` is set.
        let mut enumerator = Enumerator::new(&graph, &plan, &ceci, EnumOptions::default());
        let (mut picked, mut exact) = (Vec::new(), 0u64);
        for (i, &(p, _)) in ceci.pivots().iter().enumerate() {
            if subset.rotate_right(i as u32) & 1 == 1 {
                let mut sink = CountSink::unbounded();
                enumerator.enumerate_prefix(&[p], &mut sink, &mut Counters::default());
                picked.push(p);
                exact += sink.count();
            }
        }
        let exact = exact as f64;
        let part = estimate_pivots(&graph, &plan, &ceci, &picked, &opts).estimate;
        prop_assert_eq!(part.exact_zero, picked.is_empty());
        let slack = 4.0 * part.std_error + 0.10 * exact.max(1.0);
        prop_assert!(
            (part.mean - exact).abs() <= slack,
            "subset of {}: estimate {} ± {} vs exact {}", picked.len(), part.mean,
            part.std_error, exact
        );
    }

    /// Identical options produce bit-identical estimates, on any input.
    #[test]
    fn estimate_deterministic_per_seed(
        family in 0u8..3,
        graph_seed in 0u64..1_000,
        query_idx in 0u8..4,
        est_seed in 0u64..1_000,
        walks in 1u64..500,
    ) {
        let graph = generator_graph(family, 7, graph_seed);
        let plan = QueryPlan::new(paper_query(query_idx).build(), &graph);
        let ceci = Ceci::build(&graph, &plan);
        let opts = EstimateOptions { walks, seed: est_seed };
        let a = estimate_cost(&graph, &plan, &ceci, &opts);
        let b = estimate_cost(&graph, &plan, &ceci, &opts);
        prop_assert_eq!(a.estimate.mean, b.estimate.mean);
        prop_assert_eq!(a.estimate.std_error, b.estimate.std_error);
        prop_assert_eq!(a.depth_volumes.clone(), b.depth_volumes.clone());
        // Over every pivot, in index order, the subset walk is the same walk.
        let all: Vec<_> = ceci.pivots().iter().map(|&(p, _)| p).collect();
        let c = estimate_pivots(&graph, &plan, &ceci, &all, &opts);
        prop_assert_eq!(c.estimate.mean, a.estimate.mean);
        prop_assert_eq!(c.estimate.std_error, a.estimate.std_error);
        // And the walk-budget-1 degenerate case renders a sane interval.
        if walks == 1 {
            prop_assert_eq!(a.estimate.std_error, 0.0);
            let (lo, hi) = a.estimate.ci95();
            prop_assert_eq!(lo, hi);
        }
    }

    /// A query whose label never occurs in the data graph is detected as
    /// exactly zero regardless of generator family or size.
    #[test]
    fn estimate_detects_exact_zero(
        family in 0u8..3,
        scale in 6u8..9,
        graph_seed in 0u64..1_000,
    ) {
        use ceci_graph::lid;
        // Generator graphs are unlabeled (label 0 everywhere); a query
        // demanding label 9 can never match.
        let graph = generator_graph(family, scale, graph_seed);
        let query = ceci_query::QueryGraph::with_labels(&[lid(9), lid(9)], &[(0, 1)]).unwrap();
        let plan = QueryPlan::new(query, &graph);
        let ceci = Ceci::build(&graph, &plan);
        let est = estimate_embeddings(&graph, &plan, &ceci, &EstimateOptions::default());
        prop_assert!(est.exact_zero);
        prop_assert_eq!(est.mean, 0.0);
        prop_assert_eq!(est.std_error, 0.0);
        prop_assert_eq!(est.ci95(), (0.0, 0.0));
    }
}
