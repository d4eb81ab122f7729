//! The served plan and what it is estimated to cost.
//!
//! The paper plans once — one query tree from the min-`|C(u)|/deg(u)` root,
//! one matching order, then build and enumerate (§3, §6) — and so does a
//! cache miss: [`plan_with_options`] with [`OrderStrategy::Adaptive`]
//! returns the default static plan, the paper's root then the
//! connectivity-first greedy ([`OrderStrategy::EdgeRank`]: the vertex with
//! the most placed query neighbours next, so a cycle closes as early as the
//! tree allows). The index is built once under it, and the entry serves that
//! plan for as long as it lives; a repair rebuilds the index under the same
//! plan. Nothing is estimated to choose it: `EXPLAIN`, the one reader of the
//! served plan's cost, takes it when it runs, from [`served_cost`]'s
//! [`SCORE_WALKS`] random walks over the *served* index.
//!
//! [`plan_with_options`], [`AdaptiveOptions`], [`PlanChoice`] and
//! [`OrderStrategy::Adaptive`] are what the perf ledger's replay
//! (`benchmark/`) still names; they are retired by the `benchmark` change
//! that stops naming them.

use std::time::Duration;

use ceci_graph::Graph;
use ceci_query::{OrderStrategy, PlanOptions, QueryGraph, QueryPlan};

use crate::estimate::{estimate_cost, CostEstimate, EstimateOptions};
use crate::index::Ceci;

/// Random walks per cost estimate of the served index.
pub const SCORE_WALKS: u64 = 64;
/// Seed of those walks: one seed, so the same index always estimates the
/// same.
const SCORE_SEED: u64 = 0xADA7;

/// Knobs for adaptive execution.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveOptions {
    /// Nothing reads this field: the planner no longer recommends a width
    /// (a `MATCH` drains on its own `WORKERS`, one worker without it). It
    /// is kept only because the perf ledger's replay (`benchmark/`) names
    /// it, and is retired by the `benchmark` PR that stops naming it.
    pub max_workers: usize,
}

impl Default for AdaptiveOptions {
    fn default() -> Self {
        AdaptiveOptions { max_workers: 1 }
    }
}

/// What [`plan_with_options`] reports beside an [`OrderStrategy::Adaptive`]
/// plan. Nothing is scored and nothing re-plans, so it is always zero and
/// `false`; it is kept only because the perf ledger's replay (`benchmark/`)
/// reads both fields, and is retired by the `benchmark` change that stops
/// reading them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanChoice {
    /// Wall time spent scoring plans: always zero.
    pub score_time: Duration,
    /// Whether a re-plan replaced the served plan: always `false`.
    pub replanned: bool,
}

/// Builds a plan honoring `options.order`. [`OrderStrategy::Adaptive`]
/// plans as a cache miss does — best root, the default static order
/// (`PlanOptions::default().order`) — and returns an empty [`PlanChoice`];
/// any other strategy delegates to [`QueryPlan::with_options`] and returns
/// `None`. `_adaptive` is not read (see [`AdaptiveOptions::max_workers`]).
pub fn plan_with_options(
    query: QueryGraph,
    graph: &Graph,
    plan_options: &PlanOptions,
    _adaptive: &AdaptiveOptions,
) -> (QueryPlan, Option<PlanChoice>) {
    if plan_options.order == OrderStrategy::Adaptive && plan_options.root_override.is_none() {
        let plan = QueryPlan::with_options(
            query,
            graph,
            &PlanOptions {
                order: PlanOptions::default().order,
                ..plan_options.clone()
            },
        );
        (plan, Some(PlanChoice::default()))
    } else {
        (QueryPlan::with_options(query, graph, plan_options), None)
    }
}

/// The cost estimate of `plan` over `ceci`, the index served under it:
/// [`SCORE_WALKS`] random walks under one fixed seed, so the same index
/// always estimates the same. `EXPLAIN` prints it.
pub fn served_cost(graph: &Graph, plan: &QueryPlan, ceci: &Ceci) -> CostEstimate {
    estimate_cost(
        graph,
        plan,
        ceci,
        &EstimateOptions {
            walks: SCORE_WALKS,
            seed: SCORE_SEED,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::paper;
    use ceci_graph::generators::kronecker_default;
    use ceci_query::PaperQuery;

    #[test]
    fn a_miss_plans_the_default_order() {
        let graph = kronecker_default(9, 5, 42);
        let default = PlanOptions::default().order;
        for pq in [PaperQuery::Qg1, PaperQuery::Qg3, PaperQuery::Qg5] {
            let fixed = QueryPlan::new(pq.build(), &graph);
            let (plan, choice) = plan_with_options(
                pq.build(),
                &graph,
                &PlanOptions {
                    order: OrderStrategy::Adaptive,
                    ..PlanOptions::default()
                },
                &AdaptiveOptions::default(),
            );
            assert_eq!(plan.matching_order(), fixed.matching_order(), "{pq:?}");
            assert_eq!(plan.strategy(), Some(default), "EXPLAIN names it");
            assert_eq!(choice, Some(PlanChoice::default()), "nothing scored");

            // The estimate a request reads comes from the served index.
            let ceci = Ceci::build(&graph, &plan);
            let cost = served_cost(&graph, &plan, &ceci);
            assert_eq!(cost.estimate.walks, SCORE_WALKS);
            assert_eq!(cost.depth_volumes[0], ceci.pivots().len() as f64);
        }
    }

    #[test]
    fn scoring_is_deterministic() {
        let graph = kronecker_default(8, 5, 7);
        let plan = QueryPlan::new(PaperQuery::Qg2.build(), &graph);
        let ceci = Ceci::build(&graph, &plan);
        // The served index always estimates the same.
        let (x, y) = (
            served_cost(&graph, &plan, &ceci),
            served_cost(&graph, &plan, &ceci),
        );
        assert_eq!((x.volume(), x.work()), (y.volume(), y.work()));
    }

    #[test]
    fn plan_with_options_respects_fixed_strategies() {
        let (graph, plan0) = paper::figure1();
        let query = plan0.query().clone();
        let (plan, choice) = plan_with_options(
            query.clone(),
            &graph,
            &PlanOptions::default(),
            &AdaptiveOptions::default(),
        );
        assert!(choice.is_none());
        let default_plan = QueryPlan::new(query, &graph);
        assert_eq!(plan.matching_order(), default_plan.matching_order());
    }
}
