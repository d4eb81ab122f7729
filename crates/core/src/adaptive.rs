//! Cost-model-driven adaptive execution: rent the connectivity-first plan,
//! buy the portfolio.
//!
//! The paper plans once — one query tree from the min-`|C(u)|/deg(u)` root,
//! visited in BFS order, then build and enumerate (§3, §6). A better
//! matching order can cut a query's enumeration several-fold, but finding
//! it means scoring a portfolio of plans, and that costs several index
//! builds: worth it only for a query that comes back often enough, which
//! the request that misses the cache cannot know. So the planner prices the
//! portfolio like a ski rental:
//!
//! 1. **A miss rents.** [`plan_with_options`] with
//!    [`OrderStrategy::Adaptive`] returns the default static plan — the
//!    paper's root, then the connectivity-first greedy
//!    ([`OrderStrategy::EdgeRank`]: the vertex with the most placed query
//!    neighbours next, so a cycle closes as early as the tree allows) —
//!    and a one-candidate [`PlanChoice`], and the index is built once under
//!    it. Nothing is estimated: no walk, no pilot index, nothing built and
//!    thrown away. `EXPLAIN`, the one reader of the served plan's cost,
//!    takes it when it runs, from [`served_cost`]'s [`SCORE_WALKS`] random
//!    walks over the *served* index.
//! 2. **Every execution pays rent into a ledger.** The cached entry's
//!    [`Reuse`] adds up the exact enumeration work of each execution
//!    ([`Counters::intersection_ops`] + [`Counters::recursive_calls`]).
//! 3. **Reuse buys the portfolio, once.** [`replan_price`] is what scoring
//!    the challengers and rebuilding the index once would cost, in the same
//!    unit. The first request that finds the entry's spent work at or above
//!    the price ([`Reuse::claim`]) scores the challengers
//!    ([`PlanChoice::score_challengers`]): ranked greedy orders and BFS over
//!    the three best roots, each over a pilot index of at most 64 sampled
//!    pivots. The incumbent is not estimated — what
//!    it costs has been observed. A challenger wins only if the saving
//!    already in sight pays for the rebuild: its estimated work *plus the
//!    estimate's standard error*, over as many executions as the entry has
//!    served, must undercut the work actually spent by more than the
//!    rebuild's share of the price. Ties, noise and gains too small to
//!    recoup keep the incumbent, and nothing is rebuilt.
//!
//! Both sides of the rule are exact counts, not clocks: the spent work is
//! the enumerator's own counters and the price is the build's own
//! ([`crate::BuildStats::filter_scans`]), so the same requests trigger the
//! re-plan at the same request on every host and every run. Buying when the
//! rent paid equals the price is the classic 2-competitive rule: a query
//! never asked again pays nothing, and one asked forever pays at most twice
//! what planning it right on arrival would have.
//!
//! No estimate sizes or admits execution: the width is the request's own
//! (`WORKERS`, one worker without it), the strategy follows from that
//! width, and a deadline drains first and estimates only what it left.
//!
//! Only the *order* differs between portfolio members, and every order
//! satisfies the parent-precedes-child invariant, so exact counts are
//! identical (bit-for-bit) whichever is served. A mis-estimate can only cost
//! time, never correctness.

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use ceci_graph::{Graph, VertexId};
use ceci_query::root::select_root;
use ceci_query::{matching_order, OrderStrategy, PlanOptions, QueryGraph, QueryPlan, QueryTree};

use crate::estimate::{estimate_cost, CostEstimate, EstimateOptions};
use crate::index::{BuildOptions, Ceci};
use crate::metrics::Counters;

/// Random walks per cost estimate — over the served index when a request
/// reads its estimate, over each challenger's pilot index in a re-plan.
pub const SCORE_WALKS: u64 = 64;
/// Seed of those walks: one seed, so the same index always estimates the
/// same and a re-plan decides the same on every run.
const SCORE_SEED: u64 = 0xADA7;
/// Pivot cap of a challenger's pilot index: it is built from every k-th
/// root candidate so that at most this many survive, and its estimate is
/// scaled back by the sampling ratio.
const PILOT_PIVOTS: usize = 64;
/// Roots the portfolio tries, best first by the paper's
/// `|candidates| / degree` score.
const PORTFOLIO_ROOTS: usize = 3;
/// Enumeration work units that testing one adjacency entry in Algorithm 1
/// costs. Set when a build took 22 to 60 ns per scan on the perf ledger's
/// four workloads and an enumeration 1 to 3 ns per unit wherever it does
/// enough work for a re-plan to matter. Since verdicts became bit lookups a
/// scan costs 4 to 8 ns there (4 in core, 8 as served), so the constant now
/// overprices a build four- to fivefold. It is deliberately left as it is:
/// re-pricing moves *when* `stream-rw`'s near-tied portfolio is scored, and
/// that needs its own parent/change ledger pairs (ROADMAP item 5).
const UNITS_PER_SCAN: u64 = 32;

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

/// One member of the plan portfolio, kept for EXPLAIN.
#[derive(Clone, Debug)]
pub struct CandidatePlan {
    /// Order strategy this candidate used (`None`: an order given
    /// explicitly, [`QueryPlan::from_parts`]).
    pub strategy: Option<OrderStrategy>,
    /// Root vertex this candidate used.
    pub root: VertexId,
    /// The resulting matching order.
    pub order: Vec<VertexId>,
    /// Estimated total intermediate-result volume. Zero where nothing was
    /// walked: the unscored served plan
    /// (`EXPLAIN` prints its row from the walks it takes) and an incumbent
    /// scored against.
    pub volume: f64,
    /// Enumeration work (intersection comparisons plus one unit per
    /// intermediate result): estimated for a challenger, the observed mean
    /// per execution for an incumbent that was scored against.
    pub work: f64,
    /// Standard error of `work` (zero for an observed one).
    pub work_error: f64,
    /// Whether this candidate is the served plan.
    pub chosen: bool,
}

/// The planner's decision record for one served index: everything
/// EXPLAIN needs to show which plans were weighed.
#[derive(Clone, Debug)]
pub struct PlanChoice {
    /// The served plan alone until a re-plan scores the portfolio; after
    /// that the incumbent followed by every challenger (deduplicated by
    /// matching order).
    pub candidates: Vec<CandidatePlan>,
    /// Wall time spent scoring the portfolio: zero until a re-plan.
    pub score_time: Duration,
    /// `true` when a re-plan replaced the plan the miss served with a
    /// challenger.
    pub replanned: bool,
}

impl PlanChoice {
    /// The one-candidate record of a plan nobody has scored yet — what a
    /// cache miss stores beside its plan (best root, default order) and a
    /// later re-plan extends. It names the strategy `plan` was ordered by.
    pub fn unscored(plan: &QueryPlan) -> PlanChoice {
        PlanChoice {
            candidates: vec![CandidatePlan {
                strategy: plan.strategy(),
                root: plan.root(),
                order: plan.matching_order().to_vec(),
                volume: 0.0,
                work: 0.0,
                work_error: 0.0,
                chosen: true,
            }],
            score_time: Duration::ZERO,
            replanned: false,
        }
    }

    /// The one portfolio scoring an entry's reuse pays for. `plan` is the
    /// served (incumbent) plan and `observed` what the ledger saw of it
    /// ([`Reuse::claim`]); the incumbent itself is not estimated. Each
    /// challenger shares the incumbent's symmetry constraints and is
    /// estimated over a pilot index; it wins only if its estimated
    /// [`CostEstimate::work`] plus that estimate's standard error is below
    /// [`Observed::bar`], and among several winners the lowest such bound is
    /// taken.
    ///
    /// `plan` may have been retained across repairs, its candidate sets
    /// those of the snapshot the miss saw. What is *decided* from them stays
    /// as retained, by design: which roots and orders are tried
    /// (`challengers` ranks by the retained counts) and which root
    /// candidates a pilot samples — refreshing those was measured to flip a
    /// near-tied portfolio onto a slower plan for no gain in accuracy. What
    /// is *indexed* does not: a pilot is built over `graph`, so like every
    /// build it takes its per-vertex verdicts from sets of `graph` — one
    /// candidate scan ([`QueryPlan::on_graph`]) shared by all challengers.
    ///
    /// Returns the winning plan, if any — with those current sets, ready to
    /// build under — and the decision record to store: every member with
    /// its score, the time scoring took, and [`PlanChoice::replanned`] set
    /// on a win. The caller rebuilds the index under the winner; without a
    /// winner the record describes the incumbent as is.
    pub fn score_challengers(
        &self,
        graph: &Graph,
        plan: &QueryPlan,
        observed: &Observed,
    ) -> (Option<QueryPlan>, PlanChoice) {
        let started = Instant::now();
        let mut scored = self.clone();
        scored.candidates.retain(|c| c.chosen);
        if let Some(incumbent) = scored.candidates.first_mut() {
            incumbent.work = observed.work;
            incumbent.work_error = 0.0;
        }
        let mut winner: Option<(f64, QueryPlan)> = None;
        let current = plan.on_graph(graph);
        for (strategy, root, order) in challengers(plan) {
            let sibling = plan.reordered(root, strategy).with_sets_of(&current);
            let cost = pilot_cost(graph, &sibling, plan.initial_candidates(root));
            let bound = cost.work() + cost.work_std_error;
            scored.candidates.push(CandidatePlan {
                strategy: Some(strategy),
                root,
                order,
                volume: cost.volume(),
                work: cost.work(),
                work_error: cost.work_std_error,
                chosen: false,
            });
            if bound < winner.as_ref().map_or(observed.bar, |(best, _)| *best) {
                winner = Some((bound, sibling));
            }
        }
        let winner = winner.map(|(_, plan)| plan);
        if let Some(plan) = &winner {
            for c in &mut scored.candidates {
                c.chosen = c.order == plan.matching_order();
            }
            scored.replanned = true;
        }
        scored.score_time = started.elapsed();
        (winner, scored)
    }
}

/// Builds a plan honoring `options.order`. [`OrderStrategy::Adaptive`]
/// plans as a cache miss does — best root, the default static order
/// (`PlanOptions::default().order`) — and returns the one-candidate
/// decision record a later re-plan extends; any other strategy delegates to
/// [`QueryPlan::with_options`] with no record.
/// `_adaptive` is not read (see [`AdaptiveOptions::max_workers`]).
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
        let choice = PlanChoice::unscored(&plan);
        (plan, Some(choice))
    } else {
        (QueryPlan::with_options(query, graph, plan_options), None)
    }
}

/// The portfolio's members other than the served plan, as
/// `(strategy, root, matching order)`: BFS and the two ranked greedy orders
/// over the best `PORTFOLIO_ROOTS` roots, deduplicated by matching order
/// (identical orders cost the same; the earliest root rank and BFS before
/// greedy is kept).
fn challengers(plan: &QueryPlan) -> Vec<(OrderStrategy, VertexId, Vec<VertexId>)> {
    let query = plan.query();
    let scores = select_root(query, plan.candidate_sets()).scores;
    let mut roots: Vec<VertexId> = query.vertices().collect();
    roots.sort_by(|&a, &b| {
        scores[a.index()]
            .total_cmp(&scores[b.index()])
            .then(a.cmp(&b))
    });
    let counts: Vec<usize> = plan
        .candidate_sets()
        .iter()
        .map(|s| s.candidates.len())
        .collect();
    let mut found: Vec<(OrderStrategy, VertexId, Vec<VertexId>)> = Vec::new();
    for &root in roots.iter().take(PORTFOLIO_ROOTS) {
        let tree = QueryTree::build(query, root);
        for strategy in [
            OrderStrategy::Bfs,
            OrderStrategy::EdgeRank,
            OrderStrategy::PathRank,
        ] {
            let order = matching_order(query, &tree, strategy, &counts);
            if order != plan.matching_order() && !found.iter().any(|(_, _, o)| *o == order) {
                found.push((strategy, root, order));
            }
        }
    }
    found
}

/// The cost estimate of `plan` over `ceci`: [`SCORE_WALKS`] random walks
/// under one fixed seed, so the same index always estimates the same. Taken
/// over the served index by `EXPLAIN`, and over each challenger's pilot
/// index by a re-plan.
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

/// Scores one challenger: builds a pilot index from a deterministic sample
/// of `retained_pivots` — the root's candidates as the incumbent's plan has
/// them, possibly from an earlier snapshot than `plan`'s own sets — runs the
/// walk budget over it, and scales the resulting cost back to the full
/// pivot population.
fn pilot_cost(graph: &Graph, plan: &QueryPlan, retained_pivots: &[VertexId]) -> CostEstimate {
    let stride = retained_pivots.len().div_ceil(PILOT_PIVOTS).max(1);
    let sampled: Vec<VertexId> = retained_pivots.iter().copied().step_by(stride).collect();
    let scale = if sampled.is_empty() {
        1.0
    } else {
        retained_pivots.len() as f64 / sampled.len() as f64
    };
    let pilot = Ceci::build_for_pivots(graph, plan, BuildOptions::default(), sampled);
    served_cost(graph, plan, &pilot).scaled(scale)
}

/// What re-planning a cached index would cost, in enumeration work units.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplanPrice {
    /// One pilot index per challenger.
    pub scoring: u64,
    /// The rebuild of the served index under a winner.
    pub rebuild: u64,
}

impl ReplanPrice {
    /// The price of a plan with no challenger (or planned with a fixed
    /// strategy): never due.
    pub const NEVER: ReplanPrice = ReplanPrice {
        scoring: u64::MAX,
        rebuild: 0,
    };

    /// Scoring plus rebuild: what an entry's reuse must have spent before
    /// it buys the portfolio.
    pub fn total(&self) -> u64 {
        self.scoring.saturating_add(self.rebuild)
    }
}

/// Index builds a re-plan's rebuild is priced at. A winner rebuilds one
/// index, but measured on the perf ledger a price of one build lowers the
/// bar enough to flip `stream-rw`'s near-tied triangle portfolio onto a
/// slower root; at two that workload keeps its one re-plan per pass.
const PRICED_REBUILDS: u64 = 2;

/// Prices re-planning `plan`: a pilot index per challenger plus
/// two rebuilds of the served index (`PRICED_REBUILDS`). `ceci` must be the index
/// the miss built: a rebuild is priced at that build's frontier degree sum
/// ([`crate::BuildStats::filter_scans`]), and a pilot, whose every frontier
/// is a subset of the full build's, is priced at half of it (measured: 0.4
/// to 0.9 of a build on the perf ledger's workloads).
pub fn replan_price(plan: &QueryPlan, ceci: &Ceci) -> ReplanPrice {
    let pilots = challengers(plan).len() as u64;
    if pilots == 0 {
        return ReplanPrice::NEVER;
    }
    let build = ceci.stats().filter_scans.saturating_mul(UNITS_PER_SCAN);
    ReplanPrice {
        scoring: (build / 2).saturating_mul(pilots).max(1),
        rebuild: build.saturating_mul(PRICED_REBUILDS),
    }
}

/// What a ledger saw of the incumbent plan when its re-plan came due.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Observed {
    /// Mean enumeration work per execution.
    pub work: f64,
    /// What a challenger's work-plus-error bound must stay under to win:
    /// `work` less the rebuild's cost spread over the executions seen, so
    /// that repeating the history under the challenger would have saved
    /// more than rebuilding costs.
    pub bar: f64,
}

/// The rent/buy ledger of one cached index: the enumeration work spent on
/// it so far against the price of re-planning it. It outlives the index it
/// was opened for — a repaired or re-planned entry carries the same ledger
/// on — so one lineage of entries scores its portfolio at most once.
#[derive(Debug)]
pub struct Reuse {
    price: ReplanPrice,
    ledger: Mutex<Ledger>,
}

#[derive(Debug, Default)]
struct Ledger {
    spent: u64,
    runs: u64,
    scored: bool,
}

impl Reuse {
    /// Opens a ledger against `price` ([`replan_price`]).
    pub fn new(price: ReplanPrice) -> Reuse {
        Reuse {
            price,
            ledger: Mutex::default(),
        }
    }

    fn ledger(&self) -> MutexGuard<'_, Ledger> {
        // Every update is one integer store, so a poisoned ledger is as
        // valid as any other.
        self.ledger.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The price the ledger was opened against.
    pub fn price(&self) -> ReplanPrice {
        self.price
    }

    /// Adds one execution's exact work.
    pub fn spend(&self, counters: &Counters) {
        let mut ledger = self.ledger();
        ledger.spent = ledger
            .spent
            .saturating_add(counters.intersection_ops + counters.recursive_calls);
        ledger.runs += 1;
    }

    /// Elects the one scorer: the first caller to find the spent work at or
    /// above the price gets what was observed, every caller before and
    /// after gets `None`.
    pub fn claim(&self) -> Option<Observed> {
        let mut ledger = self.ledger();
        if ledger.scored || ledger.spent < self.price.total() {
            return None;
        }
        ledger.scored = true;
        let runs = ledger.runs.max(1) as f64;
        Some(Observed {
            work: ledger.spent as f64 / runs,
            bar: ledger.spent.saturating_sub(self.price.rebuild) as f64 / runs,
        })
    }

    /// Work spent so far, and whether the portfolio has been scored.
    pub fn snapshot(&self) -> (u64, bool) {
        let ledger = self.ledger();
        (ledger.spent, ledger.scored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::count_embeddings;
    use crate::fixtures::paper;
    use ceci_graph::generators::kronecker_default;
    use ceci_query::{is_valid_order, PaperQuery};

    fn adaptive_plan(query: QueryGraph, graph: &Graph) -> (QueryPlan, PlanChoice) {
        let (plan, choice) = plan_with_options(
            query,
            graph,
            &PlanOptions {
                order: OrderStrategy::Adaptive,
                ..PlanOptions::default()
            },
            &AdaptiveOptions::default(),
        );
        (
            plan,
            choice.expect("the adaptive strategy records its choice"),
        )
    }

    #[test]
    fn a_miss_plans_the_default_order() {
        let graph = kronecker_default(9, 5, 42);
        let default = PlanOptions::default().order;
        for pq in [PaperQuery::Qg1, PaperQuery::Qg3, PaperQuery::Qg5] {
            let fixed = QueryPlan::new(pq.build(), &graph);
            let (plan, choice) = adaptive_plan(pq.build(), &graph);
            assert_eq!(plan.matching_order(), fixed.matching_order(), "{pq:?}");
            assert_eq!(plan.strategy(), Some(default));
            assert_eq!(choice.candidates.len(), 1);
            assert_eq!(
                choice.candidates[0].strategy,
                Some(default),
                "EXPLAIN names it"
            );
            assert!(choice.candidates[0].chosen);
            assert_eq!(choice.candidates[0].work, 0.0, "a miss walks nothing");
            assert_eq!(choice.score_time, Duration::ZERO);
            assert!(!choice.replanned);

            // The estimate a request reads comes from the served index.
            let ceci = Ceci::build(&graph, &plan);
            let cost = served_cost(&graph, &plan, &ceci);
            assert_eq!(cost.estimate.walks, SCORE_WALKS);
            assert_eq!(cost.depth_volumes[0], ceci.pivots().len() as f64);
        }
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

    #[test]
    fn challengers_are_distinct_valid_orders_other_than_the_incumbent() {
        let graph = kronecker_default(8, 5, 7);
        for pq in [PaperQuery::Qg1, PaperQuery::Qg2, PaperQuery::Qg5] {
            let plan = QueryPlan::new(pq.build(), &graph);
            let found = challengers(&plan);
            assert!(
                !found.is_empty() && found.len() < PORTFOLIO_ROOTS * 3,
                "{pq:?}"
            );
            for (i, (strategy, root, order)) in found.iter().enumerate() {
                assert_ne!(order, plan.matching_order(), "{pq:?}: the incumbent");
                assert!(
                    found[i + 1..].iter().all(|(_, _, o)| o != order),
                    "{pq:?}: duplicate orders survived dedup"
                );
                let sibling = plan.reordered(*root, *strategy);
                assert_eq!(sibling.matching_order(), order);
                assert!(is_valid_order(sibling.tree(), order));
            }
        }
        // One vertex has one order: nothing to weigh, never due.
        let single = QueryGraph::unlabeled(1, &[]).unwrap();
        let plan = QueryPlan::new(single, &graph);
        assert!(challengers(&plan).is_empty());
        let ceci = Ceci::build(&graph, &plan);
        assert_eq!(replan_price(&plan, &ceci), ReplanPrice::NEVER);
        assert_eq!(ReplanPrice::NEVER.total(), u64::MAX);
    }

    #[test]
    fn price_counts_pilots_and_rebuilt_tables_in_build_scans() {
        let graph = kronecker_default(8, 5, 7);
        let plan = QueryPlan::new(PaperQuery::Qg2.build(), &graph);
        let ceci = Ceci::build(&graph, &plan);
        let scans = ceci.stats().filter_scans;
        assert!(scans > 0);
        let pilots = challengers(&plan).len() as u64;
        let build = scans * UNITS_PER_SCAN;
        let price = replan_price(&plan, &ceci);
        assert_eq!(price.scoring, build / 2 * pilots);
        assert_eq!(price.rebuild, build * PRICED_REBUILDS);
        assert_eq!(price.total(), price.scoring + price.rebuild);
    }

    fn bar(at: f64) -> Observed {
        Observed { work: at, bar: at }
    }

    #[test]
    fn a_challenger_must_clear_the_bar_by_its_own_error() {
        let graph = kronecker_default(9, 5, 42);
        for pq in [PaperQuery::Qg1, PaperQuery::Qg3, PaperQuery::Qg5] {
            let (plan, choice) = adaptive_plan(pq.build(), &graph);
            let ceci = Ceci::build(&graph, &plan);
            let exact = count_embeddings(&graph, &plan, &ceci);

            // An incumbent seen to cost nothing cannot be beaten: every
            // member is listed, the served plan stays, nothing is rebuilt.
            let (winner, kept) = choice.score_challengers(&graph, &plan, &bar(0.0));
            assert!(winner.is_none(), "{pq:?}");
            assert!(!kept.replanned);
            assert_eq!(kept.candidates.len(), 1 + challengers(&plan).len());
            assert!(kept.candidates[0].chosen && kept.candidates[0].work == 0.0);
            assert_eq!(kept.candidates.iter().filter(|c| c.chosen).count(), 1);

            // Against an incumbent seen to cost the earth the lowest
            // work-plus-error bound wins, and the winner counts the same.
            let (winner, scored) = choice.score_challengers(&graph, &plan, &bar(f64::MAX));
            let winner = winner.expect("any finite bound beats f64::MAX");
            assert!(scored.replanned && scored.score_time > Duration::ZERO);
            assert_eq!(scored.candidates.iter().filter(|c| c.chosen).count(), 1);
            let chosen = scored.candidates.iter().find(|c| c.chosen).unwrap();
            assert_eq!(chosen.order, winner.matching_order());
            assert_ne!(winner.matching_order(), plan.matching_order());
            assert!(is_valid_order(winner.tree(), winner.matching_order()));
            let rebuilt = Ceci::build(&graph, &winner);
            assert_eq!(count_embeddings(&graph, &winner, &rebuilt), exact, "{pq:?}");

            // The error term is part of the bound: a bar at the lowest
            // bound is a tie and keeps the incumbent, a bar a hair above
            // lets exactly that challenger pass.
            let lowest = scored.candidates[1..]
                .iter()
                .map(|c| {
                    assert!(c.work_error > 0.0, "{pq:?}: {c:?}");
                    c.work + c.work_error
                })
                .fold(f64::MAX, f64::min);
            assert_eq!(chosen.work + chosen.work_error, lowest);
            let (tied, _) = choice.score_challengers(&graph, &plan, &bar(lowest));
            assert!(tied.is_none(), "{pq:?}: a tie keeps the incumbent");
            let (passed, _) = choice.score_challengers(&graph, &plan, &bar(lowest * 1.000_001));
            assert_eq!(
                passed.expect("one bound is under the bar").matching_order(),
                winner.matching_order()
            );
        }
    }

    #[test]
    fn scoring_is_deterministic() {
        let graph = kronecker_default(8, 5, 7);
        let (plan, choice) = adaptive_plan(PaperQuery::Qg2.build(), &graph);
        let ceci = Ceci::build(&graph, &plan);
        let (a, ca) = choice.score_challengers(&graph, &plan, &bar(f64::MAX));
        let (b, cb) = choice.score_challengers(&graph, &plan, &bar(f64::MAX));
        assert_eq!(a.unwrap().matching_order(), b.unwrap().matching_order());
        let works = |c: &PlanChoice| c.candidates.iter().map(|c| c.work).collect::<Vec<_>>();
        assert_eq!(works(&ca), works(&cb));
        // And the served index always estimates the same.
        let (x, y) = (
            served_cost(&graph, &plan, &ceci),
            served_cost(&graph, &plan, &ceci),
        );
        assert_eq!((x.volume(), x.work()), (y.volume(), y.work()));
    }

    #[test]
    fn ledger_elects_one_scorer_once_the_price_is_spent() {
        let run = |ops, calls| Counters {
            intersection_ops: ops,
            recursive_calls: calls,
            ..Counters::default()
        };
        let price = |scoring, rebuild| ReplanPrice { scoring, rebuild };
        let reuse = Reuse::new(price(40, 60));
        assert_eq!(reuse.claim(), None, "nothing spent");
        reuse.spend(&run(30, 9));
        reuse.spend(&run(50, 10));
        assert_eq!(reuse.snapshot(), (99, false));
        assert_eq!(reuse.claim(), None, "one unit short of the price");
        reuse.spend(&run(0, 21));
        // 120 units over 3 executions; a challenger must leave room for the
        // 60-unit rebuild over those 3.
        assert_eq!(
            reuse.claim(),
            Some(Observed {
                work: 40.0,
                bar: 20.0
            })
        );
        assert_eq!(reuse.claim(), None, "at most one re-plan");
        reuse.spend(&run(1_000, 0));
        assert_eq!(reuse.claim(), None);
        assert_eq!(reuse.snapshot(), (1_120, true));

        // Eight requests racing on a due ledger: exactly one scores.
        let reuse = Reuse::new(price(5, 5));
        reuse.spend(&run(10, 0));
        let barrier = std::sync::Barrier::new(8);
        let claims: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        reuse.claim().is_some() as usize
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(claims, 1);
    }
}
