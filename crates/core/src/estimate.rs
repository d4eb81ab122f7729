//! Sampling-based approximate embedding counting over CECI.
//!
//! The paper's related work (§7) separates exact listing from approximate
//! counting; CECI's structure happens to make a classic Knuth/WanderJoin
//! estimator nearly free: a random walk descends the matching order, at each
//! depth computing the true matching-node set (TE ∩ NTE ∩ injectivity ∩
//! symmetry — the same set enumeration would branch over), picks one
//! uniformly, and multiplies the branch count into its weight. The weight of
//! a completed walk is an unbiased estimate of the embeddings under its
//! pivot; dead ends contribute zero. Averaging over walks and pivots yields
//! an unbiased estimate of the total count at a tiny fraction of full
//! enumeration cost.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ceci_graph::{Graph, VertexId};
use ceci_query::QueryPlan;

use crate::enumerate::{EnumOptions, Enumerator};
use crate::index::Ceci;
use crate::metrics::Counters;

/// Options for the estimator.
#[derive(Clone, Copy, Debug)]
pub struct EstimateOptions {
    /// Number of random walks.
    pub walks: u64,
    /// RNG seed (estimates are deterministic per seed).
    pub seed: u64,
}

impl Default for EstimateOptions {
    fn default() -> Self {
        EstimateOptions {
            walks: 1_000,
            seed: 0xE57,
        }
    }
}

/// An approximate embedding count.
#[derive(Clone, Copy, Debug)]
pub struct Estimate {
    /// Unbiased point estimate of the total embedding count.
    pub mean: f64,
    /// Standard error of the mean (0 when the estimate is exactly 0 or the
    /// walk budget is 1).
    pub std_error: f64,
    /// Walks performed.
    pub walks: u64,
    /// `true` when the walks had no pivot to start from (the index has
    /// none, or the subset asked about is empty): the count is exactly zero.
    pub exact_zero: bool,
}

impl Estimate {
    /// Two-sided confidence interval at ±`z` standard errors.
    ///
    /// Both ends are clamped to the feasible range: counts are never
    /// negative, and the upper bound never falls below the lower one (which
    /// a negative `z` would otherwise produce). With `std_error == 0` —
    /// exact zero, or a walk budget of 1 — the interval degenerates to
    /// `(mean, mean)`.
    pub fn interval(&self, z: f64) -> (f64, f64) {
        let lo = (self.mean - z * self.std_error).max(0.0);
        let hi = (self.mean + z * self.std_error).max(lo);
        (lo, hi)
    }

    /// The 95% confidence interval (±1.96 standard errors).
    pub fn ci95(&self) -> (f64, f64) {
        self.interval(1.96)
    }
}

/// Per-depth cost breakdown produced by [`estimate_cost`] from the same
/// random walks that produce the total-count [`Estimate`].
///
/// `depth_volumes[d]` is an unbiased estimate of the number of partial
/// embeddings with `d + 1` query vertices mapped (depth `d` of the matching
/// order). Their sum is the total intermediate-result volume — the cost
/// the adaptive planner minimizes when comparing candidate orders.
#[derive(Clone, Debug)]
pub struct CostEstimate {
    /// The total-count estimate; identical to what
    /// [`estimate_embeddings`] returns for the same options.
    pub estimate: Estimate,
    /// Estimated partial-embedding count per depth of the matching order.
    pub depth_volumes: Vec<f64>,
    /// Estimated set-intersection comparisons per depth: each walk charges
    /// the exact `intersection_ops` its matching-node computation performed,
    /// weighted by the partial-embedding count it represents — an unbiased
    /// estimate of the comparisons full enumeration would execute at that
    /// depth. Tracks runtime far better than raw volume when candidate-list
    /// lengths differ between orders.
    pub depth_work: Vec<f64>,
    /// Standard error of [`CostEstimate::work`]: the walks' per-walk work
    /// totals are averaged exactly like their weights, so the same sample
    /// variance prices the score's own noise. `EXPLAIN` prints it beside
    /// [`CostEstimate::work`] as `work_se=`.
    pub work_std_error: f64,
}

impl CostEstimate {
    /// The all-zero estimate of an `n`-vertex query: what an index without
    /// pivots costs (`exact_zero`), or a placeholder before any walk ran.
    pub(crate) fn empty(n: usize, exact_zero: bool) -> CostEstimate {
        CostEstimate {
            estimate: Estimate {
                mean: 0.0,
                std_error: 0.0,
                walks: 0,
                exact_zero,
            },
            depth_volumes: vec![0.0; n],
            depth_work: vec![0.0; n],
            work_std_error: 0.0,
        }
    }

    /// Total estimated intermediate-result volume (sum over depths).
    pub fn volume(&self) -> f64 {
        self.depth_volumes.iter().sum()
    }

    /// Estimated enumeration work: intersection comparisons plus one unit
    /// per intermediate result (the constant per-node bookkeeping). Smaller
    /// means a cheaper plan.
    pub fn work(&self) -> f64 {
        self.depth_work.iter().sum::<f64>() + self.volume()
    }
}

/// Estimates the total number of embeddings with `options.walks` random
/// walks over the CECI index.
pub fn estimate_embeddings(
    graph: &Graph,
    plan: &QueryPlan,
    ceci: &Ceci,
    options: &EstimateOptions,
) -> Estimate {
    estimate_cost(graph, plan, ceci, options).estimate
}

/// Runs the same random walks as [`estimate_embeddings`] but additionally
/// tracks per-depth truncated walk weights, yielding unbiased
/// partial-embedding-count estimates for every depth of the matching order.
/// The RNG consumption is identical, so `estimate_cost(..).estimate` is
/// bit-identical to `estimate_embeddings(..)` for the same options.
pub fn estimate_cost(
    graph: &Graph,
    plan: &QueryPlan,
    ceci: &Ceci,
    options: &EstimateOptions,
) -> CostEstimate {
    let pivots: Vec<VertexId> = ceci.pivots().iter().map(|&(p, _)| p).collect();
    estimate_pivots(graph, plan, ceci, &pivots, options)
}

/// [`estimate_cost`] over `pivots` alone, a subset of [`Ceci::pivots`]: the
/// walks draw their first vertex from that population and weigh it by its
/// size. Each pivot's cluster is its own stratum, so the estimate is
/// unbiased for the subset's sum; `estimate_cost` is this over every pivot.
pub fn estimate_pivots(
    graph: &Graph,
    plan: &QueryPlan,
    ceci: &Ceci,
    pivots: &[VertexId],
    options: &EstimateOptions,
) -> CostEstimate {
    assert!(options.walks >= 1, "need at least one walk");
    let n = plan.query().num_vertices();
    if pivots.is_empty() {
        return CostEstimate::empty(n, true);
    }
    let mut rng = StdRng::seed_from_u64(options.seed);
    let mut enumerator = Enumerator::new(graph, plan, ceci, EnumOptions::default());
    let mut counters = Counters::default();

    let mut sum = 0.0f64;
    let mut sum_sq = 0.0f64;
    let mut work_sum = 0.0f64;
    let mut work_sum_sq = 0.0f64;
    let mut depth_sums = vec![0.0f64; n];
    let mut depth_work = vec![0.0f64; n];
    let mut prefix: Vec<VertexId> = Vec::with_capacity(n);
    for _ in 0..options.walks {
        prefix.clear();
        // Uniform pivot choice; weight starts at |pivots|.
        let pivot = pivots[rng.gen_range(0..pivots.len())];
        prefix.push(pivot);
        let mut weight = pivots.len() as f64;
        depth_sums[0] += weight;
        depth_work[0] += pivots.len() as f64;
        // This walk's share of `work()`: every term it adds to either table.
        let mut walk_work = 2.0 * pivots.len() as f64;
        while prefix.len() < n {
            // Charge this depth the comparisons the matching-node
            // computation performs, scaled by the partial-embedding count
            // the prefix represents (its pre-branch weight): an unbiased
            // estimate of full enumeration's intersection work here.
            // Counter snapshots consume no randomness, so the count
            // estimate stays bit-identical to `estimate_embeddings`.
            let ops_before = counters.intersection_ops;
            let matching = enumerator.matching_nodes_after_prefix(&prefix, &mut counters);
            let ops = weight * (counters.intersection_ops - ops_before) as f64;
            depth_work[prefix.len()] += ops;
            walk_work += ops;
            if matching.is_empty() {
                weight = 0.0;
                break;
            }
            weight *= matching.len() as f64;
            depth_sums[prefix.len()] += weight;
            walk_work += weight;
            let next = matching[rng.gen_range(0..matching.len())];
            prefix.push(next);
        }
        sum += weight;
        sum_sq += weight * weight;
        work_sum += walk_work;
        work_sum_sq += walk_work * walk_work;
    }
    let walks = options.walks as f64;
    CostEstimate {
        estimate: Estimate {
            mean: sum / walks,
            std_error: std_error(options.walks, sum, sum_sq),
            walks: options.walks,
            exact_zero: false,
        },
        depth_volumes: depth_sums.iter().map(|s| s / walks).collect(),
        depth_work: depth_work.iter().map(|s| s / walks).collect(),
        work_std_error: std_error(options.walks, work_sum, work_sum_sq),
    }
}

/// Standard error of the mean of `walks` samples with this `sum` and sum of
/// squares: `sqrt(popvar / (walks − 1))`, 0 for a single walk. Over
/// non-negative samples it never exceeds the mean — equal when exactly one
/// sample is non-zero.
fn std_error(walks: u64, sum: f64, sum_sq: f64) -> f64 {
    if walks <= 1 {
        return 0.0;
    }
    let n = walks as f64;
    let mean = sum / n;
    let variance = (sum_sq / n - mean * mean).max(0.0);
    (variance / (n - 1.0)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::count_embeddings;
    use crate::fixtures::{figure5, paper};
    use ceci_query::{PaperQuery, QueryPlan};

    #[test]
    fn figure1_estimate_converges() {
        let (graph, plan) = paper::figure1();
        let ceci = Ceci::build(&graph, &plan);
        // Single pivot, tiny search space: a modest walk budget nails it.
        let est = estimate_embeddings(
            &graph,
            &plan,
            &ceci,
            &EstimateOptions {
                walks: 2_000,
                seed: 1,
            },
        );
        assert!(!est.exact_zero);
        let exact = count_embeddings(&graph, &plan, &ceci) as f64;
        assert!(
            (est.mean - exact).abs() <= (3.0 * est.std_error).max(0.5),
            "estimate {} ± {} vs exact {exact}",
            est.mean,
            est.std_error
        );
    }

    #[test]
    fn figure5_estimate() {
        let (graph, plan) = figure5::setup();
        let ceci = Ceci::build(&graph, &plan);
        let est = estimate_embeddings(
            &graph,
            &plan,
            &ceci,
            &EstimateOptions {
                walks: 4_000,
                seed: 7,
            },
        );
        // Exact count is 10.
        assert!(
            (est.mean - 10.0).abs() <= (3.0 * est.std_error).max(1.0),
            "estimate {} ± {}",
            est.mean,
            est.std_error
        );
    }

    #[test]
    fn random_graph_estimate_within_tolerance() {
        use ceci_graph::generators::kronecker_default;
        let graph = kronecker_default(9, 5, 77);
        let plan = QueryPlan::new(PaperQuery::Qg3.build(), &graph);
        let ceci = Ceci::build(&graph, &plan);
        let exact = count_embeddings(&graph, &plan, &ceci) as f64;
        let est = estimate_embeddings(
            &graph,
            &plan,
            &ceci,
            &EstimateOptions {
                walks: 20_000,
                seed: 3,
            },
        );
        // Fixed seed → deterministic; allow 4 standard errors of slack.
        assert!(
            (est.mean - exact).abs() <= 4.0 * est.std_error + 0.05 * exact,
            "estimate {} ± {} vs exact {exact}",
            est.mean,
            est.std_error
        );
        let (lo, hi) = est.interval(4.0);
        assert!(lo <= exact * 1.05 && exact * 0.95 <= hi);
    }

    #[test]
    fn empty_index_is_exactly_zero() {
        use ceci_graph::{lid, Graph};
        let graph = Graph::unlabeled(4, &[(ceci_graph::vid(0), ceci_graph::vid(1))]);
        let query = ceci_query::QueryGraph::with_labels(&[lid(7), lid(7)], &[(0, 1)]).unwrap();
        let plan = QueryPlan::new(query, &graph);
        let ceci = Ceci::build(&graph, &plan);
        let est = estimate_embeddings(&graph, &plan, &ceci, &EstimateOptions::default());
        assert!(est.exact_zero);
        assert_eq!(est.mean, 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let (graph, plan) = paper::figure1();
        let ceci = Ceci::build(&graph, &plan);
        let opts = EstimateOptions {
            walks: 100,
            seed: 42,
        };
        let a = estimate_embeddings(&graph, &plan, &ceci, &opts);
        let b = estimate_embeddings(&graph, &plan, &ceci, &opts);
        assert_eq!(a.mean, b.mean);
        assert_eq!(a.std_error, b.std_error);
    }

    #[test]
    fn cost_estimate_matches_estimate() {
        let (graph, plan) = paper::figure1();
        let ceci = Ceci::build(&graph, &plan);
        let opts = EstimateOptions {
            walks: 500,
            seed: 9,
        };
        let est = estimate_embeddings(&graph, &plan, &ceci, &opts);
        let cost = estimate_cost(&graph, &plan, &ceci, &opts);
        assert_eq!(cost.estimate.mean, est.mean);
        assert_eq!(cost.estimate.std_error, est.std_error);
        // Depth 0 volume is exactly the pivot count, and the deepest volume
        // equals the total-count estimate.
        assert_eq!(cost.depth_volumes[0], ceci.pivots().len() as f64);
        let last = *cost.depth_volumes.last().unwrap();
        assert!((last - est.mean).abs() < 1e-9, "{last} vs {}", est.mean);
        assert!(cost.volume() >= est.mean);
        // A single-pivot index still branches below the root, so the work
        // score carries sampling noise, and a fifth of the walks carries
        // more of it.
        assert!(cost.work_std_error > 0.0 && cost.work_std_error < cost.work());
        let fewer = estimate_cost(
            &graph,
            &plan,
            &ceci,
            &EstimateOptions {
                walks: 100,
                seed: 9,
            },
        );
        assert!(fewer.work_std_error > cost.work_std_error);
        assert_eq!(cost.depth_volumes.len(), plan.query().num_vertices());
    }

    #[test]
    fn interval_clamps_both_ends() {
        // High variance relative to the mean: naive lo would go negative.
        let est = Estimate {
            mean: 1.0,
            std_error: 5.0,
            walks: 10,
            exact_zero: false,
        };
        let (lo, hi) = est.interval(1.96);
        assert_eq!(lo, 0.0);
        assert!(hi >= lo);
        // Negative z must not invert the interval.
        let (lo, hi) = est.interval(-3.0);
        assert!(lo <= hi, "inverted interval ({lo}, {hi})");
        // Degenerate cases: zero std_error (walk budget 1, or exact zero).
        let point = Estimate {
            mean: 3.5,
            std_error: 0.0,
            walks: 1,
            exact_zero: false,
        };
        assert_eq!(point.interval(4.0), (3.5, 3.5));
        assert_eq!(point.ci95(), (3.5, 3.5));
        let zero = Estimate {
            mean: 0.0,
            std_error: 0.0,
            walks: 0,
            exact_zero: true,
        };
        assert_eq!(zero.ci95(), (0.0, 0.0));
    }

    #[test]
    fn exact_zero_cost_has_zero_volumes() {
        use ceci_graph::{lid, Graph};
        let graph = Graph::unlabeled(4, &[(ceci_graph::vid(0), ceci_graph::vid(1))]);
        let query = ceci_query::QueryGraph::with_labels(&[lid(7), lid(7)], &[(0, 1)]).unwrap();
        let plan = QueryPlan::new(query, &graph);
        let ceci = Ceci::build(&graph, &plan);
        let cost = estimate_cost(&graph, &plan, &ceci, &EstimateOptions::default());
        assert!(cost.estimate.exact_zero);
        assert_eq!(cost.depth_volumes.len(), plan.query().num_vertices());
        assert!(cost.depth_volumes.iter().all(|&v| v == 0.0));
        assert_eq!(cost.volume(), 0.0);
    }

    use proptest::prelude::*;

    proptest! {
        /// Non-negative walk weights (dead ends are zeros) never carry a
        /// standard error above their mean; a single non-zero weight is the
        /// equality case.
        #[test]
        fn std_error_never_exceeds_the_mean(
            weights in collection::vec(prop_oneof![Just(0.0), 0.0f64..1e9], 1..200),
            lone in 0.0f64..1e9,
            at in any::<u64>(),
        ) {
            let mut one_nonzero = vec![0.0; weights.len()];
            one_nonzero[at as usize % weights.len()] = lone;
            for weights in [weights, one_nonzero] {
                let sum: f64 = weights.iter().sum();
                let sum_sq: f64 = weights.iter().map(|w| w * w).sum();
                let mean = sum / weights.len() as f64;
                let se = std_error(weights.len() as u64, sum, sum_sq);
                prop_assert!(se <= mean * (1.0 + 1e-12), "{} > {} over {:?}", se, mean, weights);
            }
        }
    }
}
