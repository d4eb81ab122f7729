//! Differential property tests for the symmetry window, the tallied last
//! depth and the ordered-sibling leaf reuse.
//!
//! The enumerator no longer filters an intersection's output by the
//! automorphism-breaking order: it clips every candidate list to the window
//! the mapped partners leave open, counts the last depth instead of walking
//! it when the sink takes counts, and shares one leaf set between
//! penultimate siblings that only a symmetry constraint ties to the leaf.
//! None of that may change an answer. On random labeled and unlabeled
//! graphs, for queries with non-trivial automorphism groups under every
//! root override:
//!
//! * the tally path (`CountSink::unbounded`), the per-embedding path
//!   (`CountSink::with_limit(u64::MAX)`) and `CollectSink` agree on the
//!   count, and the collected set is the `ceci-baselines` reference
//!   matcher's;
//! * `prune_redundant` on ≡ off;
//! * forking from a shared frontier and the parallel strategies count the
//!   same, with the same `intersection_ops` wherever they split the work
//!   at cluster (or TE-only prefix) granularity;
//! * `enumerate_parallel` at one worker (ST and CGD) returns the whole
//!   `Counters` of `enumerate_sequential`: it is the same drain.

use std::cmp::Ordering;

use ceci_baselines::reference;
use ceci_core::{
    canonicalize, enumerate_from_frontier, enumerate_parallel, enumerate_sequential, Ceci,
    CollectSink, CountSink, Counters, EnumOptions, LeafMode, ParallelOptions, PrefixSpec, Strategy,
};
use ceci_graph::generators::{erdos_renyi, inject_random_labels};
use ceci_graph::{vid, Graph, VertexId};
use ceci_query::catalog::{clique, cycle, path, star};
use ceci_query::{PaperQuery, PlanOptions, QueryGraph, QueryPlan};
use proptest::prelude::*;

fn options(prune_redundant: bool) -> EnumOptions {
    EnumOptions {
        prune_redundant,
        ..EnumOptions::default()
    }
}

/// Queries whose automorphism group is non-trivial, so every plan carries
/// symmetry constraints for the window to apply.
fn queries() -> Vec<(&'static str, QueryGraph)> {
    let tailed_triangle = QueryGraph::unlabeled(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap();
    vec![
        ("triangle", clique(3)),
        ("clique4", clique(4)),
        ("diamond", PaperQuery::Qg3.build()),
        ("cycle4", cycle(4)),
        ("cycle5", cycle(5)),
        ("star3", star(3)),
        ("path4", path(4)),
        ("tailed-triangle", tailed_triangle),
    ]
}

fn plan_rooted(query: &QueryGraph, graph: &Graph, root: VertexId) -> QueryPlan {
    let options = PlanOptions {
        root_override: Some(root),
        ..PlanOptions::default()
    };
    QueryPlan::with_options(query.clone(), graph, &options)
}

fn count(graph: &Graph, plan: &QueryPlan, ceci: &Ceci, options: EnumOptions) -> (u64, Counters) {
    let mut sink = CountSink::unbounded();
    let counters = enumerate_sequential(graph, plan, ceci, options, &mut sink);
    (sink.count(), counters)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    #[test]
    fn windowed_enumeration_is_exact(
        n in 8usize..26,
        density in 2usize..5,
        graph_seed in 0u64..10_000,
        labels in 1u32..3,
    ) {
        let topology = erdos_renyi(n, n * density, graph_seed);
        // One label is the unlabeled graph; with two, the all-label-0
        // queries match a random half of the vertices.
        let graph = if labels == 1 {
            topology
        } else {
            inject_random_labels(&topology, labels, graph_seed ^ 0x5EED)
        };
        for (name, query) in queries() {
            let mut expected: Option<Vec<Vec<VertexId>>> = None;
            for root in query.vertices() {
                let label = format!("{name} root=u{root} n={n} seed={graph_seed} labels={labels}");
                let plan = plan_rooted(&query, &graph, root);
                prop_assert!(!plan.symmetry_constraints().is_empty(), "{}", label);
                let ceci = Ceci::build(&graph, &plan);
                // The constraints depend on the query alone: one reference
                // run serves every root.
                let expected = expected.get_or_insert_with(|| {
                    reference::enumerate_all(&graph, &query, plan.symmetry_constraints())
                });

                // (a) tally ≡ per-embedding ≡ collected ≡ reference.
                let (tallied, base) = count(&graph, &plan, &ceci, options(false));
                let mut walked = CountSink::with_limit(u64::MAX);
                let walked_counters =
                    enumerate_sequential(&graph, &plan, &ceci, options(false), &mut walked);
                let mut collected = CollectSink::unbounded();
                enumerate_sequential(&graph, &plan, &ceci, options(false), &mut collected);
                prop_assert_eq!(tallied, expected.len() as u64, "{}", &label);
                prop_assert_eq!(walked.count(), tallied, "{}", &label);
                prop_assert_eq!(&canonicalize(collected.into_embeddings()), &*expected, "{}", &label);
                // Both paths gather alike and reject the same prefix images.
                prop_assert_eq!(base, walked_counters, "{}", &label);
                prop_assert_eq!(base.symmetry_rejections, 0, "{}", &label);

                // (b) prune_redundant on ≡ off.
                let (pruned, pruned_counters) = count(&graph, &plan, &ceci, options(true));
                prop_assert_eq!(pruned, tallied, "{}", &label);
                prop_assert_eq!(pruned_counters.embeddings, base.embeddings, "{}", &label);

                // (c) forking from a shared frontier. Depths 1 and 2 skip only
                // gathers that intersect nothing (the root has no list, its
                // first child a TE list alone), so the op count is the
                // sequential run's.
                for depth in 1..plan.matching_order().len().min(4) {
                    let spec = PrefixSpec::from_plan(&plan, depth).unwrap();
                    let frontier = spec.build_frontier(&graph);
                    for options in [options(false), options(true)] {
                        let mut sink = CountSink::unbounded();
                        let forked = enumerate_from_frontier(
                            &graph, &plan, &ceci, options, &frontier, &mut sink,
                        );
                        prop_assert_eq!(sink.count(), tallied, "{} depth={}", &label, depth);
                        if depth <= 2 && !options.prune_redundant {
                            prop_assert_eq!(
                                forked.intersection_ops, base.intersection_ops,
                                "{} depth={}", &label, depth
                            );
                        }
                    }
                }
                // ... and the parallel strategies: ST and CGD hand out whole
                // clusters, so their op count is the sequential run's too.
                for strategy in [
                    Strategy::Static,
                    Strategy::CoarseDynamic,
                    Strategy::FineDynamic { beta: 0.2 },
                ] {
                    for prune_redundant in [false, true] {
                        let result = enumerate_parallel(&graph, &plan, &ceci, &ParallelOptions {
                            workers: 2,
                            strategy,
                            prune_redundant,
                            ..ParallelOptions::default()
                        });
                        prop_assert_eq!(result.total_embeddings, tallied, "{} {}", &label, strategy.abbrev());
                        if !matches!(strategy, Strategy::FineDynamic { .. }) {
                            let sequential = if prune_redundant { &pruned_counters } else { &base };
                            prop_assert_eq!(
                                result.counters.intersection_ops, sequential.intersection_ops,
                                "{} {}", &label, strategy.abbrev()
                            );
                            // One worker is the sequential drain: a single
                            // enumerator takes the clusters in pivot order,
                            // so every counter matches, not only the ops.
                            let single = enumerate_parallel(&graph, &plan, &ceci, &ParallelOptions {
                                workers: 1,
                                strategy,
                                prune_redundant,
                                ..ParallelOptions::default()
                            });
                            prop_assert_eq!(
                                &single.counters, sequential,
                                "{} {} at one worker", &label, strategy.abbrev()
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Hub 0 with leaves 1..=5, and a second hub 6 sharing leaves 4 and 5.
fn two_hubs() -> Graph {
    let mut edges: Vec<_> = (1..=5).map(|leaf| (vid(0), vid(leaf))).collect();
    edges.extend([(vid(6), vid(4)), (vid(6), vid(5))]);
    Graph::unlabeled(7, &edges)
}

/// Runs `query` rooted at `root` over [`two_hubs`] with the reuse off and
/// on, checks the plan ties its last two vertices as `expected` and that
/// both runs count what the reference matcher counts, and returns the two
/// counter sets.
fn ordered_reuse(query: QueryGraph, root: u32, expected: Ordering) -> (u64, Counters, Counters) {
    let graph = two_hubs();
    let plan = plan_rooted(&query, &graph, vid(root));
    assert_eq!(
        LeafMode::of(&plan, options(true)),
        LeafMode::ReuseOrdered(expected),
        "order {:?}, constraints {:?}",
        plan.matching_order(),
        plan.symmetry_constraints()
    );
    let ceci = Ceci::build(&graph, &plan);
    let (base, base_counters) = count(&graph, &plan, &ceci, options(false));
    let (pruned, pruned_counters) = count(&graph, &plan, &ceci, options(true));
    assert_eq!(pruned, base);
    assert_eq!(pruned_counters.embeddings, base_counters.embeddings);
    assert_eq!(base_counters.reused_subtrees, 0);
    assert_eq!(
        reference::count_all(&graph, &query, plan.symmetry_constraints()),
        base
    );
    (base, base_counters, pruned_counters)
}

#[test]
fn ordered_reuse_with_the_leaf_above_its_sibling() {
    // 2-leaf star from its hub: order [u0, u1, u2] under `u1 < u2`, so the
    // constraint's smaller vertex is the sibling (`pen < last`).
    let (count, base, pruned) = ordered_reuse(star(2), 0, Ordering::Greater);
    // Hub 0 has 5 leaves (C(5,2) = 10 pairs); hub 6 and the shared leaves 4
    // and 5 have two neighbors each (1 pair each).
    assert_eq!(count, 10 + 1 + 1 + 1);
    // One leaf gather per hub image; every sibling after the first reuses
    // it (4 + 1 + 1 + 1). The sibling is unmapped when the leaf set is
    // gathered, so the window leaves it whole.
    assert_eq!(pruned.reused_subtrees, 7);
    // One call per cluster against one more per sibling without the reuse.
    assert_eq!(pruned.recursive_calls, 4);
    assert_eq!(base.recursive_calls, pruned.recursive_calls + 11);
}

#[test]
fn ordered_reuse_with_the_leaf_below_its_sibling() {
    // 4-path from an inner vertex: order [u2, u1, u3, u0] under `u0 < u3`,
    // so the constraint's larger vertex is the sibling (`last < pen`).
    let (count, base, pruned) = ordered_reuse(path(4), 2, Ordering::Less);
    // Middle edge (0, y), y in {4, 5}: four other leaves of hub 0 on one
    // end, hub 6 on the other; middle edge (y, 6): 0 - y - 6 - y'.
    assert_eq!(count, 8 + 2);
    // Only under hub 0 does a penultimate expansion have more than one
    // sibling: four candidates for u3 under each of its two inner leaves.
    assert_eq!(pruned.reused_subtrees, 3 + 3);
    // Four clusters, two candidates for u1 in each; without the reuse one
    // more call per sibling (8 under hub 0, 2 under each of 4, 5 and 6).
    assert_eq!(pruned.recursive_calls, 4 + 8);
    assert_eq!(base.recursive_calls, pruned.recursive_calls + 14);
}
