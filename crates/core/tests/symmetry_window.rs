//! Differential property tests for the symmetry window, the tallied last
//! depth, the ordered-sibling leaf reuse and the closed-form twin tail.
//!
//! The enumerator no longer filters an intersection's output by the
//! automorphism-breaking order: it clips every candidate list to the window
//! the mapped partners leave open, counts the last depth instead of walking
//! it when the sink takes counts, shares one leaf set between penultimate
//! siblings that only a symmetry constraint ties to the leaf, and answers a
//! tail of interchangeable last vertices with one binomial (or falling
//! factorial) per expansion. None of that may change an answer. On random
//! labeled and unlabeled graphs, for queries with non-trivial automorphism
//! groups under every root override:
//!
//! * the tally path (`CountSink::unbounded`), the per-embedding path
//!   (`CountSink::with_limit(u64::MAX)`) and `CollectSink` agree on the
//!   count, and the collected set is the `ceci-baselines` reference
//!   matcher's;
//! * `prune_redundant` on (`TWINS` wherever the plan ends in a twin tail)
//!   ≡ off ≡ the reference, and the leaf mode is `TWINS` exactly where the
//!   plan's structure says so;
//! * forking from a shared frontier and the parallel strategies count the
//!   same, with the same `intersection_ops` wherever they split the work
//!   at cluster (or TE-only prefix) granularity;
//! * `enumerate_parallel` at one worker (ST and CGD) returns the whole
//!   `Counters` of `enumerate_sequential`: it is the same drain;
//! * a `prune_redundant` count memoises sub-counts at the index's clean cut
//!   and still counts what the reference matcher counts, on a clean cut, an
//!   unclean one and a multi-labelled one (disjoint query labels, data
//!   vertices carrying both) that must be refused; the memo answers
//!   repeated keys, switches itself off at its 256th key when keys do not
//!   repeat, and rests on every TE list entry of `u` lying in `u`'s
//!   candidate set.

use std::cmp::Ordering;

use ceci_baselines::reference;
use ceci_core::{
    canonicalize, enumerate_from_frontier, enumerate_parallel, enumerate_sequential, Ceci,
    CollectSink, CountSink, Counters, EnumOptions, Enumerator, LeafMode, ParallelOptions,
    PrefixSpec, Strategy, TwinTail,
};
use ceci_graph::generators::{erdos_renyi, inject_random_labels};
use ceci_graph::{lid, vid, Graph, VertexId};
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
/// symmetry constraints for the window to apply. A 4-star from its hub ends
/// in four twins, from a leaf in three; `K_{2,3}` from a vertex of its
/// 3-side in two. In the double star (two adjacent hubs with two leaves
/// each) the last two leaves are twins whose gathered set holds the other
/// hub's image, which the window does not clip. The near-twin diamond gives
/// its degree-2 vertices different labels, so no root may see them as a
/// tail.
fn queries() -> Vec<(&'static str, QueryGraph)> {
    let tailed_triangle = QueryGraph::unlabeled(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap();
    let k23 = QueryGraph::unlabeled(5, &[(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]).unwrap();
    let diamond = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)];
    let near_twin = QueryGraph::with_labels(&[lid(0), lid(0), lid(0), lid(1)], &diamond).unwrap();
    let double_star = QueryGraph::unlabeled(6, &[(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)]).unwrap();
    vec![
        ("triangle", clique(3)),
        ("clique4", clique(4)),
        ("diamond", PaperQuery::Qg3.build()),
        ("cycle4", cycle(4)),
        ("cycle5", cycle(5)),
        ("star3", star(3)),
        ("path4", path(4)),
        ("tailed-triangle", tailed_triangle),
        ("star4", star(4)),
        ("k23", k23),
        ("double-star", double_star),
        ("near-twin-diamond", near_twin),
    ]
}

/// The leaf mode a count-only, `prune_redundant` run of `plan` gets.
fn leaf_mode(plan: &QueryPlan, ceci: &Ceci) -> LeafMode {
    LeafMode::of(plan, ceci, options(true))
}

/// The paper's BFS plan from `root`: the shapes this suite pins (which
/// depth a cut lands on, which leaves reuse or twin) are BFS shapes.
fn plan_rooted(query: &QueryGraph, graph: &Graph, root: VertexId) -> QueryPlan {
    let options = PlanOptions {
        root_override: Some(root),
        ..PlanOptions::paper()
    };
    QueryPlan::with_options(query.clone(), graph, &options)
}

fn count(graph: &Graph, plan: &QueryPlan, ceci: &Ceci, options: EnumOptions) -> (u64, Counters) {
    let mut sink = CountSink::unbounded();
    let counters = enumerate_sequential(graph, plan, ceci, options, &mut sink);
    (sink.count(), counters)
}

/// The `Counters` of [`Strategy::Static`] over `workers` workers, rebuilt
/// from its split: worker `w` drains clusters `w`, `w + workers`, … in pivot
/// order with an enumerator (and so a memo) of its own.
fn static_split(
    graph: &Graph,
    plan: &QueryPlan,
    ceci: &Ceci,
    options: EnumOptions,
    workers: usize,
) -> Counters {
    let mut total = Counters::default();
    for w in 0..workers {
        let mut enumerator = Enumerator::new(graph, plan, ceci, options);
        let mut counters = Counters::default();
        let mut sink = CountSink::unbounded();
        for &(pivot, _) in ceci.pivots().iter().skip(w).step_by(workers) {
            assert!(enumerator.enumerate_cluster(pivot, &mut sink, &mut counters));
        }
        total.merge(&counters);
    }
    total
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
        // Capped at the n(n−1)/2 edges n vertices hold (only n = 8 at
        // density 4 asks for more); every other draw keeps its graph.
        let topology = erdos_renyi(n, (n * density).min(n * (n - 1) / 2), graph_seed);
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

                // (b) prune_redundant on ≡ off, and TWINS exactly where the
                // structure ends the order in twins (the build confirms
                // their tables, which twins' always agree).
                let (pruned, pruned_counters) = count(&graph, &plan, &ceci, options(true));
                prop_assert_eq!(pruned, tallied, "{}", &label);
                prop_assert_eq!(pruned_counters.embeddings, base.embeddings, "{}", &label);
                let twins = TwinTail::of(&plan);
                prop_assert_eq!(ceci.twin_tail(), twins, "{}", &label);
                // A star rooted at a leaf whose image falls between two other
                // leaves' splits them: the leaves below it and those above
                // see different windows, so only a run on one side is a tail.
                let expected_twins = match (name, root.0) {
                    ("star4", 0) => Some(4),
                    ("star3", 0) | ("star4", 1 | 4) => Some(3),
                    ("diamond", 2) | ("k23", 2 | 4) | ("star3", 1 | 3) | ("star4", 2) => Some(2),
                    ("double-star", _) => Some(2),
                    _ => None,
                };
                prop_assert_eq!(twins.map(|t| t.twins), expected_twins, "{}", &label);
                prop_assert_eq!(
                    matches!(leaf_mode(&plan, &ceci), LeafMode::Twins(_)),
                    twins.is_some(),
                    "{}", &label
                );

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
                // clusters, so their op count is the sequential run's too
                // wherever no memo acts. A memo belongs to one worker and
                // sees only its clusters' keys: ST's split is fixed, so its
                // whole `Counters` are its two enumerators' on every input;
                // CGD's depends on which worker pulls first.
                let memoised = ceci.clean_cut().is_some();
                for strategy in [
                    Strategy::Static,
                    Strategy::CoarseDynamic,
                    Strategy::FineDynamic { beta: 0.2 },
                ] {
                    for prune_redundant in [false, true] {
                        let result = enumerate_parallel(&graph, &plan, &ceci, &ParallelOptions {
                            workers: 2,
                            strategy,
                            enumeration: options(prune_redundant),
                            ..ParallelOptions::default()
                        });
                        prop_assert_eq!(result.total_embeddings, tallied, "{} {}", &label, strategy.abbrev());
                        if strategy == Strategy::Static {
                            prop_assert_eq!(
                                &result.counters,
                                &static_split(&graph, &plan, &ceci, options(prune_redundant), 2),
                                "{} ST", &label
                            );
                        }
                        if !matches!(strategy, Strategy::FineDynamic { .. }) {
                            let sequential = if prune_redundant { &pruned_counters } else { &base };
                            if !(prune_redundant && memoised) {
                                prop_assert_eq!(
                                    result.counters.intersection_ops, sequential.intersection_ops,
                                    "{} {}", &label, strategy.abbrev()
                                );
                            }
                            // One worker is the sequential drain: a single
                            // enumerator takes the clusters in pivot order,
                            // so every counter matches, not only the ops.
                            let single = enumerate_parallel(&graph, &plan, &ceci, &ParallelOptions {
                                workers: 1,
                                strategy,
                                enumeration: options(prune_redundant),
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
/// on, checks the plan's leaf mode is `expected` and that both runs count
/// what the reference matcher counts, and returns the two counter sets.
fn pruned_leaf(query: QueryGraph, root: u32, expected: LeafMode) -> (u64, Counters, Counters) {
    let graph = two_hubs();
    let plan = plan_rooted(&query, &graph, vid(root));
    let ceci = Ceci::build(&graph, &plan);
    assert_eq!(
        leaf_mode(&plan, &ceci),
        expected,
        "order {:?}, constraints {:?}",
        plan.matching_order(),
        plan.symmetry_constraints()
    );
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
    // 5-path from its center: order [u2, u1, u3, u0, u4] under `u0 < u4`,
    // so the constraint's smaller vertex is the sibling (`pen < last`).
    // The two ends hang off different parents: no twin tail.
    let leaf = LeafMode::ReuseOrdered(Ordering::Greater);
    let (count, base, pruned) = pruned_leaf(path(5), 2, leaf);
    // The 5-paths run once around the 4-cycle 0-4-6-5 and out to one of
    // hub 0's three pendant leaves: centered at 4 or at 5, three each.
    assert_eq!(count, 3 + 3);
    // The degree filter leaves u1 and u3 the images 0, 4, 5 and 6. Under
    // center 4 with u1 = 0, u3 = 6 the siblings 1, 2, 3 and 5 of u0 share
    // one leaf gather (3 reuses), and likewise under center 5.
    assert_eq!(pruned.reused_subtrees, 3 + 3);
    // Four clusters, two (u1, u3) pairs in each; without the reuse one more
    // call per sibling of u0 (4 + 1 under 4 and under 5, 1 + 1 under 0
    // and under 6).
    assert_eq!(pruned.recursive_calls, 4 + 8 + 8);
    assert_eq!(base.recursive_calls, pruned.recursive_calls + 14);
}

#[test]
fn twin_leaves_of_a_star_count_in_closed_form() {
    // 2-leaf star from its hub: order [u0, u1, u2] under `u1 < u2`, both
    // leaves children of the hub with no non-tree edge: a chained twin
    // tail.
    let tail = TwinTail {
        twins: 2,
        chained: true,
    };
    let (count, base, pruned) = pruned_leaf(star(2), 0, LeafMode::Twins(tail));
    // Hub 0 has 5 leaves (C(5,2) = 10 pairs); hub 6 and the shared leaves 4
    // and 5 have two neighbors each (1 pair each).
    assert_eq!(count, 10 + 1 + 1 + 1);
    // One gather per hub image answers both leaves: C(n', 2), nothing
    // walked and nothing reused, against one more call per first leaf
    // without the closed form.
    assert_eq!(pruned.reused_subtrees, 0);
    assert_eq!(pruned.recursive_calls, 4);
    assert_eq!(base.recursive_calls, pruned.recursive_calls + 11);
    // Neither gather intersects (TE lists alone), and the hub image is
    // never its own neighbor.
    assert_eq!(pruned.intersection_ops, 0);
    assert_eq!(pruned.injectivity_rejections, 0);
    // A 3-leaf star from its hub is C(5, 3) in hub 0's cluster, the only
    // one the degree filter leaves.
    let tail = TwinTail { twins: 3, ..tail };
    let (count, _, pruned) = pruned_leaf(star(3), 0, LeafMode::Twins(tail));
    assert_eq!(count, 10);
    assert_eq!(pruned.recursive_calls, 1);
}

#[test]
fn ordered_reuse_with_the_leaf_below_its_sibling() {
    // 4-path from an inner vertex: order [u2, u1, u3, u0] under `u0 < u3`,
    // so the constraint's larger vertex is the sibling (`last < pen`).
    let (count, base, pruned) = pruned_leaf(path(4), 2, LeafMode::ReuseOrdered(Ordering::Less));
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

/// Labeled queries for the memoised sub-counts, each rooted at `u0` and
/// matched in order `[u0, u1, u2, u3]` (three vertices for the multi-label
/// path):
///
/// * `clean-path` A–B–C–D: the cut at depth 2 reads `u1` alone, and `u0`'s
///   label is no suffix vertex's;
/// * `clean-square` A–B–D–C–A: the cut at depth 3 reads `u1` and `u2`;
/// * `unclean-path` A–B–C–A: `u0` and `u3` share a label, so no cut is
///   clean while their candidate sets meet;
/// * `multi-path` A–B–C over data vertices that may carry both A and C:
///   the query's labels are disjoint, yet the cut must be refused while
///   `u0`'s and `u2`'s candidate sets meet.
fn cut_queries() -> Vec<(&'static str, QueryGraph, bool)> {
    let with = |labels: &[u32], edges: &[(u32, u32)]| {
        let labels: Vec<_> = labels.iter().copied().map(lid).collect();
        QueryGraph::with_labels(&labels, edges).unwrap()
    };
    vec![
        (
            "clean-path",
            with(&[0, 1, 2, 3], &[(0, 1), (1, 2), (2, 3)]),
            false,
        ),
        (
            "clean-square",
            with(&[0, 1, 2, 3], &[(0, 1), (0, 2), (1, 3), (2, 3)]),
            false,
        ),
        (
            "unclean-path",
            with(&[0, 1, 2, 0], &[(0, 1), (1, 2), (2, 3)]),
            false,
        ),
        ("multi-path", with(&[0, 1, 2], &[(0, 1), (1, 2)]), true),
    ]
}

/// Whether `a` and `b` share a vertex.
fn meet(a: &[VertexId], b: &[VertexId]) -> bool {
    a.iter().any(|v| b.binary_search(v).is_ok())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    #[test]
    fn memoised_cuts_are_exact(
        n in 12usize..40,
        density in 2usize..5,
        graph_seed in 0u64..10_000,
    ) {
        let topology = erdos_renyi(n, n * density, graph_seed);
        let single = inject_random_labels(&topology, 4, graph_seed ^ 0x5EED);
        let multi = ceci_graph::generators::inject_random_multilabels(
            &topology, 3, 1, 2, graph_seed ^ 0xB07,
        );
        for (name, query, multi_labelled) in cut_queries() {
            let graph = if multi_labelled { &multi } else { &single };
            let label = format!("{name} n={n} seed={graph_seed}");
            let plan = plan_rooted(&query, graph, vid(0));
            prop_assert_eq!(plan.matching_order(), &(0..query.num_vertices() as u32).map(vid).collect::<Vec<_>>()[..], "{}", &label);
            let ceci = Ceci::build(graph, &plan);
            let cands = |u: u32| ceci.candidates(vid(u));
            let expected = reference::count_all(graph, &query, plan.symmetry_constraints());
            let (pruned, counters) = count(graph, &plan, &ceci, options(true));
            let (walked, base) = count(graph, &plan, &ceci, options(false));
            prop_assert_eq!(pruned, expected, "{}", &label);
            prop_assert_eq!(walked, expected, "{}", &label);
            // The paper's options get no memo.
            prop_assert_eq!((base.memo_hits, base.memo_keys), (0, 0), "{}", &label);
            let cut = ceci.clean_cut();
            match name {
                "clean-path" => {
                    let cut = cut.expect("A-B-C-D is clean at depth 2");
                    prop_assert_eq!((cut.depth, &cut.key[..]), (2, &[vid(1)][..]), "{}", &label);
                }
                "clean-square" => {
                    let cut = cut.expect("the square is clean at depth 3");
                    prop_assert_eq!((cut.depth, &cut.key[..]), (3, &[vid(1), vid(2)][..]), "{}", &label);
                }
                "unclean-path" => {
                    prop_assert!(cut.is_none() || !meet(cands(0), cands(3)), "{}", &label);
                }
                _ => {
                    prop_assert!(cut.is_none() || !meet(cands(0), cands(2)), "{}", &label);
                }
            }
            // Whatever cut was taken, nothing outside its key meets the
            // suffix; without one the drain stores nothing.
            if let Some(cut) = cut {
                let (prefix, suffix) = plan.matching_order().split_at(cut.depth);
                for w in prefix.iter().filter(|w| !cut.key.contains(w)) {
                    for s in suffix {
                        prop_assert!(!meet(ceci.candidates(*w), ceci.candidates(*s)), "{}", &label);
                    }
                }
            } else {
                prop_assert_eq!((counters.memo_hits, counters.memo_keys), (0, 0), "{}", &label);
            }
            // Each worker owns its memo: every strategy counts the same.
            for strategy in [
                Strategy::Static,
                Strategy::CoarseDynamic,
                Strategy::FineDynamic { beta: 0.2 },
            ] {
                let result = enumerate_parallel(graph, &plan, &ceci, &ParallelOptions {
                    workers: 2,
                    strategy,
                    enumeration: options(true),
                    ..ParallelOptions::default()
                });
                prop_assert_eq!(result.total_embeddings, expected, "{} {}", &label, strategy.abbrev());
            }
        }
    }
}

#[test]
fn te_list_entries_lie_in_their_vertex_candidate_set() {
    // The memo's disjointness argument: every gather intersects `u`'s TE
    // list, so the search maps `u` only to a TE list entry of `u` (or, at
    // the root, a pivot), and those lie in `ceci.candidates(u)`. NTE lists
    // need not: a neighbour of the NTE key that passes `u`'s filters under
    // no tree-parent candidate stays in them, and the TE list drops it
    // from every intersection.
    for seed in 0..6u64 {
        let topology = erdos_renyi(40, 120, seed);
        let graphs = [
            topology.clone(),
            inject_random_labels(&topology, 3, seed),
            ceci_graph::generators::inject_random_multilabels(&topology, 3, 1, 2, seed),
        ];
        let queries = queries().into_iter().chain(
            cut_queries()
                .into_iter()
                .map(|(name, query, _)| (name, query)),
        );
        let queries: Vec<_> = queries.collect();
        for graph in &graphs {
            for (name, query) in &queries {
                for refine in [true, false] {
                    let plan = plan_rooted(query, graph, vid(0));
                    let build = ceci_core::BuildOptions {
                        refine,
                        ..Default::default()
                    };
                    let ceci = Ceci::build_with(graph, &plan, build);
                    let within = |u: VertexId, list: &[VertexId]| {
                        let cands = ceci.candidates(u);
                        list.iter().all(|v| cands.binary_search(v).is_ok())
                    };
                    let root = plan.root();
                    let pivots: Vec<VertexId> = ceci.pivots().iter().map(|&(p, _)| p).collect();
                    assert!(within(root, &pivots), "{name} seed={seed} refine={refine}");
                    for u in query.vertices() {
                        for (key, list) in ceci.te(u).into_iter().flat_map(|t| t.iter()) {
                            assert!(
                                within(u, list),
                                "{name} seed={seed} refine={refine}: u{u} under {key:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Pivot `0` (label A) with `fan` B-neighbours, each with its own C- and
/// D-neighbours: the `clean-path` query's keys (the B images) never
/// repeat.
fn fan_of_private_paths(fan: u32) -> Graph {
    let mut labels = vec![ceci_graph::LabelSet::single(lid(0))];
    let mut edges = Vec::new();
    for i in 0..fan {
        let b = 1 + 3 * i;
        labels.extend([1, 2, 3].map(|l| ceci_graph::LabelSet::single(lid(l))));
        edges.extend([
            (vid(0), vid(b)),
            (vid(b), vid(b + 1)),
            (vid(b + 1), vid(b + 2)),
        ]);
    }
    Graph::new(labels, &edges, false)
}

#[test]
fn keys_that_never_repeat_switch_the_memo_off_at_the_256th() {
    let graph = fan_of_private_paths(300);
    let (_, query, _) = cut_queries().swap_remove(0);
    let plan = plan_rooted(&query, &graph, vid(0));
    let ceci = Ceci::build(&graph, &plan);
    assert_eq!(ceci.clean_cut().map(|c| c.depth), Some(2));
    let (pruned, counters) = count(&graph, &plan, &ceci, options(true));
    assert_eq!(pruned, 300);
    // 256 keys stored, no hit among them: the memo is off for the last 44.
    assert_eq!((counters.memo_keys, counters.memo_hits), (256, 0));
    // Every B image still costs its call and its C-image's call.
    assert_eq!(counters.recursive_calls, 1 + 2 * 300);
}

#[test]
fn repeated_keys_are_answered_from_the_memo() {
    // Six A-pivots share three B-neighbours, each of which leads to two C's
    // and each C to two D's: a key (the B image) repeats under every pivot
    // after the first.
    let labels = [[0; 6].as_slice(), &[1; 3], &[2; 6], &[3; 12]].concat();
    let labels = labels
        .into_iter()
        .map(|l| ceci_graph::LabelSet::single(lid(l)))
        .collect();
    let mut edges = Vec::new();
    for a in 0..6 {
        edges.extend((6..9).map(|b| (vid(a), vid(b))));
    }
    for (i, b) in (6..9).enumerate() {
        let cs = [9 + 2 * i as u32, 10 + 2 * i as u32];
        for (j, c) in cs.into_iter().enumerate() {
            edges.push((vid(b), vid(c)));
            let d = 15 + 2 * (2 * i + j) as u32;
            edges.extend([(vid(c), vid(d)), (vid(c), vid(d + 1))]);
        }
    }
    let graph = Graph::new(labels, &edges, false);
    let (_, query, _) = cut_queries().swap_remove(0);
    let plan = plan_rooted(&query, &graph, vid(0));
    let ceci = Ceci::build(&graph, &plan);
    let (pruned, counters) = count(&graph, &plan, &ceci, options(true));
    let (walked, base) = count(&graph, &plan, &ceci, options(false));
    // 6 pivots × 3 B × 2 C × 2 D.
    assert_eq!((pruned, walked), (72, 72));
    assert_eq!((counters.memo_keys, counters.memo_hits), (3, 15));
    // The first pivot walks each B's subtree (1 + 2 calls); the other five
    // answer all three from the memo.
    assert_eq!(counters.recursive_calls, 6 + 3 * 3);
    assert_eq!(base.recursive_calls, 6 * (1 + 3 * 3));
    assert!(counters.intersection_ops <= base.intersection_ops);
}
