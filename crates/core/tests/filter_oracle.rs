//! Differential oracle for Algorithm 1's one verdict source.
//!
//! The build takes "does `v` pass LF ∧ DF ∧ NLCF for `u`" from the plan's
//! candidate bitsets instead of deriving it per adjacency entry. That may
//! not change a single table: on random labeled and unlabeled graphs, for
//! the automorphic query set of `symmetry_window.rs` under every root
//! override, the build must leave exactly what the per-entry algorithm
//! leaves — pivots, every TE / NTE key sequence and value list, the
//! per-node candidate sets, entry and arena accounting (holes are what
//! the empty-entry cascade removed, tombstones and emptied lists where it
//! removed them, so a cascade applied in another order or to other keys
//! shows here), and the scan count. It runs on each graph's label-major
//! ranked copy too, multi-labeled vertices included, where the build reads
//! only the span of each adjacency list that holds the child's candidates,
//! and whose candidate scan (class ranges, span counts) must find what the
//! file graph's (label index, adjacency walks) finds.
//!
//! The oracle is the parent algorithm kept whole in this file: it calls
//! [`passes`] on every adjacency entry and never reads a
//! bitset, and it drives the cascade itself, in frontier order.
//!
//! Algorithm 2 removes each node's zero-cardinality candidates in one set
//! removal once the node's loop ends; the parent algorithm, also kept
//! whole here, removed each one as soon as it found it. Both must leave the
//! same state (holes included: the arena keeps every removed slot until
//! freeze, so `arena_bytes − 4 × entries` counts them) and the same
//! cardinalities, and the served build must freeze that state.
//!
//! Last: a plan carried to a later snapshot. [`QueryPlan::on_graph`]
//! makes it buildable there and counts like a fresh plan for every root;
//! building under the carried plan as is trips the served entry points'
//! debug assertion.

use std::collections::BTreeMap;

use ceci_core::refine::reverse_bfs_refine;
use ceci_core::tables::BuildTable;
use ceci_core::{bfs_filter_from, count_embeddings, BuilderState, Ceci};
use ceci_graph::generators::{erdos_renyi, inject_random_labels, inject_random_multilabels};
use ceci_graph::{lid, rank_by_label_and_degree, vid, Graph, VertexId};
use ceci_query::candidates::passes;
use ceci_query::catalog::{clique, cycle, path, star};
use ceci_query::{candidates_of, OrderStrategy, PaperQuery, PlanOptions, QueryGraph, QueryPlan};
use proptest::prelude::*;

/// The query set of `symmetry_window.rs`.
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

/// The parent commit's Algorithm 1: every table is the filtered adjacency
/// of its frontier with the three filters run per entry, and a frontier
/// vertex that comes up empty is cascaded away before the next table.
fn reference_filter(graph: &Graph, plan: &QueryPlan) -> (BuilderState, u64) {
    let n = plan.query().num_vertices();
    let order = plan.matching_order();
    // (node the table is for, node whose candidates key it), in build order.
    let te = order[1..]
        .iter()
        .map(|&u| (u, plan.tree().parent(u).unwrap(), true));
    let nte = order.iter().flat_map(|&u| {
        let parents = plan.backward_nte(u).iter();
        parents.map(move |&un| (u, un, false))
    });
    let mut state = BuilderState {
        pivots: candidates_of(plan.query(), graph, plan.root()),
        te: (0..n).map(|_| None).collect(),
        nte: vec![Vec::new(); n],
    };
    let mut scans = 0u64;
    for (u, keyed_by, is_te) in te.chain(nte) {
        let frontier = state.candidates_of(plan, keyed_by).to_vec();
        let mut table = BuildTable::new(&frontier, &candidates_of(plan.query(), graph, u));
        for &vf in &frontier {
            scans += graph.degree(vf) as u64;
            let entries = graph.neighbors(vf).iter().copied();
            let passing: Vec<VertexId> = entries
                .filter(|&v| passes(plan.query(), graph, u, v))
                .collect();
            table.push_key(vf, &passing); // an empty list records no key
        }
        let emptied = frontier.into_iter().filter(|&vf| table.get(vf).is_none());
        let emptied: Vec<VertexId> = emptied.collect();
        match is_te {
            true => state.te[u.index()] = Some(table),
            false => state.nte[u.index()].push((keyed_by, table)),
        }
        for vf in emptied {
            state.remove_candidates(plan, keyed_by, &[vf]);
        }
    }
    (state, scans)
}

/// Everything a build table shows: live `(key, list)` pairs in insertion
/// order (emptied lists included), and the key / entry / arena accounting.
type TableImage = (Vec<(VertexId, Vec<VertexId>)>, usize, usize, usize);

fn image(table: &BuildTable) -> TableImage {
    (
        table.iter().map(|(k, list)| (k, list.to_vec())).collect(),
        table.num_keys(),
        table.num_entries(),
        table.arena_bytes(),
    )
}

fn assert_same_state(plan: &QueryPlan, got: &BuilderState, want: &BuilderState, what: &str) {
    assert_eq!(got.pivots, want.pivots, "{what}: pivots");
    for u in plan.query().vertices() {
        assert_eq!(
            got.candidates_of(plan, u),
            want.candidates_of(plan, u),
            "{what}: candidates of u{u}"
        );
        assert_eq!(
            got.te[u.index()].as_ref().map(image),
            want.te[u.index()].as_ref().map(image),
            "{what}: TE of u{u}"
        );
        let nte = |state: &BuilderState| -> Vec<(VertexId, TableImage)> {
            let tables = state.nte[u.index()].iter();
            tables.map(|(un, table)| (*un, image(table))).collect()
        };
        assert_eq!(nte(got), nte(want), "{what}: NTE of u{u}");
    }
}

/// The query set, and with more than one label each query again with node
/// `u` labeled `u % labels`: under label-major ids those candidate spans
/// start and end inside the id range.
fn labeled_queries(labels: u32) -> Vec<(String, QueryGraph)> {
    let mut all: Vec<(String, QueryGraph)> = Vec::new();
    for (name, query) in queries() {
        if labels > 1 {
            let mixed: Vec<_> = query.vertices().map(|u| lid(u.0 % labels)).collect();
            let edges: Vec<_> = query.edges().iter().map(|&(a, b)| (a.0, b.0)).collect();
            let relabeled = QueryGraph::with_labels(&mixed, &edges).unwrap();
            all.push((format!("{name}%{labels}"), relabeled));
        }
        all.push((name.to_string(), query));
    }
    all
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16 })]

    /// On the file graph and on its label-major ranked copy, where the
    /// filter reads only each list's candidate span.
    #[test]
    fn bitset_build_is_the_per_entry_build(
        n in 12usize..320,
        density in 2usize..5,
        seed in 0u64..10_000,
        labels in 1u32..4,
        multi in 0u32..2,
    ) {
        let topology = erdos_renyi(n, n * density, seed);
        // One label is the unlabeled graph; with more, the all-label-0
        // queries match a random share of the vertices and LF / NLCF bite.
        // `multi` gives about half the vertices a second label, which the
        // ranking puts in one last class.
        let file = match (labels, multi) {
            (1, _) => topology,
            (_, 0) => inject_random_labels(&topology, labels, seed ^ 0x5EED),
            _ => inject_random_multilabels(&topology, labels, 1, 2, seed ^ 0x5EED),
        };
        let (ranked, ranking) = rank_by_label_and_degree(&file);
        // The two candidate scans agree: the label index with adjacency
        // walks under file ids, class ranges with a DF suffix cut and span
        // counts under ranks.
        for (name, query) in labeled_queries(labels) {
            for u in query.vertices() {
                let mut want: Vec<VertexId> =
                    candidates_of(&query, &file, u).iter().map(|&v| ranking.rank(v)).collect();
                want.sort_unstable();
                prop_assert_eq!(candidates_of(&query, &ranked, u), want, "{} u{} seed={}", name, u, seed);
            }
        }
        for (ids, graph) in [("file", &file), ("ranked", &ranked)] {
            for (name, query) in labeled_queries(labels) {
                for root in query.vertices() {
                    let what = format!(
                        "{name} root=u{root} n={n} seed={seed} labels={labels} multi={multi} {ids}"
                    );
                    let options = PlanOptions {
                        root_override: Some(root),
                        ..PlanOptions::default()
                    };
                    let plan = QueryPlan::with_options(query.clone(), graph, &options);
                    let (want, scans) = reference_filter(graph, &plan);
                    let pivots = plan.initial_candidates(root).to_vec();
                    let (got, got_scans) = bfs_filter_from(graph, &plan, pivots);
                    prop_assert_eq!(got_scans, scans, "{}", &what);
                    assert_same_state(&plan, &got, &want, &what);
                    // The served entry point reports the same work.
                    let stats = *Ceci::build(graph, &plan).stats();
                    prop_assert_eq!(stats.filter_scans, scans, "{}", &what);
                    prop_assert_eq!(stats.te_entries_after_filter, want.te_entries(), "{}", &what);
                    prop_assert_eq!(stats.nte_entries_after_filter, want.nte_entries(), "{}", &what);
                }
            }
        }
    }
}

/// The parent commit's Algorithm 2: a candidate whose cardinality comes
/// out zero is removed before the next candidate of its node is scored.
/// Returns each node's non-zero cardinalities and the most candidates one
/// node lost.
fn reference_refine(
    plan: &QueryPlan,
    state: &mut BuilderState,
) -> (Vec<BTreeMap<VertexId, u64>>, usize) {
    let mut cards = vec![BTreeMap::new(); plan.query().num_vertices()];
    let mut widest = 0;
    for &u in plan.matching_order().iter().rev() {
        let mut lost = 0;
        for v in state.candidates_of(plan, u).to_vec() {
            let closes = state.nte[u.index()]
                .iter()
                .all(|(_, table)| table.contains_value(v));
            let mut card = u64::from(closes);
            for &uc in plan.tree().children(u) {
                let list = state.te[uc.index()].as_ref().and_then(|t| t.get(v));
                let below = &cards[uc.index()];
                let sum = (list.unwrap_or(&[]).iter()).fold(0u64, |acc, vc| {
                    acc.saturating_add(below.get(vc).copied().unwrap_or(0))
                });
                card = card.saturating_mul(sum);
            }
            if card == 0 {
                state.remove_candidates(plan, u, &[v]);
                lost += 1;
            } else {
                cards[u.index()].insert(v, card);
            }
        }
        widest = widest.max(lost);
    }
    (cards, widest)
}

/// Refines one filtered state both ways and checks the two agree, and that
/// `Ceci::build` freezes the same candidates, pivots and cardinalities.
/// Returns the most candidates one node lost in one removal.
fn assert_same_refinement(graph: &Graph, plan: &QueryPlan, what: &str) -> usize {
    let pivots = plan.initial_candidates(plan.root()).to_vec();
    let (mut got, _) = bfs_filter_from(graph, plan, pivots.clone());
    let (mut want, _) = bfs_filter_from(graph, plan, pivots);
    let filtered: Vec<Vec<VertexId>> = (plan.query().vertices())
        .map(|u| got.candidates_of(plan, u).to_vec())
        .collect();
    let cards = reverse_bfs_refine(plan, &mut got, true);
    let (want_cards, widest) = reference_refine(plan, &mut want);
    assert_same_state(plan, &got, &want, what);
    // The cascade on its own terms: a candidate whose cardinality came out
    // zero is a value of no table of its node and a key of no table keyed
    // by it. (One that left with its last tree-parent key stays in its NTE
    // tables and keys its children's until the build drops stale keys.)
    for u in plan.query().vertices() {
        let removed = (filtered[u.index()].iter()).filter(|&&v| cards.get(u, v) == 0);
        let nte_of = |w: VertexId| got.nte[w.index()].iter();
        let own: Vec<&BuildTable> = (got.te[u.index()].iter())
            .chain(nte_of(u).map(|(_, table)| table))
            .collect();
        let keyed: Vec<&BuildTable> = (plan.tree().children(u).iter())
            .filter_map(|uc| got.te[uc.index()].as_ref())
            .chain(plan.forward_nte(u).iter().flat_map(|&uf| {
                nte_of(uf)
                    .filter(|(parent, _)| *parent == u)
                    .map(|(_, table)| table)
            }))
            .collect();
        for &v in removed {
            assert!(
                own.iter().all(|t| !t.contains_value(v)),
                "{what}: value {v} of u{u}"
            );
            assert!(
                keyed.iter().all(|t| t.get(v).is_none()),
                "{what}: key {v} of u{u}"
            );
        }
    }
    let ceci = Ceci::build(graph, plan);
    for u in plan.query().vertices() {
        let want_card = |v: &VertexId| want_cards[u.index()].get(v).copied().unwrap_or(0);
        for v in &filtered[u.index()] {
            assert_eq!(
                cards.get(u, *v),
                want_card(v),
                "{what}: cardinality of (u{u}, {v})"
            );
        }
        assert_eq!(
            ceci.candidates(u),
            want.candidates_of(plan, u),
            "{what}: frozen u{u}"
        );
        for v in ceci.candidates(u) {
            assert_eq!(
                ceci.cardinality(u, *v),
                want_card(v),
                "{what}: frozen (u{u}, {v})"
            );
        }
    }
    let root_cards = want_cards[plan.root().index()].clone().into_iter();
    assert_eq!(
        ceci.pivots(),
        root_cards.collect::<Vec<_>>(),
        "{what}: pivots"
    );
    widest
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16 })]

    /// Random graphs as above, file and ranked, every query of the set
    /// under every root.
    #[test]
    fn one_removal_per_node_is_the_one_vertex_refinement(
        n in 12usize..320,
        density in 2usize..5,
        seed in 0u64..10_000,
        labels in 1u32..4,
        multi in 0u32..2,
    ) {
        let topology = erdos_renyi(n, n * density, seed);
        let file = match (labels, multi) {
            (1, _) => topology,
            (_, 0) => inject_random_labels(&topology, labels, seed ^ 0x5EED),
            _ => inject_random_multilabels(&topology, labels, 1, 2, seed ^ 0x5EED),
        };
        let ranked = rank_by_label_and_degree(&file).0;
        for (ids, graph) in [("file", &file), ("ranked", &ranked)] {
            for (name, query) in labeled_queries(labels) {
                for root in query.vertices() {
                    let options = PlanOptions { root_override: Some(root), ..PlanOptions::default() };
                    let plan = QueryPlan::with_options(query.clone(), graph, &options);
                    let what = format!("{name} root=u{root} n={n} seed={seed} labels={labels} multi={multi} {ids}");
                    assert_same_refinement(graph, &plan, &what);
                }
            }
        }
    }
}

/// Large removals occur, and agree: on sparse labelled graphs of a few
/// thousand vertices, some node of the query set loses 100 candidates or
/// more in one removal.
#[test]
fn one_removal_of_a_hundred_candidates_is_the_one_vertex_refinement() {
    let mut widest = 0;
    for (n, seed) in [(2_000, 7), (4_000, 11)] {
        let labeled = inject_random_multilabels(&erdos_renyi(n, 2 * n, seed), 3, 1, 2, seed);
        for (ids, graph) in [
            ("file", labeled.clone()),
            ("ranked", rank_by_label_and_degree(&labeled).0),
        ] {
            for (name, query) in labeled_queries(3) {
                let plan = QueryPlan::new(query, &graph);
                let what = format!("{name} n={n} seed={seed} {ids}");
                widest = widest.max(assert_same_refinement(&graph, &plan, &what));
            }
        }
    }
    assert!(widest >= 100, "the widest removal took {widest} candidates");
}

/// G0: triangle 0-1-2 and a pendant edge 3-4. G1 adds 3-0 and 3-1, so
/// vertex 3 newly passes DF for a triangle node and closes a second
/// triangle that exists only through it.
fn two_snapshots() -> (Graph, Graph) {
    let mut edges = vec![
        (vid(0), vid(1)),
        (vid(1), vid(2)),
        (vid(2), vid(0)),
        (vid(3), vid(4)),
    ];
    let g0 = Graph::unlabeled(5, &edges);
    edges.extend([(vid(3), vid(0)), (vid(3), vid(1))]);
    (g0, Graph::unlabeled(5, &edges))
}

#[test]
fn a_carried_plan_moved_on_graph_counts_like_a_fresh_one() {
    let (g0, g1) = two_snapshots();
    let plan0 = QueryPlan::new(clique(3), &g0);
    assert_eq!(count_embeddings(&g0, &plan0, &Ceci::build(&g0, &plan0)), 1);
    for root in plan0.query().vertices() {
        for order in [OrderStrategy::Bfs, OrderStrategy::EdgeRank] {
            let options = PlanOptions {
                order,
                root_override: Some(root),
                ..PlanOptions::default()
            };
            let fresh = QueryPlan::with_options(clique(3), &g1, &options);
            let moved = plan0.reordered(root, order).on_graph(&g1);
            assert_eq!(moved.matching_order(), fresh.matching_order());
            let count = |plan: &QueryPlan| count_embeddings(&g1, plan, &Ceci::build(&g1, plan));
            assert_eq!(count(&fresh), 2, "root u{root} {order:?}");
            assert_eq!(count(&moved), 2, "root u{root} {order:?}");
        }
    }
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "computed on another graph")]
fn a_served_build_refuses_sets_of_another_snapshot() {
    let (g0, g1) = two_snapshots();
    let plan0 = QueryPlan::new(clique(3), &g0);
    let _ = Ceci::build(&g1, &plan0);
}
