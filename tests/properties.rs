//! Property-based tests (proptest) on the core invariants:
//!
//! * CECI completeness: everything the brute-force reference finds, CECI
//!   finds — and nothing else (Lemma 1).
//! * Parallel enumeration equals sequential enumeration for every strategy.
//! * Refinement only removes candidates; it never changes the result set.
//! * Cardinality upper-bounds the true embedding count per cluster (§4.3).
//! * Symmetry breaking yields exactly one representative per automorphism
//!   class.
//! * Index size accounting is internally consistent.
//! * Work units, and indexes built over halves of the root's candidates,
//!   partition the embeddings.

use ceci::baselines::enumerate_all;
use ceci::prelude::*;
use ceci_core::Strategy as DistStrategy;
use proptest::prelude::*;
use proptest::strategy::Strategy as PropStrategy;

/// Random undirected graph: `n` in 4..=24, edge probability `p`, labels in
/// 1..=3 alphabets.
fn arb_graph() -> impl PropStrategy<Value = Graph> {
    (4usize..=24, 0.05f64..0.5, 1u32..=3, any::<u64>()).prop_map(|(n, p, labels, seed)| {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for a in 0..n as u32 {
            for b in (a + 1)..n as u32 {
                if rng.gen_bool(p) {
                    edges.push((vid(a), vid(b)));
                }
            }
        }
        let label_sets: Vec<LabelSet> = (0..n)
            .map(|_| LabelSet::single(lid(rng.gen_range(0..labels))))
            .collect();
        Graph::new(label_sets, &edges, false)
    })
}

/// [`arb_graph`]'s shapes with multi-labelled vertices: each carries one
/// or two labels of a 2- or 3-label alphabet, so one data vertex can match
/// query vertices of different labels.
fn arb_multi_labeled_graph() -> impl PropStrategy<Value = Graph> {
    (arb_graph(), 2u32..=3, any::<u64>()).prop_map(|(graph, labels, seed)| {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let label_sets: Vec<LabelSet> = graph
            .vertices()
            .map(|_| {
                let first = lid(rng.gen_range(0..labels));
                match rng.gen_bool(0.5) {
                    true => LabelSet::from_labels([first, lid(rng.gen_range(0..labels))]),
                    false => LabelSet::single(first),
                }
            })
            .collect();
        let edges: Vec<_> = graph
            .vertices()
            .flat_map(|a| graph.neighbors(a).iter().map(move |&b| (a, b)))
            .filter(|(a, b)| a < b)
            .collect();
        Graph::new(label_sets, &edges, false)
    })
}

/// One of a fixed set of query shapes, with labels drawn to match the data
/// alphabet (label 0 always exists).
fn arb_query() -> impl PropStrategy<Value = QueryGraph> {
    prop_oneof![
        Just(PaperQuery::Qg1.build()),
        Just(PaperQuery::Qg2.build()),
        Just(PaperQuery::Qg3.build()),
        Just(PaperQuery::Qg4.build()),
        Just(PaperQuery::Qg5.build()),
        Just(ceci_query::catalog::path(4)),
        Just(ceci_query::catalog::star(3)),
        Just(ceci_query::catalog::cycle(5)),
        Just(QueryGraph::with_labels(&[lid(0), lid(1)], &[(0, 1)]).unwrap()),
        Just(
            QueryGraph::with_labels(&[lid(0), lid(1), lid(0)], &[(0, 1), (1, 2), (0, 2)]).unwrap()
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ceci_is_complete_and_sound(graph in arb_graph(), query in arb_query()) {
        let plan = QueryPlan::new(query, &graph);
        let expected = enumerate_all(&graph, plan.query(), plan.symmetry_constraints());
        let ceci = Ceci::build(&graph, &plan);
        let got = ceci::core::collect_embeddings(&graph, &plan, &ceci);
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn parallel_equals_sequential(graph in arb_graph(), query in arb_query(), workers in 1usize..=4) {
        let plan = QueryPlan::new(query, &graph);
        let ceci = Ceci::build(&graph, &plan);
        let seq = ceci::core::collect_embeddings(&graph, &plan, &ceci);
        for strategy in [
            DistStrategy::Static,
            DistStrategy::CoarseDynamic,
            DistStrategy::FineDynamic { beta: 0.2 },
        ] {
            let par = enumerate_parallel(&graph, &plan, &ceci, &ParallelOptions {
                workers,
                strategy,
                collect: true,
                ..Default::default()
            });
            prop_assert_eq!(par.embeddings.unwrap(), seq.clone());
        }
    }

    #[test]
    fn refinement_changes_size_not_results(graph in arb_graph(), query in arb_query()) {
        let plan = QueryPlan::new(query, &graph);
        let refined = Ceci::build_with(&graph, &plan, BuildOptions { build_nte: true, refine: true });
        let unrefined = Ceci::build_with(&graph, &plan, BuildOptions { build_nte: true, refine: false });
        // Refinement never grows the index.
        prop_assert!(refined.num_entries() <= unrefined.num_entries());
        // And results match.
        prop_assert_eq!(
            ceci::core::collect_embeddings(&graph, &plan, &refined),
            ceci::core::collect_embeddings(&graph, &plan, &unrefined)
        );
    }

    #[test]
    fn cardinality_bounds_cluster_embeddings(graph in arb_graph(), query in arb_query()) {
        let plan = QueryPlan::new(query, &graph);
        let ceci = Ceci::build(&graph, &plan);
        let root = plan.root();
        // Count embeddings per pivot and compare with cardinality.
        let all = ceci::core::collect_embeddings(&graph, &plan, &ceci);
        for &(pivot, card) in ceci.pivots() {
            let cluster_count = all
                .iter()
                .filter(|emb| emb[root.index()] == pivot)
                .count() as u64;
            prop_assert!(
                cluster_count <= card,
                "cluster {:?}: {} embeddings > cardinality {}",
                pivot, cluster_count, card
            );
        }
        // Total bound.
        prop_assert!(all.len() as u64 <= ceci.total_cardinality());
    }

    #[test]
    fn symmetry_breaking_lists_each_class_once(graph in arb_graph()) {
        // Use an unlabeled triangle so automorphisms are plentiful. Compare
        // |unbroken| == |broken| × |Aut|.
        let query = PaperQuery::Qg1.build();
        let autos = ceci_query::nec::automorphisms(&query, 1_000_000).unwrap().len() as u64;
        let plan_broken = QueryPlan::new(query.clone(), &graph);
        let plan_unbroken = QueryPlan::with_options(query, &graph, &PlanOptions {
            break_symmetry: false,
            ..Default::default()
        });
        let ceci_b = Ceci::build(&graph, &plan_broken);
        let ceci_u = Ceci::build(&graph, &plan_unbroken);
        let broken = ceci::core::count_embeddings(&graph, &plan_broken, &ceci_b);
        let unbroken = ceci::core::count_embeddings(&graph, &plan_unbroken, &ceci_u);
        prop_assert_eq!(unbroken, broken * autos);
    }

    #[test]
    fn size_accounting_consistent(graph in arb_graph(), query in arb_query()) {
        let plan = QueryPlan::new(query, &graph);
        let ceci = Ceci::build(&graph, &plan);
        let s = ceci.stats();
        prop_assert_eq!(s.size_bytes, ceci.size_bytes());
        prop_assert_eq!(
            ceci.num_entries(),
            s.te_entries_after_refine + s.nte_entries_after_refine
        );
        prop_assert!(s.te_entries_after_refine <= s.te_entries_after_filter);
        prop_assert!(s.nte_entries_after_refine <= s.nte_entries_after_filter);
        prop_assert!(s.pivots_final <= s.pivots_initial);
    }

    #[test]
    fn work_units_partition_the_embeddings(graph in arb_graph(), query in arb_query(), beta in 0.05f64..2.0) {
        let plan = QueryPlan::new(query, &graph);
        let ceci = Ceci::build(&graph, &plan);
        let units = ceci::core::decompose(&graph, &plan, &ceci, 4, beta);
        let mut enumerator = Enumerator::new(&graph, &plan, &ceci, EnumOptions::default());
        let mut counters = Counters::default();
        let mut sink = CollectSink::unbounded();
        for unit in &units {
            enumerator.enumerate_prefix(&unit.prefix, &mut sink, &mut counters);
        }
        let got = ceci::core::canonicalize(sink.into_embeddings());
        let expected = ceci::core::collect_embeddings(&graph, &plan, &ceci);
        // Partition: same set, no duplicates.
        prop_assert_eq!(&got, &expected);
        // A machine's index (§5) holds only its own pivots' clusters: built
        // over the two halves of the root's candidates, each index lists
        // pivots of its half that the full build lists too, with no larger
        // cardinality (refinement over fewer keys can only prune more), and
        // the two count the full build's embeddings between them.
        let roots = plan.initial_candidates(plan.root());
        let (low, high) = roots.split_at(roots.len() / 2);
        let mut count = 0u64;
        for half in [low, high] {
            let index = Ceci::build_for_pivots(&graph, &plan, BuildOptions::default(), half.to_vec());
            for &(pivot, card) in index.pivots() {
                prop_assert!(half.contains(&pivot), "pivot {:?} outside its half", pivot);
                let full = ceci.pivots().iter().find(|&&(p, _)| p == pivot);
                prop_assert!(
                    full.is_some_and(|&(_, bound)| card <= bound),
                    "pivot {:?}: cardinality {} against the full build's {:?}", pivot, card, full
                );
            }
            count += count_embeddings(&graph, &plan, &index);
        }
        prop_assert_eq!(count, expected.len() as u64);
    }

    #[test]
    fn admission_filter_never_rejects_satisfiable_queries(graph in arb_graph(), query in arb_query()) {
        // Soundness of the label-pair admission filter (PR 6): a REJECTED
        // verdict is a proof of zero embeddings. Differential check: the
        // brute-force reference and all five baseline engines must agree on
        // the count, and whenever any of them finds >= 1 embedding the
        // filter must have passed the query.
        let mut graph = graph;
        graph.build_label_pair_index();
        let verdict = ceci_query::admission_check(&query, &graph);
        let plan = QueryPlan::new(query, &graph);
        let expected = enumerate_all(&graph, plan.query(), plan.symmetry_constraints()).len() as u64;

        let bare = ceci::baselines::enumerate_bare(
            &graph, &plan, &ceci::baselines::BareOptions { workers: 2, ..Default::default() });
        prop_assert_eq!(bare.total_embeddings, expected, "bare disagrees with reference");
        let psgl = ceci::baselines::enumerate_psgl(
            &graph, &plan, &ceci::baselines::PsglOptions { workers: 2, ..Default::default() });
        prop_assert_eq!(psgl.total_embeddings, expected, "psgl disagrees with reference");
        let turbo = ceci::baselines::enumerate_turboiso(
            &graph, &plan, &ceci::baselines::TurboOptions::default());
        prop_assert_eq!(turbo.total_embeddings, expected, "turboiso disagrees with reference");
        let cfl = ceci::baselines::enumerate_cfl(
            &graph, &plan, &ceci::baselines::CflOptions::default());
        prop_assert_eq!(cfl.total_embeddings, expected, "cfl disagrees with reference");
        let dual = ceci::baselines::enumerate_dualsim(
            &graph, &plan, &ceci::baselines::DualSimOptions::default());
        prop_assert_eq!(dual.total_embeddings, expected, "dualsim disagrees with reference");

        if verdict.rejected() {
            prop_assert_eq!(
                expected, 0,
                "filter rejected a satisfiable query: verdict={:?}", verdict
            );
        }
    }

    #[test]
    fn maintained_label_pair_index_is_sound_under_mutation(
        graph in arb_graph(),
        query in arb_query(),
        muts in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<bool>()), 1..24),
        batches in 1usize..4,
    ) {
        // Streaming soundness of the admission filter (PR 7): the
        // clone-and-absorb label-pair maintenance applied per mutation
        // batch may only ever *overestimate* the exact per-pair maxima, so
        // a REJECTED verdict on the mutated snapshot is still a proof of
        // zero embeddings.
        let mut graph = graph;
        graph.build_label_pair_index();
        let n = graph.num_vertices() as u32;
        let registry = ceci_service::GraphRegistry::new();
        let (entry, _) = registry.insert("g", graph);

        for chunk in muts.chunks(muts.len().div_ceil(batches)) {
            let mut adds = Vec::new();
            let mut dels = Vec::new();
            let snapshot = entry.graph();
            for &(a, b, is_add) in chunk {
                let (a, b) = (vid(a % n), vid(b % n));
                if a == b {
                    continue;
                }
                if is_add && !snapshot.has_edge(a, b) {
                    adds.push((a, b));
                } else if !is_add && snapshot.has_edge(a, b) {
                    dels.push((a, b));
                }
            }
            entry.apply_batch(&adds, &dels, usize::MAX, 64).unwrap();
        }

        let mutated = entry.graph();
        let maintained = mutated
            .label_pair_index()
            .expect("maintenance keeps the index alive");
        // Built from scratch: on a clone the index is already there and
        // `build_label_pair_index` would hand the maintained one back.
        let edges: Vec<_> = mutated
            .vertices()
            .flat_map(|a| mutated.neighbors(a).iter().map(move |&b| (a, b)))
            .collect();
        let labels = mutated.vertices().map(|v| mutated.labels(v).clone()).collect();
        let mut exact = Graph::new(labels, &edges, false);
        exact.build_label_pair_index();
        let exact = exact.label_pair_index().unwrap();
        for l in 0..mutated.num_labels() {
            for m in 0..mutated.num_labels() {
                prop_assert!(
                    maintained.max_count(lid(l), lid(m)) >= exact.max_count(lid(l), lid(m)),
                    "pair ({l}, {m}): maintained {} < exact {}",
                    maintained.max_count(lid(l), lid(m)),
                    exact.max_count(lid(l), lid(m))
                );
            }
        }

        // End to end: a rejection on the mutated snapshot must imply zero
        // embeddings under brute force.
        let verdict = ceci_query::admission_check(&query, &mutated);
        if verdict.rejected() {
            let plan = QueryPlan::new(query, &mutated);
            let found = enumerate_all(&mutated, plan.query(), plan.symmetry_constraints()).len();
            prop_assert_eq!(found, 0, "filter rejected a satisfiable query on a mutated graph");
        }
    }

    /// Every order from every root lists the same embeddings, and counts
    /// them as the reference matcher does under the served options: a
    /// count-only drain with `prune_redundant` (TALLY, REUSE, REUSE_ORDERED,
    /// TWINS and the clean-cut memo), on the graph ranked as `LOAD` ranks
    /// it. The default order builds shapes the BFS-pinned suites never
    /// build (a twin tail of K2,3 from `u0`, say).
    #[test]
    fn matching_orders_do_not_change_results(
        graph in prop_oneof![arb_graph(), arb_multi_labeled_graph()],
        query in prop_oneof![
            arb_query(),
            Just(QueryGraph::unlabeled(5, &[(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]).unwrap()),
        ],
    ) {
        let (graph, _) = ceci::graph::rank_by_label_and_degree(&graph);
        let served = ParallelOptions {
            workers: 1,
            strategy: DistStrategy::Static,
            enumeration: EnumOptions {
                prune_redundant: true,
                ..EnumOptions::default()
            },
            ..Default::default()
        };
        let default = QueryPlan::new(query.clone(), &graph);
        let constraints = default.symmetry_constraints();
        let expected = ceci::baselines::reference::count_all(&graph, &query, constraints);
        let listed = enumerate_all(&graph, &query, constraints);
        for root in query.vertices() {
            for order in [OrderStrategy::Bfs, OrderStrategy::EdgeRank, OrderStrategy::PathRank] {
                let plan = default.reordered(root, order);
                let ceci = Ceci::build(&graph, &plan);
                let collected = ceci::core::collect_embeddings(&graph, &plan, &ceci);
                prop_assert_eq!(&collected, &listed, "{:?} from {:?}", order, root);
                let counted = enumerate_parallel(&graph, &plan, &ceci, &served).total_embeddings;
                prop_assert_eq!(counted, expected, "{:?} from {:?}", order, root);
            }
        }
    }
}
