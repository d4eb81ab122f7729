//! # ceci-stream
//!
//! The served repair of a CECI index across streaming graph mutations, as a
//! library type. A frozen [`ceci_core::Ceci`] describes one snapshot; after
//! a mutation batch the serving layer repairs a stale one in a single way:
//! the query's candidate sets (LF ∧ DF ∧ NLCF) are carried to the new
//! snapshot by re-testing only the batch's endpoints
//! ([`QueryPlan::on_graph_patched`] — an edge mutation moves a vertex's
//! degree and neighbourhood labels only at its two endpoints), and the
//! frozen index is built afresh over them under the retained plan
//! ([`Ceci::build_with`]).
//!
//! [`StreamIndex`] is that rung with the state it carries between batches:
//! the plan over the latest snapshot's candidate sets. [`StreamIndex::build`]
//! puts a plan on a snapshot, [`StreamIndex::patch`] carries it across a
//! batch, [`StreamIndex::materialize`] builds the frozen index. Counts over
//! the materialized index are bit-identical to a from-scratch build on the
//! same snapshot.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use ceci_core::{BuildOptions, Ceci};
use ceci_graph::{Graph, VertexId};
use ceci_query::QueryPlan;

/// What one [`StreamIndex::patch`] touched.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Distinct in-range endpoints re-tested (the only verdicts a batch can
    /// change).
    pub dirty_vertices: usize,
    /// Candidate verdicts the patch flipped: a dirty vertex entering or
    /// leaving one query vertex's candidate set. (The perf ledger reads it
    /// under this name.)
    pub keys_recomputed: usize,
}

/// A query's plan over the candidate sets of one snapshot, carried forward
/// batch by batch.
///
/// Build once with [`StreamIndex::build`], then [`StreamIndex::patch`] after
/// each mutation batch (passing the batch's touched endpoints) and
/// [`StreamIndex::materialize`] whenever a frozen, refined [`Ceci`] is
/// needed for enumeration.
#[derive(Debug)]
pub struct StreamIndex {
    /// The plan the index was built with, its candidate sets those of the
    /// latest snapshot passed in.
    plan: QueryPlan,
}

impl StreamIndex {
    /// `plan` on `graph`: its root, tree and matching order with candidate
    /// sets of `graph` (no scan when `plan` already describes it).
    pub fn build(graph: &Graph, plan: &QueryPlan) -> StreamIndex {
        StreamIndex {
            plan: plan.on_graph(graph),
        }
    }

    /// Carries the candidate sets to `graph`, the snapshot after a batch
    /// whose touched edge endpoints are `endpoints` (they may repeat and may
    /// name vertices whose edges were deleted): the held sets with the
    /// endpoints re-tested on `graph`, under `plan`, the plan this index was
    /// built with.
    pub fn patch(
        &mut self,
        graph: &Graph,
        plan: &QueryPlan,
        endpoints: &[VertexId],
    ) -> RepairStats {
        let mut dirty: Vec<VertexId> = endpoints
            .iter()
            .copied()
            .filter(|e| e.index() < graph.num_vertices())
            .collect();
        dirty.sort_unstable();
        dirty.dedup();
        let patched = plan.on_graph_patched(graph, self.plan.candidate_sets(), &dirty);
        let flips = patched
            .candidate_sets()
            .iter()
            .zip(self.plan.candidate_sets().iter())
            .map(|(now, was)| {
                let flipped = |v: &&VertexId| now.contains(**v) != was.contains(**v);
                dirty.iter().filter(flipped).count()
            })
            .sum();
        self.plan = patched;
        RepairStats {
            dirty_vertices: dirty.len(),
            keys_recomputed: flips,
        }
    }

    /// The frozen index on `graph` — the snapshot last passed to
    /// [`StreamIndex::build`] or [`StreamIndex::patch`] — under the held
    /// plan, which is `plan`'s decision over that snapshot's candidate sets:
    /// exactly what the server's repair builds.
    pub fn materialize(&self, graph: &Graph, plan: &QueryPlan) -> Ceci {
        debug_assert_eq!(plan.matching_order(), self.plan.matching_order());
        Ceci::build_with(graph, &self.plan, BuildOptions::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceci_core::count_embeddings;
    use ceci_graph::extract::extract_query;
    use ceci_graph::generators::{erdos_renyi, inject_random_labels};
    use ceci_query::QueryGraph;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    fn test_graph(seed: u64) -> Graph {
        inject_random_labels(&erdos_renyi(120, 420, seed), 3, seed ^ 0x5eed)
    }

    fn test_plan(graph: &Graph, seed: u64) -> QueryPlan {
        let pattern = extract_query(graph, 4, seed, 50)
            .expect("extractable")
            .pattern;
        let query = QueryGraph::from_graph(&pattern).unwrap();
        QueryPlan::new(query, graph)
    }

    fn rebuild_count(graph: &Graph, pattern_plan: &QueryPlan) -> u64 {
        // Fresh plan on the mutated graph — the from-scratch reference path.
        let query = pattern_plan.query().clone();
        let plan = QueryPlan::new(query, graph);
        let ceci = Ceci::build(graph, &plan);
        count_embeddings(graph, &plan, &ceci)
    }

    #[test]
    fn fresh_build_matches_from_scratch_counts() {
        for seed in [3u64, 11, 29] {
            let graph = test_graph(seed);
            let plan = test_plan(&graph, seed);
            let idx = StreamIndex::build(&graph, &plan);
            // The plan already describes the graph: its own sets, no scan.
            assert!(std::sync::Arc::ptr_eq(
                idx.plan.candidate_sets(),
                plan.candidate_sets()
            ));
            let ceci = idx.materialize(&graph, &plan);
            let got = count_embeddings(&graph, &plan, &ceci);
            let reference = {
                let ceci = Ceci::build(&graph, &plan);
                count_embeddings(&graph, &plan, &ceci)
            };
            assert_eq!(got, reference, "seed {seed}");
        }
    }

    /// Draws `adds` absent edges and `dels` present ones on `graph` and
    /// applies them as one batch, returning the new snapshot and the
    /// touched endpoints.
    fn apply_batch(
        graph: &Graph,
        rng: &mut StdRng,
        adds: usize,
        dels: usize,
    ) -> (Graph, Vec<VertexId>) {
        let n = graph.num_vertices() as u32;
        let key = |a: VertexId, b: VertexId| (a.min(b), a.max(b));
        let (mut added, mut deleted) = (BTreeSet::new(), BTreeSet::new());
        let mut endpoints = Vec::new();
        let mut guard = 0;
        while added.len() < adds && guard < 10_000 {
            guard += 1;
            let a = VertexId(rng.gen_range(0..n));
            let b = VertexId(rng.gen_range(0..n));
            if a != b && !graph.has_edge(a, b) && added.insert(key(a, b)) {
                endpoints.extend([a, b]);
            }
        }
        guard = 0;
        while deleted.len() < dels && guard < 10_000 {
            guard += 1;
            let a = VertexId(rng.gen_range(0..n));
            let deg = graph.degree(a);
            if deg == 0 {
                continue;
            }
            let b = graph.neighbors(a)[rng.gen_range(0..deg)];
            if deleted.insert(key(a, b)) {
                endpoints.extend([a, b]);
            }
        }
        let adds: Vec<_> = added.into_iter().collect();
        let dels: Vec<_> = deleted.into_iter().collect();
        let (_, _, next) = graph.with_batch(&adds, &dels).expect("the batch applies");
        (next, endpoints)
    }

    fn differential_loop(seed: u64, adds: usize, dels: usize, batches: usize) {
        let mut graph = test_graph(seed);
        let plan = test_plan(&graph, seed);
        let mut idx = StreamIndex::build(&graph, &plan);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9));
        for batch in 0..batches {
            let (next, endpoints) = apply_batch(&graph, &mut rng, adds, dels);
            let stats = idx.patch(&next, &plan, &endpoints);
            assert!(stats.dirty_vertices > 0 || endpoints.is_empty());
            let ceci = idx.materialize(&next, &plan);
            let incremental = count_embeddings(&next, &plan, &ceci);
            let reference = rebuild_count(&next, &plan);
            assert_eq!(
                incremental, reference,
                "seed {seed} batch {batch}: incremental != rebuild"
            );
            graph = next;
        }
    }

    #[test]
    fn add_only_batches_match_rebuild() {
        differential_loop(7, 12, 0, 6);
    }

    #[test]
    fn delete_only_batches_match_rebuild() {
        differential_loop(13, 0, 12, 6);
    }

    #[test]
    fn mixed_batches_match_rebuild() {
        differential_loop(23, 8, 8, 8);
    }

    #[test]
    fn build_under_a_lagging_plan_counts_like_a_fresh_build() {
        // The plan dates from the first snapshot; `build` keeps its root,
        // tree and order, and takes every verdict from the snapshot it is
        // given.
        for (seed, adds, dels) in [(17u64, 10, 10), (43, 40, 5), (59, 5, 40)] {
            let mut graph = test_graph(seed);
            let plan0 = test_plan(&graph, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            for batch in 0..4 {
                let (next, _) = apply_batch(&graph, &mut rng, adds, dels);
                assert!(!plan0.describes(&next));
                let ceci = StreamIndex::build(&next, &plan0).materialize(&next, &plan0);
                assert_eq!(
                    count_embeddings(&next, &plan0, &ceci),
                    rebuild_count(&next, &plan0),
                    "seed {seed} batch {batch}"
                );
                graph = next;
            }
        }
    }

    #[test]
    fn patch_reports_locality() {
        let graph = test_graph(5);
        let plan = test_plan(&graph, 5);
        let mut idx = StreamIndex::build(&graph, &plan);
        let mut rng = StdRng::seed_from_u64(99);
        let (next, endpoints) = apply_batch(&graph, &mut rng, 1, 0);
        let stats = idx.patch(&next, &plan, &endpoints);
        // One edge re-tests its two endpoints, once per query vertex at most.
        assert_eq!(stats.dirty_vertices, 2);
        assert!(stats.keys_recomputed <= 2 * plan.query().num_vertices());
    }

    #[test]
    fn dirty_vertices_counts_the_distinct_endpoints() {
        for (seed, adds, dels) in [(5u64, 1, 0), (9, 0, 1), (21, 6, 6), (33, 60, 40)] {
            let graph = test_graph(seed);
            let plan = test_plan(&graph, seed);
            let mut idx = StreamIndex::build(&graph, &plan);
            let mut rng = StdRng::seed_from_u64(seed);
            let (next, mut endpoints) = apply_batch(&graph, &mut rng, adds, dels);
            // Repeats and an out-of-range id are not re-tested.
            endpoints.extend_from_slice(&endpoints.clone());
            endpoints.push(VertexId(next.num_vertices() as u32));
            let distinct: std::collections::HashSet<VertexId> = endpoints
                .iter()
                .copied()
                .filter(|e| e.index() < next.num_vertices())
                .collect();
            let stats = idx.patch(&next, &plan, &endpoints);
            assert_eq!(stats.dirty_vertices, distinct.len(), "seed {seed}");
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random labeled graph, random sequence mixing 1-edge and
        /// |E|/4-edge batches: `build` → `patch`* → `materialize` counts like
        /// a from-scratch build on every snapshot, and `keys_recomputed` is
        /// exactly how far the snapshot's candidate sets moved.
        #[test]
        fn patch_then_materialize_counts_like_a_fresh_build(
            seed in any::<u64>(),
            n in 30usize..90,
            density in 2usize..5,
            labels in 1u32..4,
            size in 3usize..5,
            big in collection::vec(any::<bool>(), 1..6),
        ) {
            let mut graph = inject_random_labels(&erdos_renyi(n, n * density, seed), labels, seed ^ 0x5eed);
            let Some(extracted) = extract_query(&graph, size, seed, 50) else {
                return;
            };
            let query = QueryGraph::from_graph(&extracted.pattern).unwrap();
            let plan = QueryPlan::new(query, &graph);
            let mut idx = StreamIndex::build(&graph, &plan);
            let mut rng = StdRng::seed_from_u64(seed);
            for (batch, &big) in big.iter().enumerate() {
                let total = if big { (graph.num_edges() / 4).max(2) } else { 1 };
                let adds = rng.gen_range(0..=total);
                let (next, endpoints) = apply_batch(&graph, &mut rng, adds, total - adds);

                let stats = idx.patch(&next, &plan, &endpoints);
                let ceci = idx.materialize(&next, &plan);
                prop_assert_eq!(
                    count_embeddings(&next, &plan, &ceci),
                    rebuild_count(&next, &plan),
                    "batch {}: patch ({:?}) != rebuild", batch, stats
                );
                let (was, now) = (plan.on_graph(&graph), plan.on_graph(&next));
                let moved: usize = (was.candidate_sets().iter().zip(now.candidate_sets().iter()))
                    .map(|(a, b)| next.vertices().filter(|&v| a.contains(v) != b.contains(v)).count())
                    .sum();
                prop_assert_eq!(stats.keys_recomputed, moved, "batch {}", batch);
                graph = next;
            }
        }
    }
}
