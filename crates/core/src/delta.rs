//! Delta enumeration: counting embeddings that use specific data edges.
//!
//! Continuous queries need, per mutation batch, the number of *new* matches
//! (embeddings of the post-batch graph using at least one added edge) and
//! *retired* matches (embeddings of the pre-batch graph using at least one
//! deleted edge). Because a batch's additions are absent from the old graph
//! and its deletions present, every embedding of exactly one of the two
//! snapshots is classified by whether it touches the batch:
//!
//! ```text
//! total' = total + new − retired
//! ```
//!
//! which is the identity the differential tests pin against a full rebuild.
//!
//! Counting "embeddings using ≥ 1 edge of a set `S`" runs one *pinned*
//! backtracking search per `(S-edge, query edge, orientation)` triple: the
//! query edge is pre-assigned onto the data edge and the rest of the query
//! is matched outward from that anchor, so each search explores only the
//! local neighborhood of one mutated edge — never the whole graph. Two
//! dedup arguments make the count exact:
//!
//! * **Within one pin**: an embedding is injective, so at most one query
//!   edge (in one orientation) can map onto a given data edge — distinct
//!   query-edge pins over the same data edge can never find the same
//!   embedding twice.
//! * **Across pins**: `S` is indexed as its sorted, deduplicated
//!   orientation-free edge keys, and a key's position is its *rank*. An
//!   embedding using several `S`-edges is found once per such edge; it is
//!   counted only in the search pinning the one of *lowest rank*. Any fixed
//!   total order on `S` would do; the sorted one makes "does this embedding
//!   use a lower-ranked `S`-edge?" a binary search in the keys below the pin.
//!
//! Pins are rejected cheapest first, l2Match-style: the labels at both
//! pinned ends are tested against the query edge for every query edge and
//! orientation before the data edge's adjacency is read at all; only a pin
//! that survives pays `has_edge`, and then the degree and
//! neighborhood-label filters.
//!
//! Accepted embeddings satisfy exactly the [`crate::is_valid_embedding`]
//! semantics — injectivity, label containment, edge preservation, and the
//! plan's symmetry-breaking constraints — so delta counts compose with the
//! symmetry-broken totals the rest of the system reports.

use ceci_graph::{Graph, VertexId};
use ceci_query::candidates::{label_filter, passes};
use ceci_query::QueryPlan;

/// Packs an undirected edge into an orientation-free key.
#[inline]
fn edge_key(a: VertexId, b: VertexId) -> u64 {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    ((lo.0 as u64) << 32) | hi.0 as u64
}

/// New/retired embedding counts for one mutation batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchDelta {
    /// Embeddings of the post-batch graph using at least one added edge.
    pub new_matches: u64,
    /// Embeddings of the pre-batch graph using at least one deleted edge.
    pub retired_matches: u64,
}

impl BatchDelta {
    /// Applies the delta identity to a pre-batch total.
    pub fn apply_to(&self, total: u64) -> u64 {
        total + self.new_matches - self.retired_matches
    }
}

/// Computes the per-batch embedding delta between two graph snapshots.
///
/// `added` must be absent from `old_graph` and present in `new_graph`;
/// `deleted` the reverse — exactly what a net-applied mutation batch
/// guarantees. Only `plan.query()` and `plan.symmetry_constraints()` are
/// consulted (both graph-independent), so a plan built against either
/// snapshot works.
pub fn batch_delta(
    old_graph: &Graph,
    new_graph: &Graph,
    plan: &QueryPlan,
    added: &[(VertexId, VertexId)],
    deleted: &[(VertexId, VertexId)],
) -> BatchDelta {
    BatchDelta {
        new_matches: count_matches_using(new_graph, plan, added),
        retired_matches: count_matches_using(old_graph, plan, deleted),
    }
}

/// Counts embeddings of `plan.query()` on `graph` (under the plan's
/// symmetry-breaking constraints) that map at least one query edge onto an
/// edge of `edges`, each embedding counted exactly once. Duplicate,
/// reversed, self-loop and absent entries in `edges` are tolerated.
pub fn count_matches_using(graph: &Graph, plan: &QueryPlan, edges: &[(VertexId, VertexId)]) -> u64 {
    let query = plan.query();
    if edges.is_empty() || query.num_edges() == 0 {
        return 0;
    }
    let mut keys: Vec<u64> = (edges.iter())
        .filter(|(a, b)| a != b)
        .map(|&(a, b)| edge_key(a, b))
        .collect();
    keys.sort_unstable();
    keys.dedup();

    let searcher = PinnedSearch::new(graph, plan, &keys);
    let mut mapping = vec![None; query.num_vertices()];
    let mut total = 0u64;
    'keys: for (rank, &key) in keys.iter().enumerate() {
        let (lo, hi) = (VertexId((key >> 32) as u32), VertexId(key as u32));
        let mut present = None;
        for (qe, &(u1, u2)) in query.edges().iter().enumerate() {
            for (x, y) in [(lo, hi), (hi, lo)] {
                if !label_filter(query, graph, u1, x) || !label_filter(query, graph, u2, y) {
                    continue;
                }
                // A net-applied batch only names present edges; an absent
                // one (tolerated for arbitrary lists) fails every pin, so
                // drop it here, once, before any pin pays DF / NLC.
                if !*present.get_or_insert_with(|| graph.has_edge(lo, hi)) {
                    continue 'keys;
                }
                total += searcher.count(qe, rank, (x, y), &mut mapping);
            }
        }
    }
    total
}

/// One pinned backtracking search context, shared across pins.
struct PinnedSearch<'a> {
    graph: &'a Graph,
    plan: &'a QueryPlan,
    /// The S-edges' sorted, distinct keys; a key's index is its rank.
    keys: &'a [u64],
    /// Per query edge: an anchored traversal order starting at that edge's
    /// endpoints — `orders[e][k] = (u, anchor)` where `anchor` is a query
    /// neighbor of `u` placed earlier in the order (`u` itself for the two
    /// pinned roots).
    orders: Vec<Vec<(VertexId, VertexId)>>,
}

impl<'a> PinnedSearch<'a> {
    fn new(graph: &'a Graph, plan: &'a QueryPlan, keys: &'a [u64]) -> Self {
        let query = plan.query();
        let n = query.num_vertices();
        let orders = query
            .edges()
            .iter()
            .map(|&(u1, u2)| {
                // BFS from the pinned edge so every later vertex has an
                // earlier query neighbor to extend from (queries are
                // connected).
                let mut order = vec![(u1, u1), (u2, u2)];
                let mut placed = vec![false; n];
                placed[u1.index()] = true;
                placed[u2.index()] = true;
                let mut head = 0;
                while head < order.len() {
                    let (u, _) = order[head];
                    head += 1;
                    for &un in query.neighbors(u) {
                        if !placed[un.index()] {
                            placed[un.index()] = true;
                            order.push((un, u));
                        }
                    }
                }
                debug_assert_eq!(order.len(), n, "query must be connected");
                order
            })
            .collect();
        PinnedSearch {
            graph,
            plan,
            keys,
            orders,
        }
    }

    /// Counts completions of the pin `query.edges()[qe] → (x, y)` whose
    /// lowest-ranked used S-edge is the pinned one, of rank `rank`.
    /// `mapping` is the caller's all-`None` buffer and is left that way.
    fn count(
        &self,
        qe: usize,
        rank: usize,
        (x, y): (VertexId, VertexId),
        mapping: &mut [Option<VertexId>],
    ) -> u64 {
        let query = self.plan.query();
        let (u1, u2) = query.edges()[qe];
        if !passes(query, self.graph, u1, x) || !passes(query, self.graph, u2, y) {
            return 0;
        }
        mapping[u1.index()] = Some(x);
        mapping[u2.index()] = Some(y);
        let mut count = 0u64;
        if self.partial_ok(u1, x, mapping) && self.partial_ok(u2, y, mapping) {
            self.extend(&self.orders[qe], 2, mapping, rank, &mut count);
        }
        mapping[u1.index()] = None;
        mapping[u2.index()] = None;
        count
    }

    /// Checks the backward query edges and partially-assigned symmetry
    /// constraints of `u ↦ v` against the current mapping.
    fn partial_ok(&self, u: VertexId, v: VertexId, mapping: &[Option<VertexId>]) -> bool {
        let query = self.plan.query();
        for &un in query.neighbors(u) {
            if let Some(w) = mapping[un.index()] {
                if w != v && !self.graph.has_edge(v, w) {
                    return false;
                }
            }
        }
        self.plan.symmetry_constraints().iter().all(|c| {
            match (mapping[c.smaller.index()], mapping[c.larger.index()]) {
                (Some(s), Some(l)) => s < l,
                _ => true,
            }
        })
    }

    fn extend(
        &self,
        order: &[(VertexId, VertexId)],
        depth: usize,
        mapping: &mut [Option<VertexId>],
        rank: usize,
        count: &mut u64,
    ) {
        let query = self.plan.query();
        if depth == order.len() {
            // Rank dedup: accept only if no used S-edge ranks below the pin.
            let below = &self.keys[..rank];
            let lower_used = query.edges().iter().any(|&(a, b)| {
                let (va, vb) = (
                    mapping[a.index()].expect("complete"),
                    mapping[b.index()].expect("complete"),
                );
                below.binary_search(&edge_key(va, vb)).is_ok()
            });
            if !lower_used {
                *count += 1;
            }
            return;
        }
        let (u, anchor) = order[depth];
        let from = mapping[anchor.index()].expect("anchor is assigned earlier");
        for &v in self.graph.neighbors(from) {
            if mapping.contains(&Some(v)) {
                continue; // injectivity
            }
            if !passes(query, self.graph, u, v) {
                continue;
            }
            mapping[u.index()] = Some(v);
            if self.partial_ok(u, v, mapping) {
                self.extend(order, depth + 1, mapping, rank, count);
            }
            mapping[u.index()] = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::{collect_embeddings, count_embeddings};
    use crate::index::Ceci;
    use ceci_graph::{lid, vid, Graph, LabelSet};
    use ceci_query::{PaperQuery, QueryGraph, QueryPlan};
    use proptest::prelude::*;

    fn triangle_graph() -> Graph {
        // Two triangles sharing edge 1-2.
        Graph::unlabeled(
            4,
            &[
                (vid(0), vid(1)),
                (vid(1), vid(2)),
                (vid(2), vid(0)),
                (vid(1), vid(3)),
                (vid(2), vid(3)),
            ],
        )
    }

    fn count_using_reference(
        graph: &Graph,
        plan: &QueryPlan,
        edges: &[(VertexId, VertexId)],
    ) -> u64 {
        // Brute force: enumerate everything and filter by edge usage.
        let keys: std::collections::HashSet<u64> =
            edges.iter().map(|&(a, b)| edge_key(a, b)).collect();
        let ceci = Ceci::build(graph, plan);
        collect_embeddings(graph, plan, &ceci)
            .into_iter()
            .filter(|emb| {
                plan.query()
                    .edges()
                    .iter()
                    .any(|&(a, b)| keys.contains(&edge_key(emb[a.index()], emb[b.index()])))
            })
            .count() as u64
    }

    #[test]
    fn matches_using_shared_edge() {
        let g = triangle_graph();
        let plan = QueryPlan::new(PaperQuery::Qg1.build(), &g);
        assert_eq!(count_embeddings(&g, &plan, &Ceci::build(&g, &plan)), 2);
        // Both triangles use edge 1-2.
        let edges = [(vid(1), vid(2))];
        assert_eq!(count_matches_using(&g, &plan, &edges), 2);
        assert_eq!(count_using_reference(&g, &plan, &edges), 2);
        // Edge 0-1 is used by one triangle only.
        let edges = [(vid(0), vid(1))];
        assert_eq!(count_matches_using(&g, &plan, &edges), 1);
        // Overlapping set still counts each triangle once.
        let edges = [(vid(1), vid(2)), (vid(2), vid(0)), (vid(0), vid(1))];
        assert_eq!(count_matches_using(&g, &plan, &edges), 2);
        assert_eq!(count_using_reference(&g, &plan, &edges), 2);
    }

    #[test]
    fn duplicates_reversals_and_absent_edges_tolerated() {
        let g = triangle_graph();
        let plan = QueryPlan::new(PaperQuery::Qg1.build(), &g);
        let edges = [
            (vid(1), vid(2)),
            (vid(2), vid(1)), // reversed duplicate
            (vid(0), vid(3)), // not an edge
            (vid(3), vid(3)), // self loop
        ];
        assert_eq!(count_matches_using(&g, &plan, &edges), 2);
        assert_eq!(count_matches_using(&g, &plan, &[]), 0);
    }

    #[test]
    fn batch_delta_identity_on_addition() {
        // Path 0-1-2-3; adding 3-0 closes a 4-cycle.
        let old = Graph::unlabeled(4, &[(vid(0), vid(1)), (vid(1), vid(2)), (vid(2), vid(3))]);
        let new = Graph::unlabeled(
            4,
            &[
                (vid(0), vid(1)),
                (vid(1), vid(2)),
                (vid(2), vid(3)),
                (vid(3), vid(0)),
            ],
        );
        // Per-snapshot plans for the reference totals (initial candidates
        // are graph-dependent); symmetry constraints derive from the query
        // alone, so the totals compose with one shared delta plan.
        let plan = QueryPlan::new(PaperQuery::Qg2.build(), &old);
        let plan_new = QueryPlan::new(PaperQuery::Qg2.build(), &new);
        let old_total = count_embeddings(&old, &plan, &Ceci::build(&old, &plan));
        let new_total = count_embeddings(&new, &plan_new, &Ceci::build(&new, &plan_new));
        let delta = batch_delta(&old, &new, &plan, &[(vid(3), vid(0))], &[]);
        assert_eq!(delta.retired_matches, 0);
        assert_eq!(delta.apply_to(old_total), new_total);
        // And the reverse direction as a deletion.
        let back = batch_delta(&new, &old, &plan, &[], &[(vid(0), vid(3))]);
        assert_eq!(back.new_matches, 0);
        assert_eq!(back.apply_to(new_total), old_total);
    }

    /// Query shapes whose automorphisms survive equal labels: an edge, a
    /// path, a triangle, a 4-cycle, a 3-star, a paw and a diamond.
    const SHAPES: [&[(u32, u32)]; 7] = [
        &[(0, 1)],
        &[(0, 1), (1, 2)],
        &[(0, 1), (1, 2), (2, 0)],
        &[(0, 1), (1, 2), (2, 3), (3, 0)],
        &[(0, 1), (0, 2), (0, 3)],
        &[(0, 1), (1, 2), (2, 0), (2, 3)],
        &[(0, 1), (1, 2), (2, 0), (1, 3), (2, 3)],
    ];

    /// One label, or two when `second` names another one of the alphabet.
    fn label_set(first: u32, second: u32, alphabet: u32) -> LabelSet {
        if second < alphabet && second != first {
            LabelSet::from_labels([lid(first), lid(second)])
        } else {
            LabelSet::single(lid(first))
        }
    }

    /// `(data labels, data edges, shape, (query labels, uniform query),
    /// edge list)`: 4–8 data vertices carrying one or two of two labels,
    /// dense enough that about half the cases have embeddings, and an edge
    /// list drawn over the same range, so duplicates, reversed pairs,
    /// self-loops and absent edges all occur.
    type RawCase = (
        Vec<(u32, u32)>,
        Vec<(u32, u32)>,
        usize,
        (Vec<(u32, u32)>, bool),
        Vec<(u32, u32)>,
    );

    fn arb_case() -> impl Strategy<Value = RawCase> {
        (4u32..9).prop_flat_map(|n| {
            let pairs =
                move |min: usize, max: usize| proptest::collection::vec((0..n, 0..n), min..max);
            (
                proptest::collection::vec((0u32..2, 0u32..4), n as usize),
                pairs(2 * n as usize, 5 * n as usize),
                0usize..SHAPES.len(),
                (
                    proptest::collection::vec((0u32..2, 0u32..5), 4),
                    any::<bool>(),
                ),
                pairs(0, 2 * n as usize),
            )
        })
    }

    /// The graph, query and edge list a raw case describes. A uniform
    /// query labels every vertex `0`, so the shape's automorphisms become
    /// symmetry constraints; otherwise query vertices carry one or two of
    /// two labels. The edge list gets each entry's reversal appended for
    /// its first three entries, and one self-loop.
    fn realize(
        (labels, edges, shape, (query_labels, uniform), list): RawCase,
    ) -> (Graph, QueryGraph, Vec<(VertexId, VertexId)>) {
        let vids = |raw: &[(u32, u32)]| -> Vec<(VertexId, VertexId)> {
            raw.iter().map(|&(a, b)| (vid(a), vid(b))).collect()
        };
        let data_labels = labels.iter().map(|&(a, b)| label_set(a, b, 2)).collect();
        let graph = Graph::new(data_labels, &vids(&edges), false);
        let shape = SHAPES[shape];
        let width = shape.iter().map(|&(a, b)| a.max(b) + 1).max().unwrap() as usize;
        let query_labels = query_labels[..width]
            .iter()
            .map(|&(a, b)| match uniform {
                true => LabelSet::single(lid(0)),
                false => label_set(a, b, 2),
            })
            .collect();
        let query = QueryGraph::new(query_labels, &vids(shape)).unwrap();
        let mut list = vids(&list);
        let reversed: Vec<_> = list.iter().take(3).map(|&(a, b)| (b, a)).collect();
        list.extend(reversed);
        list.push((vid(0), vid(0)));
        (graph, query, list)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The pinned count against brute force: every embedding listed,
        /// kept when it uses an edge of the list.
        #[test]
        fn count_matches_using_equals_the_brute_force_reference(case in arb_case()) {
            let (graph, query, list) = realize(case);
            let plan = QueryPlan::new(query, &graph);
            prop_assert_eq!(
                count_matches_using(&graph, &plan, &list),
                count_using_reference(&graph, &plan, &list)
            );
        }

        /// The list's present edges deleted and its absent ones added, as
        /// one batch (each side with its duplicates and reversals): new
        /// matches counted on the new snapshot, retired ones on the old,
        /// both equal to brute force, and the delta identity carries the
        /// old total to the new one.
        #[test]
        fn batch_delta_counts_retired_on_the_old_snapshot_and_new_on_the_new(case in arb_case()) {
            let (old, query, list) = realize(case);
            let (deleted, added): (Vec<_>, Vec<_>) = (list.into_iter())
                .filter(|(a, b)| a != b)
                .partition(|&(a, b)| old.has_edge(a, b));
            let kept: Vec<_> = (old.vertices())
                .flat_map(|a| old.neighbors(a).iter().map(move |&b| (a, b)))
                .filter(|&(a, b)| a < b && !deleted.contains(&(a, b)) && !deleted.contains(&(b, a)))
                .chain(added.iter().copied())
                .collect();
            let labels = old.vertices().map(|v| old.labels(v).clone()).collect();
            let new = Graph::new(labels, &kept, false);
            let (plan_old, plan_new) = (QueryPlan::new(query.clone(), &old), QueryPlan::new(query, &new));
            let delta = batch_delta(&old, &new, &plan_old, &added, &deleted);
            prop_assert_eq!(delta.new_matches, count_using_reference(&new, &plan_new, &added));
            prop_assert_eq!(delta.retired_matches, count_using_reference(&old, &plan_old, &deleted));
            let total = |g: &Graph, p: &QueryPlan| count_embeddings(g, p, &Ceci::build(g, p));
            prop_assert_eq!(delta.apply_to(total(&old, &plan_old)), total(&new, &plan_new));
        }
    }
}
