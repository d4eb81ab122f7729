//! Shared-prefix batched execution for multi-query workloads.
//!
//! **No longer served.** A `MATCH` drains its own cached index; the
//! structural frontier below is by construction a superset of the prefix
//! space that index already stores, so on a cache hit it could only add work
//! (measured: ISSUE 22, DESIGN.md "The served drain"). [`PrefixSpec`] and
//! [`enumerate_from_frontier`] are read only by the ledger's replay
//! (`benchmark/src/bin/ledger_layers.rs`, the `core.batch.*` cells) and are
//! retired by the `benchmark` PR that drops `core.batch.*` /
//! `service.batch.*` from `BENCHMARK.json`.
//!
//! Concurrent MATCHes frequently share the *shape* of the first few
//! matching-order vertices — same label sets, same edges among them — even
//! when their suffixes differ. The per-query work for that prefix (candidate
//! scan, adjacency checks, injectivity) is then identical across the group,
//! so it can be done **once**: build a *shared frontier* of all injective,
//! label- and edge-satisfying assignments of the prefix shape, then fork each
//! query's enumeration from every frontier entry via
//! [`crate::Enumerator::enumerate_prefix`].
//!
//! ## Soundness (superset-frontier argument)
//!
//! The frontier is built *structurally* from the data graph — no per-query
//! CECI refinement — so it is a **superset** of every group member's true
//! prefix space. Forking from a frontier entry outside a member's candidate
//! space yields zero embeddings (the first TE/NTE lookup keyed by a
//! non-candidate image finds no list), never a wrong one: every emission
//! still passes the member's own TE/NTE membership, injectivity, and
//! symmetry checks. Conversely every true embedding's prefix satisfies the
//! structural constraints and therefore appears in the frontier. Counts are
//! bit-identical to unbatched enumeration; the only cost of the superset is
//! wasted forks, bounded by the frontier size.
//!
//! Symmetry constraints *between prefix positions* are per-query (they
//! depend on the suffix automorphisms), so they are applied at fork time by
//! [`enumerate_from_frontier`], not baked into the frontier.

use ceci_graph::{Graph, LabelSet, VertexId};
use ceci_query::QueryPlan;

use crate::bitmap::VertexBitmap;
use crate::enumerate::{EnumOptions, Enumerator};
use crate::index::Ceci;
use crate::metrics::Counters;
use crate::sink::EmbeddingSink;

/// The structural shape of a matching-order prefix: per-position label sets
/// plus the query edges whose endpoints both fall inside the prefix. Two
/// plans with equal `PrefixSpec`s induce the *same* frontier on the same
/// data graph, which is what makes the frontier shareable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrefixSpec {
    labels: Vec<LabelSet>,
    /// Prefix-internal edges as `(i, j)` position pairs with `i < j`,
    /// sorted — part of the equality key.
    edges: Vec<(usize, usize)>,
}

impl PrefixSpec {
    /// Extracts the prefix shape of the first `depth` matching-order
    /// vertices. Returns `None` when the order is too short to leave a
    /// non-empty suffix (`depth >= order.len()`) or the prefix is trivial
    /// (`depth == 0`).
    pub fn from_plan(plan: &QueryPlan, depth: usize) -> Option<PrefixSpec> {
        let order = plan.matching_order();
        if depth == 0 || depth >= order.len() {
            return None;
        }
        let query = plan.query();
        let labels: Vec<LabelSet> = order[..depth]
            .iter()
            .map(|&u| query.labels(u).clone())
            .collect();
        let mut edges = Vec::new();
        for &(a, b) in query.edges() {
            let (pa, pb) = (plan.position(a), plan.position(b));
            if pa < depth && pb < depth {
                edges.push((pa.min(pb), pa.max(pb)));
            }
        }
        edges.sort_unstable();
        edges.dedup();
        Some(PrefixSpec { labels, edges })
    }

    /// Number of prefix positions.
    pub fn depth(&self) -> usize {
        self.labels.len()
    }

    /// All injective assignments of the prefix shape onto `graph`: every
    /// entry maps position `i` to a vertex carrying `labels[i]` with every
    /// prefix-internal edge present. Entries are produced in lexicographic
    /// position order, so the frontier is deterministic.
    pub fn build_frontier(&self, graph: &Graph) -> Vec<Vec<VertexId>> {
        let d = self.depth();
        let mut out = Vec::new();
        let mut partial: Vec<VertexId> = Vec::with_capacity(d);
        self.extend_frontier(graph, &mut partial, &mut out);
        out
    }

    fn extend_frontier(
        &self,
        graph: &Graph,
        partial: &mut Vec<VertexId>,
        out: &mut Vec<Vec<VertexId>>,
    ) {
        let i = partial.len();
        if i == self.depth() {
            out.push(partial.clone());
            return;
        }
        // Prefer extending along a prefix-internal edge (neighbor scan beats
        // a full label scan); fall back to the label index for positions
        // with no earlier neighbor.
        let anchor = self
            .edges
            .iter()
            .find(|&&(a, b)| b == i && a < i)
            .map(|&(a, _)| partial[a]);
        let candidates: &[VertexId] = match anchor {
            Some(v) => graph.neighbors(v),
            None => graph.vertices_with_label(self.labels[i].primary()),
        };
        'cand: for &v in candidates {
            if !self.labels[i].is_subset_of(graph.labels(v)) {
                continue;
            }
            if partial.contains(&v) {
                continue;
            }
            for &(a, b) in &self.edges {
                // Check remaining internal edges ending at i (the anchor
                // edge is adjacency-true by construction but rechecking is
                // cheap and keeps the loop branch-free of special cases).
                if b == i && !graph.has_edge(partial[a], v) {
                    continue 'cand;
                }
            }
            partial.push(v);
            self.extend_frontier(graph, partial, out);
            partial.pop();
        }
    }
}

/// `plan`'s symmetry constraints whose endpoints both fall inside a prefix of
/// `depth` positions, as `(smaller, larger)` position pairs.
fn prefix_constraints(plan: &QueryPlan, depth: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
    plan.symmetry_constraints()
        .iter()
        .map(|c| (plan.position(c.smaller), plan.position(c.larger)))
        .filter(move |&(ps, pl)| ps < depth && pl < depth)
}

/// Forks one query's enumeration from a shared frontier: each frontier
/// entry that passes the query's prefix-internal symmetry constraints seeds
/// [`Enumerator::enumerate_prefix`]. Returns the merged counters; stops
/// early if the sink requests it.
///
/// What is the same for every entry is settled once per call: the
/// prefix-internal constraints are resolved to position pairs, and the
/// index's candidate set of each prefix position (the first one's are the
/// pivots) becomes a bitmap. The structural frontier holds every edge of the
/// graph, the index only what survived refinement: an entry with a vertex
/// outside its position's candidates completes no embedding and is skipped
/// before the enumerator is touched.
///
/// The frontier must have been built from a [`PrefixSpec`] **equal** to
/// `PrefixSpec::from_plan(plan, depth)` for the same data graph.
pub fn enumerate_from_frontier<S: EmbeddingSink>(
    graph: &Graph,
    plan: &QueryPlan,
    ceci: &Ceci,
    options: EnumOptions,
    frontier: &[Vec<VertexId>],
    sink: &mut S,
) -> Counters {
    let mut counters = Counters::default();
    let mut e = Enumerator::new(graph, plan, ceci, options);
    let depth = frontier.first().map_or(0, Vec::len);
    let ordered: Vec<(usize, usize)> = prefix_constraints(plan, depth).collect();
    let candidates: Vec<VertexBitmap> = plan.matching_order()[..depth]
        .iter()
        .map(|&u| {
            let mut set = VertexBitmap::new(graph.num_vertices());
            ceci.candidates(u).iter().for_each(|&v| set.insert(v));
            set
        })
        .collect();
    for prefix in frontier {
        let admitted = prefix
            .iter()
            .zip(&candidates)
            .all(|(&v, set)| set.contains(v));
        if !admitted || !ordered.iter().all(|&(ps, pl)| prefix[ps] < prefix[pl]) {
            continue;
        }
        if !e.enumerate_prefix(prefix, sink, &mut counters) {
            break;
        }
    }
    counters
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::count_embeddings;
    use crate::fixtures::paper;
    use crate::sink::CountSink;
    use ceci_graph::extract_query;
    use ceci_graph::generators::{erdos_renyi, inject_random_labels};
    use ceci_query::QueryGraph;

    fn batched_count(graph: &Graph, plan: &QueryPlan, ceci: &Ceci, depth: usize) -> u64 {
        let spec = PrefixSpec::from_plan(plan, depth).expect("prefix depth in range");
        let frontier = spec.build_frontier(graph);
        let mut sink = CountSink::unbounded();
        enumerate_from_frontier(
            graph,
            plan,
            ceci,
            EnumOptions::default(),
            &frontier,
            &mut sink,
        );
        sink.count()
    }

    #[test]
    fn paper_fixture_counts_match_at_every_prefix_depth() {
        let (graph, plan) = paper::figure1();
        let ceci = Ceci::build(&graph, &plan);
        let base = count_embeddings(&graph, &plan, &ceci);
        assert_eq!(base, 2);
        for depth in 1..plan.matching_order().len() {
            assert_eq!(
                batched_count(&graph, &plan, &ceci, depth),
                base,
                "depth={depth}"
            );
        }
    }

    #[test]
    fn spec_equality_groups_shared_prefixes() {
        let (graph, fixture_plan) = paper::figure1();
        // Same query planned twice the same way: specs agree at every depth
        // (the planner is deterministic).
        let plan = QueryPlan::new(fixture_plan.query().clone(), &graph);
        let plan2 = QueryPlan::new(fixture_plan.query().clone(), &graph);
        for depth in 1..plan.matching_order().len() {
            let a = PrefixSpec::from_plan(&plan, depth).unwrap();
            let b = PrefixSpec::from_plan(&plan2, depth).unwrap();
            assert_eq!(a, b);
        }
        // Depth out of range refuses.
        assert!(PrefixSpec::from_plan(&plan, 0).is_none());
        assert!(PrefixSpec::from_plan(&plan, plan.matching_order().len()).is_none());
    }

    #[test]
    fn frontier_is_superset_of_cluster_pivots() {
        let (graph, plan) = paper::figure1();
        let ceci = Ceci::build(&graph, &plan);
        let spec = PrefixSpec::from_plan(&plan, 1).unwrap();
        let frontier = spec.build_frontier(&graph);
        for &(pivot, _) in ceci.pivots() {
            assert!(
                frontier.iter().any(|p| p[0] == pivot),
                "pivot {pivot:?} missing from structural frontier"
            );
        }
    }

    #[test]
    fn random_graph_differential_across_depths() {
        for seed in 0..5u64 {
            let graph = inject_random_labels(&erdos_renyi(150, 500, seed), 3, seed ^ 0xA5A5);
            for size in [3usize, 4, 5] {
                let Some(extracted) = extract_query(&graph, size, seed * 17 + 3, 5) else {
                    continue;
                };
                let Ok(query) = QueryGraph::from_graph(&extracted.pattern) else {
                    continue;
                };
                let plan = QueryPlan::new(query, &graph);
                let ceci = Ceci::build(&graph, &plan);
                let base = count_embeddings(&graph, &plan, &ceci);
                for depth in 1..plan.matching_order().len().min(3) {
                    assert_eq!(
                        batched_count(&graph, &plan, &ceci, depth),
                        base,
                        "seed={seed} size={size} depth={depth}"
                    );
                }
            }
        }
    }

    #[test]
    fn batching_composes_with_redundant_pruning() {
        let (graph, plan) = paper::figure1();
        let ceci = Ceci::build(&graph, &plan);
        let base = count_embeddings(&graph, &plan, &ceci);
        let spec = PrefixSpec::from_plan(&plan, 2).unwrap();
        let frontier = spec.build_frontier(&graph);
        let mut sink = CountSink::unbounded();
        enumerate_from_frontier(
            &graph,
            &plan,
            &ceci,
            EnumOptions {
                prune_redundant: true,
                ..Default::default()
            },
            &frontier,
            &mut sink,
        );
        assert_eq!(sink.count(), base);
    }
}
