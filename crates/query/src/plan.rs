//! The query plan: everything preprocessing produces (§2.2), bundled.
//!
//! A [`QueryPlan`] fixes the root, the BFS query tree, the matching order
//! (and the [`OrderStrategy`] that chose it), the orientation of non-tree
//! edges relative to that order, and the compiled symmetry-breaking bounds.
//! CECI construction and every enumeration engine consume plans, so all
//! engines agree on the search shape and results are directly comparable.

use std::sync::Arc;

use ceci_graph::{Graph, GraphStamp, VertexId};

use crate::candidates::{compute_candidates, patch_candidates, CandidateSet};
use crate::nec::{break_symmetry, OrderConstraint};
use crate::order::{is_valid_order, matching_order, OrderStrategy};
use crate::query_graph::QueryGraph;
use crate::root::select_root;
use crate::tree::QueryTree;

/// Step budget for the automorphism search behind symmetry breaking.
const SYMMETRY_STEP_CAP: u64 = 1_000_000;

/// Options controlling plan construction.
#[derive(Clone, Debug)]
pub struct PlanOptions {
    /// Matching-order strategy. The default is
    /// [`OrderStrategy::EdgeRank`], the connectivity-first greedy: on a
    /// cyclic query it closes non-tree edges before it expands cross
    /// products. [`PlanOptions::paper`] keeps the paper's BFS order.
    pub order: OrderStrategy,
    /// Enforce automorphism breaking (§2.2). When off, or when the
    /// automorphism search exceeds its step budget, duplicates may be
    /// listed.
    pub break_symmetry: bool,
    /// Force a specific root instead of the cost-function choice.
    pub root_override: Option<VertexId>,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            order: OrderStrategy::EdgeRank,
            break_symmetry: true,
            root_override: None,
        }
    }
}

impl PlanOptions {
    /// The paper's §2.2 configuration: the min-`|C(u)|/deg(u)` root and
    /// the BFS order of its query tree. The paper's figures, tables and
    /// running example are reproduced under it.
    pub fn paper() -> Self {
        PlanOptions {
            order: OrderStrategy::Bfs,
            ..PlanOptions::default()
        }
    }
}

/// The complete preprocessing output for one (query, data graph) pair.
#[derive(Clone, Debug)]
pub struct QueryPlan {
    query: QueryGraph,
    tree: QueryTree,
    matching_order: Vec<VertexId>,
    /// The strategy that chose `matching_order`; `None` for an order given
    /// explicitly ([`QueryPlan::from_parts`]).
    strategy: Option<OrderStrategy>,
    /// `position[u]` = index of query vertex `u` in the matching order.
    position: Vec<usize>,
    /// Per query vertex: non-tree neighbors that appear *earlier* in the
    /// matching order (the "NTE parents" whose candidates get intersected).
    backward_nte: Vec<Vec<VertexId>>,
    /// Per query vertex: non-tree neighbors that appear *later* (the NTE
    /// children contributing to cardinality during refinement).
    forward_nte: Vec<Vec<VertexId>>,
    /// Initial candidate sets (root selection byproduct; CECI seeds pivots
    /// from the root's set and takes every Algorithm-1 verdict from their
    /// bitsets). They depend on the query and the graph only, so every
    /// [`QueryPlan::reordered`] sibling shares this allocation.
    initial_candidates: Arc<[CandidateSet]>,
    /// The graph `initial_candidates` was computed on.
    sets_graph: GraphStamp,
    /// Raw symmetry constraints.
    symmetry: Vec<OrderConstraint>,
    /// Whether the constraint set fully quotients the automorphism group.
    symmetry_complete: bool,
    /// Per query vertex `u`: earlier vertices `w` with `map(w) < map(u)`
    /// required (lower bounds on `u`'s image).
    lower_bounds: Vec<Vec<VertexId>>,
    /// Per query vertex `u`: earlier vertices `w` with `map(u) < map(w)`
    /// required (upper bounds on `u`'s image).
    upper_bounds: Vec<Vec<VertexId>>,
}

impl QueryPlan {
    /// Builds a plan with default options.
    pub fn new(query: QueryGraph, graph: &Graph) -> Self {
        QueryPlan::with_options(query, graph, &PlanOptions::default())
    }

    /// Builds a plan with explicit options.
    pub fn with_options(query: QueryGraph, graph: &Graph, options: &PlanOptions) -> Self {
        let initial_candidates: Arc<[CandidateSet]> = compute_candidates(&query, graph).into();
        let root = options
            .root_override
            .unwrap_or_else(|| select_root(&query, &initial_candidates).root);
        let (symmetry, symmetry_complete) = if options.break_symmetry {
            break_symmetry(&query, SYMMETRY_STEP_CAP)
        } else {
            (Vec::new(), false)
        };
        Self::ordered(
            query,
            root,
            options.order,
            initial_candidates,
            graph.stamp(),
            symmetry,
            symmetry_complete,
        )
    }

    /// The same query over the same graph under another `(root, order)`:
    /// the candidate sets and symmetry constraints, which depend on neither,
    /// are shared with `self` instead of recomputed (a candidate scan is a
    /// pass over every data vertex).
    pub fn reordered(&self, root: VertexId, order: OrderStrategy) -> Self {
        Self::ordered(
            self.query.clone(),
            root,
            order,
            Arc::clone(&self.initial_candidates),
            self.sets_graph,
            self.symmetry.clone(),
            self.symmetry_complete,
        )
    }

    /// Whether the plan's candidate sets were computed on `graph` (or on a
    /// graph it is a clone of). A served index build trusts the sets for
    /// every per-vertex verdict, so it wants this to hold; root, matching
    /// order and symmetry bounds are structural and hold on any graph.
    #[inline]
    pub fn describes(&self, graph: &Graph) -> bool {
        self.sets_graph == graph.stamp()
    }

    /// The same root, matching order and symmetry bounds with candidate
    /// sets that describe `graph`: a clone when they already do, otherwise
    /// one candidate scan of `graph`. This is how a plan retained across
    /// snapshots by a repair becomes buildable on the current one without
    /// re-deciding anything.
    pub fn on_graph(&self, graph: &Graph) -> Self {
        let mut plan = self.clone();
        if !self.describes(graph) {
            plan.initial_candidates = compute_candidates(&self.query, graph).into();
            plan.sets_graph = graph.stamp();
        }
        plan
    }

    /// What [`QueryPlan::on_graph`] returns, without its scan: `previous`
    /// are this query's candidate sets on an earlier snapshot whose edges
    /// differ from `graph`'s only at the `dirty` vertices (sorted,
    /// distinct), and only those are re-tested ([`patch_candidates`]). Debug builds check the result
    /// against a scan of `graph`.
    pub fn on_graph_patched(
        &self,
        graph: &Graph,
        previous: &[CandidateSet],
        dirty: &[VertexId],
    ) -> Self {
        let sets = patch_candidates(&self.query, graph, previous, dirty);
        debug_assert!(
            sets == compute_candidates(&self.query, graph),
            "patched candidate sets differ from a scan of the graph"
        );
        let mut plan = self.clone();
        plan.initial_candidates = sets.into();
        plan.sets_graph = graph.stamp();
        plan
    }

    /// `self`'s root, matching order and symmetry bounds over the candidate
    /// sets of `current`, a plan of the same query — what
    /// [`QueryPlan::on_graph`] returns, with the scan `current` already paid
    /// for shared instead of repeated.
    pub fn with_sets_of(&self, current: &QueryPlan) -> Self {
        debug_assert_eq!(self.query.edges(), current.query.edges());
        let mut plan = self.clone();
        plan.initial_candidates = Arc::clone(&current.initial_candidates);
        plan.sets_graph = current.sets_graph;
        plan
    }

    fn ordered(
        query: QueryGraph,
        root: VertexId,
        strategy: OrderStrategy,
        initial_candidates: Arc<[CandidateSet]>,
        sets_graph: GraphStamp,
        symmetry: Vec<OrderConstraint>,
        symmetry_complete: bool,
    ) -> Self {
        let tree = QueryTree::build(&query, root);
        // Candidate sets are in vertex order already.
        let counts: Vec<usize> = initial_candidates
            .iter()
            .map(|s| s.candidates.len())
            .collect();
        let order = matching_order(&query, &tree, strategy, &counts);
        debug_assert!(is_valid_order(&tree, &order));
        let mut plan = Self::assemble(
            query,
            tree,
            order,
            initial_candidates,
            sets_graph,
            symmetry,
            symmetry_complete,
        );
        plan.strategy = Some(strategy);
        plan
    }

    /// Builds a plan from preassembled parts (used by tests and by engines
    /// that must pin the paper's exact running-example configuration).
    pub fn from_parts(
        query: QueryGraph,
        root: VertexId,
        order: Vec<VertexId>,
        graph: &Graph,
        symmetry: Vec<OrderConstraint>,
        symmetry_complete: bool,
    ) -> Self {
        let tree = QueryTree::build(&query, root);
        assert!(
            is_valid_order(&tree, &order),
            "matching order violates tree-parent precedence"
        );
        let initial_candidates = compute_candidates(&query, graph).into();
        Self::assemble(
            query,
            tree,
            order,
            initial_candidates,
            graph.stamp(),
            symmetry,
            symmetry_complete,
        )
    }

    fn assemble(
        query: QueryGraph,
        tree: QueryTree,
        order: Vec<VertexId>,
        initial_candidates: Arc<[CandidateSet]>,
        sets_graph: GraphStamp,
        symmetry: Vec<OrderConstraint>,
        symmetry_complete: bool,
    ) -> Self {
        let n = query.num_vertices();
        let mut position = vec![usize::MAX; n];
        for (i, &u) in order.iter().enumerate() {
            position[u.index()] = i;
        }
        let mut backward_nte = vec![Vec::new(); n];
        let mut forward_nte = vec![Vec::new(); n];
        for &(a, b) in tree.non_tree_edges() {
            let (earlier, later) = if position[a.index()] < position[b.index()] {
                (a, b)
            } else {
                (b, a)
            };
            backward_nte[later.index()].push(earlier);
            forward_nte[earlier.index()].push(later);
        }
        for list in backward_nte.iter_mut().chain(forward_nte.iter_mut()) {
            list.sort_by_key(|u| position[u.index()]);
        }
        let mut lower_bounds = vec![Vec::new(); n];
        let mut upper_bounds = vec![Vec::new(); n];
        for c in &symmetry {
            let (s, l) = (c.smaller, c.larger);
            if position[s.index()] < position[l.index()] {
                // s assigned first: when assigning l, require map(l) > map(s).
                lower_bounds[l.index()].push(s);
            } else {
                // l assigned first: when assigning s, require map(s) < map(l).
                upper_bounds[s.index()].push(l);
            }
        }
        QueryPlan {
            query,
            tree,
            matching_order: order,
            strategy: None,
            position,
            backward_nte,
            forward_nte,
            initial_candidates,
            sets_graph,
            symmetry,
            symmetry_complete,
            lower_bounds,
            upper_bounds,
        }
    }

    /// The query graph.
    #[inline]
    pub fn query(&self) -> &QueryGraph {
        &self.query
    }

    /// The BFS query tree.
    #[inline]
    pub fn tree(&self) -> &QueryTree {
        &self.tree
    }

    /// The root query node `u_s`.
    #[inline]
    pub fn root(&self) -> VertexId {
        self.tree.root()
    }

    /// The matching order (root first).
    #[inline]
    pub fn matching_order(&self) -> &[VertexId] {
        &self.matching_order
    }

    /// The strategy that chose the matching order: `None` when the order
    /// was given ([`QueryPlan::from_parts`]).
    #[inline]
    pub fn strategy(&self) -> Option<OrderStrategy> {
        self.strategy
    }

    /// Position of `u` in the matching order.
    #[inline]
    pub fn position(&self, u: VertexId) -> usize {
        self.position[u.index()]
    }

    /// NTE neighbors of `u` earlier in the matching order.
    #[inline]
    pub fn backward_nte(&self, u: VertexId) -> &[VertexId] {
        &self.backward_nte[u.index()]
    }

    /// NTE neighbors of `u` later in the matching order.
    #[inline]
    pub fn forward_nte(&self, u: VertexId) -> &[VertexId] {
        &self.forward_nte[u.index()]
    }

    /// Initial (globally filtered) candidate set of `u`.
    #[inline]
    pub fn initial_candidates(&self, u: VertexId) -> &[VertexId] {
        &self.initial_candidates[u.index()].candidates
    }

    /// Initial candidate sets of every query vertex, in vertex order (the
    /// shared allocation, so an index built under the plan can keep it).
    #[inline]
    pub fn candidate_sets(&self) -> &Arc<[CandidateSet]> {
        &self.initial_candidates
    }

    /// Raw symmetry constraints.
    #[inline]
    pub fn symmetry_constraints(&self) -> &[OrderConstraint] {
        &self.symmetry
    }

    /// Whether the symmetry constraints fully quotient the automorphism
    /// group (each embedding listed exactly once). `false` means the caller
    /// may see duplicate embeddings and should deduplicate if needed.
    #[inline]
    pub fn symmetry_complete(&self) -> bool {
        self.symmetry_complete
    }

    /// Earlier query vertices whose image must be `<` the image of `u`.
    #[inline]
    pub fn lower_bounds(&self, u: VertexId) -> &[VertexId] {
        &self.lower_bounds[u.index()]
    }

    /// Earlier query vertices whose image must be `>` the image of `u`.
    #[inline]
    pub fn upper_bounds(&self, u: VertexId) -> &[VertexId] {
        &self.upper_bounds[u.index()]
    }

    /// The boundary `B_d` of the cut at `depth`: the vertices of
    /// `matching_order[..depth]` that a later vertex reads, as its tree
    /// parent, a backward non-tree neighbour or a symmetry bound, in
    /// matching order. The lists and windows of every later gather depend on
    /// the prefix only through these images; the other prefix vertices
    /// matter to the rest of the search through injectivity alone. Computed
    /// on each call: only the index build asks, once per candidate depth.
    pub fn boundary(&self, depth: usize) -> Vec<VertexId> {
        let reads = self.matching_order[depth..].iter().flat_map(|&s| {
            (self.tree.parent(s).into_iter())
                .chain(self.backward_nte(s).iter().copied())
                .chain(self.lower_bounds(s).iter().copied())
                .chain(self.upper_bounds(s).iter().copied())
        });
        let mut boundary: Vec<VertexId> = reads.filter(|&w| self.position(w) < depth).collect();
        boundary.sort_by_key(|&w| self.position(w));
        boundary.dedup();
        boundary
    }

    /// Checks `candidate` against the symmetry bounds of `u`, given the
    /// partial embedding `mapping[w] = Some(image)` for assigned vertices.
    #[inline]
    pub fn satisfies_symmetry(
        &self,
        u: VertexId,
        candidate: VertexId,
        mapping: &[Option<VertexId>],
    ) -> bool {
        self.lower_bounds[u.index()].iter().all(|w| {
            mapping[w.index()]
                .map(|img| img < candidate)
                .unwrap_or(true)
        }) && self.upper_bounds[u.index()].iter().all(|w| {
            mapping[w.index()]
                .map(|img| candidate < img)
                .unwrap_or(true)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::PaperQuery;
    use ceci_graph::{lid, vid};

    fn triangle_data() -> Graph {
        // Two triangles sharing vertex 0: 0-1-2-0, 0-3-4-0
        Graph::unlabeled(
            5,
            &[
                (vid(0), vid(1)),
                (vid(1), vid(2)),
                (vid(2), vid(0)),
                (vid(0), vid(3)),
                (vid(3), vid(4)),
                (vid(4), vid(0)),
            ],
        )
    }

    #[test]
    fn default_plan_for_triangle() {
        let g = triangle_data();
        let plan = QueryPlan::new(PaperQuery::Qg1.build(), &g);
        assert_eq!(plan.matching_order().len(), 3);
        assert_eq!(plan.position(plan.root()), 0);
        assert!(plan.symmetry_complete());
        // Triangle: every non-root vertex has one backward NTE or a parent.
        let last = plan.matching_order()[2];
        assert_eq!(plan.backward_nte(last).len(), 1);
    }

    #[test]
    fn nte_orientation_follows_matching_order() {
        let g = triangle_data();
        let plan = QueryPlan::new(PaperQuery::Qg1.build(), &g);
        for u in plan.query().vertices() {
            for &w in plan.backward_nte(u) {
                assert!(plan.position(w) < plan.position(u));
            }
            for &w in plan.forward_nte(u) {
                assert!(plan.position(w) > plan.position(u));
            }
        }
    }

    #[test]
    fn symmetry_bounds_split_by_position() {
        let g = triangle_data();
        let plan = QueryPlan::new(PaperQuery::Qg1.build(), &g);
        // All constraints are between earlier/later pairs; in a triangle
        // ordered 0, 1, 2 the chain 0<1<2 compiles to lower bounds only.
        let total_lower: usize = plan
            .query()
            .vertices()
            .map(|u| plan.lower_bounds(u).len())
            .sum();
        assert!(total_lower > 0);
    }

    #[test]
    fn satisfies_symmetry_enforces_bounds() {
        let g = triangle_data();
        let plan = QueryPlan::new(PaperQuery::Qg1.build(), &g);
        let order = plan.matching_order().to_vec();
        let mut mapping = vec![None; 3];
        mapping[order[0].index()] = Some(vid(3));
        let u1 = order[1];
        // Constraint map(order[0]) < map(order[1]) (triangle chain).
        assert!(plan.satisfies_symmetry(u1, vid(4), &mapping));
        assert!(!plan.satisfies_symmetry(u1, vid(1), &mapping));
    }

    #[test]
    fn root_override_respected() {
        let g = triangle_data();
        let opts = PlanOptions {
            root_override: Some(vid(2)),
            ..Default::default()
        };
        let plan = QueryPlan::with_options(PaperQuery::Qg1.build(), &g, &opts);
        assert_eq!(plan.root(), vid(2));
        assert_eq!(plan.matching_order()[0], vid(2));
    }

    #[test]
    fn reordered_shares_candidates_and_matches_a_fresh_plan() {
        let g = triangle_data();
        let plan = QueryPlan::new(PaperQuery::Qg3.build(), &g);
        for root in plan.query().vertices() {
            for order in [
                OrderStrategy::Bfs,
                OrderStrategy::EdgeRank,
                OrderStrategy::PathRank,
            ] {
                let fresh = QueryPlan::with_options(
                    plan.query().clone(),
                    &g,
                    &PlanOptions {
                        order,
                        root_override: Some(root),
                        ..Default::default()
                    },
                );
                let sibling = plan.reordered(root, order);
                assert_eq!(sibling.matching_order(), fresh.matching_order());
                assert_eq!(sibling.strategy(), Some(order));
                assert_eq!(fresh.strategy(), Some(order));
                assert_eq!(sibling.symmetry_constraints(), fresh.symmetry_constraints());
                for u in plan.query().vertices() {
                    assert_eq!(sibling.backward_nte(u), fresh.backward_nte(u));
                    assert_eq!(sibling.lower_bounds(u), fresh.lower_bounds(u));
                    assert_eq!(sibling.upper_bounds(u), fresh.upper_bounds(u));
                }
                assert!(Arc::ptr_eq(
                    &sibling.initial_candidates,
                    &plan.initial_candidates
                ));
            }
        }
    }

    #[test]
    fn on_graph_keeps_the_decision_and_refreshes_the_sets() {
        // G0: triangle 0-1-2 and a pendant edge 3-4. G1 adds 3-0 and 3-1:
        // vertex 3 now passes DF for a triangle node.
        let mut edges = vec![
            (vid(0), vid(1)),
            (vid(1), vid(2)),
            (vid(2), vid(0)),
            (vid(3), vid(4)),
        ];
        let g0 = Graph::unlabeled(5, &edges);
        edges.extend([(vid(3), vid(0)), (vid(3), vid(1))]);
        let g1 = Graph::unlabeled(5, &edges);
        let plan0 = QueryPlan::new(PaperQuery::Qg1.build(), &g0);
        assert!(plan0.describes(&g0) && plan0.describes(&g0.clone()));
        assert!(!plan0.describes(&g1));
        let fresh = QueryPlan::new(PaperQuery::Qg1.build(), &g1);
        for root in plan0.query().vertices() {
            for order in [OrderStrategy::Bfs, OrderStrategy::EdgeRank] {
                let lagging = plan0.reordered(root, order);
                assert!(!lagging.describes(&g1));
                let moved = lagging.on_graph(&g1);
                assert!(moved.describes(&g1));
                assert_eq!(moved.root(), lagging.root());
                assert_eq!(moved.matching_order(), lagging.matching_order());
                assert_eq!(moved.symmetry_constraints(), lagging.symmetry_constraints());
                for u in plan0.query().vertices() {
                    assert_eq!(lagging.initial_candidates(u).len(), 3);
                    assert_eq!(moved.initial_candidates(u), fresh.initial_candidates(u));
                    assert_eq!(moved.lower_bounds(u), lagging.lower_bounds(u));
                    assert_eq!(moved.upper_bounds(u), lagging.upper_bounds(u));
                    assert!(moved.candidate_sets()[u.index()].contains(vid(3)));
                    assert!(!lagging.candidate_sets()[u.index()].contains(vid(3)));
                }
            }
        }
        // One scan can serve many siblings: the same plan, sets shared.
        let sibling = plan0.reordered(vid(2), OrderStrategy::Bfs);
        let shared = sibling.with_sets_of(&fresh);
        assert!(shared.describes(&g1));
        assert_eq!(shared.matching_order(), sibling.matching_order());
        assert!(Arc::ptr_eq(
            &shared.initial_candidates,
            &fresh.initial_candidates
        ));
        // G1's new edges touch 0, 1 and 3: re-testing those alone gives the
        // scan's sets, under the same decision.
        let patched =
            sibling.on_graph_patched(&g1, plan0.candidate_sets(), &[vid(0), vid(1), vid(3)]);
        assert!(patched.describes(&g1));
        assert_eq!(patched.matching_order(), sibling.matching_order());
        assert_eq!(patched.candidate_sets(), fresh.candidate_sets());
        // Already current: nothing is recomputed.
        assert!(Arc::ptr_eq(
            &plan0.on_graph(&g0).initial_candidates,
            &plan0.initial_candidates
        ));
    }

    #[test]
    fn boundary_is_what_the_suffix_reads() {
        let g = triangle_data();
        // A labeled 4-path from one end: each cut's suffix reads the last
        // prefix vertex alone.
        let labels = [lid(0), lid(1), lid(2), lid(3)];
        let path = QueryGraph::with_labels(&labels, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let order = vec![vid(0), vid(1), vid(2), vid(3)];
        let plan = QueryPlan::from_parts(path, vid(0), order, &g, Vec::new(), true);
        assert_eq!(plan.strategy(), None, "a given order has no strategy");
        assert!(plan.boundary(0).is_empty());
        assert_eq!(plan.boundary(1), &[vid(0)]);
        assert_eq!(plan.boundary(2), &[vid(1)]);
        assert_eq!(plan.boundary(3), &[vid(2)]);
        assert!(plan.boundary(4).is_empty());
        // The triangle's last vertex reads both others: its tree parent and
        // its non-tree neighbour, which are also its symmetry bounds.
        let tri = QueryPlan::new(PaperQuery::Qg1.build(), &g);
        let order = tri.matching_order();
        assert_eq!(tri.boundary(1), &order[..1]);
        assert_eq!(tri.boundary(2), &order[..2]);
    }

    #[test]
    fn symmetry_disabled() {
        let g = triangle_data();
        let opts = PlanOptions {
            break_symmetry: false,
            ..Default::default()
        };
        let plan = QueryPlan::with_options(PaperQuery::Qg1.build(), &g, &opts);
        assert!(plan.symmetry_constraints().is_empty());
        assert!(!plan.symmetry_complete());
    }

    #[test]
    #[should_panic(expected = "matching order violates")]
    fn from_parts_validates_order() {
        let g = triangle_data();
        let q = PaperQuery::Qg1.build();
        // Order doesn't start at root 1.
        let _ = QueryPlan::from_parts(
            q,
            vid(1),
            vec![vid(0), vid(1), vid(2)],
            &g,
            Vec::new(),
            false,
        );
    }

    #[test]
    fn initial_candidates_exposed() {
        let g = triangle_data();
        let plan = QueryPlan::new(PaperQuery::Qg1.build(), &g);
        for u in plan.query().vertices() {
            // In an unlabeled graph every vertex of sufficient degree is a
            // candidate; all 5 data vertices have degree >= 2.
            assert_eq!(plan.initial_candidates(u).len(), 5);
        }
    }
}
