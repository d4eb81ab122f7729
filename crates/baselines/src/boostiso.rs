//! Boosted-TurboIso: TurboIso accelerated with BoostIso-style data-graph
//! vertex equivalence (Ren & Wang, VLDB 2015) — lite.
//!
//! BoostIso observes that real graphs contain many *syntactically
//! equivalent* (SE) vertices — same label, same neighborhood — which a
//! matcher explores redundantly. Two flavors exist:
//!
//! * **non-adjacent twins**: `N(v) = N(w)`, `v ≁ w` (e.g. two pendant
//!   vertices hanging off the same hub);
//! * **adjacent twins**: `N(v) ∪ {v} = N(w) ∪ {w}`, `v ~ w` (e.g. two
//!   members of a clique module).
//!
//! This engine compresses each *candidate list* to one representative per
//! equivalence class, searches the compressed space (allowing several query
//! vertices to share a class up to its multiplicity, with class-aware edge
//! semantics), and expands every compressed embedding into its concrete
//! embeddings by injectively assigning class members — honoring symmetry
//! constraints at expansion time.

use std::collections::HashMap;
use std::time::Instant;

use ceci_core::metrics::Counters;
use ceci_graph::{Graph, VertexId};
use ceci_query::QueryPlan;

/// Kind of a twin class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TwinKind {
    /// Members are pairwise **non**-adjacent (`N(v) = N(w)`).
    Independent,
    /// Members are pairwise adjacent (`N[v] = N[w]`, closed neighborhoods).
    Clique,
}

/// SE-equivalence classes of a data graph.
#[derive(Debug)]
pub struct VertexEquivalence {
    /// `class_of[v]` = class id of vertex `v`.
    pub class_of: Vec<u32>,
    /// Members per class, sorted ascending (index = class id).
    pub members: Vec<Vec<VertexId>>,
    /// Twin kind per class (singletons are `Independent` by convention).
    pub kind: Vec<TwinKind>,
}

impl VertexEquivalence {
    /// Computes SE classes by hashing open and closed neighborhoods.
    pub fn compute(graph: &Graph) -> Self {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let n = graph.num_vertices();
        let mut groups: HashMap<(u64, bool), Vec<VertexId>> = HashMap::new();
        for v in graph.vertices() {
            // Open-neighborhood signature (non-adjacent twins).
            let mut h = DefaultHasher::new();
            graph.labels(v).as_slice().hash(&mut h);
            graph.neighbors(v).hash(&mut h);
            groups.entry((h.finish(), false)).or_default().push(v);
            // Closed-neighborhood signature (adjacent twins): hash the
            // sorted union N(v) ∪ {v}.
            let mut closed: Vec<VertexId> = graph.neighbors(v).to_vec();
            let pos = closed.binary_search(&v).unwrap_or_else(|p| p);
            closed.insert(pos, v);
            let mut h = DefaultHasher::new();
            graph.labels(v).as_slice().hash(&mut h);
            closed.hash(&mut h);
            groups.entry((h.finish(), true)).or_default().push(v);
        }
        // Verify hash groups exactly (guard against collisions) and build
        // classes; closed-neighborhood classes win for mutually adjacent
        // sets, open-neighborhood for independent sets. Each vertex joins at
        // most one nontrivial class (the first verified one).
        let mut class_of: Vec<Option<u32>> = vec![None; n];
        let mut members: Vec<Vec<VertexId>> = Vec::new();
        let mut kind: Vec<TwinKind> = Vec::new();
        let mut sorted_groups: Vec<((u64, bool), Vec<VertexId>)> = groups.into_iter().collect();
        sorted_groups.sort_by_key(|((h, closed), _)| (!closed, *h));
        for ((_, closed), mut group) in sorted_groups {
            group.sort_unstable();
            group.dedup();
            if group.len() < 2 {
                continue;
            }
            // Split the hash bucket into exact-equality runs.
            let mut runs: Vec<Vec<VertexId>> = Vec::new();
            'outer: for &v in &group {
                if class_of[v.index()].is_some() {
                    continue;
                }
                for run in &mut runs {
                    let w = run[0];
                    if equivalent(graph, v, w, closed) {
                        run.push(v);
                        continue 'outer;
                    }
                }
                runs.push(vec![v]);
            }
            for run in runs {
                if run.len() < 2 {
                    continue;
                }
                let id = members.len() as u32;
                for &v in &run {
                    class_of[v.index()] = Some(id);
                }
                members.push(run);
                kind.push(if closed {
                    TwinKind::Clique
                } else {
                    TwinKind::Independent
                });
            }
        }
        // Singleton classes for the rest.
        for (v, class) in class_of.iter_mut().enumerate() {
            if class.is_none() {
                let id = members.len() as u32;
                *class = Some(id);
                members.push(vec![VertexId::from_index(v)]);
                kind.push(TwinKind::Independent);
            }
        }
        VertexEquivalence {
            class_of: class_of.into_iter().map(|c| c.unwrap()).collect(),
            members,
            kind,
        }
    }

    /// Number of non-singleton classes.
    pub fn num_nontrivial_classes(&self) -> usize {
        self.members.iter().filter(|m| m.len() > 1).count()
    }

    /// Vertices covered by non-singleton classes.
    pub fn compressed_vertices(&self) -> usize {
        self.members
            .iter()
            .filter(|m| m.len() > 1)
            .map(|m| m.len())
            .sum()
    }
}

fn equivalent(graph: &Graph, v: VertexId, w: VertexId, closed: bool) -> bool {
    if v == w {
        return true;
    }
    if graph.labels(v) != graph.labels(w) {
        return false;
    }
    if closed {
        // N[v] == N[w] requires v ~ w and N(v)\{w} == N(w)\{v}.
        if !graph.has_edge(v, w) {
            return false;
        }
        let nv: Vec<VertexId> = graph
            .neighbors(v)
            .iter()
            .copied()
            .filter(|&x| x != w)
            .collect();
        let nw: Vec<VertexId> = graph
            .neighbors(w)
            .iter()
            .copied()
            .filter(|&x| x != v)
            .collect();
        nv == nw
    } else {
        graph.neighbors(v) == graph.neighbors(w)
    }
}

/// Result of a boosted run.
#[derive(Debug)]
pub struct BoostResult {
    /// Concrete embeddings reported (≤ limit when set).
    pub total_embeddings: u64,
    /// Compressed (representative) embeddings explored.
    pub compressed_embeddings: u64,
    /// Counters.
    pub counters: Counters,
    /// Non-singleton classes in the data graph.
    pub nontrivial_classes: usize,
    /// Collected embeddings (canonically sorted) when requested.
    pub embeddings: Option<Vec<Vec<VertexId>>>,
    /// Wall time including equivalence computation.
    pub elapsed: std::time::Duration,
}

/// Options for the boosted engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct BoostOptions {
    /// Stop after this many concrete embeddings.
    pub limit: Option<u64>,
    /// Collect embeddings.
    pub collect: bool,
}

struct Search<'a> {
    graph: &'a Graph,
    plan: &'a QueryPlan,
    eq: &'a VertexEquivalence,
    /// Per query node: sorted candidate list (representatives only), plus
    /// the per-class member subset present among that node's candidates.
    reps: Vec<Vec<VertexId>>,
    node_members: Vec<HashMap<u32, Vec<VertexId>>>,
    /// `mapping[u]` = class id.
    mapping_class: Vec<Option<u32>>,
    /// Query vertices mapped per class.
    class_count: HashMap<u32, u32>,
    options: BoostOptions,
    emitted: u64,
    compressed: u64,
    collected: Vec<Vec<VertexId>>,
    /// Epoch-stamped per-class visited marks (avoids a HashSet per depth).
    class_stamp: Vec<u64>,
    stamp_epoch: u64,
    /// Per-depth candidate buffers.
    cand_buffers: Vec<Vec<VertexId>>,
    /// Expansion scratch.
    expand_assignment: Vec<Option<VertexId>>,
    expand_used: std::collections::HashSet<VertexId>,
}

/// Runs Boosted-TurboIso-lite: candidate compression + compressed search +
/// expansion. Computes the vertex equivalence inline; when matching many
/// queries against one graph, precompute it once and use
/// [`enumerate_boosted_with`] (the original BoostIso treats graph adaptation
/// as offline preprocessing).
pub fn enumerate_boosted(graph: &Graph, plan: &QueryPlan, options: &BoostOptions) -> BoostResult {
    let eq = VertexEquivalence::compute(graph);
    enumerate_boosted_with(graph, plan, &eq, options)
}

/// [`enumerate_boosted`] with a precomputed [`VertexEquivalence`].
pub fn enumerate_boosted_with(
    graph: &Graph,
    plan: &QueryPlan,
    eq: &VertexEquivalence,
    options: &BoostOptions,
) -> BoostResult {
    let start = Instant::now();
    let mut counters = Counters::default();
    let query = plan.query();
    let n = query.num_vertices();

    // Per-node candidate lists from the plan's initial candidates, collapsed
    // to class representatives.
    let mut reps: Vec<Vec<VertexId>> = Vec::with_capacity(n);
    let mut node_members: Vec<HashMap<u32, Vec<VertexId>>> = Vec::with_capacity(n);
    for u in query.vertices() {
        let mut per_class: HashMap<u32, Vec<VertexId>> = HashMap::new();
        for &v in plan.initial_candidates(u) {
            per_class.entry(eq.class_of[v.index()]).or_default().push(v);
        }
        let mut rep_list: Vec<VertexId> = per_class
            .values()
            .map(|ms| *ms.iter().min().expect("non-empty"))
            .collect();
        rep_list.sort_unstable();
        reps.push(rep_list);
        node_members.push(per_class);
    }

    let mut search = Search {
        graph,
        plan,
        eq,
        reps,
        node_members,
        mapping_class: vec![None; n],
        class_count: HashMap::new(),
        options: *options,
        emitted: 0,
        compressed: 0,
        collected: Vec::new(),
        class_stamp: vec![0; eq.members.len()],
        stamp_epoch: 0,
        cand_buffers: vec![Vec::new(); n + 1],
        expand_assignment: vec![None; n],
        expand_used: std::collections::HashSet::new(),
    };
    search.run(&mut counters);

    let embeddings = if options.collect {
        let mut all = std::mem::take(&mut search.collected);
        all.sort();
        Some(all)
    } else {
        None
    };
    BoostResult {
        total_embeddings: search.emitted,
        compressed_embeddings: search.compressed,
        counters,
        nontrivial_classes: eq.num_nontrivial_classes(),
        embeddings,
        elapsed: start.elapsed(),
    }
}

impl Search<'_> {
    fn run(&mut self, counters: &mut Counters) {
        let order = self.plan.matching_order().to_vec();
        let root = order[0];
        let roots = self.reps[root.index()].clone();
        for rep in roots {
            let class = self.eq.class_of[rep.index()];
            self.mapping_class[root.index()] = Some(class);
            *self.class_count.entry(class).or_insert(0) += 1;
            let keep = self.search_depth(1, counters);
            self.mapping_class[root.index()] = None;
            *self.class_count.get_mut(&class).unwrap() -= 1;
            if !keep {
                break;
            }
        }
    }

    /// Compressed backtracking: maps query nodes to *classes*; a class may
    /// host several query vertices up to the number of its members present
    /// in each node's candidate list (exactness is settled at expansion).
    ///
    /// Candidates for a non-root node come from the tree parent's
    /// representative adjacency (twins share adjacency, so the
    /// representative's neighbor list covers every class reachable from any
    /// member), intersected with the node's per-class candidate membership.
    fn search_depth(&mut self, depth: usize, counters: &mut Counters) -> bool {
        counters.recursive_calls += 1;
        let order = self.plan.matching_order();
        if depth == order.len() {
            self.compressed += 1;
            return self.expand(counters);
        }
        let u = order[depth];
        let parent = self.plan.tree().parent(u).expect("non-root");
        let parent_class = self.mapping_class[parent.index()].expect("assigned");
        let parent_rep = self.eq.members[parent_class as usize][0];
        // Classes adjacent to the parent's image, deduped with an epoch
        // stamp. If the parent's class is a clique with >1 member, the class
        // itself is adjacent to its members even though the rep's own list
        // omits the rep.
        self.stamp_epoch += 1;
        let epoch = self.stamp_epoch;
        let mut candidates = std::mem::take(&mut self.cand_buffers[depth]);
        candidates.clear();
        for &nb in self.graph.neighbors(parent_rep) {
            let c = self.eq.class_of[nb.index()];
            if self.class_stamp[c as usize] != epoch {
                self.class_stamp[c as usize] = epoch;
                candidates.push(self.eq.members[c as usize][0]);
            }
        }
        if self.eq.kind[parent_class as usize] == TwinKind::Clique
            && self.eq.members[parent_class as usize].len() > 1
            && self.class_stamp[parent_class as usize] != epoch
        {
            self.class_stamp[parent_class as usize] = epoch;
            candidates.push(parent_rep);
        }
        let mut keep_all = true;
        'cand: for &rep in &candidates {
            let class = self.eq.class_of[rep.index()];
            let used = self.class_count.get(&class).copied().unwrap_or(0) as usize;
            // Multiplicity: can this class host one more query vertex?
            let avail = self.node_members[u.index()]
                .get(&class)
                .map(|m| m.len())
                .unwrap_or(0);
            if avail == 0 || used >= self.eq.members[class as usize].len() {
                counters.injectivity_rejections += 1;
                continue;
            }
            // Class-aware edge checks against all earlier query neighbors.
            for &w in self.plan.query().neighbors(u) {
                let Some(wclass) = self.mapping_class[w.index()] else {
                    continue;
                };
                counters.edge_verifications += 1;
                let ok = if wclass == class {
                    self.eq.kind[class as usize] == TwinKind::Clique
                } else {
                    let wrep = self.eq.members[wclass as usize][0];
                    self.graph.has_edge(rep, wrep)
                };
                if !ok {
                    continue 'cand;
                }
            }
            self.mapping_class[u.index()] = Some(class);
            *self.class_count.entry(class).or_insert(0) += 1;
            let keep = self.search_depth(depth + 1, counters);
            self.mapping_class[u.index()] = None;
            *self.class_count.get_mut(&class).unwrap() -= 1;
            if !keep {
                keep_all = false;
                break 'cand;
            }
        }
        self.cand_buffers[depth] = candidates;
        keep_all
    }

    /// Expands a complete compressed embedding: injectively assigns concrete
    /// class members to query vertices (each from that vertex's own
    /// candidate member list), honoring symmetry constraints.
    fn expand(&mut self, counters: &mut Counters) -> bool {
        let mut assignment = std::mem::take(&mut self.expand_assignment);
        let mut used = std::mem::take(&mut self.expand_used);
        assignment.fill(None);
        used.clear();
        let keep = self.expand_rec(0, &mut assignment, &mut used, counters);
        self.expand_assignment = assignment;
        self.expand_used = used;
        keep
    }

    fn expand_rec(
        &mut self,
        idx: usize,
        assignment: &mut Vec<Option<VertexId>>,
        used: &mut std::collections::HashSet<VertexId>,
        counters: &mut Counters,
    ) -> bool {
        let order = self.plan.matching_order();
        if idx == order.len() {
            counters.embeddings += 1;
            self.emitted += 1;
            if self.options.collect {
                self.collected
                    .push(assignment.iter().map(|a| a.unwrap()).collect());
            }
            return self.options.limit.map(|l| self.emitted < l).unwrap_or(true);
        }
        let u = order[idx];
        let class = self.mapping_class[u.index()].expect("complete compressed embedding");
        // Singleton fast path: one candidate member, no clone.
        let members: &[VertexId] = match self.node_members[u.index()].get(&class) {
            Some(m) => m,
            None => &[],
        };
        let members: Vec<VertexId> = if members.len() == 1 {
            vec![members[0]]
        } else {
            members.to_vec()
        };
        for v in members {
            if used.contains(&v) {
                continue;
            }
            if !self.plan.satisfies_symmetry(u, v, assignment) {
                counters.symmetry_rejections += 1;
                continue;
            }
            assignment[u.index()] = Some(v);
            used.insert(v);
            let keep = self.expand_rec(idx + 1, assignment, used, counters);
            assignment[u.index()] = None;
            used.remove(&v);
            if !keep {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use ceci_graph::generators::{attach_pendants, erdos_renyi, kronecker_default};
    use ceci_graph::vid;
    use ceci_query::{PaperQuery, QueryGraph};

    #[test]
    fn twin_detection_pendants_and_cliques() {
        // Hub 0 with three pendant twins 1,2,3 plus a triangle module 4,5,6
        // all attached to 0.
        let g = ceci_graph::Graph::unlabeled(
            7,
            &[
                (vid(0), vid(1)),
                (vid(0), vid(2)),
                (vid(0), vid(3)),
                (vid(0), vid(4)),
                (vid(0), vid(5)),
                (vid(0), vid(6)),
                (vid(4), vid(5)),
                (vid(5), vid(6)),
                (vid(4), vid(6)),
            ],
        );
        let eq = VertexEquivalence::compute(&g);
        // Pendants 1,2,3 are independent twins; 4,5,6 are clique twins.
        let c1 = eq.class_of[1];
        assert_eq!(eq.class_of[2], c1);
        assert_eq!(eq.class_of[3], c1);
        assert_eq!(eq.kind[c1 as usize], TwinKind::Independent);
        let c4 = eq.class_of[4];
        assert_eq!(eq.class_of[5], c4);
        assert_eq!(eq.class_of[6], c4);
        assert_eq!(eq.kind[c4 as usize], TwinKind::Clique);
        assert_ne!(c1, c4);
        assert_eq!(eq.num_nontrivial_classes(), 2);
        assert_eq!(eq.compressed_vertices(), 6);
    }

    fn check_against_reference(graph: &ceci_graph::Graph, query: QueryGraph, ctx: &str) {
        let plan = QueryPlan::new(query, graph);
        let expected = reference::enumerate_all(graph, plan.query(), plan.symmetry_constraints());
        let result = enumerate_boosted(
            graph,
            &plan,
            &BoostOptions {
                collect: true,
                ..Default::default()
            },
        );
        assert_eq!(result.embeddings.unwrap(), expected, "{ctx}");
        // Compressed embeddings may over- or under-count concrete ones
        // (some expand to many, some — blocked by symmetry or injectivity —
        // to none), but a complete run must visit at least one compressed
        // embedding whenever concrete embeddings exist.
        if !expected.is_empty() {
            assert!(result.compressed_embeddings >= 1, "{ctx}");
        }
    }

    #[test]
    fn matches_reference_on_twin_heavy_graphs() {
        let core = kronecker_default(6, 4, 7);
        let graph = attach_pendants(&core, 60, 8);
        for q in PaperQuery::ALL {
            check_against_reference(&graph, q.build(), q.name());
        }
        check_against_reference(&graph, ceci_query::catalog::star(3), "star3");
        check_against_reference(&graph, ceci_query::catalog::path(4), "path4");
    }

    #[test]
    fn matches_reference_on_er() {
        let graph = erdos_renyi(50, 160, 5);
        for q in [PaperQuery::Qg1, PaperQuery::Qg3, PaperQuery::Qg5] {
            check_against_reference(&graph, q.build(), q.name());
        }
    }

    #[test]
    fn star_query_into_pendant_class() {
        // Star with 3 leaves matched into a hub with 5 pendant twins: all
        // leaves land in ONE class; expansion must produce P(5,3) = 60
        // injective assignments / |Aut fixes|... with symmetry breaking the
        // three leaves are interchangeable, so 5·4·3/3! = 10 embeddings.
        let mut edges = Vec::new();
        for i in 1..=5u32 {
            edges.push((vid(0), vid(i)));
        }
        let graph = ceci_graph::Graph::unlabeled(6, &edges);
        let plan = QueryPlan::new(ceci_query::catalog::star(3), &graph);
        let expected = reference::enumerate_all(&graph, plan.query(), plan.symmetry_constraints());
        assert_eq!(expected.len(), 10);
        let result = enumerate_boosted(&graph, &plan, &BoostOptions::default());
        assert_eq!(result.total_embeddings, 10);
        // One compressed embedding covers all ten concrete ones.
        assert_eq!(result.compressed_embeddings, 1);
    }

    #[test]
    fn limit_respected() {
        let core = kronecker_default(6, 4, 9);
        let graph = attach_pendants(&core, 40, 10);
        let plan = QueryPlan::new(PaperQuery::Qg1.build(), &graph);
        let all = enumerate_boosted(&graph, &plan, &BoostOptions::default()).total_embeddings;
        if all >= 3 {
            let result = enumerate_boosted(
                &graph,
                &plan,
                &BoostOptions {
                    limit: Some(3),
                    collect: true,
                },
            );
            assert_eq!(result.total_embeddings, 3);
            assert_eq!(result.embeddings.unwrap().len(), 3);
        }
    }
}
