//! CECI creation and BFS-based filtering — Algorithm 1 (§3.2).
//!
//! Phase A walks the query tree in matching order, expanding each node's
//! frontier (the parent's surviving candidates) through the label (LF),
//! degree (DF), and neighborhood-label-count (NLCF) filters to fill the
//! TE_Candidates tables. A frontier vertex whose expansion comes up empty is
//! removed from the parent's candidate set and from the already-built tables
//! of the parent's other children (Algorithm 1 lines 9–12).
//!
//! Whether `v` passes LF ∧ DF ∧ NLCF for `u` is a fact about `(u, v)`
//! alone, and §2.2 preprocessing has already established it for every pair:
//! it is membership in the plan's initial candidate set of `u`. So the
//! per-adjacency-entry test here is one bit of
//! [`ceci_query::candidates::CandidateSet`] — no filter runs during the
//! build, and the bitsets, living with the plan, are paid for once however
//! many (full or per-pivot) builds read them. The plan's sets must
//! therefore describe `graph` ([`QueryPlan::describes`]); the served entry
//! points in [`crate::index`] assert it.
//!
//! Phase B builds the NTE_Candidates tables for every backward non-tree
//! edge the same way, keyed by the NTE parent's surviving candidates, with
//! the same empty-entry cascade.
//!
//! Each table's frontier is filtered on the calling thread, straight into
//! the table's value arena ([`BuildTable::push_key_with`], zero staging
//! copies), as the paper's filtering phase runs on one core (Fig 15, §6.6).
//!
//! A node's candidate set is its TE table's value union, read off the table
//! ([`BuilderState::candidates_of`]). A table's dense maps span only its
//! ids, the frontier's and the node's [`CandidateSet`]'s, so that read costs
//! the candidate span, not the largest vertex id.

use ceci_graph::{Graph, VertexId};
use ceci_query::candidates::CandidateSet;
use ceci_query::QueryPlan;

use crate::tables::{retain_absent, BuildTable};

/// Mutable CECI under construction: pivots plus per-node TE/NTE tables.
#[derive(Debug)]
pub struct BuilderState {
    /// Surviving candidates of the root (cluster pivots), sorted.
    pub pivots: Vec<VertexId>,
    /// `te[u]` — TE table of non-root query node `u`, keyed by candidates of
    /// its tree parent. `None` for the root.
    pub te: Vec<Option<BuildTable>>,
    /// `nte[u]` — one `(nte_parent, table)` per backward non-tree edge of `u`.
    pub nte: Vec<Vec<(VertexId, BuildTable)>>,
}

impl BuilderState {
    /// Candidate set of query node `u`, sorted: the pivots for the root,
    /// otherwise the value union of its TE table.
    pub fn candidates_of(&self, plan: &QueryPlan, u: VertexId) -> Vec<VertexId> {
        match &self.te[u.index()] {
            Some(table) => table.value_union(),
            None => {
                debug_assert_eq!(u, plan.root(), "non-root nodes have TE tables");
                self.pivots.clone()
            }
        }
    }

    /// Total TE candidate-edge entries.
    pub fn te_entries(&self) -> usize {
        self.te.iter().flatten().map(|t| t.num_entries()).sum()
    }

    /// Total NTE candidate-edge entries.
    pub fn nte_entries(&self) -> usize {
        self.nte
            .iter()
            .flat_map(|v| v.iter())
            .map(|(_, t)| t.num_entries())
            .sum()
    }

    /// Removes the sorted `gone` from the candidate set of query node `u`,
    /// cascading into every *already built* table keyed by `u`'s candidates
    /// (TE tables of `u`'s tree children, NTE tables whose parent is `u`),
    /// one pass over each table. A removal touches only values equal to a
    /// removed vertex and lists keyed by one, so a set removed at once leaves
    /// what its vertices removed one by one leave.
    pub fn remove_candidates(&mut self, plan: &QueryPlan, u: VertexId, gone: &[VertexId]) {
        // Only the root has no TE table; its set is the pivots.
        match self.te[u.index()].as_mut() {
            Some(table) => table.remove_values(gone),
            None => {
                let kept = retain_absent(&mut self.pivots, gone);
                self.pivots.truncate(kept);
            }
        }
        for (_, table) in self.nte[u.index()].iter_mut() {
            table.remove_values(gone);
        }
        for &uc in plan.tree().children(u) {
            if let Some(child) = self.te[uc.index()].as_mut() {
                child.remove_keys(gone);
            }
        }
        for &uf in plan.forward_nte(u) {
            for (parent, table) in self.nte[uf.index()].iter_mut() {
                if *parent == u {
                    table.remove_keys(gone);
                }
            }
        }
    }
}

/// Runs Algorithm 1: seeds the pivots from the plan's initial root
/// candidates and fills all TE tables in matching order, then all backward
/// NTE tables. Returns the builder state.
pub fn bfs_filter(graph: &Graph, plan: &QueryPlan) -> BuilderState {
    bfs_filter_from(graph, plan, plan.initial_candidates(plan.root()).to_vec()).0
}

/// Runs Algorithm 1 from an explicit pivot set — used by the distributed
/// simulation, where each machine indexes only its assigned embedding
/// clusters (§5). `pivots` must be sorted and a subset of the root's
/// initial candidates. Returns the builder state and the summed degree of
/// every table's frontier ([`crate::BuildStats::filter_scans`]).
pub fn bfs_filter_from(
    graph: &Graph,
    plan: &QueryPlan,
    pivots: Vec<VertexId>,
) -> (BuilderState, u64) {
    debug_assert!(
        pivots.windows(2).all(|w| w[0] < w[1]),
        "pivots must be sorted"
    );
    let n = plan.query().num_vertices();
    let mut state = BuilderState {
        pivots,
        te: (0..n).map(|_| None).collect(),
        nte: vec![Vec::new(); n],
    };
    let mut scans = 0;
    let sets = plan.candidate_sets();

    // Phase A: TE tables in matching order (root skipped).
    for &u in plan.matching_order().iter().skip(1) {
        let up = plan
            .tree()
            .parent(u)
            .expect("non-root nodes have tree parents");
        let frontier = state.candidates_of(plan, up);
        let (table, emptied) = fill_table(graph, &sets[u.index()], &frontier, &mut scans);
        state.te[u.index()] = Some(table);
        state.remove_candidates(plan, up, &emptied);
    }

    // Phase B: NTE tables in matching order.
    for &u in plan.matching_order().iter() {
        for &un in plan.backward_nte(u) {
            let frontier = state.candidates_of(plan, un);
            let (table, emptied) = fill_table(graph, &sets[u.index()], &frontier, &mut scans);
            state.nte[u.index()].push((un, table));
            state.remove_candidates(plan, un, &emptied);
        }
    }
    (state, scans)
}

/// Expands one table's frontier — `set` is the candidate set of the node
/// the table is for — filtering every frontier vertex straight into the
/// table arena, and adds the frontier's summed degree to `scans`. Returns
/// the filled table and the emptied frontier vertices in frontier
/// (ascending) order.
fn fill_table(
    graph: &Graph,
    set: &CandidateSet,
    frontier: &[VertexId],
    scans: &mut u64,
) -> (BuildTable, Vec<VertexId>) {
    *scans += frontier
        .iter()
        .map(|&vf| graph.degree(vf) as u64)
        .sum::<u64>();
    let mut table = BuildTable::new(frontier, &set.candidates);
    let mut emptied: Vec<VertexId> = Vec::new();
    for &vf in frontier {
        let written = table.push_key_with(vf, |arena| {
            filter_into(graph, set, vf, arena);
        });
        if written == 0 {
            emptied.push(vf);
        }
    }
    (table, emptied)
}

/// Appends the neighbors of `vf` that are candidates of the table's node —
/// i.e. pass LF, DF and NLCF for it — to `out`. Only the span of `vf`'s list
/// between the set's first and last candidate is read, and each entry there
/// is still bit-tested. Under label-major ids
/// ([`ceci_graph::rank_by_label_and_degree`]) a single-labeled child's
/// candidates lie in its label's id range, so the span is the neighbours
/// carrying that label; under any numbering it holds every candidate
/// neighbour. Appended values are sorted because adjacency lists are sorted
/// and filtering preserves order.
#[inline]
fn filter_into(graph: &Graph, set: &CandidateSet, vf: VertexId, out: &mut Vec<VertexId>) {
    let (Some(&first), Some(&last)) = (set.candidates.first(), set.candidates.last()) else {
        return;
    };
    let list = graph.neighbors(vf);
    let lo = list.partition_point(|&v| v < first);
    let hi = lo + list[lo..].partition_point(|&v| v <= last);
    out.extend(list[lo..hi].iter().copied().filter(|&v| set.contains(v)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::paper;
    use ceci_graph::vid;

    #[test]
    fn paper_te_tables_after_filtering() {
        let (graph, plan) = paper::figure1();
        let state = bfs_filter(&graph, &plan);
        // Pivots: v2 removed by the cascade (te[u3][v2] empty after NLCF
        // prunes v8) → only v1 survives.
        assert_eq!(state.pivots, vec![paper::v(1)]);
        // te[u2]: <v1, {v3, v5, v7}> (key v2 cascaded away).
        let te_u2 = state.te[paper::u(2).index()].as_ref().unwrap();
        assert_eq!(
            te_u2.get(paper::v(1)),
            Some(&[paper::v(3), paper::v(5), paper::v(7)][..])
        );
        assert_eq!(te_u2.get(paper::v(2)), None);
        // te[u3]: <v1, {v4, v6}>.
        let te_u3 = state.te[paper::u(3).index()].as_ref().unwrap();
        assert_eq!(
            te_u3.get(paper::v(1)),
            Some(&[paper::v(4), paper::v(6)][..])
        );
        assert_eq!(te_u3.get(paper::v(2)), None);
        // te[u4]: <v3,{v11}>, <v5,{v13}>, <v7,{v15}>.
        let te_u4 = state.te[paper::u(4).index()].as_ref().unwrap();
        assert_eq!(te_u4.get(paper::v(3)), Some(&[paper::v(11)][..]));
        assert_eq!(te_u4.get(paper::v(5)), Some(&[paper::v(13)][..]));
        assert_eq!(te_u4.get(paper::v(7)), Some(&[paper::v(15)][..]));
        // te[u5]: <v4,{v12}>, <v6,{v14}>.
        let te_u5 = state.te[paper::u(5).index()].as_ref().unwrap();
        assert_eq!(te_u5.get(paper::v(4)), Some(&[paper::v(12)][..]));
        assert_eq!(te_u5.get(paper::v(6)), Some(&[paper::v(14)][..]));
    }

    #[test]
    fn paper_nte_tables_after_filtering() {
        let (graph, plan) = paper::figure1();
        let state = bfs_filter(&graph, &plan);
        // nte[u3] (parent u2): <v3,{v4}>, <v5,{v4,v6}>, <v7,{v6}> — v8 pruned
        // by NLCF.
        let nte_u3 = &state.nte[paper::u(3).index()];
        assert_eq!(nte_u3.len(), 1);
        assert_eq!(nte_u3[0].0, paper::u(2));
        let t = &nte_u3[0].1;
        assert_eq!(t.get(paper::v(3)), Some(&[paper::v(4)][..]));
        assert_eq!(t.get(paper::v(5)), Some(&[paper::v(4), paper::v(6)][..]));
        assert_eq!(t.get(paper::v(7)), Some(&[paper::v(6)][..]));
        // nte[u4] (parent u3): <v4,{v11}>, <v6,{v13}>.
        let nte_u4 = &state.nte[paper::u(4).index()];
        assert_eq!(nte_u4.len(), 1);
        assert_eq!(nte_u4[0].0, paper::u(3));
        let t = &nte_u4[0].1;
        assert_eq!(t.get(paper::v(4)), Some(&[paper::v(11)][..]));
        assert_eq!(t.get(paper::v(6)), Some(&[paper::v(13)][..]));
    }

    #[test]
    fn candidate_sets_match_paper() {
        let (graph, plan) = paper::figure1();
        let state = bfs_filter(&graph, &plan);
        assert_eq!(
            state.candidates_of(&plan, paper::u(2)),
            &[paper::v(3), paper::v(5), paper::v(7)]
        );
        assert_eq!(
            state.candidates_of(&plan, paper::u(3)),
            &[paper::v(4), paper::v(6)]
        );
        assert_eq!(
            state.candidates_of(&plan, paper::u(4)),
            &[paper::v(11), paper::v(13), paper::v(15)]
        );
        assert_eq!(
            state.candidates_of(&plan, paper::u(5)),
            &[paper::v(12), paper::v(14)]
        );
    }

    #[test]
    fn entry_counts() {
        let (graph, plan) = paper::figure1();
        let state = bfs_filter(&graph, &plan);
        // TE: u2:3 + u3:2 + u4:3 + u5:2 = 10
        assert_eq!(state.te_entries(), 10);
        // NTE: u3:4 + u4:2 = 6
        assert_eq!(state.nte_entries(), 6);
    }

    #[test]
    fn single_vertex_query_only_pivots() {
        let graph = ceci_graph::Graph::unlabeled(3, &[(vid(0), vid(1))]);
        let query = ceci_query::QueryGraph::unlabeled(1, &[]).unwrap();
        let plan = QueryPlan::new(query, &graph);
        let state = bfs_filter(&graph, &plan);
        assert_eq!(state.pivots.len(), 3);
        assert_eq!(state.te_entries(), 0);
    }

    /// A hub (file 0, label 1) adjacent to every other vertex: 1 and 2 of
    /// label 0, 3 and 4 of label 1, 5 and 6 of label 2, and 7 carrying
    /// {0, 2}; plus edges 1-2 and 5-6. Ranked label-major, the ranks are
    /// class 0 {1→0, 2→1}, class 1 {3→2, 4→3, hub→4}, class 2 {5→5, 6→6}
    /// and the multi-labeled class {7→7}.
    fn hub_graph() -> Graph {
        use ceci_graph::{lid, LabelSet};
        let mut labels: Vec<LabelSet> = [1, 0, 0, 1, 1, 2, 2]
            .iter()
            .map(|&l| LabelSet::single(lid(l)))
            .collect();
        labels.push(LabelSet::from_labels([lid(0), lid(2)]));
        let mut edges: Vec<_> = (1..8).map(|v| (vid(0), vid(v))).collect();
        edges.extend([(vid(1), vid(2)), (vid(5), vid(6))]);
        ceci_graph::rank_by_label_and_degree(&Graph::new(labels, &edges, false)).0
    }

    /// The candidate set of node 0 of a query with these labels and edges.
    fn set_of(graph: &Graph, labels: &[u32], edges: &[(u32, u32)]) -> CandidateSet {
        let labels: Vec<_> = labels.iter().map(|&l| ceci_graph::lid(l)).collect();
        let query = ceci_query::QueryGraph::with_labels(&labels, edges).unwrap();
        ceci_query::candidates::compute_candidates(&query, graph).swap_remove(0)
    }

    fn sliced(graph: &Graph, set: &CandidateSet, vf: VertexId) -> Vec<VertexId> {
        let mut out = Vec::new();
        filter_into(graph, set, vf, &mut out);
        out
    }

    fn whole_list(graph: &Graph, set: &CandidateSet, vf: VertexId) -> Vec<VertexId> {
        let list = graph.neighbors(vf).iter().copied();
        list.filter(|&v| set.contains(v)).collect()
    }

    #[test]
    fn an_empty_candidate_list_reads_nothing() {
        let graph = hub_graph();
        // No label-2 vertex has three neighbours.
        let set = set_of(&graph, &[2, 0, 0, 0], &[(0, 1), (0, 2), (0, 3)]);
        assert!(set.candidates.is_empty());
        let mut out = vec![vid(9)];
        for v in graph.vertices() {
            filter_into(&graph, &set, v, &mut out);
        }
        assert_eq!(out, [vid(9)], "appends nothing, keeps what was there");
    }

    #[test]
    fn a_span_past_either_end_of_a_list_keeps_every_candidate() {
        let graph = hub_graph();
        let label_1 = set_of(&graph, &[1], &[]);
        assert_eq!(label_1.candidates, [vid(2), vid(3), vid(4)]);
        // Rank 5's list [4, 6]: the span [2, 4] starts below it and ends
        // inside it.
        assert_eq!(sliced(&graph, &label_1, vid(5)), [vid(4)]);
        // Rank 7's list [4]: the span holds the whole list.
        assert_eq!(sliced(&graph, &label_1, vid(7)), [vid(4)]);
        // Label 0 with a label-0 neighbour: ranks 0 and 1, a span entirely
        // below rank 5's list [4, 6]; label 2, a span entirely above rank
        // 0's list [1, 4].
        let low = set_of(&graph, &[0, 0], &[(0, 1)]);
        assert_eq!(low.candidates, [vid(0), vid(1)]);
        assert!(sliced(&graph, &low, vid(5)).is_empty());
        let label_2 = set_of(&graph, &[2], &[]);
        assert!(sliced(&graph, &label_2, vid(0)).is_empty());
        for set in [&label_1, &low, &label_2] {
            for v in graph.vertices() {
                assert_eq!(
                    sliced(&graph, set, v),
                    whole_list(&graph, set, v),
                    "rank {v}"
                );
            }
        }
    }

    #[test]
    fn a_hub_list_crossing_every_class_yields_each_labels_neighbours() {
        let graph = hub_graph();
        let hub = vid(4);
        assert_eq!(
            graph.neighbors(hub),
            [0, 1, 2, 3, 5, 6, 7].map(vid),
            "the hub's list crosses every class"
        );
        // Label 0's span runs from class 0 to the multi-labeled class, so
        // its bit test drops the classes in between.
        for (label, want) in [(0, vec![0, 1, 7]), (1, vec![2, 3]), (2, vec![5, 6, 7])] {
            let set = set_of(&graph, &[label], &[]);
            let want: Vec<_> = want.into_iter().map(vid).collect();
            assert_eq!(sliced(&graph, &set, hub), want, "label {label}");
            assert_eq!(whole_list(&graph, &set, hub), want, "label {label}");
        }
    }
}
