//! The Compact Embedding Cluster Index (§3).
//!
//! [`Ceci`] is the frozen result of BFS filtering (Algorithm 1) plus
//! reverse-BFS refinement (Algorithm 2): per query node, a compact
//! TE_Candidates table keyed by the tree parent's candidates, one compact
//! NTE_Candidates table per backward non-tree edge, the per-(u, v)
//! cardinalities, and the surviving cluster pivots. Size accounting matches
//! the paper's 8-bytes-per-candidate-edge convention (Table 2).

use std::sync::Arc;
use std::time::{Duration, Instant};

use ceci_graph::{Graph, VertexId};
use ceci_query::candidates::CandidateSet;
use ceci_query::QueryPlan;

use crate::enumerate::LeafMode;
use crate::filter::{bfs_filter_from, BuilderState};
use crate::memo::CleanCut;
use crate::refine::reverse_bfs_refine;
use crate::tables::CompactTable;
use crate::twins::TwinTail;

/// Options controlling CECI construction — the Figure 19 ablation toggles.
#[derive(Clone, Copy, Debug)]
pub struct BuildOptions {
    /// Build NTE_Candidates tables (enables intersection-based enumeration).
    /// When off, enumeration must verify non-tree edges against the graph.
    pub build_nte: bool,
    /// Run reverse-BFS refinement removals. Cardinalities are computed
    /// either way (the workload balancer needs them).
    pub refine: bool,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            build_nte: true,
            refine: true,
        }
    }
}

/// Per-stage statistics of one CECI build.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildStats {
    /// Initial root candidates (pivots before any cascade).
    pub pivots_initial: usize,
    /// Pivots surviving filtering + refinement.
    pub pivots_final: usize,
    /// TE candidate edges after BFS filtering.
    pub te_entries_after_filter: usize,
    /// NTE candidate edges after BFS filtering.
    pub nte_entries_after_filter: usize,
    /// TE candidate edges after refinement.
    pub te_entries_after_refine: usize,
    /// NTE candidate edges after refinement.
    pub nte_entries_after_refine: usize,
    /// Wall time of Algorithm 1 (frontier filtering + cascade).
    pub filter_time: Duration,
    /// Wall time of Algorithm 2.
    pub refine_time: Duration,
    /// The summed degree of every Algorithm 1 frontier — the build's work
    /// as an exact, replayable count. Not the adjacency entries tested: the
    /// filter reads only the span of each list that holds the child's
    /// candidates.
    pub filter_scans: u64,
    /// Final index heap bytes.
    pub size_bytes: usize,
    /// The paper's theoretical bound `|E_q| × |E_g| × 8` bytes (Table 2).
    pub theoretical_bytes: u64,
}

impl BuildStats {
    /// Fraction of the theoretical size saved by filtering + refinement
    /// (the bracketed percentage of Table 2).
    pub fn percent_saved(&self) -> f64 {
        if self.theoretical_bytes == 0 {
            return 0.0;
        }
        let actual = (self.te_entries_after_refine + self.nte_entries_after_refine) as f64 * 8.0;
        (1.0 - actual / self.theoretical_bytes as f64).max(0.0) * 100.0
    }
}

/// The frozen Compact Embedding Cluster Index.
#[derive(Clone, Debug)]
pub struct Ceci {
    /// `(pivot, cluster cardinality)` sorted by pivot id.
    pivots: Vec<(VertexId, u64)>,
    te: Vec<Option<CompactTable>>,
    nte: Vec<Vec<(VertexId, CompactTable)>>,
    /// Final sorted candidate list per query node.
    candidates: Vec<Vec<VertexId>>,
    /// `(candidate, cardinality)` per query node, sorted by candidate.
    cardinality: Vec<Vec<(VertexId, u64)>>,
    /// The building plan's candidate sets (its own allocation, shared), so
    /// they describe the indexed graph.
    sets: Arc<[CandidateSet]>,
    /// The plan's twin tail, confirmed on the frozen tables.
    twins: Option<TwinTail>,
    /// The plan's shallowest clean cut, confirmed on the candidate sets.
    cut: Option<CleanCut>,
    stats: BuildStats,
}

impl Ceci {
    /// Builds CECI for `(graph, plan)` with default options.
    ///
    /// # Examples
    ///
    /// ```
    /// use ceci_core::Ceci;
    /// use ceci_graph::{vid, Graph};
    /// use ceci_query::{PaperQuery, QueryPlan};
    ///
    /// // Two triangles sharing an edge.
    /// let graph = Graph::unlabeled(4, &[
    ///     (vid(0), vid(1)), (vid(1), vid(2)), (vid(2), vid(0)),
    ///     (vid(1), vid(3)), (vid(2), vid(3)),
    /// ]);
    /// let plan = QueryPlan::new(PaperQuery::Qg1.build(), &graph);
    /// let ceci = Ceci::build(&graph, &plan);
    /// assert_eq!(ceci_core::count_embeddings(&graph, &plan, &ceci), 2);
    /// ```
    pub fn build(graph: &Graph, plan: &QueryPlan) -> Ceci {
        Ceci::build_with(graph, plan, BuildOptions::default())
    }

    /// Builds CECI with explicit ablation options.
    pub fn build_with(graph: &Graph, plan: &QueryPlan, options: BuildOptions) -> Ceci {
        Ceci::build_for_pivots(
            graph,
            plan,
            options,
            plan.initial_candidates(plan.root()).to_vec(),
        )
    }

    /// Builds CECI restricted to a subset of the root's candidates — one
    /// index per machine in the distributed setting (§5). Only embeddings
    /// whose root maps into `pivots` are indexed/enumerable.
    ///
    /// Like [`Ceci::build`] and [`Ceci::build_with`], which end here, this
    /// takes every per-vertex verdict from `plan`'s candidate sets, so they
    /// must describe `graph` ([`QueryPlan::describes`], checked in debug
    /// builds): a plan carried over from another snapshot goes through
    /// [`QueryPlan::on_graph`] first. `pivots` are the caller's business —
    /// any sorted set of data vertices is indexed as given.
    pub fn build_for_pivots(
        graph: &Graph,
        plan: &QueryPlan,
        options: BuildOptions,
        pivots: Vec<VertexId>,
    ) -> Ceci {
        debug_assert!(
            plan.describes(graph),
            "the plan's candidate sets were computed on another graph; \
             rebuild them with QueryPlan::on_graph"
        );
        let mut stats = BuildStats {
            pivots_initial: pivots.len(),
            theoretical_bytes: plan.query().num_edges() as u64 * graph.num_edges() as u64 * 8,
            ..Default::default()
        };

        let t0 = Instant::now();
        let (mut state, filter_scans) = bfs_filter_from(graph, plan, pivots);
        if !options.build_nte {
            for tables in &mut state.nte {
                tables.clear();
            }
        }
        stats.filter_time = t0.elapsed();
        stats.filter_scans = filter_scans;
        stats.te_entries_after_filter = state.te_entries();
        stats.nte_entries_after_filter = state.nte_entries();

        let t1 = Instant::now();
        let cards = reverse_bfs_refine(plan, &mut state, options.refine);
        stats.refine_time = t1.elapsed();

        // Drop keys that are no longer candidates of their key-side node —
        // value removals at a parent can leave stale keys in child tables
        // that refinement (which runs children-first) never revisits.
        let n = plan.query().num_vertices();
        let candidate_sets: Vec<Vec<VertexId>> = plan
            .query()
            .vertices()
            .map(|u| state.candidates_of(plan, u))
            .collect();
        for u in plan.query().vertices() {
            if let Some(p) = plan.tree().parent(u) {
                prune_stale_keys(
                    state.te[u.index()].as_mut().expect("non-root has TE"),
                    &candidate_sets[p.index()],
                );
            }
            for (un, table) in state.nte[u.index()].iter_mut() {
                prune_stale_keys(table, &candidate_sets[un.index()]);
            }
        }
        stats.te_entries_after_refine = state.te_entries();
        stats.nte_entries_after_refine = state.nte_entries();

        let root = plan.root();
        let BuilderState { pivots, te, nte } = state;
        let pivots: Vec<(VertexId, u64)> = pivots
            .into_iter()
            .map(|v| (v, cards.get(root, v)))
            .collect();
        stats.pivots_final = pivots.len();

        // Freezing consumes each build table: when refinement left no holes
        // in an arena, the value storage moves into the compact form without
        // a copy.
        let te: Vec<Option<CompactTable>> = te.into_iter().map(|t| t.map(|t| t.freeze())).collect();
        let nte: Vec<Vec<(VertexId, CompactTable)>> = nte
            .into_iter()
            .map(|tables| tables.into_iter().map(|(un, t)| (un, t.freeze())).collect())
            .collect();
        let cardinality: Vec<Vec<(VertexId, u64)>> =
            (0..n).map(|i| cards.of_node(VertexId(i as u32))).collect();
        let twins = TwinTail::of(plan).filter(|tail| tail.tables_agree(plan, &te, &nte));
        let reach = LeafMode::pruned(plan, twins).reach(plan.matching_order().len());
        let cut = CleanCut::find(plan, &candidate_sets, reach);

        let mut ceci = Ceci {
            pivots,
            te,
            nte,
            candidates: candidate_sets,
            cardinality,
            sets: Arc::clone(plan.candidate_sets()),
            twins,
            cut,
            stats,
        };
        ceci.stats.size_bytes = ceci.size_bytes();
        ceci
    }

    /// Surviving cluster pivots with their cluster cardinalities, sorted by
    /// pivot id.
    #[inline]
    pub fn pivots(&self) -> &[(VertexId, u64)] {
        &self.pivots
    }

    /// TE table of `u` (`None` for the root).
    #[inline]
    pub fn te(&self, u: VertexId) -> Option<&CompactTable> {
        self.te[u.index()].as_ref()
    }

    /// Backward NTE tables of `u` as `(nte_parent, table)` pairs, ordered by
    /// the NTE parent's matching-order position.
    #[inline]
    pub fn nte(&self, u: VertexId) -> &[(VertexId, CompactTable)] {
        &self.nte[u.index()]
    }

    /// Final candidate set of `u`, sorted.
    #[inline]
    pub fn candidates(&self, u: VertexId) -> &[VertexId] {
        &self.candidates[u.index()]
    }

    /// Cardinality of `(u, v)`; 0 for pruned candidates.
    pub fn cardinality(&self, u: VertexId, v: VertexId) -> u64 {
        let list = &self.cardinality[u.index()];
        match list.binary_search_by_key(&v, |&(c, _)| c) {
            Ok(i) => list[i].1,
            Err(_) => 0,
        }
    }

    /// Sum of cluster cardinalities — the index's upper bound on total
    /// embeddings.
    pub fn total_cardinality(&self) -> u64 {
        self.pivots
            .iter()
            .fold(0u64, |acc, &(_, c)| acc.saturating_add(c))
    }

    /// The per-vertex candidate sets (LF ∧ DF ∧ NLCF) of the graph this
    /// index was built on — the building plan's, kept so a later snapshot's
    /// can be patched from them ([`QueryPlan::on_graph_patched`]).
    #[inline]
    pub fn candidate_sets(&self) -> &[CandidateSet] {
        &self.sets
    }

    /// The building plan's twin tail ([`TwinTail::of`]) when the twins'
    /// TE and NTE tables came out equal, so one gather serves them all
    /// (checked once here, never per request); `None` otherwise.
    #[inline]
    pub fn twin_tail(&self) -> Option<TwinTail> {
        self.twins
    }

    /// The shallowest clean cut ([`CleanCut`]) at or above the last
    /// depth a count-only `prune_redundant` search reaches under this
    /// index's leaf mode: where such a drain memoises its sub-counts.
    /// Checked once here, never per request; `None` when no cut is clean.
    #[inline]
    pub fn clean_cut(&self) -> Option<&CleanCut> {
        self.cut.as_ref()
    }

    /// Build statistics.
    #[inline]
    pub fn stats(&self) -> &BuildStats {
        &self.stats
    }

    /// Total candidate-edge entries currently stored (TE + NTE).
    pub fn num_entries(&self) -> usize {
        let te: usize = self.te.iter().flatten().map(|t| t.num_entries()).sum();
        let nte: usize = self
            .nte
            .iter()
            .flat_map(|v| v.iter())
            .map(|(_, t)| t.num_entries())
            .sum();
        te + nte
    }

    /// Heap bytes held by the frozen index. Length-based (not
    /// capacity-based), so the figure is exact and identical across build
    /// histories — a parallel and a sequential build of the same index
    /// report the same bytes.
    pub fn size_bytes(&self) -> usize {
        let te: usize = self.te.iter().flatten().map(|t| t.size_bytes()).sum();
        let nte: usize = self
            .nte
            .iter()
            .flat_map(|v| v.iter())
            .map(|(_, t)| t.size_bytes())
            .sum();
        let cands: usize = self
            .candidates
            .iter()
            .map(|c| c.len() * std::mem::size_of::<VertexId>())
            .sum();
        let cards: usize = self
            .cardinality
            .iter()
            .map(|c| c.len() * std::mem::size_of::<(VertexId, u64)>())
            .sum();
        let pivots = self.pivots.len() * std::mem::size_of::<(VertexId, u64)>();
        te + nte + cands + cards + pivots
    }
}

fn prune_stale_keys(table: &mut crate::tables::BuildTable, valid_keys: &[VertexId]) {
    let stale: Vec<VertexId> = table
        .iter()
        .map(|(k, _)| k)
        .filter(|k| valid_keys.binary_search(k).is_err())
        .collect();
    table.remove_keys(&stale);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::paper;

    fn built() -> (Graph, QueryPlan, Ceci) {
        let (graph, plan) = paper::figure1();
        let ceci = Ceci::build(&graph, &plan);
        (graph, plan, ceci)
    }

    #[test]
    fn figure3c_final_tables() {
        let (_, _, ceci) = built();
        // Pivot v1 with cardinality 4.
        assert_eq!(ceci.pivots(), &[(paper::v(1), 4)]);
        assert_eq!(ceci.total_cardinality(), 4);
        // te[u2] = <v1, {v3, v5}> (v7 refined away).
        let te_u2 = ceci.te(paper::u(2)).unwrap();
        assert_eq!(
            te_u2.get(paper::v(1)),
            Some(&[paper::v(3), paper::v(5)][..])
        );
        assert_eq!(te_u2.num_entries(), 2);
        // te[u4]: keys v3, v5 only (v7's key became stale and was pruned).
        let te_u4 = ceci.te(paper::u(4)).unwrap();
        assert_eq!(te_u4.get(paper::v(3)), Some(&[paper::v(11)][..]));
        assert_eq!(te_u4.get(paper::v(5)), Some(&[paper::v(13)][..]));
        assert_eq!(te_u4.get(paper::v(7)), None);
        // nte[u3]: v7 entry removed.
        let (un, nte_u3) = &ceci.nte(paper::u(3))[0];
        assert_eq!(*un, paper::u(2));
        assert_eq!(nte_u3.get(paper::v(7)), None);
        assert_eq!(nte_u3.num_keys(), 2);
    }

    #[test]
    fn final_candidate_sets() {
        let (_, _, ceci) = built();
        assert_eq!(ceci.candidates(paper::u(1)), &[paper::v(1)]);
        assert_eq!(ceci.candidates(paper::u(2)), &[paper::v(3), paper::v(5)]);
        assert_eq!(ceci.candidates(paper::u(3)), &[paper::v(4), paper::v(6)]);
        assert_eq!(ceci.candidates(paper::u(4)), &[paper::v(11), paper::v(13)]);
        assert_eq!(ceci.candidates(paper::u(5)), &[paper::v(12), paper::v(14)]);
    }

    #[test]
    fn a_build_keeps_its_plans_candidate_sets_without_a_copy() {
        let (_, plan, ceci) = built();
        assert!(std::ptr::eq(
            ceci.candidate_sets(),
            &**plan.candidate_sets()
        ));
    }

    #[test]
    fn cardinality_lookup() {
        let (_, _, ceci) = built();
        assert_eq!(ceci.cardinality(paper::u(1), paper::v(1)), 4);
        assert_eq!(ceci.cardinality(paper::u(2), paper::v(3)), 1);
        assert_eq!(ceci.cardinality(paper::u(2), paper::v(7)), 0);
        assert_eq!(ceci.cardinality(paper::u(4), paper::v(15)), 0);
    }

    #[test]
    fn stats_track_stage_sizes() {
        let (_, _, ceci) = built();
        let s = ceci.stats();
        assert_eq!(s.pivots_initial, 2);
        assert_eq!(s.pivots_final, 1);
        assert_eq!(s.te_entries_after_filter, 10);
        assert_eq!(s.nte_entries_after_filter, 6);
        // Refinement removes v15 (from te[u4]) and v7 (from te[u2]) — two
        // value entries (10 → 8) — and the <v7,{v6}> NTE entry of u3 (6 → 5).
        // The emptied v7 key of te[u4] holds no entries, so pruning it does
        // not change the count.
        assert_eq!(s.te_entries_after_refine, 8);
        assert_eq!(s.nte_entries_after_refine, 5);
        assert!(s.size_bytes > 0);
        assert_eq!(s.theoretical_bytes, 6 * 24 * 8);
        assert!(s.percent_saved() > 0.0);
    }

    #[test]
    fn no_nte_option_drops_tables() {
        let (graph, plan) = paper::figure1();
        let ceci = Ceci::build_with(
            &graph,
            &plan,
            BuildOptions {
                build_nte: false,
                refine: true,
            },
        );
        for u in plan.query().vertices() {
            assert!(ceci.nte(u).is_empty());
        }
        // Without NTE membership checks v15 survives refinement (it has no
        // tree children, so its product is the empty product 1).
        assert_eq!(ceci.cardinality(paper::u(4), paper::v(15)), 1);
    }

    #[test]
    fn no_refine_option_keeps_entries() {
        let (graph, plan) = paper::figure1();
        let ceci = Ceci::build_with(
            &graph,
            &plan,
            BuildOptions {
                build_nte: true,
                refine: false,
            },
        );
        let s = ceci.stats();
        assert_eq!(s.te_entries_after_refine, s.te_entries_after_filter);
        // Cardinalities still expose the dead candidates as 0.
        assert_eq!(ceci.cardinality(paper::u(4), paper::v(15)), 0);
        assert_eq!(ceci.cardinality(paper::u(2), paper::v(7)), 0);
    }

    #[test]
    fn size_accounting_consistent() {
        let (_, _, ceci) = built();
        assert_eq!(ceci.stats().size_bytes, ceci.size_bytes());
        assert_eq!(
            ceci.num_entries(),
            ceci.stats().te_entries_after_refine + ceci.stats().nte_entries_after_refine
        );
    }
}
