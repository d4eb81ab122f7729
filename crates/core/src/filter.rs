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
//! many (per-pivot, pilot, parallel) builds read them. The plan's sets must
//! therefore describe `graph` ([`QueryPlan::describes`]); the served entry
//! points in [`crate::index`] assert it.
//!
//! Phase B builds the NTE_Candidates tables for every backward non-tree
//! edge the same way, keyed by the NTE parent's surviving candidates, with
//! the same empty-entry cascade.
//!
//! # Parallel construction
//!
//! Each table's frontier expansion is embarrassingly parallel: the filtered
//! neighborhood of frontier vertex `vf` depends only on the immutable data
//! graph, never on other frontier vertices. [`bfs_filter_from_with`] fans
//! each frontier out across a scoped worker pool
//! ([`crate::parallel::scoped_workers`]): the frontier is split into
//! contiguous chunks, worker `w` filters chunks `w, w+threads, …` into a
//! private arena (static stride — the work split is independent of OS
//! scheduling), and a deterministic merge stitches the chunk runs back
//! **in chunk order** — which is frontier order — via
//! [`BuildTable::push_run`]. Because the sequential path
//! processes the same frontier in the same order, the merged table (keys,
//! spans, arena contents, value counts) is bit-identical to the sequential
//! build, and the empty-entry cascade — applied only after the merge, in
//! frontier order — removes the same candidates in the same order. The
//! `threads = 1` path skips chunking entirely and filters straight into the
//! table arena (zero staging copies), so it is never slower than the
//! pre-parallel sequential build.
//!
//! Candidate sets are cached in [`BuilderState`] and kept in sync by
//! [`BuilderState::remove_candidate`], so [`BuilderState::candidates_of`]
//! is a borrow instead of a per-call `value_union()` allocation.

use std::time::{Duration, Instant};

use ceci_graph::{Graph, VertexId};
use ceci_query::candidates::CandidateSet;
use ceci_query::QueryPlan;

use crate::metrics::ThreadTimer;
use crate::parallel::scoped_workers;
use crate::tables::BuildTable;

/// Frontiers below this size are filtered on the calling thread even when a
/// worker pool is available — the fan-out overhead would dominate.
const PARALLEL_FRONTIER_MIN: usize = 128;

/// Minimum chunk size handed to one worker pull.
const CHUNK_MIN: usize = 64;

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
    /// Cached candidate set per non-root node — the value union of `te[u]`,
    /// maintained incrementally by [`BuilderState::remove_candidate`] so
    /// [`BuilderState::candidates_of`] never allocates. The root's set lives
    /// in `pivots`.
    candidates: Vec<Vec<VertexId>>,
}

impl BuilderState {
    /// Candidate set of query node `u`: pivots for the root, otherwise the
    /// cached value union of its TE table. Borrowed — no per-call allocation
    /// or union recomputation.
    pub fn candidates_of(&self, plan: &QueryPlan, u: VertexId) -> &[VertexId] {
        if u == plan.root() {
            &self.pivots
        } else {
            debug_assert!(
                self.te[u.index()].is_some(),
                "non-root nodes have TE tables"
            );
            &self.candidates[u.index()]
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

    /// Build-time arena bytes currently held across all tables.
    pub fn arena_bytes(&self) -> usize {
        let te: usize = self.te.iter().flatten().map(|t| t.arena_bytes()).sum();
        let nte: usize = self
            .nte
            .iter()
            .flat_map(|v| v.iter())
            .map(|(_, t)| t.arena_bytes())
            .sum();
        te + nte
    }

    /// Removes `v` from the candidate set of query node `u`, cascading the
    /// key removal into every *already built* table keyed by `u`'s
    /// candidates (TE tables of `u`'s tree children, NTE tables whose parent
    /// is `u`). Cached candidate sets are kept in sync: values that vanish
    /// from a child table's union are dropped from the child's cache.
    pub fn remove_candidate(&mut self, plan: &QueryPlan, u: VertexId, v: VertexId) {
        if u == plan.root() {
            if let Ok(i) = self.pivots.binary_search(&v) {
                self.pivots.remove(i);
            }
        } else if let Some(table) = self.te[u.index()].as_mut() {
            table.remove_value_everywhere(v);
            if let Ok(i) = self.candidates[u.index()].binary_search(&v) {
                self.candidates[u.index()].remove(i);
            }
        }
        for (un, table) in self.nte[u.index()].iter_mut() {
            let _ = un;
            table.remove_value_everywhere(v);
        }
        for &uc in plan.tree().children(u) {
            if let Some(child_table) = self.te[uc.index()].as_mut() {
                for w in child_table.remove_key(v) {
                    if let Ok(i) = self.candidates[uc.index()].binary_search(&w) {
                        self.candidates[uc.index()].remove(i);
                    }
                }
            }
        }
        for &uf in plan.forward_nte(u) {
            for (parent, table) in self.nte[uf.index()].iter_mut() {
                if *parent == u {
                    table.remove_key(v);
                }
            }
        }
    }

    /// Consumes the state, releasing `(pivots, te, nte)` for freezing.
    pub fn into_parts(self) -> BuilderParts {
        (self.pivots, self.te, self.nte)
    }

    /// Reassembles a `BuilderState` from externally built parts, recomputing
    /// the per-node candidate caches as the value union of each TE table.
    ///
    /// This is the inverse of [`BuilderState::into_parts`] for callers that
    /// assemble filtered tables themselves — the filter oracle test builds
    /// its reference state here. Invariants expected from the caller (and
    /// `debug_assert`ed):
    /// `pivots` sorted ascending; `te[u]` present exactly for non-root nodes
    /// and keyed by (a superset of) the parent's candidates; all value lists
    /// sorted — i.e. the same shape [`bfs_filter`] produces, minus the
    /// empty-entry cascade (refinement subsumes it for counts).
    pub fn from_parts(
        plan: &QueryPlan,
        pivots: Vec<VertexId>,
        te: Vec<Option<BuildTable>>,
        nte: Vec<Vec<(VertexId, BuildTable)>>,
    ) -> BuilderState {
        debug_assert!(pivots.windows(2).all(|w| w[0] < w[1]));
        debug_assert_eq!(te.len(), plan.query().num_vertices());
        debug_assert_eq!(nte.len(), plan.query().num_vertices());
        let candidates: Vec<Vec<VertexId>> = te
            .iter()
            .map(|t| t.as_ref().map(BuildTable::value_union).unwrap_or_default())
            .collect();
        BuilderState {
            pivots,
            te,
            nte,
            candidates,
        }
    }
}

/// What [`BuilderState::into_parts`] releases: the surviving pivots, the
/// per-node TE tables (indexed by query-vertex id; `None` for the root),
/// and the per-node NTE tables keyed by the non-tree parent.
pub type BuilderParts = (
    Vec<VertexId>,
    Vec<Option<BuildTable>>,
    Vec<Vec<(VertexId, BuildTable)>>,
);

/// Timing profile of one BFS-filter run — the parallel-construction
/// breakdown surfaced through `BuildStats`.
#[derive(Clone, Debug, Default)]
pub struct FilterProfile {
    /// Worker-pool width the filter ran with.
    pub threads: usize,
    /// Per-worker CPU busy time accumulated across all parallel fan-out
    /// sections (thread-CPU clock, the basis of the modeled build time on
    /// machines with fewer cores than workers).
    pub worker_busy: Vec<Duration>,
    /// Wall time spent inside parallel fan-out sections (spawn → join).
    pub fanout_wall: Duration,
    /// Wall time of the deterministic chunk merge.
    pub merge_time: Duration,
    /// Data-graph adjacency entries the filter tested (the summed degree of
    /// every table's frontier): Algorithm 1's work as an exact count, the
    /// same for any worker-pool width.
    pub scans: u64,
}

impl FilterProfile {
    fn new(threads: usize) -> Self {
        FilterProfile {
            threads,
            worker_busy: vec![Duration::ZERO; threads],
            fanout_wall: Duration::ZERO,
            merge_time: Duration::ZERO,
            scans: 0,
        }
    }

    /// Longest per-worker CPU busy time — the modeled parallel span of the
    /// fan-out sections.
    pub fn busy_max(&self) -> Duration {
        self.worker_busy.iter().copied().max().unwrap_or_default()
    }

    /// Total CPU busy time across workers.
    pub fn busy_total(&self) -> Duration {
        self.worker_busy.iter().sum()
    }
}

/// Runs Algorithm 1: seeds the pivots from the plan's initial root
/// candidates and fills all TE tables in matching order, then all backward
/// NTE tables. Returns the builder state.
pub fn bfs_filter(graph: &Graph, plan: &QueryPlan) -> BuilderState {
    bfs_filter_from(graph, plan, plan.initial_candidates(plan.root()).to_vec())
}

/// Runs Algorithm 1 from an explicit pivot set — used by the distributed
/// simulation, where each machine indexes only its assigned embedding
/// clusters (§5). `pivots` must be sorted and a subset of the root's
/// initial candidates.
pub fn bfs_filter_from(graph: &Graph, plan: &QueryPlan, pivots: Vec<VertexId>) -> BuilderState {
    bfs_filter_from_with(graph, plan, pivots, 1).0
}

/// [`bfs_filter_from`] with an explicit worker count and timing profile.
/// The result is bit-identical for every `threads` value (see module docs);
/// `threads = 1` runs fully on the calling thread.
pub fn bfs_filter_from_with(
    graph: &Graph,
    plan: &QueryPlan,
    pivots: Vec<VertexId>,
    threads: usize,
) -> (BuilderState, FilterProfile) {
    debug_assert!(
        pivots.windows(2).all(|w| w[0] < w[1]),
        "pivots must be sorted"
    );
    let threads = threads.max(1);
    let n = plan.query().num_vertices();
    let mut state = BuilderState {
        pivots,
        te: (0..n).map(|_| None).collect(),
        nte: vec![Vec::new(); n],
        candidates: vec![Vec::new(); n],
    };
    let mut profile = FilterProfile::new(threads);
    let sets = plan.candidate_sets();

    let mut frontier: Vec<VertexId> = Vec::new();

    // Phase A: TE tables in matching order (root skipped).
    for &u in plan.matching_order().iter().skip(1) {
        let up = plan
            .tree()
            .parent(u)
            .expect("non-root nodes have tree parents");
        frontier.clear();
        frontier.extend_from_slice(state.candidates_of(plan, up));
        let (table, emptied) =
            fill_table(graph, &sets[u.index()], &frontier, threads, &mut profile);
        state.candidates[u.index()] = table.value_union();
        state.te[u.index()] = Some(table);
        for vf in emptied {
            state.remove_candidate(plan, up, vf);
        }
    }

    // Phase B: NTE tables in matching order.
    for &u in plan.matching_order().iter() {
        for &un in plan.backward_nte(u) {
            frontier.clear();
            frontier.extend_from_slice(state.candidates_of(plan, un));
            let (table, emptied) =
                fill_table(graph, &sets[u.index()], &frontier, threads, &mut profile);
            state.nte[u.index()].push((un, table));
            for vf in emptied {
                state.remove_candidate(plan, un, vf);
            }
        }
    }
    (state, profile)
}

/// One chunk's output from a parallel fan-out: a private mini-table in
/// frontier order.
struct ChunkRun {
    /// Chunk index — merge order.
    chunk: usize,
    /// `(frontier vertex, value count)` for non-empty entries, in order.
    keys: Vec<(VertexId, u32)>,
    /// Concatenated value lists of `keys`.
    arena: Vec<VertexId>,
    /// Frontier vertices whose expansion came up empty (cascade input).
    emptied: Vec<VertexId>,
}

/// Expands one table's frontier — `set` is the candidate set of the node
/// the table is for — sequentially or across the worker pool. Returns the
/// filled table and the emptied frontier vertices in frontier order.
fn fill_table(
    graph: &Graph,
    set: &CandidateSet,
    frontier: &[VertexId],
    threads: usize,
    profile: &mut FilterProfile,
) -> (BuildTable, Vec<VertexId>) {
    profile.scans += frontier
        .iter()
        .map(|&vf| graph.degree(vf) as u64)
        .sum::<u64>();
    if threads <= 1 || frontier.len() < PARALLEL_FRONTIER_MIN {
        return fill_table_sequential(graph, set, frontier);
    }
    fill_table_parallel(graph, set, frontier, threads, profile)
}

/// Sequential path: filters every frontier vertex straight into the table
/// arena ([`BuildTable::push_key_with`] — zero staging copies).
fn fill_table_sequential(
    graph: &Graph,
    set: &CandidateSet,
    frontier: &[VertexId],
) -> (BuildTable, Vec<VertexId>) {
    let mut table = BuildTable::with_capacity(frontier.len(), 0);
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

/// Parallel path: contiguous frontier chunks are assigned to workers in a
/// strided round-robin (worker `w` takes chunks `w, w+threads, …`) and
/// filtered into private arenas; the merge stitches the chunk runs in chunk
/// (= frontier) order, reproducing the sequential table exactly. The static
/// stride keeps the per-worker work split independent of OS scheduling, so
/// the measured per-worker CPU busy time models a `threads`-core machine
/// even when the host has fewer cores.
fn fill_table_parallel(
    graph: &Graph,
    set: &CandidateSet,
    frontier: &[VertexId],
    threads: usize,
    profile: &mut FilterProfile,
) -> (BuildTable, Vec<VertexId>) {
    let chunk_size = frontier.len().div_ceil(threads * 4).max(CHUNK_MIN);
    let num_chunks = frontier.len().div_ceil(chunk_size);

    let t_fanout = Instant::now();
    let worker_results: Vec<(Duration, Vec<ChunkRun>)> = scoped_workers(threads, |w| {
        let timer = ThreadTimer::start();
        let mut runs: Vec<ChunkRun> = Vec::new();
        let mut c = w;
        while c < num_chunks {
            let lo = c * chunk_size;
            let hi = ((c + 1) * chunk_size).min(frontier.len());
            let mut run = ChunkRun {
                chunk: c,
                keys: Vec::new(),
                arena: Vec::new(),
                emptied: Vec::new(),
            };
            for &vf in &frontier[lo..hi] {
                let before = run.arena.len();
                filter_into(graph, set, vf, &mut run.arena);
                let len = run.arena.len() - before;
                if len == 0 {
                    run.emptied.push(vf);
                } else {
                    run.keys.push((vf, len as u32));
                }
            }
            runs.push(run);
            c += threads;
        }
        (timer.elapsed(), runs)
    });
    profile.fanout_wall += t_fanout.elapsed();

    let t_merge = Instant::now();
    let mut by_chunk: Vec<Option<ChunkRun>> = (0..num_chunks).map(|_| None).collect();
    let mut total_entries = 0usize;
    for (w, (busy, runs)) in worker_results.into_iter().enumerate() {
        profile.worker_busy[w] += busy;
        for run in runs {
            total_entries += run.arena.len();
            let c = run.chunk;
            by_chunk[c] = Some(run);
        }
    }
    let mut table = BuildTable::with_capacity(frontier.len(), total_entries);
    let mut emptied: Vec<VertexId> = Vec::new();
    for run in by_chunk.into_iter() {
        let run = run.expect("every chunk produces a run");
        table.push_run(&run.keys, &run.arena);
        emptied.extend(run.emptied);
    }
    profile.merge_time += t_merge.elapsed();
    (table, emptied)
}

/// Appends the neighbors of `vf` that are candidates of the table's node —
/// i.e. pass LF, DF and NLCF for it — to `out`. Appended values are sorted
/// because adjacency lists are sorted and filtering preserves order. The
/// one filter of the build: the sequential and the parallel fill both end
/// here.
#[inline]
fn filter_into(graph: &Graph, set: &CandidateSet, vf: VertexId, out: &mut Vec<VertexId>) {
    out.extend(
        graph
            .neighbors(vf)
            .iter()
            .copied()
            .filter(|&v| set.contains(v)),
    );
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
    fn cached_candidates_track_value_unions() {
        // The cache must equal a fresh value_union() at every observation
        // point — during filtering the only mutation path is
        // remove_candidate, which maintains it.
        let (graph, plan) = paper::figure1();
        let state = bfs_filter(&graph, &plan);
        for u in plan.query().vertices() {
            if u == plan.root() {
                continue;
            }
            let cached = state.candidates_of(&plan, u).to_vec();
            let fresh = state.te[u.index()].as_ref().unwrap().value_union();
            assert_eq!(cached, fresh, "cache out of sync at node {u:?}");
        }
    }

    #[test]
    fn entry_counts() {
        let (graph, plan) = paper::figure1();
        let state = bfs_filter(&graph, &plan);
        // TE: u2:3 + u3:2 + u4:3 + u5:2 = 10
        assert_eq!(state.te_entries(), 10);
        // NTE: u3:4 + u4:2 = 6
        assert_eq!(state.nte_entries(), 6);
        assert!(state.arena_bytes() >= 16 * std::mem::size_of::<VertexId>());
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

    #[test]
    fn parallel_build_matches_sequential_on_fixture() {
        let (graph, plan) = paper::figure1();
        let pivots = plan.initial_candidates(plan.root()).to_vec();
        let (seq, p1) = bfs_filter_from_with(&graph, &plan, pivots.clone(), 1);
        for threads in [2usize, 4, 8] {
            let (par, pp) = bfs_filter_from_with(&graph, &plan, pivots.clone(), threads);
            assert_eq!(pp.threads, threads);
            assert_eq!(seq.pivots, par.pivots);
            assert_eq!(seq.te_entries(), par.te_entries());
            assert_eq!(seq.nte_entries(), par.nte_entries());
            for u in plan.query().vertices() {
                assert_eq!(
                    seq.candidates_of(&plan, u),
                    par.candidates_of(&plan, u),
                    "candidates diverge at {u:?} with {threads} threads"
                );
            }
        }
        assert_eq!(p1.threads, 1);
        assert_eq!(p1.fanout_wall, Duration::ZERO);
    }

    #[test]
    fn parallel_fanout_engages_on_large_frontier() {
        // A star graph gives the root's child a frontier of `n` hub
        // candidates... too small; instead use many root candidates: an
        // unlabeled edge query on a large random-ish graph so the root
        // frontier exceeds PARALLEL_FRONTIER_MIN.
        let n = 512u32;
        let edges: Vec<(VertexId, VertexId)> = (0..n).map(|i| (vid(i), vid((i + 1) % n))).collect();
        let graph = ceci_graph::Graph::unlabeled(n as usize, &edges);
        let query = ceci_query::QueryGraph::unlabeled(2, &[(0, 1)]).unwrap();
        let plan = QueryPlan::new(query, &graph);
        let pivots = plan.initial_candidates(plan.root()).to_vec();
        assert!(pivots.len() >= PARALLEL_FRONTIER_MIN);
        let (seq, _) = bfs_filter_from_with(&graph, &plan, pivots.clone(), 1);
        let (par, profile) = bfs_filter_from_with(&graph, &plan, pivots, 4);
        assert!(profile.fanout_wall > Duration::ZERO, "fan-out never ran");
        assert_eq!(profile.worker_busy.len(), 4);
        assert_eq!(seq.te_entries(), par.te_entries());
        for u in plan.query().vertices() {
            assert_eq!(seq.candidates_of(&plan, u), par.candidates_of(&plan, u));
        }
    }
}
