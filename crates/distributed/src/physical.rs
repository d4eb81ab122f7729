//! Physical decomposition — the paper's stated future work (§8):
//! *"translate the logical decomposition into physical decomposition which
//! enables subgraph listing in trillion edge graphs."*
//!
//! The logical decomposition assigns each machine a set of embedding
//! clusters but still requires the whole data graph (replicated or on
//! shared storage). The physical decomposition exploits a locality fact:
//! every vertex of an embedding in the cluster of pivot `p` lies within
//! `depth(T_q)` hops of `p` (each tree edge moves one hop from an
//! already-reached vertex, and non-tree edges connect vertices already in
//! the ball). A machine therefore only needs the subgraph induced by the
//! union of radius-`depth(T_q)` balls around its pivots — typically a small
//! fraction of a trillion-edge graph.
//!
//! §8 lives here once. [`extract_fragment`] builds that induced subgraph,
//! over any [`AdjacencySource`] (a heap [`Graph`] or an mmap'd
//! [`MappedCsr`]), with dense re-labeled vertex ids plus the pivot
//! translation table; [`count_fragment`] runs the ordinary CECI pipeline
//! inside it under a [`PlanSpec`] — the query-side decisions of the
//! full-graph plan. A `ceci-shard` answers `EXEC` with it, one pivot at a
//! time, and [`run_physical`] calls it once per machine of a partition.
//! It is a pure function of `(source, spec, pivots)`: faults on this path
//! are tested where they are real (`tests/shard.rs`: SIGKILL, stall,
//! restart of shard processes over this executor) and recovery where it is
//! deterministic (the simulator in [`crate::run`]).
//!
//! One caveat mirrors the logical design: global candidate *filters* (label
//! frequencies, NLC) look identical inside a fragment because filtering is
//! purely local to a vertex's neighborhood — so per-fragment results equal
//! the full-graph results cluster by cluster.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use ceci_core::{count_embeddings, BuildOptions, Ceci};
use ceci_graph::io::MappedCsr;
use ceci_graph::{vid, Graph, LabelSet, VertexId};
use ceci_query::{is_valid_order, OrderConstraint, QueryGraph, QueryPlan, QueryTree};

use crate::config::ClusterConfig;
use crate::partition::distribute_pivots;

/// Read access to a data graph, abstracted over storage so fragment
/// extraction runs identically on a heap CSR and an mmap'd one.
pub trait AdjacencySource {
    /// Number of vertices.
    fn num_vertices(&self) -> usize;
    /// Whether the source was declared directed at load time.
    fn directed(&self) -> bool;
    /// Calls `f` for every neighbor of `v` in CSR order.
    fn for_each_neighbor(&self, v: VertexId, f: &mut dyn FnMut(VertexId));
    /// The vertex's label set (owned; the mmap view materializes it).
    fn label_set(&self, v: VertexId) -> LabelSet;
}

impl AdjacencySource for Graph {
    fn num_vertices(&self) -> usize {
        Graph::num_vertices(self)
    }

    fn directed(&self) -> bool {
        self.is_directed_input()
    }

    fn for_each_neighbor(&self, v: VertexId, f: &mut dyn FnMut(VertexId)) {
        self.neighbors(v).iter().copied().for_each(f);
    }

    fn label_set(&self, v: VertexId) -> LabelSet {
        self.labels(v).clone()
    }
}

impl AdjacencySource for MappedCsr {
    fn num_vertices(&self) -> usize {
        MappedCsr::num_vertices(self)
    }

    fn directed(&self) -> bool {
        self.is_directed_input()
    }

    fn for_each_neighbor(&self, v: VertexId, f: &mut dyn FnMut(VertexId)) {
        self.neighbors(v.0).iter().map(|&nb| vid(nb)).for_each(f);
    }

    fn label_set(&self, v: VertexId) -> LabelSet {
        MappedCsr::label_set(self, v.0)
    }
}

/// A machine-local graph fragment: the induced subgraph on the union of
/// radius-`radius` balls around the machine's pivots.
#[derive(Debug)]
pub struct Fragment {
    /// The fragment graph with dense local ids.
    pub graph: Graph,
    /// `local_pivots[i]` is the local id of `pivots[i]`.
    pub local_pivots: Vec<VertexId>,
    /// `global_of[local]` = original vertex id (for translating embeddings
    /// back).
    pub global_of: Vec<VertexId>,
    /// Hop radius used for extraction.
    pub radius: usize,
}

impl Fragment {
    /// Translates a fragment-local embedding to global vertex ids.
    pub fn to_global(&self, local: &[VertexId]) -> Vec<VertexId> {
        local.iter().map(|v| self.global_of[v.index()]).collect()
    }
}

/// Extracts the radius-`radius` fragment around `pivots` from any
/// [`AdjacencySource`].
///
/// The extraction BFS stops expanding *from* vertices at distance `radius`,
/// but keeps edges between any two included vertices — exactly the induced
/// subgraph on the ball union, which preserves every embedding rooted at the
/// pivots (tree paths stay inside; non-tree edges connect included
/// vertices).
///
/// # Examples
///
/// ```
/// use ceci_distributed::extract_fragment;
/// use ceci_graph::{vid, Graph};
///
/// // A path 0-1-2-3-4: the radius-1 ball around vertex 2 is {1, 2, 3}.
/// let g = Graph::unlabeled(5, &[
///     (vid(0), vid(1)), (vid(1), vid(2)), (vid(2), vid(3)), (vid(3), vid(4)),
/// ]);
/// let f = extract_fragment(&g, &[vid(2)], 1);
/// assert_eq!(f.graph.num_vertices(), 3);
/// assert_eq!(f.graph.num_edges(), 2);
/// ```
pub fn extract_fragment<A: AdjacencySource + ?Sized>(
    src: &A,
    pivots: &[VertexId],
    radius: usize,
) -> Fragment {
    let mut dist: HashMap<VertexId, usize> = HashMap::new();
    let mut order: Vec<VertexId> = Vec::new();
    let mut queue = VecDeque::new();
    for &p in pivots {
        if let Entry::Vacant(e) = dist.entry(p) {
            e.insert(0);
            order.push(p);
            queue.push_back(p);
        }
    }
    while let Some(v) = queue.pop_front() {
        let d = dist[&v];
        if d == radius {
            continue;
        }
        src.for_each_neighbor(v, &mut |nb| {
            if let Entry::Vacant(e) = dist.entry(nb) {
                e.insert(d + 1);
                order.push(nb);
                queue.push_back(nb);
            }
        });
    }
    // Dense relabeling in *ascending global id* order: the automorphism
    // breaking constraints compare data-vertex ids (`map(a) < map(b)`), so
    // the local order must agree with the global order or different
    // fragments would elect different representatives of the same
    // automorphism class (duplicating embeddings across machines).
    order.sort_unstable();
    let local_of: HashMap<VertexId, VertexId> = order
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, VertexId::from_index(i)))
        .collect();
    let mut edges = Vec::new();
    for &v in &order {
        src.for_each_neighbor(v, &mut |nb| {
            if v < nb {
                if let Some(&lnb) = local_of.get(&nb) {
                    edges.push((local_of[&v], lnb));
                }
            }
        });
    }
    let labels = order.iter().map(|&v| src.label_set(v)).collect();
    let graph = Graph::new(labels, &edges, src.directed());
    let local_pivots = pivots.iter().map(|p| local_of[p]).collect();
    Fragment {
        graph,
        local_pivots,
        global_of: order,
        radius,
    }
}

/// The query-side decisions of a full-graph plan — root, matching order,
/// symmetry breaking, extraction radius — under which every fragment
/// rebuilds the *same* plan; candidates are recomputed per fragment by
/// [`QueryPlan::from_parts`]. A coordinator pins one on its shards with
/// `PREPARE`.
#[derive(Clone, Debug)]
pub struct PlanSpec {
    /// The query pattern.
    pub query: QueryGraph,
    /// Root of the query tree.
    pub root: VertexId,
    /// Full matching order, root first.
    pub order: Vec<VertexId>,
    /// Symmetry-breaking constraints.
    pub sym: Vec<OrderConstraint>,
    /// Whether `sym` breaks all automorphisms.
    pub sym_complete: bool,
    /// Fragment extraction radius: at least the depth of the query tree.
    pub radius: usize,
}

/// Depth of the deepest query-tree vertex: how far from its pivot an
/// embedding can reach.
fn tree_depth(tree: &QueryTree) -> usize {
    let depths = tree.bfs_order().iter().map(|&u| tree.depth(u));
    depths.max().unwrap_or(0) as usize
}

impl PlanSpec {
    /// The decisions `plan` made on the full graph.
    pub fn of(plan: &QueryPlan) -> PlanSpec {
        PlanSpec {
            query: plan.query().clone(),
            root: plan.root(),
            order: plan.matching_order().to_vec(),
            sym: plan.symmetry_constraints().to_vec(),
            sym_complete: plan.symmetry_complete(),
            radius: tree_depth(plan.tree()),
        }
    }

    /// Checks decisions that arrived from outside the process (a `PREPARE`
    /// line) against `query`, so that [`count_fragment`] can neither panic
    /// on them nor extract too small a ball. The error says what is wrong.
    pub fn from_wire(
        query: QueryGraph,
        root: u32,
        order: &[u32],
        sym: &[(u32, u32)],
        sym_complete: bool,
        radius: usize,
    ) -> Result<PlanSpec, &'static str> {
        let n = query.num_vertices() as u32;
        if root >= n || sym.iter().any(|&(a, b)| a >= n || b >= n) {
            return Err("references query vertices out of range");
        }
        let tree = QueryTree::build(&query, vid(root));
        let order: Vec<VertexId> = order.iter().map(|&u| vid(u)).collect();
        if !is_valid_order(&tree, &order) {
            return Err(
                "order must be a permutation of the query vertices, root first, \
                 every query-tree parent before its children",
            );
        }
        if radius < tree_depth(&tree) {
            return Err("radius is below the depth of the query tree");
        }
        let constraint = |&(a, b): &(u32, u32)| OrderConstraint {
            smaller: vid(a),
            larger: vid(b),
        };
        Ok(PlanSpec {
            query,
            root: vid(root),
            order,
            sym: sym.iter().map(constraint).collect(),
            sym_complete,
            radius,
        })
    }
}

/// What one fragment execution found, and what it cost.
#[derive(Debug)]
pub struct FragmentCount {
    /// Embeddings rooted at the given pivots.
    pub embeddings: u64,
    /// Fragment vertices.
    pub fragment_vertices: usize,
    /// Fragment edges.
    pub fragment_edges: usize,
    /// Time to extract the fragment.
    pub extract_time: Duration,
    /// Time to build the fragment-local CECI and enumerate.
    pub match_time: Duration,
}

/// Counts the embedding clusters of `pivots` (distinct global vertex ids)
/// inside their own fragment: extract the radius ball union, rebuild the
/// plan locally, index the pivots that pass the fragment-local initial
/// filters (one that fails them also failed the global ones — filtering is
/// neighborhood-local), enumerate. The count is a pure function of
/// `(src, spec, pivots)` and additive over any split of `pivots`.
pub fn count_fragment<A: AdjacencySource + ?Sized>(
    src: &A,
    spec: &PlanSpec,
    pivots: &[VertexId],
) -> FragmentCount {
    let t0 = Instant::now();
    let fragment = extract_fragment(src, pivots, spec.radius);
    let extract_time = t0.elapsed();

    let t1 = Instant::now();
    let plan = QueryPlan::from_parts(
        spec.query.clone(),
        spec.root,
        spec.order.clone(),
        &fragment.graph,
        spec.sym.clone(),
        spec.sym_complete,
    );
    let initial = plan.initial_candidates(plan.root());
    let mut local_pivots = fragment.local_pivots;
    local_pivots.sort_unstable();
    local_pivots.retain(|p| initial.binary_search(p).is_ok());
    let embeddings = if local_pivots.is_empty() {
        0
    } else {
        let options = BuildOptions::default();
        let ceci = Ceci::build_for_pivots(&fragment.graph, &plan, options, local_pivots);
        count_embeddings(&fragment.graph, &plan, &ceci)
    };
    FragmentCount {
        embeddings,
        fragment_vertices: fragment.graph.num_vertices(),
        fragment_edges: fragment.graph.num_edges(),
        extract_time,
        match_time: t1.elapsed(),
    }
}

/// Per-machine report of a physical run.
#[derive(Debug)]
pub struct PhysicalMachineReport {
    /// Machine index.
    pub machine: usize,
    /// Assigned pivots.
    pub pivots: usize,
    /// Fraction of the full graph's edges held locally.
    pub edge_fraction: f64,
    /// The machine's fragment execution.
    pub run: FragmentCount,
}

/// Result of a physical-decomposition run.
#[derive(Debug)]
pub struct PhysicalResult {
    /// Per-machine reports, in machine order.
    pub reports: Vec<PhysicalMachineReport>,
    /// Total embeddings.
    pub total_embeddings: u64,
    /// Largest per-machine edge fraction — the memory headline: how much of
    /// the graph any single machine must hold.
    pub max_edge_fraction: f64,
}

/// Runs subgraph listing with physical decomposition: distribute pivots,
/// then, machine by machine, extract the fragment and match inside it.
///
/// The `plan` must be built against the *full* graph (root selection and
/// initial candidates are global); per-fragment plans pin the same query
/// root and matching order.
pub fn run_physical(full: &Graph, plan: &QueryPlan, config: &ClusterConfig) -> PhysicalResult {
    let pivots = plan.initial_candidates(plan.root()).to_vec();
    let partition = distribute_pivots(full, &pivots, config);
    let spec = PlanSpec::of(plan);
    let edges = full.num_edges().max(1) as f64;
    let reports: Vec<PhysicalMachineReport> = (partition.assignment.iter().enumerate())
        .map(|(machine, assigned)| {
            let run = count_fragment(full, &spec, assigned);
            PhysicalMachineReport {
                machine,
                pivots: assigned.len(),
                edge_fraction: run.fragment_edges as f64 / edges,
                run,
            }
        })
        .collect();
    PhysicalResult {
        total_embeddings: reports.iter().map(|r| r.run.embeddings).sum(),
        max_edge_fraction: reports.iter().map(|r| r.edge_fraction).fold(0.0, f64::max),
        reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceci_graph::generators::{attach_pendants, barabasi_albert, kronecker_default};
    use ceci_graph::generators::{erdos_renyi, inject_random_multilabels};
    use ceci_graph::io::save_binary;
    use ceci_query::PaperQuery;

    fn data() -> Graph {
        let core = kronecker_default(9, 5, 17);
        attach_pendants(&core, 300, 18)
    }

    fn full_count(graph: &Graph, plan: &QueryPlan) -> u64 {
        let ceci = Ceci::build(graph, plan);
        count_embeddings(graph, plan, &ceci)
    }

    #[test]
    fn fragment_preserves_pivot_balls() {
        let g = data();
        let f = extract_fragment(&g, &[vid(0)], 2);
        // Every fragment edge exists in the full graph under translation.
        for v in f.graph.vertices() {
            let gv = f.global_of[v.index()];
            for &nb in f.graph.neighbors(v) {
                assert!(g.has_edge(gv, f.global_of[nb.index()]));
            }
        }
        // Pivot has the same neighborhood size (radius ≥ 1 keeps them).
        assert_eq!(
            f.graph.degree(f.local_pivots[0]),
            g.degree(vid(0)),
            "radius-2 ball keeps the pivot's full neighborhood"
        );
    }

    #[test]
    fn physical_counts_match_full_run() {
        let g = data();
        for q in [PaperQuery::Qg1, PaperQuery::Qg3, PaperQuery::Qg5] {
            let plan = QueryPlan::new(q.build(), &g);
            let want = full_count(&g, &plan);
            for machines in [1usize, 2, 4] {
                let cfg = ClusterConfig {
                    machines,
                    ..Default::default()
                };
                let result = run_physical(&g, &plan, &cfg);
                assert_eq!(
                    result.total_embeddings,
                    want,
                    "{} machines={machines}",
                    q.name()
                );
            }
        }
    }

    /// The one executor against the full-graph pipeline: pivot by pivot
    /// (what a shard's `EXEC` runs) and machine by machine (what
    /// [`run_physical`] runs), over a heap graph and an mmap of its file.
    #[test]
    fn count_fragment_is_additive_and_storage_blind() {
        let dir = std::env::temp_dir().join(format!("ceci_physical_diff_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.ceci");
        let graphs = [
            attach_pendants(&kronecker_default(7, 5, 23), 60, 24),
            barabasi_albert(150, 3, 5),
            inject_random_multilabels(&erdos_renyi(120, 480, 9), 3, 1, 2, 10),
        ];
        let cfg = ClusterConfig {
            machines: 3,
            ..Default::default()
        };
        for (i, g) in graphs.iter().enumerate() {
            save_binary(g, &path).unwrap();
            let mapped = MappedCsr::open(&path).unwrap();
            for q in [PaperQuery::Qg1, PaperQuery::Qg3, PaperQuery::Qg5] {
                let plan = QueryPlan::new(q.build(), g);
                let want = full_count(g, &plan);
                assert!(want > 0, "graph {i} {}", q.name());
                let spec = PlanSpec::of(&plan);
                let pivots = plan.initial_candidates(plan.root());
                let partition = distribute_pivots(g, pivots, &cfg);
                for src in [g as &dyn AdjacencySource, &mapped] {
                    let count = |p: &[VertexId]| count_fragment(src, &spec, p).embeddings;
                    let per_pivot: u64 = pivots.iter().map(|&p| count(&[p])).sum();
                    let per_machine: u64 = partition.assignment.iter().map(|a| count(a)).sum();
                    assert_eq!(per_pivot, want, "graph {i} {} per pivot", q.name());
                    assert_eq!(per_machine, want, "graph {i} {} per machine", q.name());
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_machine_without_pivots_counts_nothing() {
        let g = data();
        let spec = PlanSpec::of(&QueryPlan::new(PaperQuery::Qg3.build(), &g));
        let run = count_fragment(&g, &spec, &[]);
        assert_eq!((run.embeddings, run.fragment_vertices), (0, 0));
    }

    /// `PREPARE` input that would make [`QueryPlan::from_parts`] panic, or a
    /// fragment miss part of an embedding, is refused where it enters.
    #[test]
    fn wire_decisions_are_checked_against_the_query() {
        // The path 0-1-2 rooted at an end: depth 2, one valid order.
        let path = Graph::unlabeled(3, &[(vid(0), vid(1)), (vid(1), vid(2))]);
        let query = QueryGraph::from_graph(&path).unwrap();
        let wire = |root: u32, order: &[u32], sym: &[(u32, u32)], radius: usize| {
            PlanSpec::from_wire(query.clone(), root, order, sym, true, radius)
        };
        let spec = wire(0, &[0, 1, 2], &[(0, 2)], 2).unwrap();
        assert_eq!(spec.order, [vid(0), vid(1), vid(2)]);
        assert_eq!((spec.sym[0].smaller, spec.sym[0].larger), (vid(0), vid(2)));
        assert!(
            wire(0, &[0, 1, 2], &[], 3).is_ok(),
            "a larger ball is sound"
        );
        for (root, order, sym, radius, why) in [
            (3, &[0, 1, 2][..], &[][..], 2, "root out of range"),
            (0, &[0, 1, 2], &[(0, 3)], 2, "sym out of range"),
            (0, &[0, 1], &[], 2, "short order"),
            (0, &[0, 1, 1], &[], 2, "not a permutation"),
            (0, &[0, 2, 1], &[], 2, "child before its tree parent"),
            (0, &[1, 0, 2], &[], 2, "root not first"),
            (0, &[0, 1, 2], &[], 1, "ball smaller than the tree"),
        ] {
            assert!(wire(root, order, sym, radius).is_err(), "{why}");
        }
    }

    #[test]
    fn fragments_are_smaller_than_the_graph() {
        let g = data();
        let plan = QueryPlan::new(PaperQuery::Qg1.build(), &g);
        let cfg = ClusterConfig {
            machines: 8,
            jaccard_colocation: false,
            ..Default::default()
        };
        let result = run_physical(&g, &plan, &cfg);
        assert_eq!(result.reports.len(), 8);
        // With 8 machines, at least some machine holds well under the whole
        // graph (hub fragments can still be large in a skewed graph).
        let min_frac = result
            .reports
            .iter()
            .map(|r| r.edge_fraction)
            .fold(1.0f64, f64::min);
        assert!(min_frac < 0.9, "min fragment fraction {min_frac}");
        assert!(result.max_edge_fraction <= 1.0);
    }

    #[test]
    fn embedding_translation_roundtrip() {
        let g = data();
        let f = extract_fragment(&g, &[vid(3), vid(5)], 2);
        let local = vec![f.local_pivots[0], f.local_pivots[1]];
        let global = f.to_global(&local);
        assert_eq!(global, vec![vid(3), vid(5)]);
    }

    #[test]
    fn radius_zero_keeps_only_pivots() {
        let g = data();
        let f = extract_fragment(&g, &[vid(0), vid(1)], 0);
        assert_eq!(f.graph.num_vertices(), 2);
    }
}
