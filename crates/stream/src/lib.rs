//! # ceci-stream
//!
//! Incremental maintenance of CECI indexes over streaming graph mutations.
//!
//! A frozen [`ceci_core::Ceci`] is an immutable snapshot: every mutation
//! would force a full Algorithm-1 + Algorithm-2 rebuild. This crate keeps a
//! *maintainable* base form of the index per `(graph, query)` pair — the
//! [`StreamIndex`] — holding the **unrefined** per-vertex-filtered candidate
//! tables:
//!
//! * `pivots` — root candidates passing the LF / DF / NLCF vertex filters,
//! * `te[u]` — for each non-root query node, a map keyed by the *parent's*
//!   candidates `vf`, with value `F(u, vf)` = the filtered adjacency of
//!   `vf` for `u` (sorted; possibly empty),
//! * `nte[u]` — the backward non-tree-edge tables, same shape, keyed by the
//!   candidates of the non-tree parent `un`.
//!
//! An edge mutation `{a, b}` changes adjacency, degree, and neighborhood
//! label counts **only at the endpoints**, so the per-vertex filter verdict
//! can flip only for `a` and `b`, and a filtered adjacency `F(u, vf)` can
//! change only when `vf` is an endpoint or a current neighbor of one. That
//! makes repair local: [`StreamIndex::patch`] re-tests root candidacy at the
//! endpoints, recomputes `F` for the dirty keys of every table, and cascades
//! candidate additions/removals down the matching order via exact per-node
//! value refcounts — the Algorithm-2 refinement cascade is then re-run only
//! at materialization time, on the patched base. The repair has a floor:
//! once the batch's endpoints and their adjacency are a sixteenth of the
//! graph, `patch` rebuilds the tables on the new snapshot instead of merging
//! into them, so it costs ∝ batch while the batch is small and never more
//! than a [`StreamIndex::build`] when it is not.
//!
//! [`StreamIndex::materialize`] converts the base into a frozen `Ceci`
//! through [`ceci_core::BuilderState::from_parts`] +
//! `Ceci::from_filtered_state`, which applies refinement and freezing
//! exactly as a from-scratch build would. The contract is on *counts*, not
//! on index bytes: the base tables are sound (every value is a real
//! filtered neighbor) and complete (every embedding's vertices survive the
//! per-vertex filters), so enumeration over the materialized index returns
//! match counts bit-identical to a full rebuild on the mutated graph — the
//! differential invariant the streaming subsystem is gated on.

#![warn(missing_docs)]

use std::collections::{BTreeMap, HashMap};

use ceci_core::tables::BuildTable;
use ceci_core::{BuilderState, Ceci};
use ceci_graph::{Graph, VertexId};
use ceci_query::candidates::{compute_candidates, CandidateSet};
use ceci_query::{QueryPlan, VertexFilters};

/// [`StreamIndex::patch`] rebuilds instead of merging once the batch's
/// endpoints and their adjacency are at least one part in this many of the
/// graph's vertices and adjacency.
const REBASE_SHARE: usize = 16;

/// One filtered-adjacency table of the base index: key `vf` (a candidate of
/// the parent node) → `F(u, vf)`, sorted, possibly empty.
type BaseTable = BTreeMap<VertexId, Vec<VertexId>>;

/// Structural cost accounting of one [`StreamIndex::patch`] call — how much
/// of the index the mutation batch actually touched, reported by the service
/// as `index_repair_*` metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Distinct dirty data vertices (endpoints ∪ their current neighbors).
    pub dirty_vertices: usize,
    /// Table keys recomputed in full (endpoint keys) or surgically
    /// corrected in place (endpoint membership in a neighbor's list).
    pub keys_recomputed: usize,
    /// Keys inserted because a vertex became a candidate of the keying node.
    pub keys_added: usize,
    /// Keys dropped because a vertex stopped being a candidate.
    pub keys_removed: usize,
    /// Patches whose dirty region covered the tables, so they were rebuilt
    /// on the new snapshot instead of merged into (0 or 1 per patch; every
    /// rebuilt key then counts as recomputed).
    pub rebases: usize,
}

impl RepairStats {
    /// Merges another patch's accounting into this one (per-batch roll-up).
    pub fn absorb(&mut self, other: &RepairStats) {
        self.dirty_vertices += other.dirty_vertices;
        self.keys_recomputed += other.keys_recomputed;
        self.keys_added += other.keys_added;
        self.keys_removed += other.keys_removed;
        self.rebases += other.rebases;
    }
}

/// Maintainable base candidate index for one `(graph, query)` pair.
///
/// Build once with [`StreamIndex::build`], then [`StreamIndex::patch`] after
/// each mutation batch (passing the batch's touched endpoints) and
/// [`StreamIndex::materialize`] whenever a frozen, refined [`Ceci`] is
/// needed for enumeration. Deliberately not `Clone`: a repair moves the
/// tables forward, it never copies them.
#[derive(Debug, PartialEq, Eq)]
pub struct StreamIndex {
    /// Sorted root candidates (pre-refinement).
    pivots: Vec<VertexId>,
    /// `te[u]` for non-root `u`, keyed by the tree parent's candidates.
    te: Vec<Option<BaseTable>>,
    /// `nte[u]`: one table per backward non-tree edge, tagged with the
    /// non-tree parent `un` and keyed by `un`'s candidates.
    nte: Vec<Vec<(VertexId, BaseTable)>>,
    /// `refs[u][v]` = number of `te[u]` value lists containing `v`; the
    /// candidate set of a non-root `u` is exactly the key set of `refs[u]`.
    refs: Vec<HashMap<VertexId, u32>>,
}

/// Bumps a value refcount, remembering the pre-patch count on first touch.
fn ref_inc(refs: &mut HashMap<VertexId, u32>, before: &mut HashMap<VertexId, u32>, v: VertexId) {
    let c = refs.get(&v).copied().unwrap_or(0);
    before.entry(v).or_insert(c);
    refs.insert(v, c + 1);
}

/// Drops a value refcount, remembering the pre-patch count on first touch.
fn ref_dec(refs: &mut HashMap<VertexId, u32>, before: &mut HashMap<VertexId, u32>, v: VertexId) {
    let c = refs.get(&v).copied().unwrap_or(0);
    before.entry(v).or_insert(c);
    debug_assert!(c > 0, "refcount underflow at {v:?}");
    if c <= 1 {
        refs.remove(&v);
    } else {
        refs.insert(v, c - 1);
    }
}

/// Applies the batch-local repair to one table: endpoint keys get their
/// list re-derived (from the key's new adjacency, its old list and the
/// endpoints' verdicts `eps_pass` — no filter runs), their non-endpoint
/// neighbor keys (`pairs`, sorted by key) a surgical endpoint-membership fix. `on_change`
/// observes every value added (`true`) / removed (`false`) from the table so
/// TE callers can maintain candidate refcounts; NTE callers pass a no-op.
///
/// Two strategies, picked by dirty-region size: point lookups for sparse
/// batches (a lone `ADDEDGE` should not scan the table), one sequential
/// merge over the key order for bulk batches (random B-tree probes cost an
/// order of magnitude more than sequential visits).
#[allow(clippy::too_many_arguments)]
fn repair_table(
    map: &mut BaseTable,
    graph: &Graph,
    eps: &[VertexId],
    eps_pass: &[bool],
    pairs: &[(VertexId, VertexId)],
    stats: &mut RepairStats,
    buf: &mut Vec<VertexId>,
    on_change: &mut dyn FnMut(VertexId, bool),
) {
    let recompute = |vf: VertexId,
                     list: &mut Vec<VertexId>,
                     buf: &mut Vec<VertexId>,
                     stats: &mut RepairStats,
                     on_change: &mut dyn FnMut(VertexId, bool)| {
        let endpoint = |v: &VertexId| eps.binary_search(v);
        buf.clear();
        buf.extend(graph.neighbors(vf).iter().filter(|v| match endpoint(v) {
            Ok(i) => eps_pass[i],
            // A non-endpoint neighbor's verdict and its edge to `vf` both
            // predate the batch: it is in the new list iff it was in the old.
            Err(_) => list.binary_search(v).is_ok(),
        }));
        stats.keys_recomputed += 1;
        // So only endpoints can have left or entered.
        for v in list.iter().filter(|v| endpoint(v).is_ok()) {
            if buf.binary_search(v).is_err() {
                on_change(*v, false);
            }
        }
        for v in buf.iter().filter(|v| endpoint(v).is_ok()) {
            if list.binary_search(v).is_err() {
                on_change(*v, true);
            }
        }
        list.clear();
        list.extend_from_slice(buf);
    };
    let fix = |e: VertexId,
               list: &mut Vec<VertexId>,
               on_change: &mut dyn FnMut(VertexId, bool)|
     -> bool {
        let desired = eps_pass[eps.binary_search(&e).expect("pair endpoint")];
        match list.binary_search(&e) {
            Ok(i) if !desired => {
                list.remove(i);
                on_change(e, false);
                true
            }
            Err(i) if desired => {
                list.insert(i, e);
                on_change(e, true);
                true
            }
            _ => false,
        }
    };
    if (eps.len() + pairs.len()).saturating_mul(8) >= map.len() {
        // Dense: one merge pass over the table in key order.
        let (mut ei, mut pi) = (0usize, 0usize);
        for (&vf, list) in map.iter_mut() {
            while ei < eps.len() && eps[ei] < vf {
                ei += 1;
            }
            if ei < eps.len() && eps[ei] == vf {
                recompute(vf, list, buf, stats, on_change);
                continue;
            }
            while pi < pairs.len() && pairs[pi].0 < vf {
                pi += 1;
            }
            let mut touched = false;
            while pi < pairs.len() && pairs[pi].0 == vf {
                touched |= fix(pairs[pi].1, list, on_change);
                pi += 1;
            }
            if touched {
                stats.keys_recomputed += 1;
            }
        }
    } else {
        // Sparse: point lookups only.
        for &vf in eps {
            if let Some(list) = map.get_mut(&vf) {
                recompute(vf, list, buf, stats, on_change);
            }
        }
        let mut k = 0usize;
        while k < pairs.len() {
            let w = pairs[k].0;
            let Some(list) = map.get_mut(&w) else {
                while k < pairs.len() && pairs[k].0 == w {
                    k += 1;
                }
                continue;
            };
            let mut touched = false;
            while k < pairs.len() && pairs[k].0 == w {
                touched |= fix(pairs[k].1, list, on_change);
                k += 1;
            }
            if touched {
                stats.keys_recomputed += 1;
            }
        }
    }
}

/// The sorted distinct in-range `endpoints` of a batch.
fn sorted_endpoints(graph: &Graph, endpoints: &[VertexId]) -> Vec<VertexId> {
    let mut eps: Vec<VertexId> = endpoints
        .iter()
        .copied()
        .filter(|e| e.index() < graph.num_vertices())
        .collect();
    eps.sort_unstable();
    eps.dedup();
    eps
}

/// The floor test of [`StreamIndex::patch`] on sorted distinct endpoints.
fn floor_share(graph: &Graph, eps: &[VertexId]) -> bool {
    let share: usize = eps.iter().map(|&e| 1 + graph.degree(e)).sum();
    share > 0 && share * REBASE_SHARE >= graph.num_vertices() + 2 * graph.num_edges()
}

/// The adjacency entries of the endpoints `eps` (sorted) at non-endpoint
/// neighbors, as sorted `(key, endpoint)` pairs — the keys whose lists may
/// need an endpoint membership fix.
fn neighbor_pairs(graph: &Graph, eps: &[VertexId]) -> Vec<(VertexId, VertexId)> {
    let mut pairs: Vec<(VertexId, VertexId)> = Vec::new();
    for &e in eps {
        for &w in graph.neighbors(e) {
            if eps.binary_search(&w).is_err() {
                pairs.push((w, e));
            }
        }
    }
    pairs.sort_unstable();
    pairs
}

impl StreamIndex {
    /// Builds the base index from scratch on `graph` (Algorithm 1 without
    /// the empty-entry cascade — refinement at materialization subsumes it).
    ///
    /// Only `plan`'s root, tree and matching order are read, so a plan
    /// retained from an earlier snapshot is fine here: the per-vertex
    /// verdicts (and the pivots, which are the root's) come from one
    /// candidate scan of `graph` itself, each looked up as a bit afterwards.
    pub fn build(graph: &Graph, plan: &QueryPlan) -> StreamIndex {
        let n = plan.query().num_vertices();
        let sets = compute_candidates(plan.query(), graph);
        // One table: `F(u, vf)` for every candidate `vf` of the keying node,
        // in key order. `values` (TE tables only) collects every list entry.
        let fill =
            |set: &CandidateSet, keys: &[VertexId], mut values: Option<&mut Vec<VertexId>>| {
                let entries = keys.iter().map(|&vf| {
                    let neighbors = graph.neighbors(vf).iter().copied();
                    let list: Vec<VertexId> = neighbors.filter(|&v| set.contains(v)).collect();
                    if let Some(values) = values.as_deref_mut() {
                        values.extend_from_slice(&list);
                    }
                    (vf, list)
                });
                // Ascending keys: the map is bulk-built, not inserted into.
                BaseTable::from_iter(entries)
            };
        let mut idx = StreamIndex {
            pivots: sets[plan.root().index()].candidates.clone(),
            te: vec![None; n],
            nte: vec![Vec::new(); n],
            refs: vec![HashMap::new(); n],
        };
        // Sorted candidate set per node, known once its TE table is built.
        let mut cands: Vec<Vec<VertexId>> = vec![Vec::new(); n];
        cands[plan.root().index()] = idx.pivots.clone();
        let mut values: Vec<VertexId> = Vec::new();
        for &u in plan.matching_order().iter().skip(1) {
            let parent = plan.tree().parent(u).expect("non-root node has a parent");
            let set = &sets[u.index()];
            values.clear();
            idx.te[u.index()] = Some(fill(set, &cands[parent.index()], Some(&mut values)));
            // Refcounts and candidates from one sort of the table's values
            // (sorted, so the increments of one `v` hit the map back to back).
            values.sort_unstable();
            for &v in &values {
                *idx.refs[u.index()].entry(v).or_insert(0) += 1;
            }
            values.dedup();
            cands[u.index()] = values.clone();
            for &un in plan.backward_nte(u) {
                let table = fill(set, &cands[un.index()], None);
                idx.nte[u.index()].push((un, table));
            }
        }
        idx
    }

    /// Whether a batch with these touched `endpoints` is past the repair
    /// floor on `graph` (the post-batch snapshot): its endpoints and their
    /// adjacency are at least one part in `REBASE_SHARE` (16) of the graph's
    /// vertices and adjacency. [`StreamIndex::patch`] rebuilds the tables
    /// from here on; a caller that would rather not keep tables at all past
    /// the floor asks first.
    pub fn past_floor(graph: &Graph, endpoints: &[VertexId]) -> bool {
        floor_share(graph, &sorted_endpoints(graph, endpoints))
    }

    /// Keys held across all tables (one TE per non-root node, one NTE per
    /// backward non-tree edge).
    fn num_keys(&self) -> usize {
        let nte = self.nte.iter().flatten().map(|(_, map)| map.len());
        self.te.iter().flatten().map(BTreeMap::len).chain(nte).sum()
    }

    /// Repairs the base index after a mutation batch whose touched edge
    /// endpoints are `endpoints`, against the **post-batch** graph snapshot.
    ///
    /// `graph` must reflect every mutation of the batch and `plan` must be
    /// the plan this index was built with (the matching order is structural;
    /// it stays valid across mutations). Endpoints may repeat and may list
    /// vertices whose edges were deleted.
    ///
    /// Locality argument: per-vertex filter inputs (labels, degree) change
    /// only at the batch's endpoints, and both sides of every mutated edge
    /// are endpoints. So an *endpoint* key's filtered adjacency is
    /// recomputed in full, while a non-endpoint key `w` can change only in
    /// the membership of an endpoint `e ∈ N(w)` (that edge is unmutated, so
    /// `w ∈ N_new(e)` reaches it) — fixed surgically without rescanning
    /// `w`'s adjacency. A deleted edge's far side is itself an endpoint, so
    /// `endpoints ∪ N_new(endpoints)` covers the batch's old neighborhood
    /// too — dirtiness is an overestimate, never a miss.
    ///
    /// The floor: the merge works on the batch's share of the graph (its
    /// endpoints and their adjacency), a rebuild on the whole of it, both
    /// thinned by the same candidate density — so which is cheaper depends
    /// on that share, not on the tables. Per adjacency entry the merge costs
    /// an order of magnitude more (B-tree probes, refcount hashing, binary
    /// searches per list, against one sequential fill); measured on a
    /// labeled R-MAT, an unlabeled pendant-heavy Kronecker and a labeled
    /// Erdős–Rényi graph the two cross at a share of 7 %, 7 % and 17 %.
    /// From [`REBASE_SHARE`] on, the tables are rebuilt with
    /// [`StreamIndex::build`] on `graph` ([`RepairStats::rebases`] says so):
    /// a patch costs ∝ batch while the batch is small and never more than a
    /// build when it is not. Both branches leave identical tables: which one
    /// ran is a cost decision only.
    pub fn patch(
        &mut self,
        graph: &Graph,
        plan: &QueryPlan,
        endpoints: &[VertexId],
    ) -> RepairStats {
        let eps = sorted_endpoints(graph, endpoints);
        if floor_share(graph, &eps) {
            *self = StreamIndex::build(graph, plan);
            // Every key recomputed; the neighborhoods are counted without
            // the sorted pairs only the merge needs.
            let mut seen = vec![false; graph.num_vertices()];
            let region = eps.iter().flat_map(|&e| graph.neighbors(e)).chain(&eps);
            return RepairStats {
                dirty_vertices: region
                    .filter(|v| !std::mem::replace(&mut seen[v.index()], true))
                    .count(),
                keys_recomputed: self.num_keys(),
                rebases: 1,
                ..RepairStats::default()
            };
        }
        let pairs = neighbor_pairs(graph, &eps);
        // The examined region of the index: the endpoints plus their
        // distinct post-batch non-endpoint neighbors (the keys of `pairs`).
        let neighbor_keys =
            pairs.len().min(1) + pairs.windows(2).filter(|w| w[0].0 != w[1].0).count();
        let mut stats = RepairStats {
            dirty_vertices: eps.len() + neighbor_keys,
            ..RepairStats::default()
        };
        self.merge(graph, plan, &eps, &pairs, &mut stats);
        stats
    }

    /// The batch-local branch of [`StreamIndex::patch`]: `eps` are the
    /// sorted distinct in-range endpoints, `pairs` their sorted
    /// `(non-endpoint neighbor, endpoint)` adjacency entries.
    fn merge(
        &mut self,
        graph: &Graph,
        plan: &QueryPlan,
        eps: &[VertexId],
        pairs: &[(VertexId, VertexId)],
        stats: &mut RepairStats,
    ) {
        let filters = VertexFilters::new(plan.query());
        let n = plan.query().num_vertices();

        // Per-node candidate transitions discovered so far this patch.
        let mut added_c: Vec<Vec<VertexId>> = vec![Vec::new(); n];
        let mut removed_c: Vec<Vec<VertexId>> = vec![Vec::new(); n];

        // Root membership can flip only at the endpoints themselves.
        let root = plan.root();
        for &e in eps {
            let pass = filters.passes(graph, root, e);
            match self.pivots.binary_search(&e) {
                Ok(i) if !pass => {
                    self.pivots.remove(i);
                    removed_c[root.index()].push(e);
                }
                Err(i) if pass => {
                    self.pivots.insert(i, e);
                    added_c[root.index()].push(e);
                }
                _ => {}
            }
        }

        let mut buf: Vec<VertexId> = Vec::new();
        for &u in plan.matching_order().iter().skip(1) {
            let ui = u.index();
            let parent = plan.tree().parent(u).expect("non-root node has a parent");
            let mut before: HashMap<VertexId, u32> = HashMap::new();
            let eps_pass: Vec<bool> = eps.iter().map(|&e| filters.passes(graph, u, e)).collect();
            // `F(u, vf)` for a key with no old list to start from. New keys
            // cluster around the batch, so their neighbors repeat: a verdict
            // is taken once per `(u, v)`, as in `build`.
            let mut verdicts: HashMap<VertexId, bool> = HashMap::new();
            let mut fresh_list = |vf: VertexId, buf: &mut Vec<VertexId>| {
                buf.clear();
                buf.extend(graph.neighbors(vf).iter().filter(|&&v| {
                    *verdicts
                        .entry(v)
                        .or_insert_with(|| filters.passes(graph, u, v))
                }));
            };
            {
                let map = self.te[ui].as_mut().expect("non-root TE table");
                let refs = &mut self.refs[ui];
                // 1. Keys whose keying vertex left the parent's candidates.
                for &vf in &removed_c[parent.index()] {
                    if let Some(list) = map.remove(&vf) {
                        stats.keys_removed += 1;
                        for v in list {
                            ref_dec(refs, &mut before, v);
                        }
                    }
                }
                // 2. Endpoint keys recomputed in full, endpoint
                // membership in neighbor keys fixed surgically; refcount
                // transitions recorded for the candidate delta.
                {
                    let mut on_change = |v: VertexId, inc: bool| {
                        if inc {
                            ref_inc(refs, &mut before, v);
                        } else {
                            ref_dec(refs, &mut before, v);
                        }
                    };
                    repair_table(
                        map,
                        graph,
                        eps,
                        &eps_pass,
                        pairs,
                        stats,
                        &mut buf,
                        &mut on_change,
                    );
                }
                // 3. Keys for vertices that just became parent candidates.
                for &vf in &added_c[parent.index()] {
                    debug_assert!(!map.contains_key(&vf), "fresh candidate already keyed");
                    fresh_list(vf, &mut buf);
                    stats.keys_added += 1;
                    for &v in &buf {
                        ref_inc(refs, &mut before, v);
                    }
                    map.insert(vf, buf.clone());
                }
                // Net refcount transitions define this node's candidate delta.
                for (v, b) in before {
                    let now = refs.get(&v).copied().unwrap_or(0);
                    if b == 0 && now > 0 {
                        added_c[ui].push(v);
                    } else if b > 0 && now == 0 {
                        removed_c[ui].push(v);
                    }
                }
            }
            // Backward NTE tables consume the non-tree parent's transitions
            // (already final — `un` precedes `u` in the matching order).
            for (un, map) in self.nte[ui].iter_mut() {
                for &vf in &removed_c[un.index()] {
                    if map.remove(&vf).is_some() {
                        stats.keys_removed += 1;
                    }
                }
                repair_table(
                    map,
                    graph,
                    eps,
                    &eps_pass,
                    pairs,
                    stats,
                    &mut buf,
                    &mut |_, _| {},
                );
                for &vf in &added_c[un.index()] {
                    fresh_list(vf, &mut buf);
                    map.insert(vf, buf.clone());
                    stats.keys_added += 1;
                }
            }
        }
    }

    /// Freezes the current base into a refined, enumeration-ready [`Ceci`]
    /// via the shared Algorithm-2 + freeze tail of the from-scratch builder.
    pub fn materialize(&self, graph: &Graph, plan: &QueryPlan) -> Ceci {
        let n = plan.query().num_vertices();
        let mut te: Vec<Option<BuildTable>> = Vec::with_capacity(n);
        for u in 0..n {
            te.push(self.te[u].as_ref().map(freeze_base_table));
        }
        let nte: Vec<Vec<(VertexId, BuildTable)>> = self
            .nte
            .iter()
            .map(|tables| {
                tables
                    .iter()
                    .map(|(un, map)| (*un, freeze_base_table(map)))
                    .collect()
            })
            .collect();
        let state = BuilderState::from_parts(plan, self.pivots.clone(), te, nte);
        Ceci::from_filtered_state(graph, plan, state)
    }

    /// Number of root candidates currently in the base.
    pub fn num_pivots(&self) -> usize {
        self.pivots.len()
    }

    /// Approximate resident bytes of the base tables (for cache budgeting).
    pub fn size_bytes(&self) -> usize {
        let id = std::mem::size_of::<VertexId>();
        let mut bytes = std::mem::size_of::<StreamIndex>() + self.pivots.len() * id;
        let table = |map: &BaseTable| -> usize {
            map.values()
                .map(|l| (1 + l.len()) * id + 3 * std::mem::size_of::<usize>())
                .sum()
        };
        for map in self.te.iter().flatten() {
            bytes += table(map);
        }
        for (_, map) in self.nte.iter().flatten() {
            bytes += table(map);
        }
        for refs in &self.refs {
            bytes += refs.len() * (id + std::mem::size_of::<u32>() + std::mem::size_of::<usize>());
        }
        bytes
    }
}

/// Converts a base table into a [`BuildTable`] (ascending keys, empty value
/// lists elided — `push_key` skips zero-length entries, which is exactly the
/// shape refinement expects: a candidate with no extension sums to zero).
fn freeze_base_table(map: &BaseTable) -> BuildTable {
    let entries = map.values().map(Vec::len).sum();
    let mut t = BuildTable::with_capacity(map.len(), entries);
    for (&k, list) in map {
        if !list.is_empty() {
            t.push_key(k, list);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceci_core::count_embeddings;
    use ceci_graph::extract::extract_query;
    use ceci_graph::generators::{erdos_renyi, inject_random_labels};
    use ceci_graph::DeltaOverlay;
    use ceci_query::QueryGraph;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
            let ceci = idx.materialize(&graph, &plan);
            // Materialized from tables: no candidate sets for a rebase to
            // patch, so the next one scans.
            assert!(ceci.candidate_sets().is_none());
            let got = count_embeddings(&graph, &plan, &ceci);
            let reference = {
                let ceci = Ceci::build(&graph, &plan);
                count_embeddings(&graph, &plan, &ceci)
            };
            assert_eq!(got, reference, "seed {seed}");
        }
    }

    /// Applies `batch` mutations to `graph` through an overlay, returning
    /// the new snapshot and the touched endpoints.
    fn apply_batch(
        graph: &Graph,
        rng: &mut StdRng,
        adds: usize,
        dels: usize,
    ) -> (Graph, Vec<VertexId>) {
        let n = graph.num_vertices() as u32;
        let mut overlay = DeltaOverlay::new();
        let mut endpoints = Vec::new();
        let mut applied = 0;
        let mut guard = 0;
        while applied < adds && guard < 10_000 {
            guard += 1;
            let a = VertexId(rng.gen_range(0..n));
            let b = VertexId(rng.gen_range(0..n));
            if overlay.add_edge(graph, a, b) {
                endpoints.extend([a, b]);
                applied += 1;
            }
        }
        applied = 0;
        guard = 0;
        while applied < dels && guard < 10_000 {
            guard += 1;
            let a = VertexId(rng.gen_range(0..n));
            let deg = graph.degree(a);
            if deg == 0 {
                continue;
            }
            let b = graph.neighbors(a)[rng.gen_range(0..deg)];
            if overlay.delete_edge(graph, a, b) {
                endpoints.extend([a, b]);
                applied += 1;
            }
        }
        (overlay.commit(graph), endpoints)
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
        // The plan dates from the first snapshot; `build` reads only its
        // root, tree and order, and takes every verdict from the snapshot
        // it is given.
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
    fn past_floor_is_the_test_patch_runs() {
        let graph = test_graph(41);
        let plan = test_plan(&graph, 41);
        let mut rng = StdRng::seed_from_u64(41);
        for (adds, dels) in [(1, 0), (0, 1), (3, 3), (60, 45), (20, 20)] {
            let (next, endpoints) = apply_batch(&graph, &mut rng, adds, dels);
            let mut idx = StreamIndex::build(&graph, &plan);
            let stats = idx.patch(&next, &plan, &endpoints);
            assert_eq!(
                StreamIndex::past_floor(&next, &endpoints),
                stats.rebases == 1,
                "{adds} adds, {dels} dels"
            );
        }
        assert!(!StreamIndex::past_floor(&graph, &[]));
    }

    #[test]
    fn patch_reports_locality() {
        let graph = test_graph(5);
        let plan = test_plan(&graph, 5);
        let mut idx = StreamIndex::build(&graph, &plan);
        let mut rng = StdRng::seed_from_u64(99);
        let (next, endpoints) = apply_batch(&graph, &mut rng, 1, 0);
        let stats = idx.patch(&next, &plan, &endpoints);
        // One edge dirties at most the endpoints plus their neighborhoods.
        let bound: usize = endpoints.iter().map(|&e| 1 + next.degree(e)).sum();
        assert!(stats.dirty_vertices <= bound);
        assert!(stats.dirty_vertices >= 2);
    }

    #[test]
    fn dirty_vertices_counts_endpoints_and_their_distinct_neighbors() {
        // The definition the count replaced: |endpoints ∪ N(endpoints)| on
        // the post-batch graph, by hashing every vertex of it.
        for (seed, adds, dels) in [(5u64, 1, 0), (9, 0, 1), (21, 6, 6), (33, 60, 40)] {
            let graph = test_graph(seed);
            let plan = test_plan(&graph, seed);
            let mut idx = StreamIndex::build(&graph, &plan);
            let mut rng = StdRng::seed_from_u64(seed);
            let (next, endpoints) = apply_batch(&graph, &mut rng, adds, dels);
            let mut dirty = std::collections::HashSet::new();
            for &e in &endpoints {
                dirty.insert(e);
                dirty.extend(next.neighbors(e).iter().copied());
            }
            let stats = idx.patch(&next, &plan, &endpoints);
            assert_eq!(stats.dirty_vertices, dirty.len(), "seed {seed}");
        }
    }

    #[test]
    fn patch_floor_rebuilds_when_the_batch_covers_the_tables() {
        let graph = test_graph(41);
        let plan = test_plan(&graph, 41);
        let mut idx = StreamIndex::build(&graph, &plan);
        let mut rng = StdRng::seed_from_u64(41);
        // One edge on a 120-vertex graph stays batch-local ...
        let (next, endpoints) = apply_batch(&graph, &mut rng, 1, 0);
        let stats = idx.patch(&next, &plan, &endpoints);
        assert_eq!(stats.rebases, 0, "{stats:?}");
        // ... a quarter of its edges does not: every key is recomputed once.
        let (last, endpoints) = apply_batch(&next, &mut rng, 60, 45);
        let stats = idx.patch(&last, &plan, &endpoints);
        assert_eq!(stats.rebases, 1, "{stats:?}");
        assert_eq!(stats.keys_recomputed, idx.num_keys());
        assert_eq!((stats.keys_added, stats.keys_removed), (0, 0));
        assert_eq!(idx, StreamIndex::build(&last, &plan));
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random labeled graph, random sequence mixing 1-edge and |E|/4-edge
        /// batches: `patch` (whichever branch its floor picks) counts like a
        /// from-scratch build, and the merge branch — forced on every batch,
        /// also where the floor would rebuild — leaves exactly the tables a
        /// fresh build on that snapshot has (the rebuild branch *is* that
        /// build).
        #[test]
        fn patch_matches_rebuild_on_either_side_of_the_floor(
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
            let mut patched = StreamIndex::build(&graph, &plan);
            let mut merged = StreamIndex::build(&graph, &plan);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut branches = [0usize; 2];
            for (batch, &big) in big.iter().enumerate() {
                let total = if big { (graph.num_edges() / 4).max(2) } else { 1 };
                let adds = rng.gen_range(0..=total);
                let (next, endpoints) = apply_batch(&graph, &mut rng, adds, total - adds);

                let stats = patched.patch(&next, &plan, &endpoints);
                branches[stats.rebases] += 1;
                let ceci = patched.materialize(&next, &plan);
                prop_assert_eq!(
                    count_embeddings(&next, &plan, &ceci),
                    rebuild_count(&next, &plan),
                    "batch {}: patch ({:?}) != rebuild", batch, stats
                );

                let eps = sorted_endpoints(&next, &endpoints);
                let pairs = neighbor_pairs(&next, &eps);
                merged.merge(&next, &plan, &eps, &pairs, &mut RepairStats::default());
                let fresh = StreamIndex::build(&next, &plan);
                prop_assert_eq!(&merged, &fresh, "batch {}: merged tables != fresh tables", batch);
                prop_assert_eq!(&patched, &fresh, "batch {}: patched tables != fresh tables", batch);
                graph = next;
            }
            prop_assert_eq!(branches[0] + branches[1], big.len());
        }
    }
}
