//! The labeled data graph.
//!
//! [`Graph`] combines CSR adjacency with per-vertex [`LabelSet`]s, a
//! label → vertices inverted index (used by root selection and candidate
//! seeding under a file's numbering) and an optional label-pair admission
//! index. A graph numbered label-major
//! ([`crate::rank_by_label_and_degree`]) also records where each label
//! class's ids lie ([`Graph::class_bounds`]): every sorted adjacency list
//! is then grouped by class, so the neighbourhood label counts of the
//! paper's NLC filter (§3.2) are span lengths of the list, read with no
//! stored rows.
//!
//! Directed inputs are symmetrized: the paper matches undirected query graphs
//! against directed or undirected data graphs, and its candidate/adjacency
//! machinery only consults connectivity, so we store one undirected adjacency
//! and keep a `directed` provenance flag.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::csr::{Csr, EdgeDelta};
use crate::ids::{LabelId, VertexId};
use crate::labels::LabelSet;

/// Which construction a [`Graph`] value came out of: every constructor
/// ([`Graph::with_batch`]'s streamed snapshot included) draws a fresh
/// stamp, and a clone shares its source's. Anything derived from a graph's
/// adjacency and labels — a plan's candidate sets — records the stamp it
/// was derived on, so "do these describe that graph?" is one comparison.
/// Opaque: stamps compare for equality and nothing else.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphStamp(u64);

impl GraphStamp {
    fn fresh() -> GraphStamp {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        // Relaxed: the stamp publishes nothing, it only has to be unique.
        GraphStamp(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

/// Undirected edges, as endpoint pairs.
type Edges = Vec<(VertexId, VertexId)>;

/// A labeled graph with sorted CSR adjacency.
#[derive(Clone, Debug)]
pub struct Graph {
    stamp: GraphStamp,
    csr: Csr,
    /// Shared with every snapshot patched from this graph: edge mutations
    /// never change a label.
    labels: Arc<[LabelSet]>,
    num_labels: u32,
    directed_input: bool,
    /// `label_index[l]` = sorted vertices whose label set contains `l`;
    /// shared like `labels`.
    label_index: Arc<[Vec<VertexId>]>,
    /// `Some` on a label-major numbering; see [`Graph::class_bounds`].
    /// Shared like `labels`: a batch adds no vertex and changes no label.
    classes: Option<Arc<[VertexId]>>,
    /// Degree ascends inside every class; see
    /// [`Graph::degree_ascends_in_classes`].
    degree_ranked: bool,
    /// Optional label-pair admission index; see [`LabelPairIndex`].
    label_pairs: Option<LabelPairIndex>,
}

/// Label-pair admission index: for every ordered label pair `(l, m)` with at
/// least one data edge joining an `l`-labeled vertex to an `m`-labeled
/// vertex, the maximum over all `l`-labeled vertices of the number of
/// `m`-labeled neighbors.
///
/// Two sound rejection tests fall out of this summary. Any embedding maps a
/// query edge `(a, b)` onto a data edge whose endpoints carry *all* labels
/// of `a` and `b` respectively, so if any `(la, lb)` pair across the edge is
/// absent from the data graph the query has zero embeddings. Likewise a
/// query vertex carrying label `l` and requiring `c` neighbors of label `m`
/// can only map to a vertex with `max_count(l, m) >= c`. Both checks run in
/// O(query edges × label-set size) — before any candidate computation or
/// CECI build.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LabelPairIndex {
    /// Sorted by packed key `(l << 32) | m`; value = max `m`-neighbor count
    /// over vertices carrying `l`.
    entries: Vec<(u64, u32)>,
}

impl LabelPairIndex {
    #[inline]
    fn key(l: LabelId, m: LabelId) -> u64 {
        ((l.0 as u64) << 32) | m.0 as u64
    }

    /// The exact maxima, label class by label class: `(l, m)` is the
    /// largest `m` count over the vertices `label_index[l]` lists. Each
    /// vertex's neighbour labels are counted into a dense per-label array
    /// and folded straight into the class's maxima, so no per-vertex row is
    /// kept; a vertex is walked once per label it carries. Classes come in
    /// label order and each class's neighbour labels are sorted, so the
    /// entries come out sorted.
    fn build(graph: &Graph) -> Self {
        let k = graph.num_labels as usize;
        let (mut counts, mut max) = (vec![0u32; k], vec![0u32; k]);
        let (mut counted, mut seen): (Vec<LabelId>, Vec<LabelId>) = (Vec::new(), Vec::new());
        let mut entries: Vec<(u64, u32)> = Vec::new();
        for (l, members) in graph.label_index.iter().enumerate() {
            for &v in members {
                for &nb in graph.neighbors(v) {
                    for m in graph.labels(nb).iter() {
                        if counts[m.index()] == 0 {
                            counted.push(m);
                        }
                        counts[m.index()] += 1;
                    }
                }
                for m in counted.drain(..) {
                    let count = std::mem::take(&mut counts[m.index()]);
                    let slot = &mut max[m.index()];
                    if *slot == 0 {
                        seen.push(m);
                    }
                    *slot = (*slot).max(count);
                }
            }
            seen.sort_unstable();
            for m in seen.drain(..) {
                let count = std::mem::take(&mut max[m.index()]);
                entries.push((Self::key(LabelId(l as u32), m), count));
            }
        }
        LabelPairIndex { entries }
    }

    /// Raises the stored maximum for `(l, m)` to at least `count`, inserting
    /// the pair when absent. No-op when `count` is 0 or the stored maximum
    /// already dominates.
    ///
    /// This is the streaming maintenance primitive: edge *additions* can only
    /// raise per-vertex neighbor-label counts at the two endpoints
    /// ([`Self::absorb_edges`] raises what they can have raised).
    /// Deletions deliberately leave entries in place — a too-large maximum
    /// can only admit more queries, never reject a satisfiable one — and
    /// compaction rebuilds the exact index.
    pub fn raise(&mut self, l: LabelId, m: LabelId, count: u32) {
        if count == 0 {
            return;
        }
        let k = Self::key(l, m);
        match self.entries.binary_search_by_key(&k, |&(key, _)| key) {
            Ok(i) => self.entries[i].1 = self.entries[i].1.max(count),
            Err(i) => self.entries.insert(i, (k, count)),
        }
    }

    /// Raises the maxima a batch's `added` edges can have raised, read on
    /// `graph`, the snapshot after the batch: for each edge `(v, w)`, each
    /// way round, every `(l, m)` with `l` a label of `v` and `m` one of `w`
    /// to `v`'s count of `m`-labelled neighbours
    /// ([`Graph::neighbor_label_count`]: class spans on a label-major
    /// graph, one walk otherwise). Only an added neighbour carrying `m`
    /// makes `v`'s count of `m` grow, and a count that did not grow is
    /// already under its maximum, so these are the maxima a recount of every
    /// label around every endpoint would reach.
    pub fn absorb_edges(&mut self, graph: &Graph, added: &[(VertexId, VertexId)]) {
        for &(a, b) in added {
            for (v, w) in [(a, b), (b, a)] {
                for m in graph.labels(w).iter() {
                    let count = graph.neighbor_label_count(v, m);
                    for l in graph.labels(v).iter() {
                        self.raise(l, m, count);
                    }
                }
            }
        }
    }

    /// Does any data edge join an `l`-labeled vertex to an `m`-labeled one?
    #[inline]
    pub fn has_pair(&self, l: LabelId, m: LabelId) -> bool {
        self.max_count(l, m) > 0
    }

    /// Max number of `m`-labeled neighbors over vertices carrying `l`
    /// (0 when the pair never occurs).
    #[inline]
    pub fn max_count(&self, l: LabelId, m: LabelId) -> u32 {
        let k = Self::key(l, m);
        match self.entries.binary_search_by_key(&k, |&(key, _)| key) {
            Ok(i) => self.entries[i].1,
            Err(_) => 0,
        }
    }

    /// Number of distinct ordered label pairs present.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the data graph has no labeled edges at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes of heap memory held by the index.
    pub fn size_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(u64, u32)>()
    }
}

impl Graph {
    /// Builds a graph from an edge list and per-vertex label sets.
    ///
    /// `directed_input` records whether the source data was directed; the
    /// adjacency is symmetrized either way.
    ///
    /// # Panics
    /// Panics if an edge endpoint is out of range (see [`Csr`]).
    pub fn new(
        labels: Vec<LabelSet>,
        edges: &[(VertexId, VertexId)],
        directed_input: bool,
    ) -> Self {
        let csr = Csr::from_undirected_edges(labels.len(), edges);
        Graph::from_csr(csr, labels.into(), directed_input, None)
    }

    /// The graph over `csr` and `labels`, with its label inverted index
    /// derived here and a fresh stamp.
    fn from_csr(
        csr: Csr,
        labels: Arc<[LabelSet]>,
        directed_input: bool,
        label_pairs: Option<LabelPairIndex>,
    ) -> Self {
        let num_labels = labels
            .iter()
            .flat_map(|ls| ls.iter())
            .map(|l| l.0 + 1)
            .max()
            .unwrap_or(0);
        let mut label_index: Vec<Vec<VertexId>> = vec![Vec::new(); num_labels as usize];
        for (i, ls) in labels.iter().enumerate() {
            for l in ls.iter() {
                label_index[l.index()].push(VertexId::from_index(i));
            }
        }
        Graph {
            stamp: GraphStamp::fresh(),
            csr,
            labels,
            num_labels,
            directed_input,
            label_index: label_index.into(),
            classes: None,
            degree_ranked: false,
            label_pairs,
        }
    }

    /// This graph renumbered label-major: vertex `file_of[r]` becomes `r`
    /// (`rank_of` is the inverse), class `c` holds ranks
    /// `classes[c]..classes[c + 1]` and degree ascends inside each.
    /// Adjacency is permuted in one pass ([`Csr::permuted`]); the label-pair
    /// index, which speaks of labels only, is carried over.
    pub(crate) fn permuted(
        &self,
        rank_of: &[VertexId],
        file_of: &[VertexId],
        classes: Vec<VertexId>,
    ) -> Graph {
        debug_assert_eq!(classes.len(), self.num_labels as usize + 2);
        let labels = file_of.iter().map(|&f| self.labels(f).clone()).collect();
        Graph {
            classes: Some(classes.into()),
            degree_ranked: true,
            ..Graph::from_csr(
                self.csr.permuted(rank_of, file_of),
                labels,
                self.directed_input,
                self.label_pairs.clone(),
            )
        }
    }

    /// The next streamed snapshot: this graph with one batch of net edge
    /// changes applied (see [`Csr::patched`] for what `delta` must be).
    /// Reads this graph's adjacency only; labels, the label inverted index,
    /// the alphabet size and the class bounds are shared with it (a batch
    /// adds no vertex and changes no label, so a label-major snapshot
    /// counts neighbour labels from spans like the graph it came from), the
    /// stamp is fresh, and the label-pair index is left unset (the
    /// streaming layer attaches its maintained one itself). Degrees move,
    /// so the snapshot does not claim they ascend inside a class.
    pub(crate) fn patched(&self, delta: &[EdgeDelta]) -> Graph {
        Graph {
            stamp: GraphStamp::fresh(),
            csr: self.csr.patched(delta),
            labels: Arc::clone(&self.labels),
            num_labels: self.num_labels,
            directed_input: self.directed_input,
            label_index: Arc::clone(&self.label_index),
            classes: self.classes.clone(),
            degree_ranked: false,
            label_pairs: None,
        }
    }

    /// Applies one batch of streamed edge mutations: every edge of `adds`,
    /// then every edge of `dels`, each against the view the earlier ones
    /// left. That is a set rule, so each side is normalised once to sorted,
    /// distinct `(lo, hi)` keys without self-loops: `added` holds the adds
    /// this graph lacks, `deleted` the dels this graph has or `added` holds.
    /// Returns `(added, deleted, snapshot)`, the snapshot this graph's CSR
    /// patched in one pass by `added \ deleted` (inserted) and
    /// `deleted ∩ self` (removed), or `None`, building nothing, when the
    /// batch applies no mutation.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range: a batch never grows the
    /// vertex set.
    pub fn with_batch(
        &self,
        adds: &[(VertexId, VertexId)],
        dels: &[(VertexId, VertexId)],
    ) -> Option<(Edges, Edges, Graph)> {
        let n = self.num_vertices();
        let keys = |edges: &[(VertexId, VertexId)]| {
            let mut keys: Vec<_> = (edges.iter())
                .inspect(|&&(a, b)| {
                    assert!(a.index() < n && b.index() < n, "edge endpoint out of range")
                })
                .filter(|&&(a, b)| a != b)
                .map(|&(a, b)| (a.min(b), a.max(b)))
                .collect();
            keys.sort_unstable();
            keys.dedup();
            keys
        };
        let mut added = keys(adds);
        added.retain(|&(a, b)| !self.has_edge(a, b));
        let mut deleted = keys(dels);
        deleted.retain(|&(a, b)| self.has_edge(a, b) || added.binary_search(&(a, b)).is_ok());
        if added.is_empty() && deleted.is_empty() {
            return None;
        }
        let inserted = (added.iter()).filter(|e| deleted.binary_search(e).is_err());
        let removed = (deleted.iter()).filter(|&&(a, b)| self.has_edge(a, b));
        let mut delta: Vec<EdgeDelta> = (inserted.map(|&(a, b)| (a, b, true)))
            .chain(removed.map(|&(a, b)| (a, b, false)))
            .flat_map(|(a, b, add)| [(a, b, add), (b, a, add)])
            .collect();
        delta.sort_unstable();
        let snapshot = self.patched(&delta);
        Some((added, deleted, snapshot))
    }

    /// The construction stamp: equal for a graph and its clones, different
    /// for every separately constructed graph (see [`GraphStamp`]). The
    /// optional indexes do not enter it — they restate the adjacency.
    #[inline]
    pub fn stamp(&self) -> GraphStamp {
        self.stamp
    }

    /// Builds an *unlabeled* graph: every vertex gets the shared label `0`,
    /// matching the paper's Figure 6 queries ("all the nodes have same
    /// label 0").
    pub fn unlabeled(n: usize, edges: &[(VertexId, VertexId)]) -> Self {
        Graph::new(vec![LabelSet::single(LabelId(0)); n], edges, false)
    }

    /// Where each label class's ids lie, on a graph numbered label-major
    /// ([`crate::rank_by_label_and_degree`] and every snapshot patched from
    /// its output): class `c` — label `c`, or `num_labels` for the class
    /// every multi-labeled vertex shares — holds ids
    /// `bounds[c]..bounds[c + 1]`, so the slice has `num_labels + 2` ids and
    /// ends at `|V|`. Every sorted adjacency list is then grouped by class.
    /// `None` under any other numbering.
    #[inline]
    pub fn class_bounds(&self) -> Option<&[VertexId]> {
        self.classes.as_deref()
    }

    /// Whether degree ascends inside every class of
    /// [`Graph::class_bounds`], so the vertices of a class with at least a
    /// given degree are a suffix of its range. True only on
    /// [`crate::rank_by_label_and_degree`]'s output: a patched snapshot's
    /// degrees have moved inside their classes.
    #[inline]
    pub fn degree_ascends_in_classes(&self) -> bool {
        self.degree_ranked
    }

    /// Precomputes the exact label-pair admission index, whatever the
    /// numbering: one walk of the adjacency folded into per-class maxima
    /// ([`LabelPairIndex`]), keeping no per-vertex rows. Idempotent.
    pub fn build_label_pair_index(&mut self) {
        if self.label_pairs.is_none() {
            self.label_pairs = Some(LabelPairIndex::build(self));
        }
    }

    /// The label-pair admission index, if built.
    #[inline]
    pub fn label_pair_index(&self) -> Option<&LabelPairIndex> {
        self.label_pairs.as_ref()
    }

    /// Attaches an externally maintained label-pair index, replacing any
    /// existing one. The streaming path carries a sound overestimate forward
    /// across mutation batches instead of rebuilding per batch; see
    /// [`LabelPairIndex::raise`].
    pub fn set_label_pair_index(&mut self, index: LabelPairIndex) {
        self.label_pairs = Some(index);
    }

    /// Number of vertices `|V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.csr.num_vertices()
    }

    /// Number of undirected edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.csr.num_edges()
    }

    /// Size of the label alphabet (max label id + 1).
    #[inline]
    pub fn num_labels(&self) -> u32 {
        self.num_labels
    }

    /// Whether the source data was directed (provenance only).
    #[inline]
    pub fn is_directed_input(&self) -> bool {
        self.directed_input
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        (0..self.num_vertices() as u32).map(VertexId)
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.csr.degree(v)
    }

    /// Sorted neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        self.csr.neighbors(v)
    }

    /// Edge test (binary search on the lower-degree endpoint).
    #[inline]
    pub fn has_edge(&self, a: VertexId, b: VertexId) -> bool {
        self.csr.has_edge(a, b)
    }

    /// Label set of `v`.
    #[inline]
    pub fn labels(&self, v: VertexId) -> &LabelSet {
        &self.labels[v.index()]
    }

    /// Does `v` carry label `l`?
    #[inline]
    pub fn has_label(&self, v: VertexId, l: LabelId) -> bool {
        self.labels[v.index()].contains(l)
    }

    /// Sorted vertices carrying label `l` (empty for out-of-alphabet labels).
    #[inline]
    pub fn vertices_with_label(&self, l: LabelId) -> &[VertexId] {
        self.label_index
            .get(l.index())
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Count of neighbors of `v` carrying label `l`. On a label-major
    /// numbering ([`Graph::class_bounds`]) that is the length of `l`'s span
    /// of `v`'s list plus the multi-labeled neighbours carrying `l`, found
    /// in the last class's span; otherwise a scan of the whole list.
    pub fn neighbor_label_count(&self, v: VertexId, l: LabelId) -> u32 {
        let list = self.neighbors(v);
        let carrying = |nbs: &[VertexId]| nbs.iter().filter(|&&nb| self.has_label(nb, l)).count();
        let count = match self.class_bounds() {
            None => carrying(list),
            Some(_) if l.0 >= self.num_labels => 0,
            Some(bounds) => {
                let span = |class: usize| {
                    let from = list.partition_point(|&nb| nb < bounds[class]);
                    let to = from + list[from..].partition_point(|&nb| nb < bounds[class + 1]);
                    &list[from..to]
                };
                span(l.index()).len() + carrying(span(self.num_labels as usize))
            }
        };
        count as u32
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// The underlying CSR (for the distributed shared-store simulation).
    #[inline]
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// Approximate heap bytes held by the graph (adjacency, labels, class
    /// bounds and indexes).
    pub fn size_bytes(&self) -> usize {
        let label_bytes: usize = self
            .labels
            .iter()
            .map(|ls| match ls {
                LabelSet::One(_) => std::mem::size_of::<LabelSet>(),
                LabelSet::Many(v) => {
                    std::mem::size_of::<LabelSet>() + v.len() * std::mem::size_of::<LabelId>()
                }
            })
            .sum();
        let index_bytes: usize = self
            .label_index
            .iter()
            .map(|v| v.capacity() * std::mem::size_of::<VertexId>())
            .sum();
        self.csr.size_bytes()
            + label_bytes
            + index_bytes
            + self.class_bounds().map_or(0, std::mem::size_of_val)
            + self
                .label_pairs
                .as_ref()
                .map(|p| p.size_bytes())
                .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{lid, vid};

    /// A small labeled fixture:
    ///
    /// ```text
    ///   0(A) - 1(B) - 2(A,B)
    ///            \    /
    ///             3(C)
    /// ```
    fn fixture() -> Graph {
        Graph::new(
            vec![
                LabelSet::single(lid(0)),
                LabelSet::single(lid(1)),
                LabelSet::from_labels([lid(0), lid(1)]),
                LabelSet::single(lid(2)),
            ],
            &[
                (vid(0), vid(1)),
                (vid(1), vid(2)),
                (vid(1), vid(3)),
                (vid(2), vid(3)),
            ],
            false,
        )
    }

    #[test]
    fn counts_and_alphabet() {
        let g = fixture();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.num_labels(), 3);
        assert!(!g.is_directed_input());
    }

    #[test]
    fn stamps_name_constructions_not_contents() {
        let g = fixture();
        let mut clone = g.clone();
        clone.build_label_pair_index();
        assert_eq!(g.stamp(), clone.stamp());
        assert_ne!(g.stamp(), fixture().stamp());
        assert_ne!(g.stamp(), g.patched(&[]).stamp());
    }

    #[test]
    fn label_index_contains_multilabel_vertices() {
        let g = fixture();
        assert_eq!(g.vertices_with_label(lid(0)), &[vid(0), vid(2)]);
        assert_eq!(g.vertices_with_label(lid(1)), &[vid(1), vid(2)]);
        assert_eq!(g.vertices_with_label(lid(2)), &[vid(3)]);
        assert_eq!(g.vertices_with_label(lid(99)), &[] as &[VertexId]);
    }

    #[test]
    fn neighbor_label_count_without_index() {
        let g = fixture();
        // neighbors of 1: {0(A), 2(A,B), 3(C)} → A:2, B:1, C:1
        assert_eq!(g.neighbor_label_count(vid(1), lid(0)), 2);
        assert_eq!(g.neighbor_label_count(vid(1), lid(1)), 1);
        assert_eq!(g.neighbor_label_count(vid(1), lid(2)), 1);
        assert_eq!(g.neighbor_label_count(vid(0), lid(2)), 0);
    }

    /// The index is the label-major numbering: the ranked copy counts from
    /// spans, the multi-labeled vertex 2 included, what the file graph
    /// counts by scanning, and a label outside the alphabet counts 0.
    #[test]
    fn neighbor_label_count_with_index_matches_scan() {
        let g = fixture();
        let (ranked, ids) = crate::rank_by_label_and_degree(&g);
        assert!(g.class_bounds().is_none());
        for v in g.vertices() {
            for l in (0..4).map(lid) {
                let scan = g.neighbor_label_count(v, l);
                assert_eq!(
                    ranked.neighbor_label_count(ids.rank(v), l),
                    scan,
                    "{v:?} {l:?}"
                );
            }
        }
        assert_eq!(ranked.neighbor_label_count(ids.rank(vid(1)), lid(0)), 2);
    }

    #[test]
    fn a_patched_snapshot_keeps_the_class_bounds_but_not_the_degree_order() {
        let (ranked, _) = crate::rank_by_label_and_degree(&fixture());
        // Ranks: class 0 {0}, class 1 {1}, class 2 {3}, then {A, B} {2}.
        assert_eq!(
            ranked.class_bounds(),
            Some(&[vid(0), vid(1), vid(2), vid(3), vid(4)][..])
        );
        assert!(ranked.degree_ascends_in_classes());
        let snapshot = ranked.patched(&[]);
        assert_eq!(snapshot.class_bounds(), ranked.class_bounds());
        assert!(!snapshot.degree_ascends_in_classes());
        assert!(ranked.size_bytes() > fixture().size_bytes());
    }

    #[test]
    fn unlabeled_graph_single_label() {
        let g = Graph::unlabeled(3, &[(vid(0), vid(1)), (vid(1), vid(2))]);
        assert_eq!(g.num_labels(), 1);
        assert_eq!(g.vertices_with_label(lid(0)).len(), 3);
    }

    #[test]
    fn max_degree() {
        let g = fixture();
        assert_eq!(g.max_degree(), 3);
        let empty = Graph::unlabeled(0, &[]);
        assert_eq!(empty.max_degree(), 0);
    }

    #[test]
    fn label_pair_index_presence_matches_edges() {
        let mut g = fixture();
        g.build_label_pair_index();
        let lp = g.label_pair_index().unwrap();
        // Edges: 0(A)-1(B), 1(B)-2(A,B), 1(B)-3(C), 2(A,B)-3(C).
        assert!(lp.has_pair(lid(0), lid(1))); // A-B via (0,1)
        assert!(lp.has_pair(lid(1), lid(0)));
        assert!(lp.has_pair(lid(1), lid(1))); // B-B via (1,2)
        assert!(lp.has_pair(lid(0), lid(2))); // A-C via (2,3)
        assert!(lp.has_pair(lid(2), lid(1))); // C-B via (3,1)
                                              // No edge joins two A-only... (0,2) not an edge; A-A pair would need
                                              // an edge between two vertices both carrying A — none exists.
        assert!(!lp.has_pair(lid(0), lid(0)));
        assert!(!lp.has_pair(lid(2), lid(2))); // single C vertex
        assert!(!lp.has_pair(lid(0), lid(9))); // out of alphabet
    }

    #[test]
    fn label_pair_index_max_counts() {
        let mut g = fixture();
        g.build_label_pair_index();
        let lp = g.label_pair_index().unwrap();
        // Vertex 1(B) has neighbors {0(A), 2(A,B), 3(C)} → two A-neighbors,
        // and it is the B-vertex with the most A-neighbors.
        assert_eq!(lp.max_count(lid(1), lid(0)), 2);
        // Every A-vertex (0 and 2) has exactly one B-neighbor (vertex 1).
        assert_eq!(lp.max_count(lid(0), lid(1)), 1);
        assert_eq!(lp.max_count(lid(0), lid(0)), 0);
    }

    #[test]
    fn label_pair_index_is_the_same_under_either_numbering() {
        let mut g = fixture();
        let (mut ranked, _) = crate::rank_by_label_and_degree(&g);
        g.build_label_pair_index();
        ranked.build_label_pair_index();
        let entries = &g.label_pair_index().unwrap().entries;
        assert_eq!(&ranked.label_pair_index().unwrap().entries, entries);
        // Vertex 3(C) sees 1(B) and 2(A,B): two B neighbours, one A.
        let key = LabelPairIndex::key;
        assert!(entries.contains(&(key(lid(2), lid(1)), 2)));
        assert!(entries.contains(&(key(lid(2), lid(0)), 1)));
        // The index holds its entries and nothing per vertex.
        let bytes = g.size_bytes() - fixture().size_bytes();
        assert_eq!(bytes, g.label_pair_index().unwrap().size_bytes());
    }

    #[test]
    fn label_pair_index_build_is_idempotent_and_sized() {
        let mut g = fixture();
        let before = g.size_bytes();
        g.build_label_pair_index();
        let n = g.label_pair_index().unwrap().len();
        g.build_label_pair_index();
        assert_eq!(g.label_pair_index().unwrap().len(), n);
        assert!(g.size_bytes() > before);
        assert!(!g.label_pair_index().unwrap().is_empty());
    }

    /// The 0-1-2-3 path with alternating labels.
    fn path() -> Graph {
        Graph::new(
            vec![
                LabelSet::single(lid(0)),
                LabelSet::single(lid(1)),
                LabelSet::single(lid(0)),
                LabelSet::single(lid(1)),
            ],
            &[(vid(0), vid(1)), (vid(1), vid(2)), (vid(2), vid(3))],
            false,
        )
    }

    fn same_adjacency(a: &Graph, b: &Graph) {
        assert_eq!(a.num_edges(), b.num_edges());
        for v in a.vertices() {
            assert_eq!(a.neighbors(v), b.neighbors(v));
        }
    }

    #[test]
    fn batch_add_delete_noop_semantics() {
        let g = path();
        let adds = [(0, 1), (2, 2), (2, 0), (0, 2)].map(|(a, b)| (vid(a), vid(b)));
        let dels = [(0, 3), (2, 1)].map(|(a, b)| (vid(a), vid(b)));
        let (added, deleted, next) = g.with_batch(&adds, &dels).unwrap();
        assert_eq!(
            added,
            [(vid(0), vid(2))],
            "present, self-loop and repeat drop"
        );
        assert_eq!(deleted, [(vid(1), vid(2))], "an absent edge's delete drops");
        assert!(next.has_edge(vid(2), vid(0)));
        assert!(!next.has_edge(vid(2), vid(1)));
        assert_eq!(next.num_edges(), 3);
    }

    #[test]
    fn batch_add_then_delete_cancels() {
        let g = path();
        let (added, deleted, next) = g
            .with_batch(&[(vid(0), vid(3))], &[(vid(3), vid(0))])
            .unwrap();
        assert_eq!(
            (added, deleted),
            (vec![(vid(0), vid(3))], vec![(vid(0), vid(3))])
        );
        same_adjacency(&next, &g);
        assert_ne!(next.stamp(), g.stamp());
        // Deletes come after adds: a present edge's add drops, its delete
        // applies.
        let (added, deleted, next) = g
            .with_batch(&[(vid(1), vid(0))], &[(vid(0), vid(1))])
            .unwrap();
        assert!(added.is_empty());
        assert_eq!(deleted, [(vid(0), vid(1))]);
        assert!(!next.has_edge(vid(0), vid(1)));
    }

    #[test]
    fn batch_matches_from_scratch() {
        let g = path();
        let (_, _, snap) = g
            .with_batch(&[(vid(0), vid(2)), (vid(0), vid(3))], &[(vid(1), vid(2))])
            .unwrap();
        let expect = Graph::new(
            (0..4).map(|i| g.labels(vid(i)).clone()).collect::<Vec<_>>(),
            &[
                (vid(0), vid(1)),
                (vid(2), vid(3)),
                (vid(0), vid(2)),
                (vid(0), vid(3)),
            ],
            false,
        );
        same_adjacency(&snap, &expect);
        for v in 0..4 {
            assert_eq!(snap.labels(vid(v)), expect.labels(vid(v)));
        }
        assert_eq!(
            snap.vertices_with_label(lid(0)),
            expect.vertices_with_label(lid(0))
        );
        // A second batch patches the snapshot the first one produced.
        let (_, _, next) = snap
            .with_batch(&[(vid(1), vid(2))], &[(vid(0), vid(3))])
            .unwrap();
        assert_eq!(next.neighbors(vid(0)), &[vid(1), vid(2)]);
        assert_eq!(next.neighbors(vid(2)), &[vid(0), vid(1), vid(3)]);
        assert_eq!(next.neighbors(vid(3)), &[vid(2)]);
    }

    #[test]
    fn empty_batch_builds_no_snapshot() {
        let g = path();
        assert!(g.with_batch(&[], &[]).is_none());
        let no_ops = g.with_batch(&[(vid(0), vid(1)), (vid(2), vid(2))], &[(vid(0), vid(3))]);
        assert!(no_ops.is_none());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn batch_out_of_range_endpoint_panics() {
        path().with_batch(&[(vid(0), vid(9))], &[]);
    }
}
