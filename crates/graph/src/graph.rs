//! The labeled data graph.
//!
//! [`Graph`] combines CSR adjacency with per-vertex [`LabelSet`]s, a
//! label → vertices inverted index (used by root selection and candidate
//! seeding), and two optional indexes built by one walk of the adjacency:
//! the per-vertex neighborhood-label-count (NLC) rows the paper's NLC filter
//! reads (§3.2), and the label-pair admission index derived from those rows.
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
/// (a streamed snapshot's [`Graph::patched`] included) draws a fresh stamp, and a
/// clone shares its source's. Anything derived from a graph's adjacency and
/// labels — a plan's candidate sets — records the stamp it was derived on,
/// so "do these describe that graph?" is one comparison. Opaque: stamps
/// compare for equality and nothing else.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphStamp(u64);

impl GraphStamp {
    fn fresh() -> GraphStamp {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        // Relaxed: the stamp publishes nothing, it only has to be unique.
        GraphStamp(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

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
    /// Optional NLC index; see [`NlcIndex`].
    nlc: Option<NlcIndex>,
    /// Optional label-pair admission index; see [`LabelPairIndex`].
    label_pairs: Option<LabelPairIndex>,
}

/// Precomputed neighborhood label counts (l2Match's neighbouring-label
/// index): for each vertex, a sorted `(label, count)` row over the labels
/// appearing among its neighbors, all rows in one flat array.
///
/// The NLC filter asks, for every distinct label `l` in the query node's
/// neighborhood, whether `count_v(l) >= count_u(l)`. With this index the
/// check is a merge over two short sorted lists instead of a rescan of the
/// data vertex's adjacency. The rows are also all the
/// [`LabelPairIndex`] is derived from, so one label walk builds both.
#[derive(Clone, Debug)]
pub struct NlcIndex {
    offsets: Vec<usize>,
    entries: Vec<(LabelId, u32)>,
}

impl NlcIndex {
    /// One walk of every adjacency list: each neighbor's labels are counted
    /// into a dense per-label array, and the labels seen are sorted into
    /// the vertex's row and zeroed again.
    fn build(csr: &Csr, labels: &[LabelSet], num_labels: u32) -> Self {
        let n = csr.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut entries: Vec<(LabelId, u32)> = Vec::new();
        offsets.push(0);
        let mut counts = vec![0u32; num_labels as usize];
        let mut seen: Vec<LabelId> = Vec::new();
        for v in 0..n {
            for &nb in csr.neighbors(VertexId::from_index(v)) {
                for m in labels[nb.index()].iter() {
                    if counts[m.index()] == 0 {
                        seen.push(m);
                    }
                    counts[m.index()] += 1;
                }
            }
            seen.sort_unstable();
            for m in seen.drain(..) {
                entries.push((m, std::mem::take(&mut counts[m.index()])));
            }
            offsets.push(entries.len());
        }
        entries.shrink_to_fit();
        NlcIndex { offsets, entries }
    }

    /// The sorted `(label, count)` list of `v`.
    #[inline]
    pub fn counts(&self, v: VertexId) -> &[(LabelId, u32)] {
        &self.entries[self.offsets[v.index()]..self.offsets[v.index() + 1]]
    }

    /// How many neighbors of `v` carry label `l`.
    #[inline]
    pub fn count(&self, v: VertexId, l: LabelId) -> u32 {
        let c = self.counts(v);
        match c.binary_search_by_key(&l, |&(label, _)| label) {
            Ok(i) => c[i].1,
            Err(_) => 0,
        }
    }

    /// Bytes of heap memory held by the index.
    pub fn size_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<usize>()
            + self.entries.capacity() * std::mem::size_of::<(LabelId, u32)>()
    }
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
#[derive(Clone, Debug, Default)]
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

    /// The exact maxima, read off the NLC rows label class by label class:
    /// `(l, m)` is the largest `m` count in the rows of the vertices
    /// `label_index[l]` lists. Classes come in label order and each class's
    /// neighbor labels are sorted, so the entries come out sorted.
    fn from_rows(rows: &NlcIndex, label_index: &[Vec<VertexId>]) -> Self {
        let mut max = vec![0u32; label_index.len()];
        let mut seen: Vec<LabelId> = Vec::new();
        let mut entries: Vec<(u64, u32)> = Vec::new();
        for (l, members) in label_index.iter().enumerate() {
            for &v in members {
                for &(m, count) in rows.counts(v) {
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
    /// raise per-vertex neighbor-label counts at the two endpoints, so
    /// re-deriving the endpoints' counts ([`Self::absorb_vertices`]) and
    /// calling `raise` keeps the index a sound overestimate. Deletions deliberately leave entries in place —
    /// a too-large maximum can only admit more queries, never reject a
    /// satisfiable one — and compaction rebuilds the exact index.
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

    /// Re-derives the neighborhood label counts of each of `vertices` on
    /// `graph` and raises every `(label-of-v, neighbor-label)` maximum
    /// accordingly. Used after a mutation batch for the endpoints of its
    /// *added* edges — a deletion's endpoints can raise nothing.
    pub fn absorb_vertices(&mut self, graph: &Graph, vertices: &[VertexId]) {
        // One dense count per label, zeroed again through `seen` after
        // every vertex.
        let mut counts = vec![0u32; graph.num_labels() as usize];
        let mut seen: Vec<LabelId> = Vec::new();
        for &v in vertices {
            for &nb in graph.neighbors(v) {
                for m in graph.labels(nb).iter() {
                    if counts[m.index()] == 0 {
                        seen.push(m);
                    }
                    counts[m.index()] += 1;
                }
            }
            for m in seen.drain(..) {
                for l in graph.labels(v).iter() {
                    self.raise(l, m, counts[m.index()]);
                }
                counts[m.index()] = 0;
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
            nlc: None,
            label_pairs,
        }
    }

    /// This graph renumbered: vertex `file_of[r]` becomes `r` (`rank_of` is
    /// the inverse). Adjacency is permuted in one pass ([`Csr::permuted`]);
    /// the label-pair index, which speaks of labels only, is carried over.
    pub(crate) fn permuted(&self, rank_of: &[VertexId], file_of: &[VertexId]) -> Graph {
        let labels = file_of.iter().map(|&f| self.labels(f).clone()).collect();
        Graph::from_csr(
            self.csr.permuted(rank_of, file_of),
            labels,
            self.directed_input,
            self.label_pairs.clone(),
        )
    }

    /// The next streamed snapshot: this graph with one batch of net edge
    /// changes applied (see [`Csr::patched`] for what `delta` must be).
    /// Reads this graph's adjacency only; labels, the label inverted index
    /// and the alphabet size are shared with it, the stamp is fresh, and
    /// the optional NLC and label-pair indexes are left unset (the
    /// streaming layer attaches its maintained label-pair index itself).
    /// Rows rebuilt here would cost every batch a walk of every adjacency
    /// list and every live snapshot a copy of them; a candidate scan on a
    /// snapshot without rows walks the adjacency of the vertices it tests.
    pub(crate) fn patched(&self, delta: &[EdgeDelta]) -> Graph {
        Graph {
            stamp: GraphStamp::fresh(),
            csr: self.csr.patched(delta),
            labels: Arc::clone(&self.labels),
            num_labels: self.num_labels,
            directed_input: self.directed_input,
            label_index: Arc::clone(&self.label_index),
            nlc: None,
            label_pairs: None,
        }
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

    /// Precomputes the NLC index. Idempotent.
    pub fn build_nlc_index(&mut self) {
        if self.nlc.is_none() {
            self.nlc = Some(NlcIndex::build(&self.csr, &self.labels, self.num_labels));
        }
    }

    /// The NLC index, if built.
    #[inline]
    pub fn nlc_index(&self) -> Option<&NlcIndex> {
        self.nlc.as_ref()
    }

    /// Precomputes the label-pair admission index and the NLC index it is
    /// derived from: the rows are built if absent (the one walk of every
    /// adjacency list), then the exact maxima are read off them. Idempotent.
    pub fn build_label_pair_index(&mut self) {
        self.build_nlc_index();
        if self.label_pairs.is_none() {
            let rows = self.nlc.as_ref().expect("built above");
            self.label_pairs = Some(LabelPairIndex::from_rows(rows, &self.label_index));
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

    /// Count of neighbors of `v` carrying label `l`. Uses the NLC index when
    /// built, otherwise scans the adjacency list.
    pub fn neighbor_label_count(&self, v: VertexId, l: LabelId) -> u32 {
        if let Some(nlc) = &self.nlc {
            nlc.count(v, l)
        } else {
            self.neighbors(v)
                .iter()
                .filter(|&&nb| self.has_label(nb, l))
                .count() as u32
        }
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

    /// Approximate heap bytes held by the graph (adjacency + labels + indexes).
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
            + self.nlc.as_ref().map(|n| n.size_bytes()).unwrap_or(0)
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
        clone.build_nlc_index();
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

    #[test]
    fn neighbor_label_count_with_index_matches_scan() {
        let mut g = fixture();
        let scans: Vec<u32> = g
            .vertices()
            .flat_map(|v| (0..3).map(move |l| (v, lid(l))))
            .map(|(v, l)| g.neighbor_label_count(v, l))
            .collect();
        g.build_nlc_index();
        assert!(g.nlc_index().is_some());
        let indexed: Vec<u32> = g
            .vertices()
            .flat_map(|v| (0..3).map(move |l| (v, lid(l))))
            .map(|(v, l)| g.neighbor_label_count(v, l))
            .collect();
        assert_eq!(scans, indexed);
    }

    #[test]
    fn nlc_index_build_is_idempotent() {
        let mut g = fixture();
        g.build_nlc_index();
        let before = g.nlc_index().unwrap().counts(vid(1)).to_vec();
        g.build_nlc_index();
        assert_eq!(g.nlc_index().unwrap().counts(vid(1)), before.as_slice());
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
    fn size_bytes_grows_with_nlc() {
        let mut g = fixture();
        let before = g.size_bytes();
        g.build_nlc_index();
        assert!(g.size_bytes() > before);
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
    fn label_pair_index_builds_the_rows_it_is_derived_from() {
        let mut g = fixture();
        g.build_label_pair_index();
        let rows = g.nlc_index().expect("built with the label pairs");
        // Vertex 1(B) has neighbors {0(A), 2(A,B), 3(C)}.
        assert_eq!(
            rows.counts(vid(1)),
            &[(lid(0), 2), (lid(1), 1), (lid(2), 1)]
        );
        assert_eq!(rows.counts(vid(3)), &[(lid(0), 1), (lid(1), 2)]);
        // Rows already present are kept, and the maxima read off them.
        let mut h = fixture();
        h.build_nlc_index();
        h.build_label_pair_index();
        assert_eq!(
            h.label_pair_index().unwrap().entries,
            g.label_pair_index().unwrap().entries
        );
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
}
