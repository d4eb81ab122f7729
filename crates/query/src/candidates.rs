//! Initial per-query-node candidate computation.
//!
//! §2.2: *"The candidate list of u is obtained by verifying each data node by
//! the label, degree, and neighborhood label count."* These are the same
//! three per-vertex filters (LF, DF, NLCF) that Algorithm 1 later applies
//! during CECI construction; here they run globally to support root selection
//! and pivot discovery.

use ceci_graph::{Graph, LabelId, VertexId};

use crate::query_graph::QueryGraph;

/// Verdict of the O(query edges) label-pair admission check. Any rejection
/// is a *proof* of zero embeddings — the check is sound, never heuristic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionVerdict {
    /// The query passed every structural test and may have embeddings.
    Pass,
    /// A query vertex requires a label no data vertex carries.
    AbsentLabel(LabelId),
    /// A query edge requires a label pair no data edge realizes.
    AbsentPair(LabelId, LabelId),
    /// A query vertex's neighborhood-label signature exceeds what any data
    /// vertex carrying `label` offers: it needs `required` neighbors of
    /// label `neighbor`, but the data-graph maximum is smaller.
    SignatureExceeded {
        /// A label of the query vertex.
        label: LabelId,
        /// The neighbor label whose count cannot be met.
        neighbor: LabelId,
        /// Neighbors of that label the query vertex requires.
        required: u32,
    },
}

impl AdmissionVerdict {
    /// `true` when the query is provably embedding-free.
    #[inline]
    pub fn rejected(&self) -> bool {
        !matches!(self, AdmissionVerdict::Pass)
    }
}

/// Label-pair / neighborhood-signature admission filter (l2Match-style):
/// rejects queries that provably have zero embeddings before any candidate
/// computation or CECI build, in O(query edges × label-set size).
///
/// Soundness: an embedding maps every query vertex `u` onto a data vertex
/// carrying **all** labels of `u`, and every query edge onto a data edge.
/// So (1) each query label must occur in the data graph, (2) each label
/// pair across a query edge must occur across some data edge, and (3) a
/// query vertex needing `c` neighbors of label `m` can only map to a data
/// vertex whose `m`-neighbor count is ≥ `c` — bounded per carried label by
/// [`ceci_graph::LabelPairIndex::max_count`]. Violating any of these
/// proves the count is 0.
///
/// Requires [`Graph::label_pair_index`] to be built for tests (2) and (3);
/// without it only the label-occurrence test runs.
pub fn admission_check(query: &QueryGraph, graph: &Graph) -> AdmissionVerdict {
    for u in query.vertices() {
        for l in query.labels(u).iter() {
            if graph.vertices_with_label(l).is_empty() {
                return AdmissionVerdict::AbsentLabel(l);
            }
        }
    }
    let Some(lp) = graph.label_pair_index() else {
        return AdmissionVerdict::Pass;
    };
    for &(a, b) in query.edges() {
        for la in query.labels(a).iter() {
            for lb in query.labels(b).iter() {
                if !lp.has_pair(la, lb) {
                    return AdmissionVerdict::AbsentPair(la, lb);
                }
            }
        }
    }
    for u in query.vertices() {
        let qc = query.neighborhood_label_counts(u);
        for l in query.labels(u).iter() {
            for &(m, c) in qc {
                if lp.max_count(l, m) < c {
                    return AdmissionVerdict::SignatureExceeded {
                        label: l,
                        neighbor: m,
                        required: c,
                    };
                }
            }
        }
    }
    AdmissionVerdict::Pass
}

/// Returns `true` if data vertex `v` passes the label filter (LF) for query
/// vertex `u`: `L_q(u) ⊆ L(v)`.
#[inline]
pub fn label_filter(query: &QueryGraph, graph: &Graph, u: VertexId, v: VertexId) -> bool {
    query.labels(u).is_subset_of(graph.labels(v))
}

/// Returns `true` if `v` passes the degree filter (DF) for `u`:
/// `deg(v) ≥ deg(u)`.
#[inline]
pub fn degree_filter(query: &QueryGraph, graph: &Graph, u: VertexId, v: VertexId) -> bool {
    graph.degree(v) >= query.degree(u)
}

/// One walk of a data vertex's adjacency checks this many labels of a
/// query-side NLC profile against a graph under a file's numbering.
const NLC_ONE_PASS: usize = 8;

/// Returns `true` if `v` passes the neighborhood label count filter (NLCF)
/// for `u`: for every distinct label `l` among `u`'s neighbors,
/// `count_v(l) ≥ count_u(l)`.
///
/// A label-major graph ([`Graph::class_bounds`]: every `LOAD`ed graph and
/// every snapshot patched from one) answers from the class spans of `v`'s
/// list (`spans_pay`); a graph under a file's numbering by walking `v`'s
/// adjacency, once per `NLC_ONE_PASS` (8) labels of the profile.
pub fn nlc_filter(query_counts: &[(LabelId, u32)], graph: &Graph, v: VertexId) -> bool {
    match graph.class_bounds() {
        Some(bounds) => spans_pay(query_counts, graph, bounds, v),
        None => query_counts
            .chunks(NLC_ONE_PASS)
            .all(|chunk| walk_pays(chunk, graph, v)),
    }
}

/// Does `v`'s list, grouped by class under `bounds`, meet `profile`? The
/// profile's labels ascend and so do their classes' starts, so one cursor
/// moves forward through the list: a `partition_point` puts it at the start
/// of label `m`'s span, and `count(v, m) ≥ c` iff the entry `c − 1` past it
/// is still below the class's end. Only when that probe fails are the
/// multi-labeled neighbours carrying `m` counted ([`multi_pays`]).
fn spans_pay(profile: &[(LabelId, u32)], graph: &Graph, bounds: &[VertexId], v: VertexId) -> bool {
    let list = graph.neighbors(v);
    let multi_class = bounds.len() - 2;
    let mut at = 0;
    for &(m, c) in profile {
        let c = c as usize;
        if c == 0 {
            continue;
        }
        if m.index() >= multi_class {
            return false;
        }
        at += list[at..].partition_point(|&nb| nb < bounds[m.index()]);
        let probe = list
            .get(at + c - 1)
            .is_some_and(|&nb| nb < bounds[m.index() + 1]);
        if !probe && !multi_pays(graph, bounds, &list[at..], m, c) {
            return false;
        }
    }
    true
}

/// The fallback of [`spans_pay`]'s probe: do `m`'s span, which `from`
/// starts with, and the multi-labeled neighbours carrying `m`, found in the
/// last class's span, hold `c` between them? That span is empty on a
/// single-labeled graph, which is answered without a search.
#[cold]
fn multi_pays(graph: &Graph, bounds: &[VertexId], from: &[VertexId], m: LabelId, c: usize) -> bool {
    let multi_class = bounds.len() - 2;
    if bounds[multi_class] == bounds[multi_class + 1] {
        return false;
    }
    let single = from.partition_point(|&nb| nb < bounds[m.index() + 1]);
    let multi = &from[from.partition_point(|&nb| nb < bounds[multi_class])..];
    single + multi.iter().filter(|&&nb| graph.has_label(nb, m)).count() >= c
}

/// Does one walk of `v`'s adjacency meet `profile` (at most
/// [`NLC_ONE_PASS`] labels)? Each neighbor pays down the labels it carries,
/// and the walk stops as soon as nothing is owed.
fn walk_pays(profile: &[(LabelId, u32)], graph: &Graph, v: VertexId) -> bool {
    let mut need = [0u32; NLC_ONE_PASS];
    for (slot, &(_, cu)) in need.iter_mut().zip(profile) {
        *slot = cu;
    }
    let mut open = profile.iter().filter(|&&(_, cu)| cu > 0).count();
    if open == 0 {
        return true;
    }
    for &nb in graph.neighbors(v) {
        let labels = graph.labels(nb);
        for (slot, &(l, _)) in need.iter_mut().zip(profile) {
            if *slot > 0 && labels.contains(l) {
                *slot -= 1;
                if *slot == 0 {
                    open -= 1;
                    if open == 0 {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// Does data vertex `v` pass all three per-vertex filters (LF + DF + NLCF)
/// for query vertex `u` on `graph`? Identical to the Algorithm 1 membership
/// test ([`candidates_of`]), one vertex at a time: the dirty-candidate
/// localization primitive of the streaming repair path.
///
/// A mutation batch can only change per-vertex filter outcomes at the
/// mutation endpoints (their degree and neighborhood label counts moved), so
/// a repair re-tests exactly those vertices against each query node instead
/// of re-filtering the whole graph. The query-side NLC profiles are the
/// query graph's own, counted once at its construction, so nothing is
/// computed per call.
#[inline]
pub fn passes(query: &QueryGraph, graph: &Graph, u: VertexId, v: VertexId) -> bool {
    label_filter(query, graph, u, v)
        && degree_filter(query, graph, u, v)
        && nlc_filter(query.neighborhood_label_counts(u), graph, v)
}

/// Candidate set of one query vertex: the data vertices passing LF ∧ DF ∧
/// NLCF for it, as a sorted list and as a bitset spanning the first to the
/// last candidate, answering the same membership in one subtraction, shift
/// and mask.
///
/// The verdict on `(u, v)` depends on nothing else, so every later stage —
/// Algorithm 1's per-adjacency-entry test above all — looks it up here
/// instead of re-deriving it. Under label-major ids a query vertex's
/// candidates lie in its class's range and the multi-labeled one, so the
/// bitset spans about `|V| / labels` ids, not `|V|`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CandidateSet {
    /// The query vertex.
    pub u: VertexId,
    /// Sorted data-vertex candidates of `u`.
    pub candidates: Vec<VertexId>,
    /// The first candidate's id (0 for an empty set): bit `i` of `members`
    /// stands for id `base + i`.
    base: u32,
    /// Bit `v − base` set iff `v ∈ candidates`.
    members: Box<[u64]>,
}

impl CandidateSet {
    /// The set of `u` with these sorted `candidates`, its bitset spanning
    /// the first to the last of them.
    fn new(u: VertexId, candidates: Vec<VertexId>) -> CandidateSet {
        let (base, span) = match (candidates.first(), candidates.last()) {
            (Some(first), Some(last)) => (first.0, (last.0 - first.0) as usize + 1),
            _ => (0, 0),
        };
        let mut members = vec![0u64; span.div_ceil(64)].into_boxed_slice();
        for v in &candidates {
            let i = (v.0 - base) as usize;
            members[i >> 6] |= 1u64 << (i & 63);
        }
        CandidateSet {
            u,
            candidates,
            base,
            members,
        }
    }

    /// Does `v` pass the three per-vertex filters for `u` on the graph the
    /// set was computed on? `false` for every id outside the span: below the
    /// first candidate the subtraction wraps past the bitset's end.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        let i = v.0.wrapping_sub(self.base) as usize;
        self.members
            .get(i >> 6)
            .is_some_and(|word| (word >> (i & 63)) & 1 != 0)
    }

    /// Heap bytes the set holds: the sorted list and the membership bitset
    /// (one bit per id from the first to the last candidate). Length-based,
    /// like `Ceci::size_bytes`.
    pub fn size_bytes(&self) -> usize {
        self.candidates.len() * std::mem::size_of::<VertexId>()
            + self.members.len() * std::mem::size_of::<u64>()
    }
}

/// Computes the candidate sets of every query vertex by scanning the data
/// graph ([`candidates_of`]) and applying LF + DF + NLCF.
pub fn compute_candidates(query: &QueryGraph, graph: &Graph) -> Vec<CandidateSet> {
    query
        .vertices()
        .map(|u| CandidateSet::new(u, candidates_of(query, graph, u)))
        .collect()
}

/// The candidate sets of every query vertex on `graph`, from `previous` —
/// the sets on an earlier snapshot whose edges differ from `graph`'s only at
/// the `dirty` vertices (sorted, distinct) — by re-testing the dirty
/// vertices alone.
///
/// LF, DF and NLCF read a vertex's own labels, its degree and its neighbors'
/// labels. Labels are the same on every snapshot and an edge mutation moves
/// the other two only at its endpoints, so every other verdict carries over.
/// The dirty verdicts replace the old ones in one linear merge with the
/// sorted list (a batch can dirty more vertices than a set holds), and the
/// span bitset is rebuilt from the list: equal, bit for bit, to
/// [`compute_candidates`] on `graph`.
pub fn patch_candidates(
    query: &QueryGraph,
    graph: &Graph,
    previous: &[CandidateSet],
    dirty: &[VertexId],
) -> Vec<CandidateSet> {
    debug_assert!(dirty.windows(2).all(|w| w[0] < w[1]), "dirty ids sorted");
    previous
        .iter()
        .map(|prev| {
            let mut candidates = Vec::with_capacity(prev.candidates.len() + dirty.len());
            let mut old = prev.candidates.iter().copied().peekable();
            for &v in dirty {
                while let Some(c) = old.next_if(|&c| c < v) {
                    candidates.push(c);
                }
                old.next_if_eq(&v);
                if passes(query, graph, prev.u, v) {
                    candidates.push(v);
                }
            }
            candidates.extend(old);
            CandidateSet::new(prev.u, candidates)
        })
        .collect()
}

/// Candidate set of a single query vertex (sorted ascending).
///
/// On a label-major graph ([`Graph::class_bounds`]) a single-labeled `u`
/// scans its label's class range, which needs no LF, and then the
/// multi-labeled class's range with LF; a multi-labeled `u` scans only the
/// latter. On [`rank_by_label_and_degree`](ceci_graph::rank_by_label_and_degree)'s
/// output degree ascends inside each class, so DF keeps a suffix of each
/// range, found by one binary search; a patched snapshot's degrees have
/// moved, so there DF tests every vertex. Under a file's numbering the scan
/// seeds from the label index of `u`'s rarest label.
pub fn candidates_of(query: &QueryGraph, graph: &Graph, u: VertexId) -> Vec<VertexId> {
    let qc = query.neighborhood_label_counts(u);
    let Some(bounds) = graph.class_bounds() else {
        // Every candidate must carry *all* of L_q(u), so any single member
        // label's vertices are a superset to scan: pick the rarest.
        let seed_label = query
            .labels(u)
            .iter()
            .min_by_key(|&l| graph.vertices_with_label(l).len())
            .expect("label sets are non-empty");
        return graph
            .vertices_with_label(seed_label)
            .iter()
            .copied()
            .filter(|&v| label_filter(query, graph, u, v))
            .filter(|&v| degree_filter(query, graph, u, v))
            .filter(|&v| nlc_filter(qc, graph, v))
            .collect();
    };
    let multi_class = bounds.len() - 2;
    let degree = query.degree(u);
    let mut out = Vec::new();
    let mut scan = |class: usize, lf: bool| {
        let (mut lo, hi) = (bounds[class].0, bounds[class + 1].0);
        if graph.degree_ascends_in_classes() {
            // DF as a suffix cut: the first id of the class with degree ≥ deg(u).
            let mut len = hi - lo;
            while len > 0 {
                let half = len / 2;
                if graph.degree(VertexId(lo + half)) < degree {
                    lo += half + 1;
                    len -= half + 1;
                } else {
                    len = half;
                }
            }
        }
        out.extend((lo..hi).map(VertexId).filter(|&v| {
            (graph.degree_ascends_in_classes() || degree_filter(query, graph, u, v))
                && (!lf || label_filter(query, graph, u, v))
                && nlc_filter(qc, graph, v)
        }));
    };
    if let [l] = query.labels(u).as_slice() {
        if l.index() < multi_class {
            scan(l.index(), false);
        }
    }
    scan(multi_class, true);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceci_graph::{lid, rank_by_label_and_degree, vid, LabelSet};

    /// Data graph:
    /// ```text
    /// 0(A)-1(B)  2(A)-3(B)-4(B)   5(A) isolated
    ///   \___________/
    /// ```
    /// edges: 0-1, 2-3, 3-4, 0-3
    fn data() -> Graph {
        Graph::new(
            vec![
                LabelSet::single(lid(0)), // 0 A
                LabelSet::single(lid(1)), // 1 B
                LabelSet::single(lid(0)), // 2 A
                LabelSet::single(lid(1)), // 3 B
                LabelSet::single(lid(1)), // 4 B
                LabelSet::single(lid(0)), // 5 A
            ],
            &[
                (vid(0), vid(1)),
                (vid(2), vid(3)),
                (vid(3), vid(4)),
                (vid(0), vid(3)),
            ],
            false,
        )
    }

    fn edge_query() -> QueryGraph {
        // u0(A) - u1(B)
        QueryGraph::with_labels(&[lid(0), lid(1)], &[(0, 1)]).unwrap()
    }

    #[test]
    fn label_and_degree_filters() {
        let g = data();
        let q = edge_query();
        // u0 needs label A and degree >= 1 → {0, 2}; vertex 5 fails DF.
        let c0 = candidates_of(&q, &g, vid(0));
        assert_eq!(c0, vec![vid(0), vid(2)]);
    }

    #[test]
    fn nlc_filter_prunes() {
        let g = data();
        // u1 (B) with two A neighbors: count_u(A) = 2.
        let q = QueryGraph::with_labels(&[lid(1), lid(0), lid(0)], &[(0, 1), (0, 2)]).unwrap();
        // Only data vertex 3 (neighbors 2(A), 4(B), 0(A)) has two A-neighbors.
        let c = candidates_of(&q, &g, vid(0));
        assert_eq!(c, vec![vid(3)]);
    }

    /// A 40-vertex ring with chords; vertex `i` carries label `i % labels`
    /// and every third vertex a second one, so neighborhoods hold several
    /// labels and some of them more than once.
    fn chorded_ring(labels: u32) -> Graph {
        let n = 40u32;
        let label_sets = (0..n)
            .map(|i| match i % 3 {
                0 => LabelSet::from_labels([lid(i % labels), lid((i / 3) % labels)]),
                _ => LabelSet::single(lid(i % labels)),
            })
            .collect();
        let edges: Vec<_> = (0..n)
            .flat_map(|i| [1, 2, 7, 11].map(|d| (vid(i), vid((i + d) % n))))
            .collect();
        Graph::new(label_sets, &edges, false)
    }

    /// Three label-0 hubs over seventeen leaves labeled 1..=17: hub 0 sees
    /// every leaf, hub 1 all but label 3 (in the first eight of a profile
    /// asking for all seventeen), hub 2 all but label 17 (in its remainder).
    fn fans() -> Graph {
        let labels = (0..20)
            .map(|i| LabelSet::single(lid(i.max(2) - 2)))
            .collect();
        let edges: Vec<_> = (0..3)
            .flat_map(|hub| (3..20).map(move |leaf| (vid(hub), vid(leaf))))
            .filter(|&(hub, leaf)| !matches!((hub.0, leaf.0), (1, 5) | (2, 19)))
            .collect();
        Graph::new(labels, &edges, false)
    }

    /// On a graph's file-numbered copy NLCF walks adjacency; on its ranked
    /// copy it reads class spans (multi-labeled vertices included: every
    /// third vertex of `chorded_ring` carries two labels). Both must give
    /// every vertex the verdict of an exact count, and the candidate scans
    /// — label index under file ids, class ranges with a DF suffix cut under
    /// ranks, class ranges with DF per vertex on a patched snapshot — the
    /// same sets.
    #[test]
    fn nlc_filter_spans_and_walk_agree() {
        // Star queries: the hub's profile asks for several labels at once
        // and for counts above one; the last two are longer than one walk's
        // need array, and the 17-label one is two full walks and a third.
        let star = |hub: u32, leaves: &[u32]| {
            let labels: Vec<_> = std::iter::once(hub)
                .chain(leaves.iter().copied())
                .map(lid)
                .collect();
            let edges: Vec<_> = (1..=leaves.len() as u32).map(|i| (0, i)).collect();
            QueryGraph::with_labels(&labels, &edges).unwrap()
        };
        let all17: Vec<u32> = (1..=17).collect();
        let two_labeled_hub = QueryGraph::new(
            vec![
                LabelSet::from_labels([lid(0), lid(1)]),
                LabelSet::single(lid(1)),
                LabelSet::single(lid(2)),
            ],
            &[(vid(0), vid(1)), (vid(0), vid(2))],
        )
        .unwrap();
        let cases = [
            (data(), edge_query()),
            (chorded_ring(4), star(0, &[1, 1, 2])),
            (chorded_ring(4), star(1, &[0, 0, 0, 3, 3])),
            (chorded_ring(3), star(2, &[0, 0, 1, 1, 2, 2])),
            (chorded_ring(12), star(0, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10])),
            (chorded_ring(4), star(0, &[1, 7])),
            (chorded_ring(4), two_labeled_hub),
            (fans(), star(0, &all17)),
        ];
        for (file, q) in cases {
            let (ranked, ids) = rank_by_label_and_degree(&file);
            // A snapshot patched from the ranked copy with no net change, by
            // a batch that adds and deletes one absent edge: the same
            // adjacency and class bounds, degree order unclaimed.
            let absent = (ranked.vertices())
                .flat_map(|a| ranked.vertices().map(move |b| (a, b)))
                .find(|&(a, b)| a != b && !ranked.has_edge(a, b))
                .expect("an absent edge");
            let (_, _, patched) = ranked.with_batch(&[absent], &[absent]).expect("both apply");
            assert!(ranked.degree_ascends_in_classes() && !patched.degree_ascends_in_classes());
            let profile = q.neighborhood_label_counts(vid(0));
            let walked: Vec<bool> = file
                .vertices()
                .map(|v| nlc_filter(profile, &file, v))
                .collect();
            if profile.len() == 17 {
                let passing: Vec<usize> = (0..walked.len()).filter(|&v| walked[v]).collect();
                assert_eq!(passing, [0], "only the hub that sees every label");
            }
            let by_count: Vec<bool> = file
                .vertices()
                .map(|v| {
                    profile
                        .iter()
                        .all(|&(l, c)| file.neighbor_label_count(v, l) >= c)
                })
                .collect();
            assert_eq!(walked, by_count, "profile {profile:?}");
            let spans: Vec<bool> = file
                .vertices()
                .map(|v| nlc_filter(profile, &ranked, ids.rank(v)))
                .collect();
            assert_eq!(walked, spans, "profile {profile:?}");
            for u in q.vertices() {
                let mut want: Vec<_> = candidates_of(&q, &file, u)
                    .iter()
                    .map(|&v| ids.rank(v))
                    .collect();
                want.sort_unstable();
                assert_eq!(candidates_of(&q, &ranked, u), want, "ranked u{u}");
                assert_eq!(candidates_of(&q, &patched, u), want, "patched u{u}");
            }
        }
    }

    #[test]
    fn candidate_bitset_mirrors_the_sorted_list() {
        let file = chorded_ring(4);
        let (ranked, _) = rank_by_label_and_degree(&file);
        let q = QueryGraph::with_labels(&[lid(1), lid(2), lid(3)], &[(0, 1), (0, 2)]).unwrap();
        for g in [file, ranked] {
            for set in compute_candidates(&q, &g) {
                let first = set.candidates[0];
                assert!(first > vid(0), "ids below the first candidate exist");
                for v in g.vertices() {
                    assert_eq!(set.contains(v), set.candidates.binary_search(&v).is_ok());
                }
                // The bitset spans the candidates, not the graph, and ids
                // below it, past it or past the graph are nobody's candidate.
                let span = (set.candidates.last().unwrap().0 - first.0) as usize + 1;
                assert_eq!(set.members.len(), span.div_ceil(64));
                assert!(!set.contains(vid(first.0 - 1)));
                assert!(!set.contains(vid(40)));
                assert!(!set.contains(vid(4_000)));
                assert!(!set.contains(vid(u32::MAX)));
            }
        }
    }

    #[test]
    fn compute_candidates_covers_all_query_vertices() {
        let g = data();
        let q = edge_query();
        let all = compute_candidates(&q, &g);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].u, vid(0));
        assert_eq!(all[1].u, vid(1));
        // u1 (B, degree 1): all B vertices with ≥1 A neighbor → 1, 3.
        assert_eq!(all[1].candidates, vec![vid(1), vid(3)]);
    }

    #[test]
    fn multilabel_candidate_seeding() {
        // Query vertex requires {A, B}; only a data vertex with both matches.
        let g = Graph::new(
            vec![
                LabelSet::from_labels([lid(0), lid(1)]),
                LabelSet::single(lid(0)),
            ],
            &[(vid(0), vid(1))],
            false,
        );
        let q = QueryGraph::new(
            vec![
                LabelSet::from_labels([lid(0), lid(1)]),
                LabelSet::single(lid(0)),
            ],
            &[(vid(0), vid(1))],
        )
        .unwrap();
        assert_eq!(candidates_of(&q, &g, vid(0)), vec![vid(0)]);
    }

    #[test]
    fn admission_passes_satisfiable_queries() {
        let mut g = data();
        g.build_label_pair_index();
        assert_eq!(admission_check(&edge_query(), &g), AdmissionVerdict::Pass);
    }

    #[test]
    fn admission_rejects_absent_label() {
        let mut g = data();
        g.build_label_pair_index();
        let q = QueryGraph::with_labels(&[lid(7)], &[]).unwrap();
        assert_eq!(
            admission_check(&q, &g),
            AdmissionVerdict::AbsentLabel(lid(7))
        );
    }

    #[test]
    fn admission_rejects_absent_pair() {
        let mut g = data();
        g.build_label_pair_index();
        // Data has no A-A edge; labels A exist, so the pair test fires.
        let q = QueryGraph::with_labels(&[lid(0), lid(0)], &[(0, 1)]).unwrap();
        assert_eq!(
            admission_check(&q, &g),
            AdmissionVerdict::AbsentPair(lid(0), lid(0))
        );
    }

    #[test]
    fn admission_rejects_oversized_signature() {
        let mut g = data();
        g.build_label_pair_index();
        // An A vertex with three B neighbors: data max is 1 (A-vertices 0
        // and 2 each have one B neighbor... vertex 0 has neighbors 1(B),
        // 3(B) → 2). Require 3 to exceed every A vertex.
        let q =
            QueryGraph::with_labels(&[lid(0), lid(1), lid(1), lid(1)], &[(0, 1), (0, 2), (0, 3)])
                .unwrap();
        assert_eq!(
            admission_check(&q, &g),
            AdmissionVerdict::SignatureExceeded {
                label: lid(0),
                neighbor: lid(1),
                required: 3,
            }
        );
    }

    #[test]
    fn admission_without_index_only_checks_labels() {
        let g = data();
        assert!(g.label_pair_index().is_none());
        let q = QueryGraph::with_labels(&[lid(0), lid(0)], &[(0, 1)]).unwrap();
        assert_eq!(admission_check(&q, &g), AdmissionVerdict::Pass);
        let q = QueryGraph::with_labels(&[lid(9)], &[]).unwrap();
        assert!(admission_check(&q, &g).rejected());
    }

    #[test]
    fn admission_rejection_implies_zero_candidates_somewhere() {
        // Sanity: every rejected query here truly has an empty candidate
        // set for at least one vertex (soundness spot-check).
        let mut g = data();
        g.build_label_pair_index();
        let q = QueryGraph::with_labels(&[lid(0), lid(0)], &[(0, 1)]).unwrap();
        assert!(admission_check(&q, &g).rejected());
        // Both endpoints pass LF/DF individually, but no A-A edge exists:
        // the admission filter proves it without enumerating.
        for u in q.vertices() {
            let _ = candidates_of(&q, &g, u);
        }
    }

    #[test]
    fn candidates_are_sorted() {
        let g = data();
        let q = edge_query();
        for set in compute_candidates(&q, &g) {
            let mut sorted = set.candidates.clone();
            sorted.sort_unstable();
            assert_eq!(set.candidates, sorted);
        }
    }
}
