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
/// query-side NLC profile against a graph without NLC rows.
const NLC_ONE_PASS: usize = 8;

/// Returns `true` if `v` passes the neighborhood label count filter (NLCF)
/// for `u`: for every distinct label `l` among `u`'s neighbors,
/// `count_v(l) ≥ count_u(l)`.
///
/// A graph with NLC rows answers by merging `v`'s row with the profile; a
/// graph without (a streamed snapshot) by walking `v`'s adjacency, once per
/// `NLC_ONE_PASS` (8) labels of the profile.
pub fn nlc_filter(query_counts: &[(LabelId, u32)], graph: &Graph, v: VertexId) -> bool {
    if let Some(nlc) = graph.nlc_index() {
        // Merge the two sorted (label, count) lists.
        let vc = nlc.counts(v);
        let mut i = 0;
        for &(l, cu) in query_counts {
            while i < vc.len() && vc[i].0 < l {
                i += 1;
            }
            if i >= vc.len() || vc[i].0 != l || vc[i].1 < cu {
                return false;
            }
        }
        true
    } else {
        query_counts
            .chunks(NLC_ONE_PASS)
            .all(|chunk| walk_pays(chunk, graph, v))
    }
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

/// The per-vertex filters (LF + DF + NLCF) of one query for repeated
/// membership tests — the dirty-candidate localization primitive of the
/// streaming repair path.
///
/// A mutation batch can only change per-vertex filter outcomes at the
/// mutation endpoints (their degree and neighborhood label counts moved) and
/// filtered adjacency at the endpoints' neighbors, so incremental index
/// repair re-tests exactly those vertices against each query node instead of
/// re-filtering the whole graph. The query-side NLC profiles are the query
/// graph's own rows, so nothing is computed per call.
#[derive(Clone, Copy, Debug)]
pub struct VertexFilters<'q> {
    query: &'q QueryGraph,
}

impl<'q> VertexFilters<'q> {
    /// The filters of `query`.
    pub fn new(query: &'q QueryGraph) -> Self {
        VertexFilters { query }
    }

    /// Does data vertex `v` pass all three per-vertex filters for query
    /// vertex `u` on `graph`? Identical to the Algorithm 1 membership test.
    #[inline]
    pub fn passes(&self, graph: &Graph, u: VertexId, v: VertexId) -> bool {
        label_filter(self.query, graph, u, v)
            && degree_filter(self.query, graph, u, v)
            && nlc_filter(self.query.neighborhood_label_counts(u), graph, v)
    }
}

/// Candidate set of one query vertex: the data vertices passing LF ∧ DF ∧
/// NLCF for it, as a sorted list and as a dense bitset over data-vertex ids
/// (|V|/8 bytes) answering the same membership in one shift and mask.
///
/// The verdict on `(u, v)` depends on nothing else, so every later stage —
/// Algorithm 1's per-adjacency-entry test above all — looks it up here
/// instead of re-deriving it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CandidateSet {
    /// The query vertex.
    pub u: VertexId,
    /// Sorted data-vertex candidates of `u`.
    pub candidates: Vec<VertexId>,
    /// Bit `v` set iff `v ∈ candidates`.
    members: Box<[u64]>,
}

impl CandidateSet {
    /// Does `v` pass the three per-vertex filters for `u` on the graph the
    /// set was computed on? `false` for ids past that graph's vertex range.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        let i = v.index();
        self.members
            .get(i >> 6)
            .is_some_and(|word| (word >> (i & 63)) & 1 != 0)
    }
}

/// Computes the candidate sets of every query vertex by scanning the data
/// graph's label index and applying LF + DF + NLCF.
///
/// Candidates come out sorted (the label index is sorted).
pub fn compute_candidates(query: &QueryGraph, graph: &Graph) -> Vec<CandidateSet> {
    query
        .vertices()
        .map(|u| {
            let candidates = candidates_of(query, graph, u);
            let mut members = vec![0u64; graph.num_vertices().div_ceil(64)].into_boxed_slice();
            for v in &candidates {
                members[v.index() >> 6] |= 1u64 << (v.index() & 63);
            }
            CandidateSet {
                u,
                candidates,
                members,
            }
        })
        .collect()
}

/// The candidate sets of every query vertex on `graph`, from `previous` —
/// the sets on an earlier snapshot whose edges differ from `graph`'s only at
/// the `dirty` vertices — by re-testing the dirty vertices alone.
///
/// LF, DF and NLCF read a vertex's own labels, its degree and its neighbors'
/// labels. Labels are the same on every snapshot and an edge mutation moves
/// the other two only at its endpoints, so every other verdict carries over.
/// Each dirty verdict is set or cleared in a copy of the bitset and the
/// sorted list is rebuilt from the bits: equal, bit for bit, to
/// [`compute_candidates`] on `graph`.
pub fn patch_candidates(
    query: &QueryGraph,
    graph: &Graph,
    previous: &[CandidateSet],
    dirty: &[VertexId],
) -> Vec<CandidateSet> {
    let filters = VertexFilters::new(query);
    previous
        .iter()
        .map(|prev| {
            debug_assert_eq!(prev.members.len(), graph.num_vertices().div_ceil(64));
            let mut members = prev.members.clone();
            for &v in dirty {
                let (word, bit) = (v.index() >> 6, 1u64 << (v.index() & 63));
                if filters.passes(graph, prev.u, v) {
                    members[word] |= bit;
                } else {
                    members[word] &= !bit;
                }
            }
            let mut candidates = Vec::with_capacity(prev.candidates.len());
            for (w, &word) in members.iter().enumerate() {
                let mut rest = word;
                while rest != 0 {
                    candidates.push(VertexId((w * 64) as u32 + rest.trailing_zeros()));
                    rest &= rest - 1;
                }
            }
            CandidateSet {
                u: prev.u,
                candidates,
                members,
            }
        })
        .collect()
}

/// Candidate set of a single query vertex (sorted ascending).
pub fn candidates_of(query: &QueryGraph, graph: &Graph, u: VertexId) -> Vec<VertexId> {
    let qc = query.neighborhood_label_counts(u);
    // Seed from the label index of the query vertex's primary label: every
    // candidate must carry *all* of L_q(u), so any single member label gives
    // a superset to scan. Pick the rarest member label for the smallest scan.
    let seed_label = query
        .labels(u)
        .iter()
        .min_by_key(|&l| graph.vertices_with_label(l).len())
        .expect("label sets are non-empty");
    graph
        .vertices_with_label(seed_label)
        .iter()
        .copied()
        .filter(|&v| label_filter(query, graph, u, v))
        .filter(|&v| degree_filter(query, graph, u, v))
        .filter(|&v| nlc_filter(qc, graph, v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceci_graph::{lid, vid, LabelSet};

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

    #[test]
    fn nlc_filter_with_and_without_index_agree() {
        let q = edge_query();
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
        let cases = [
            (data(), q),
            (chorded_ring(4), star(0, &[1, 1, 2])),
            (chorded_ring(4), star(1, &[0, 0, 0, 3, 3])),
            (chorded_ring(3), star(2, &[0, 0, 1, 1, 2, 2])),
            (chorded_ring(12), star(0, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10])),
            (fans(), star(0, &all17)),
        ];
        for (mut g, q) in cases {
            let profile = q.neighborhood_label_counts(vid(0));
            let plain: Vec<bool> = g.vertices().map(|v| nlc_filter(profile, &g, v)).collect();
            if profile.len() == 17 {
                let passing: Vec<usize> = (0..plain.len()).filter(|&v| plain[v]).collect();
                assert_eq!(passing, [0], "only the hub that sees every label");
            }
            let by_count: Vec<bool> = g
                .vertices()
                .map(|v| {
                    profile
                        .iter()
                        .all(|&(l, c)| g.neighbor_label_count(v, l) >= c)
                })
                .collect();
            assert_eq!(plain, by_count, "profile {profile:?}");
            let before: Vec<_> = q.vertices().map(|u| candidates_of(&q, &g, u)).collect();
            g.build_nlc_index();
            let indexed: Vec<bool> = g.vertices().map(|v| nlc_filter(profile, &g, v)).collect();
            assert_eq!(plain, indexed, "profile {profile:?}");
            let after: Vec<_> = q.vertices().map(|u| candidates_of(&q, &g, u)).collect();
            assert_eq!(before, after);
        }
    }

    #[test]
    fn candidate_bitset_mirrors_the_sorted_list() {
        let g = chorded_ring(4);
        let q = QueryGraph::with_labels(&[lid(0), lid(1), lid(2)], &[(0, 1), (0, 2)]).unwrap();
        for set in compute_candidates(&q, &g) {
            for v in g.vertices() {
                assert_eq!(set.contains(v), set.candidates.binary_search(&v).is_ok());
            }
            // Ids the graph never had are nobody's candidate.
            assert!(!set.contains(vid(40)));
            assert!(!set.contains(vid(4_000)));
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
