//! Label-major, degree-ranked vertex numbering.
//!
//! CECI breaks a query's automorphisms with `f(u_i) < f(u_j)` on data-vertex
//! ids (§4), and the enumerator slices every candidate list to that window
//! before intersecting, so what the ids *mean* decides how much a window
//! cuts. Under a file's numbering a hub's list is cut at an arbitrary point.
//! Numbered by ascending degree, the part of a vertex's list above it holds
//! only neighbours of higher degree — its out-neighbourhood in the degree
//! orientation, which for a hub is short. That is the orientation bound of
//! triangle and clique listing (Chiba–Nishizeki).
//!
//! The key is `(class, degree, file id)`: a single-labeled vertex's class
//! is its label, and every multi-labeled vertex shares one last class. Each
//! class is then one contiguous id range, so every sorted adjacency list is
//! grouped by label with no extra array, and Algorithm 1 reads only the
//! span of a list between the first and last candidate of the child it
//! fills. Automorphic query vertices carry the same labels, and every
//! candidate list of a single-labeled graph lies in one class, inside
//! which the order is still `(degree, file id)`; so on such a graph the
//! symmetry windows and every intersection cut exactly where a
//! `(degree, file id)` numbering cuts them.
//!
//! [`rank_by_label_and_degree`] produces a graph's ranked copy together
//! with the [`Ranking`] that translates between the two numberings. The
//! copy records its class bounds ([`Graph::class_bounds`]) and that degree
//! ascends inside each class, which is all the candidate scan needs to
//! count neighbour labels from spans and to cut DF as a suffix.

use crate::graph::Graph;
use crate::ids::VertexId;

/// A renumbering of a graph's vertices: file id ↔ rank. The identity
/// ranking holds no arrays.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Ranking {
    /// `rank_of[file id]`; empty for the identity.
    rank_of: Vec<VertexId>,
    /// `file_of[rank]`; empty for the identity.
    file_of: Vec<VertexId>,
}

impl Ranking {
    /// The ranking that keeps every id.
    pub fn identity() -> Ranking {
        Ranking::default()
    }

    /// Whether this is [`Ranking::identity`].
    #[inline]
    pub fn is_identity(&self) -> bool {
        self.file_of.is_empty()
    }

    /// The rank of file vertex `file`.
    ///
    /// # Panics
    /// Panics if `file` is out of range of a non-identity ranking.
    #[inline]
    pub fn rank(&self, file: VertexId) -> VertexId {
        if self.is_identity() {
            file
        } else {
            self.rank_of[file.index()]
        }
    }

    /// The file id of rank `rank`.
    ///
    /// # Panics
    /// Panics if `rank` is out of range of a non-identity ranking.
    #[inline]
    pub fn file(&self, rank: VertexId) -> VertexId {
        if self.is_identity() {
            rank
        } else {
            self.file_of[rank.index()]
        }
    }

    /// Ascending `(class, degree, file id)` (see the module docs): the
    /// vertices counting-sorted on degree, then that order stably
    /// counting-sorted on class.
    fn by_label_and_degree(graph: &Graph) -> Ranking {
        let vertices = (0..graph.num_vertices()).map(VertexId::from_index);
        let by_degree = stable_sort(vertices, graph.max_degree() + 1, |v| graph.degree(v));
        let classes = graph.num_labels() as usize + 1;
        let file_of = stable_sort(by_degree.iter().copied(), classes, |v| class(graph, v));
        // Freed before `rank_of` is allocated, so at most two id arrays are
        // alive at once.
        drop(by_degree);
        let mut rank_of = vec![VertexId::default(); file_of.len()];
        for (rank, &file) in file_of.iter().enumerate() {
            rank_of[file.index()] = VertexId::from_index(rank);
        }
        Ranking { rank_of, file_of }
    }
}

/// `order` stably sorted by `key`, whose values lie below `keys`: a
/// counting sort.
fn stable_sort(
    order: impl Iterator<Item = VertexId> + Clone,
    keys: usize,
    key: impl Fn(VertexId) -> usize,
) -> Vec<VertexId> {
    let mut next = vec![0usize; keys + 1];
    for v in order.clone() {
        next[key(v) + 1] += 1;
    }
    for k in 1..next.len() {
        next[k] += next[k - 1];
    }
    let mut sorted = vec![VertexId::default(); next[keys]];
    for v in order {
        let at = &mut next[key(v)];
        sorted[*at] = v;
        *at += 1;
    }
    sorted
}

/// The ranking class of `v`: its label if it carries exactly one, else the
/// last class, `num_labels`, which every multi-labeled vertex shares.
fn class(graph: &Graph, v: VertexId) -> usize {
    match graph.labels(v).as_slice() {
        [label] => label.0 as usize,
        _ => graph.num_labels() as usize,
    }
}

/// `graph` renumbered by ascending `(class, degree, file id)`, and the
/// ranking that did it. A pure function of the graph. The copy's adjacency
/// is permuted in one pass, not rebuilt from an edge list; labels move with
/// their vertices, the label-pair index, which names labels only, is kept,
/// and the class bounds are recorded on the copy.
pub fn rank_by_label_and_degree(graph: &Graph) -> (Graph, Ranking) {
    let ranking = Ranking::by_label_and_degree(graph);
    let classes = graph.num_labels() as usize + 1;
    let mut bounds = vec![VertexId(0); classes + 1];
    for v in graph.vertices() {
        bounds[class(graph, v) + 1].0 += 1;
    }
    for c in 1..bounds.len() {
        bounds[c].0 += bounds[c - 1].0;
    }
    let ranked = graph.permuted(&ranking.rank_of, &ranking.file_of, bounds);
    (ranked, ranking)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{lid, vid, LabelId};
    use crate::labels::LabelSet;
    use proptest::prelude::*;

    /// `(labels, second labels, edges)` over a vertex range small enough for
    /// duplicate edges, self-loops, isolated vertices and degree ties.
    fn arb_graph() -> impl Strategy<Value = Graph> {
        (1u32..40).prop_flat_map(|n| {
            (
                proptest::collection::vec(0u32..4, n as usize),
                proptest::collection::vec(0u32..6, n as usize),
                proptest::collection::vec((0..n, 0..n), 0..4 * n as usize),
            )
                .prop_map(|(first, second, edges)| {
                    let labels = (first.iter().zip(&second))
                        .map(|(&l, &m)| match m {
                            m if m < 4 && m != l => LabelSet::from_labels([lid(l), lid(m)]),
                            _ => LabelSet::single(lid(l)),
                        })
                        .collect();
                    let edges: Vec<_> = edges.iter().map(|&(a, b)| (vid(a), vid(b))).collect();
                    Graph::new(labels, &edges, false)
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The ranking is a bijection, ordered by `(class, degree, file id)`
        /// with each class the id range its recorded bounds say, the same
        /// on every call,
        /// and the ranked copy is the file graph under it: every edge maps
        /// to an edge and back, lists stay sorted, and labels (and the label
        /// inverted index) travel with their vertices.
        #[test]
        fn ranking_is_a_label_major_degree_ordered_bijection_that_preserves_edges(file in arb_graph()) {
            let (ranked, ids) = rank_by_label_and_degree(&file);
            let n = file.num_vertices();
            prop_assert_eq!(ranked.num_vertices(), n);
            prop_assert_eq!(ranked.num_edges(), file.num_edges());
            let mut hit = vec![false; n];
            for v in file.vertices() {
                prop_assert_eq!(ids.file(ids.rank(v)), v);
                prop_assert_eq!(ids.rank(ids.file(v)), v);
                hit[ids.rank(v).index()] = true;
            }
            prop_assert!(hit.iter().all(|&h| h), "rank is onto");
            let key = |r: VertexId| {
                let f = ids.file(r);
                let class = match file.labels(f).as_slice() {
                    [l] => l.0,
                    _ => file.num_labels(),
                };
                (class, file.degree(f), f)
            };
            for r in 1..n as u32 {
                prop_assert!(key(vid(r - 1)) < key(vid(r)), "rank {} out of order", r);
            }
            let bounds = ranked.class_bounds().expect("recorded at rank time");
            prop_assert_eq!(bounds.len(), file.num_labels() as usize + 2);
            prop_assert_eq!((bounds[0], bounds[bounds.len() - 1]), (vid(0), VertexId::from_index(n)));
            for r in ranked.vertices() {
                let class = key(r).0 as usize;
                prop_assert!(bounds[class] <= r && r < bounds[class + 1], "rank {} outside its class", r);
            }
            prop_assert!(ranked.degree_ascends_in_classes());
            prop_assert!(file.class_bounds().is_none() && !file.degree_ascends_in_classes());

            let (again, ids_again) = rank_by_label_and_degree(&file);
            prop_assert_eq!(&ids_again, &ids);
            for r in ranked.vertices() {
                prop_assert_eq!(again.neighbors(r), ranked.neighbors(r));
                let f = ids.file(r);
                prop_assert_eq!(ranked.degree(r), file.degree(f));
                prop_assert_eq!(ranked.labels(r), file.labels(f));
                prop_assert!(ranked.neighbors(r).windows(2).all(|w| w[0] < w[1]));
                for &s in ranked.neighbors(r) {
                    prop_assert!(file.has_edge(f, ids.file(s)));
                }
            }
            for a in file.vertices() {
                for &b in file.neighbors(a) {
                    prop_assert!(ranked.has_edge(ids.rank(a), ids.rank(b)));
                }
            }
            for l in (0..file.num_labels()).map(LabelId) {
                let mut want: Vec<_> = file.vertices_with_label(l).iter().map(|&v| ids.rank(v)).collect();
                want.sort_unstable();
                prop_assert_eq!(ranked.vertices_with_label(l), want.as_slice());
            }
            prop_assert!(ranked.stamp() != file.stamp());
        }
    }

    #[test]
    fn identity_keeps_every_id() {
        let ids = Ranking::identity();
        assert!(ids.is_identity());
        assert_eq!((ids.rank(vid(7)), ids.file(vid(7))), (vid(7), vid(7)));
    }

    #[test]
    fn hubs_rank_last_and_the_label_pair_index_is_kept() {
        // A star centred on 0 plus an edge 3-4: the leaves 1, 2 (degree 1)
        // rank first, then 3 and 4 (degree 2), then the hub.
        let mut star = Graph::unlabeled(
            5,
            &[
                (vid(0), vid(1)),
                (vid(0), vid(2)),
                (vid(0), vid(3)),
                (vid(0), vid(4)),
                (vid(3), vid(4)),
            ],
        );
        star.build_label_pair_index();
        let (ranked, ids) = rank_by_label_and_degree(&star);
        let order: Vec<u32> = ranked.vertices().map(|r| ids.file(r).0).collect();
        assert_eq!(order, [1, 2, 3, 4, 0]);
        assert_eq!(ranked.neighbors(vid(4)), &[vid(0), vid(1), vid(2), vid(3)]);
        assert!(!ids.is_identity());
        let pairs = ranked.label_pair_index().expect("carried over");
        assert_eq!(pairs.max_count(lid(0), lid(0)), 4);
    }

    #[test]
    fn labels_rank_before_degree_and_multi_labeled_vertices_rank_last() {
        // A path 0-1-2-3 whose ends carry label 1, whose middle carries
        // label 0, plus vertex 4 with labels {0, 1} hanging off 1.
        let labels = vec![
            LabelSet::single(lid(1)),
            LabelSet::single(lid(0)),
            LabelSet::single(lid(0)),
            LabelSet::single(lid(1)),
            LabelSet::from_labels([lid(0), lid(1)]),
        ];
        let edges = [
            (vid(0), vid(1)),
            (vid(1), vid(2)),
            (vid(2), vid(3)),
            (vid(1), vid(4)),
        ];
        let (ranked, ids) = rank_by_label_and_degree(&Graph::new(labels, &edges, false));
        let order: Vec<u32> = ranked.vertices().map(|r| ids.file(r).0).collect();
        assert_eq!(order, [2, 1, 0, 3, 4]);
        // File vertex 1 keeps rank 1; its list is grouped by class: label
        // 0, label 1, then {0, 1}.
        assert_eq!(ranked.neighbors(vid(1)), &[vid(0), vid(2), vid(4)]);
    }
}
