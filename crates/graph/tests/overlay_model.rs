//! Model-based differential for streamed snapshots: random labeled graph ×
//! random batch sequences through [`Graph::with_batch`], every batch's
//! applied mutations and snapshot checked against an edge-set model and
//! against a copy of the base-relative overlay this design replaced.
//!
//! The vertex range is tiny on purpose: duplicates, reversed duplicates,
//! self-loops, no-ops, the same edge in a batch's adds and dels, re-adds of
//! deleted base edges and deletes of pending adds across batches all occur
//! in nearly every case.
//!
//! The same streams drive the label-pair maintenance between compactions:
//! raising the pairs of each added edge must give the maxima of the rule it
//! replaced, a recount of every label around every endpoint.

use std::collections::{BTreeMap, BTreeSet};

use ceci_graph::{rank_by_label_and_degree, Graph, LabelId, LabelPairIndex, LabelSet, VertexId};
use proptest::prelude::*;

type Edge = (VertexId, VertexId);

fn key((a, b): Edge) -> Edge {
    (a.min(b), a.max(b))
}

/// The bookkeeping of the overlay this design replaced: *net* additions and
/// deletions relative to a frozen `base`, kept until a compaction clears
/// them. The oracle for which mutations apply and how many are pending.
#[derive(Default)]
struct BaseRelativeOverlay {
    adds: BTreeSet<Edge>,
    dels: BTreeSet<Edge>,
}

impl BaseRelativeOverlay {
    fn has_edge(&self, base: &Graph, e: Edge) -> bool {
        !self.dels.contains(&key(e)) && (self.adds.contains(&key(e)) || base.has_edge(e.0, e.1))
    }

    fn add_edge(&mut self, base: &Graph, e: Edge) -> bool {
        if e.0 == e.1 || self.has_edge(base, e) {
            return false;
        }
        // Re-adding a base edge pending deletion just cancels the delete.
        if !self.dels.remove(&key(e)) {
            self.adds.insert(key(e));
        }
        true
    }

    fn delete_edge(&mut self, base: &Graph, e: Edge) -> bool {
        if e.0 == e.1 || !self.has_edge(base, e) {
            return false;
        }
        // Deleting a pending addition cancels it.
        if !self.adds.remove(&key(e)) {
            self.dels.insert(key(e));
        }
        true
    }

    fn pending(&self) -> usize {
        self.adds.len() + self.dels.len()
    }
}

type Batch = (Vec<(u32, u32)>, Vec<(u32, u32)>);
/// `(n, labels per vertex, base edges, batches, compaction threshold)`.
type Stream = (u32, Vec<Vec<u32>>, Vec<(u32, u32)>, Vec<Batch>, usize);

fn arb_stream() -> impl Strategy<Value = Stream> {
    (3u32..9).prop_flat_map(|n| {
        let pairs = || proptest::collection::vec((0..n, 0..n), 0..14);
        (
            Just(n),
            proptest::collection::vec(proptest::collection::vec(0u32..3, 1..3), n as usize),
            proptest::collection::vec((0..n, 0..n), 0..(2 * n as usize)),
            proptest::collection::vec((pairs(), pairs()), 1..7),
            1usize..10,
        )
    })
}

fn edges_of(raw: &[(u32, u32)]) -> Vec<Edge> {
    raw.iter()
        .map(|&(a, b)| (VertexId(a), VertexId(b)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn overlay_snapshots_equal_the_edge_set_model(
        (n, labels, base_edges, batches, threshold) in arb_stream()
    ) {
        let labels: Vec<LabelSet> = labels
            .iter()
            .map(|ls| LabelSet::from_labels(ls.iter().map(|&l| LabelId(l))))
            .collect();
        let first = Graph::new(labels.clone(), &edges_of(&base_edges), false);
        let mut model: BTreeSet<Edge> = first
            .vertices()
            .flat_map(|a| first.neighbors(a).iter().map(move |&b| key((a, b))))
            .collect();
        let mut oracle = BaseRelativeOverlay::default();
        let (mut base, mut current) = (first.clone(), first.clone());
        let mut pending = 0usize;
        for (adds, dels) in &batches {
            let (adds, dels) = (edges_of(adds), edges_of(dels));
            // The mutations the oracle and the model apply, one at a time.
            let (mut want_added, mut want_deleted) = (Vec::new(), Vec::new());
            for &e in &adds {
                let applied = oracle.add_edge(&base, e);
                prop_assert_eq!(applied, e.0 != e.1 && model.insert(key(e)));
                if applied {
                    want_added.push(key(e));
                    // The registry's counter rule, against the oracle's lists:
                    // back to what `base` has cancels, anything else is pending.
                    if base.has_edge(e.0, e.1) { pending -= 1 } else { pending += 1 }
                }
            }
            for &e in &dels {
                let applied = oracle.delete_edge(&base, e);
                prop_assert_eq!(applied, model.remove(&key(e)));
                if applied {
                    want_deleted.push(key(e));
                    if base.has_edge(e.0, e.1) { pending += 1 } else { pending -= 1 }
                }
            }
            prop_assert_eq!(pending, oracle.pending());
            want_added.sort_unstable();
            want_deleted.sort_unstable();

            // One batch nets the same mutations; a batch that applies none
            // builds no snapshot.
            let (added, deleted, next) = match current.with_batch(&adds, &dels) {
                Some((added, deleted, next)) => {
                    prop_assert!(next.stamp() != current.stamp() && next.stamp() != first.stamp());
                    (added, deleted, next)
                }
                None => (Vec::new(), Vec::new(), current.clone()),
            };
            prop_assert_eq!(&added, &want_added);
            prop_assert_eq!(&deleted, &want_deleted);
            for a in 0..n {
                for b in 0..n {
                    let e = (VertexId(a), VertexId(b));
                    prop_assert_eq!(next.has_edge(e.0, e.1), model.contains(&key(e)));
                }
            }
            let model_edges: Vec<Edge> = model.iter().copied().collect();
            let expect = Graph::new(labels.clone(), &model_edges, false);
            prop_assert_eq!(next.num_edges(), model.len());
            prop_assert_eq!(next.num_labels(), first.num_labels());
            for v in next.vertices() {
                prop_assert_eq!(next.neighbors(v), expect.neighbors(v));
                prop_assert_eq!(next.labels(v), first.labels(v));
                // Shared with the first snapshot, not copied.
                prop_assert!(std::ptr::eq(next.labels(v), first.labels(v)));
            }
            for l in (0..first.num_labels()).map(LabelId) {
                prop_assert_eq!(next.vertices_with_label(l), first.vertices_with_label(l));
                prop_assert_eq!(
                    next.vertices_with_label(l).as_ptr(),
                    first.vertices_with_label(l).as_ptr()
                );
            }
            prop_assert!(next.class_bounds().is_none() && next.label_pair_index().is_none());

            if pending >= threshold {
                // The compaction boundary: the snapshot becomes the base.
                (base, oracle, pending) = (next.clone(), BaseRelativeOverlay::default(), 0);
            }
            current = next;
        }
    }
}

/// The maintenance rule [`LabelPairIndex::absorb_edges`] replaced: every
/// endpoint of an added edge recounts every label among its neighbours on
/// the new snapshot, and each `(label of v, neighbour label)` pair is raised
/// to its count.
fn absorb_vertices(index: &mut LabelPairIndex, graph: &Graph, added: &[Edge]) {
    let endpoints: BTreeSet<VertexId> = added.iter().flat_map(|&(a, b)| [a, b]).collect();
    for v in endpoints {
        let mut counts: BTreeMap<LabelId, u32> = BTreeMap::new();
        for &nb in graph.neighbors(v) {
            for m in graph.labels(nb).iter() {
                *counts.entry(m).or_default() += 1;
            }
        }
        for (m, count) in counts {
            for l in graph.labels(v).iter() {
                index.raise(l, m, count);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Under file ids (no class bounds: counts walk the list) and on the
    /// label-major copy (class spans plus the multi-labelled class), with
    /// one or two labels a vertex.
    #[test]
    fn raising_the_added_label_pairs_equals_recounting_every_endpoint(
        (_n, labels, base_edges, batches, _threshold) in arb_stream()
    ) {
        let labels: Vec<LabelSet> = labels
            .iter()
            .map(|ls| LabelSet::from_labels(ls.iter().map(|&l| LabelId(l))))
            .collect();
        let file = Graph::new(labels, &edges_of(&base_edges), false);
        let ranked = rank_by_label_and_degree(&file).0;
        for (spans, mut current) in [(false, file), (true, ranked)] {
            current.build_label_pair_index();
            let mut got = current.label_pair_index().cloned().unwrap();
            let mut want = got.clone();
            for (adds, dels) in &batches {
                let Some((added, _, next)) = current.with_batch(&edges_of(adds), &edges_of(dels))
                else {
                    continue;
                };
                prop_assert_eq!(next.class_bounds().is_some(), spans);
                got.absorb_edges(&next, &added);
                absorb_vertices(&mut want, &next, &added);
                prop_assert_eq!(&got, &want);
                current = next;
            }
        }
    }
}
