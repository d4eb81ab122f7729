//! One batch of streamed edge mutations against an immutable snapshot.
//!
//! Streaming mutations (`ADDEDGE`/`DELEDGE`/`BATCH`) must not rebuild the
//! CSR per edge, but CECI enumeration is far too read-hot to pay a
//! per-`neighbors()` overlay merge. [`DeltaOverlay`] resolves the tension
//! one batch at a time: it records which edges the batch has flipped
//! relative to the *current* snapshot, and [`DeltaOverlay::commit`] turns
//! the net flips into one sorted flat list of directed entries and patches
//! the snapshot's CSR with it in one pass (`Graph::patched`) — clean runs
//! of vertices are bulk-copied, only this batch's endpoints are merged, and
//! labels are shared, not copied. Nothing outlives the batch: the next one
//! starts a fresh overlay on the snapshot this one produced.

use std::collections::HashMap;

use crate::csr::EdgeDelta;
use crate::graph::Graph;
use crate::ids::VertexId;

/// The edges one batch has touched on top of a snapshot.
///
/// All operations are expressed relative to the snapshot passed in — the
/// overlay never holds a reference, so callers must pass the same graph to
/// every call; mixing snapshots is a logic error.
#[derive(Clone, Debug, Default)]
pub struct DeltaOverlay {
    /// Every undirected edge an applied mutation named, keyed `(lo, hi)`:
    /// whether the snapshot has it, and whether the view has it now.
    touched: HashMap<(VertexId, VertexId), (bool, bool)>,
}

impl DeltaOverlay {
    /// An empty overlay (the view equals the snapshot).
    pub fn new() -> Self {
        Self::default()
    }

    /// Edge test against the overlaid view.
    pub fn has_edge(&self, current: &Graph, a: VertexId, b: VertexId) -> bool {
        match self.touched.get(&(a.min(b), a.max(b))) {
            Some(&(_, now)) => now,
            None => current.has_edge(a, b),
        }
    }

    /// Makes the view's `{a, b}` present or absent. Returns `false` (no-op)
    /// for self-loops and when the view already agrees.
    fn set_edge(&mut self, current: &Graph, a: VertexId, b: VertexId, present: bool) -> bool {
        let n = current.num_vertices();
        assert!(a.index() < n && b.index() < n, "edge endpoint out of range");
        if a == b {
            return false;
        }
        let state = self.touched.entry((a.min(b), a.max(b))).or_insert_with(|| {
            let was = current.has_edge(a, b);
            (was, was)
        });
        let applied = state.1 != present;
        state.1 = present;
        applied
    }

    /// Adds undirected edge `{a, b}` to the view. Returns `false` (no-op)
    /// for self-loops and edges already present in the view.
    ///
    /// # Panics
    /// Panics if an endpoint is out of the snapshot's vertex range —
    /// streaming mutations never grow the vertex set.
    pub fn add_edge(&mut self, current: &Graph, a: VertexId, b: VertexId) -> bool {
        self.set_edge(current, a, b, true)
    }

    /// Deletes undirected edge `{a, b}` from the view. Returns `false`
    /// (no-op) when the edge is absent from the view.
    ///
    /// # Panics
    /// Panics if an endpoint is out of the snapshot's vertex range.
    pub fn delete_edge(&mut self, current: &Graph, a: VertexId, b: VertexId) -> bool {
        self.set_edge(current, a, b, false)
    }

    /// Materializes the overlaid view as the next read-optimized [`Graph`]
    /// snapshot: the edges whose view state differs from the snapshot's,
    /// both directions of each, sorted, patched into `current`'s CSR.
    pub fn commit(&self, current: &Graph) -> Graph {
        let mut delta: Vec<EdgeDelta> = self
            .touched
            .iter()
            .filter(|(_, &(was, now))| was != now)
            .flat_map(|(&(a, b), &(_, now))| [(a, b, now), (b, a, now)])
            .collect();
        delta.sort_unstable();
        current.patched(&delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{lid, vid};
    use crate::labels::LabelSet;

    fn base() -> Graph {
        // 0-1, 1-2, 2-3 path with alternating labels.
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
    fn add_delete_noop_semantics() {
        let g = base();
        let mut o = DeltaOverlay::new();
        assert!(!o.add_edge(&g, vid(0), vid(1)), "existing edge is a no-op");
        assert!(!o.add_edge(&g, vid(2), vid(2)), "self-loop is a no-op");
        assert!(o.add_edge(&g, vid(0), vid(2)));
        assert!(!o.add_edge(&g, vid(2), vid(0)), "view already has it");
        assert!(o.has_edge(&g, vid(0), vid(2)));
        assert!(!o.delete_edge(&g, vid(0), vid(3)), "absent edge is a no-op");
        assert!(o.delete_edge(&g, vid(1), vid(2)));
        assert!(!o.has_edge(&g, vid(1), vid(2)));
        assert!(!o.has_edge(&g, vid(2), vid(1)));
        assert_eq!(o.commit(&g).num_edges(), 3);
    }

    #[test]
    fn add_then_delete_cancels() {
        let g = base();
        let mut o = DeltaOverlay::new();
        assert!(o.add_edge(&g, vid(0), vid(3)));
        assert!(o.delete_edge(&g, vid(3), vid(0)));
        assert!(!o.has_edge(&g, vid(0), vid(3)));
        assert!(o.delete_edge(&g, vid(0), vid(1)));
        assert!(o.add_edge(&g, vid(1), vid(0)));
        assert!(o.has_edge(&g, vid(0), vid(1)));
        same_adjacency(&o.commit(&g), &g);
    }

    #[test]
    fn commit_matches_from_scratch() {
        let g = base();
        let mut o = DeltaOverlay::new();
        o.add_edge(&g, vid(0), vid(2));
        o.add_edge(&g, vid(0), vid(3));
        o.delete_edge(&g, vid(1), vid(2));
        let snap = o.commit(&g);
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
        let mut o = DeltaOverlay::new();
        assert!(o.delete_edge(&snap, vid(0), vid(3)));
        assert!(o.add_edge(&snap, vid(1), vid(2)));
        let next = o.commit(&snap);
        assert_eq!(next.neighbors(vid(0)), &[vid(1), vid(2)]);
        assert_eq!(next.neighbors(vid(2)), &[vid(0), vid(1), vid(3)]);
        assert_eq!(next.neighbors(vid(3)), &[vid(2)]);
    }

    #[test]
    fn commit_of_empty_overlay_copies_base() {
        let g = base();
        same_adjacency(&DeltaOverlay::new().commit(&g), &g);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_endpoint_panics() {
        let g = base();
        let mut o = DeltaOverlay::new();
        o.add_edge(&g, vid(0), vid(9));
    }
}
