//! Compressed Sparse Row adjacency storage.
//!
//! The paper stores data graphs in CSR format (§5) with sorted adjacency
//! lists (§3.6) so that edge checks are binary searches and candidate
//! verification can use merge-based set intersection. [`Csr`] is that
//! storage, independent of labels, so the same structure backs both the
//! in-memory graph and the simulated shared (lustre-like) store in
//! `ceci-distributed`.

use crate::ids::VertexId;

/// One directed half of a changed edge: `(src, dst, add)` — `dst` joins
/// (`true`) or leaves (`false`) `src`'s adjacency. Tuples order by source,
/// then neighbor, which is the order [`Csr`] stores.
pub(crate) type EdgeDelta = (VertexId, VertexId, bool);

/// Sorted-adjacency CSR structure: `offsets[v]..offsets[v+1]` indexes the
/// neighbor slice of vertex `v` inside `neighbors`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<usize>,
    neighbors: Vec<VertexId>,
}

impl Csr {
    /// Builds a CSR from an undirected edge list over `n` vertices.
    ///
    /// Each `(a, b)` pair inserts both `a → b` and `b → a`. Self-loops and
    /// duplicate edges are removed; adjacency lists come out sorted.
    ///
    /// # Panics
    /// Panics if an endpoint is `>= n`.
    pub fn from_undirected_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Self {
        let mut degree = vec![0usize; n];
        for &(a, b) in edges {
            assert!(a.index() < n, "edge endpoint {a:?} out of range (n = {n})");
            assert!(b.index() < n, "edge endpoint {b:?} out of range (n = {n})");
            if a == b {
                continue; // self-loops carry no information for isomorphism
            }
            degree[a.index()] += 1;
            degree[b.index()] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut neighbors = vec![VertexId::default(); acc];
        for &(a, b) in edges {
            if a == b {
                continue;
            }
            neighbors[cursor[a.index()]] = b;
            cursor[a.index()] += 1;
            neighbors[cursor[b.index()]] = a;
            cursor[b.index()] += 1;
        }
        let mut csr = Csr { offsets, neighbors };
        csr.sort_and_dedup();
        csr
    }

    /// This CSR with one batch of net edge changes applied, in one pass:
    /// the run of untouched vertices between two touched ones is a single
    /// slice copy plus an offset shift, and only the touched vertices'
    /// lists are merged. `delta` is sorted, holds both directions of every
    /// changed edge, and is *net* against `self`: an added neighbor is
    /// absent from `src`'s list, a deleted one present.
    pub(crate) fn patched(&self, delta: &[EdgeDelta]) -> Csr {
        debug_assert!(delta.windows(2).all(|w| w[0] < w[1]));
        let adds = delta.iter().filter(|e| e.2).count();
        let mut offsets = Vec::with_capacity(self.offsets.len());
        let mut neighbors = Vec::with_capacity(self.neighbors.len() + 2 * adds - delta.len());
        offsets.push(0);
        // Appends the unchanged lists of vertices `from..to`.
        let copy_run = |from: usize, to: usize, offsets: &mut Vec<usize>, out: &mut Vec<_>| {
            let (lo, hi) = (self.offsets[from], self.offsets[to]);
            let shifted = out.len();
            out.extend_from_slice(&self.neighbors[lo..hi]);
            offsets.extend(self.offsets[from + 1..=to].iter().map(|o| o - lo + shifted));
        };
        let mut clean_from = 0;
        let mut rest = delta;
        while let Some(&(src, ..)) = rest.first() {
            let (mine, later) = rest.split_at(rest.partition_point(|e| e.0 == src));
            copy_run(clean_from, src.index(), &mut offsets, &mut neighbors);
            let mut old = self.neighbors(src);
            for &(_, dst, add) in mine {
                let (before, from_dst) = old.split_at(old.partition_point(|&nb| nb < dst));
                neighbors.extend_from_slice(before);
                debug_assert_eq!(from_dst.first() == Some(&dst), !add, "delta is not net");
                if add {
                    neighbors.push(dst);
                    old = from_dst;
                } else {
                    old = &from_dst[1..];
                }
            }
            neighbors.extend_from_slice(old);
            offsets.push(neighbors.len());
            clean_from = src.index() + 1;
            rest = later;
        }
        copy_run(
            clean_from,
            self.num_vertices(),
            &mut offsets,
            &mut neighbors,
        );
        Csr { offsets, neighbors }
    }

    /// This CSR renumbered in one pass: vertex `file_of[r]` becomes `r`, and
    /// `rank_of` is the inverse permutation. The lists come out sorted
    /// without a sort: sources are scanned in new-id order and each one is
    /// appended to its neighbours' lists, which for a symmetric adjacency is
    /// the renumbered adjacency itself.
    pub(crate) fn permuted(&self, rank_of: &[VertexId], file_of: &[VertexId]) -> Csr {
        let mut offsets = Vec::with_capacity(file_of.len() + 1);
        offsets.push(0);
        let mut acc = 0;
        for &f in file_of {
            acc += self.degree(f);
            offsets.push(acc);
        }
        let mut cursor = offsets[..file_of.len()].to_vec();
        let mut neighbors = vec![VertexId::default(); acc];
        for (r, &f) in file_of.iter().enumerate() {
            let r = VertexId::from_index(r);
            for &nb in self.neighbors(f) {
                let slot = &mut cursor[rank_of[nb.index()].index()];
                neighbors[*slot] = r;
                *slot += 1;
            }
        }
        Csr { offsets, neighbors }
    }

    /// Sorts each adjacency list and removes duplicate neighbors, compacting
    /// the arrays in place.
    #[allow(clippy::needless_range_loop)] // read/write cursors alias `neighbors`
    fn sort_and_dedup(&mut self) {
        let n = self.offsets.len() - 1;
        let mut write = 0usize;
        let mut new_offsets = Vec::with_capacity(n + 1);
        new_offsets.push(0);
        let mut read_start = self.offsets[0];
        for v in 0..n {
            let read_end = self.offsets[v + 1];
            self.neighbors[read_start..read_end].sort_unstable();
            let mut prev: Option<VertexId> = None;
            for i in read_start..read_end {
                let nb = self.neighbors[i];
                if prev != Some(nb) {
                    self.neighbors[write] = nb;
                    write += 1;
                    prev = Some(nb);
                }
            }
            new_offsets.push(write);
            read_start = read_end;
        }
        self.neighbors.truncate(write);
        self.offsets = new_offsets;
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of *undirected* edges (each stored twice internally).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Total adjacency entries (2·edges for undirected storage).
    #[inline]
    pub fn num_adjacency_entries(&self) -> usize {
        self.neighbors.len()
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v.index() + 1] - self.offsets[v.index()]
    }

    /// Sorted neighbor slice of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.neighbors[self.offsets[v.index()]..self.offsets[v.index() + 1]]
    }

    /// Edge test via binary search over the smaller endpoint's list.
    #[inline]
    pub fn has_edge(&self, a: VertexId, b: VertexId) -> bool {
        let (probe, key) = if self.degree(a) <= self.degree(b) {
            (a, b)
        } else {
            (b, a)
        };
        self.neighbors(probe).binary_search(&key).is_ok()
    }

    /// The raw offsets array (`n + 1` entries) — the `beginning_position`
    /// array of the paper's shared-storage layout (§5).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw concatenated neighbor array.
    #[inline]
    pub fn raw_neighbors(&self) -> &[VertexId] {
        &self.neighbors
    }

    /// Bytes of heap memory held by the structure.
    pub fn size_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<usize>()
            + self.neighbors.capacity() * std::mem::size_of::<VertexId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::vid;

    fn triangle_plus_tail() -> Csr {
        // 0-1, 1-2, 2-0, 2-3
        Csr::from_undirected_edges(
            4,
            &[
                (vid(0), vid(1)),
                (vid(1), vid(2)),
                (vid(2), vid(0)),
                (vid(2), vid(3)),
            ],
        )
    }

    #[test]
    fn basic_counts() {
        let g = triangle_plus_tail();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.num_adjacency_entries(), 8);
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = triangle_plus_tail();
        assert_eq!(g.neighbors(vid(2)), &[vid(0), vid(1), vid(3)]);
        assert_eq!(g.degree(vid(2)), 3);
        assert_eq!(g.degree(vid(3)), 1);
    }

    #[test]
    fn has_edge_both_directions() {
        let g = triangle_plus_tail();
        assert!(g.has_edge(vid(0), vid(1)));
        assert!(g.has_edge(vid(1), vid(0)));
        assert!(!g.has_edge(vid(0), vid(3)));
        assert!(!g.has_edge(vid(3), vid(0)));
    }

    #[test]
    fn self_loops_and_duplicates_removed() {
        let g = Csr::from_undirected_edges(
            3,
            &[
                (vid(0), vid(0)),
                (vid(0), vid(1)),
                (vid(1), vid(0)),
                (vid(0), vid(1)),
                (vid(1), vid(2)),
            ],
        );
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(vid(0)), &[vid(1)]);
        assert_eq!(g.neighbors(vid(1)), &[vid(0), vid(2)]);
    }

    #[test]
    fn patched_merges_dirty_lists_and_shifts_clean_runs() {
        let g = triangle_plus_tail();
        assert_eq!(g.patched(&[]), g);
        // Drop 0-1, add 0-3: first and last vertex dirty, vertex 2 clean.
        let delta = [
            (vid(0), vid(1), false),
            (vid(0), vid(3), true),
            (vid(1), vid(0), false),
            (vid(3), vid(0), true),
        ];
        let expect = Csr::from_undirected_edges(
            4,
            &[
                (vid(1), vid(2)),
                (vid(2), vid(0)),
                (vid(2), vid(3)),
                (vid(0), vid(3)),
            ],
        );
        assert_eq!(g.patched(&delta), expect);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_undirected_edges(0, &[]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn isolated_vertices() {
        let g = Csr::from_undirected_edges(5, &[(vid(1), vid(3))]);
        assert_eq!(g.degree(vid(0)), 0);
        assert_eq!(g.neighbors(vid(0)), &[] as &[VertexId]);
        assert_eq!(g.degree(vid(1)), 1);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let _ = Csr::from_undirected_edges(2, &[(vid(0), vid(5))]);
    }

    #[test]
    fn size_bytes_nonzero() {
        let g = triangle_plus_tail();
        assert!(g.size_bytes() > 0);
    }
}
