//! Memoised sub-counts at clean cuts.
//!
//! Cut the matching order at depth `d`. Every gather below the cut reads
//! the prefix only through the images of its boundary `B_d`
//! ([`QueryPlan::boundary`]): tree parents, backward non-tree neighbours
//! and symmetry bounds. The rest of the prefix still matters through
//! injectivity. Call the cut **clean** when that injectivity cannot fail:
//! every prefix vertex outside `B_d` has an index candidate set disjoint
//! from every suffix vertex's. The search only ever maps a vertex to an
//! entry of its TE list (every gather intersects it), or the root to a
//! pivot, and those lie in the vertex's candidate set; so two images from
//! disjoint sets never collide. (Disjoint *label* sets would not do: one data vertex can carry
//! both labels.) Under a clean cut the number of ways to complete a partial
//! embedding is a function of the key `f(B_d)` alone, and a counting drain
//! can remember it: each worker's enumerator keeps a bounded table of
//! sub-counts by key. This is CEMR's redundant-extension
//! elimination applied to counts, and the paper's per-`(u, v)` cardinality
//! of Algorithm 2 made exact.
//!
//! The build finds the cut once, kept by
//! [`Ceci::clean_cut`](crate::Ceci::clean_cut); no request compares
//! candidate sets.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use ceci_graph::VertexId;
use ceci_query::QueryPlan;

/// The widest key a cut may have: a key is a fixed-width array.
const MAX_KEY: usize = 8;
/// Entries one memo holds at most. A full memo keeps answering from what
/// it holds and stores nothing more; it never evicts.
const MEMO_ENTRIES: usize = 4096;
/// A memo that has stored this many keys with fewer than
/// [`GUARD_HITS`] hits switches itself off: its keys do not repeat.
const GUARD_KEYS: usize = 256;
/// See [`GUARD_KEYS`].
const GUARD_HITS: u64 = 256;

/// A clean cut of a plan's matching order, confirmed on its index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CleanCut {
    /// The cut depth `d`: a partial embedding of `matching_order[..d]` is
    /// completed in as many ways as the memo recorded for its key.
    pub depth: usize,
    /// The boundary `B_d`, in matching order: the key is their images.
    pub key: Vec<VertexId>,
}

impl CleanCut {
    /// The shallowest clean cut of `plan`, given the index's final candidate
    /// set of every query vertex (`candidates[u]`, sorted), no deeper than
    /// `reach`, the last depth the search still enters. A cut needs
    /// `d ≥ 2` and a boundary narrower than its prefix (a key of the whole
    /// prefix never repeats) and at most 8 (`MAX_KEY`) wide.
    pub(crate) fn find(
        plan: &QueryPlan,
        candidates: &[Vec<VertexId>],
        reach: usize,
    ) -> Option<CleanCut> {
        let order = plan.matching_order();
        let apart =
            |a: VertexId, b: VertexId| disjoint(&candidates[a.index()], &candidates[b.index()]);
        (2..=reach.min(order.len().saturating_sub(1))).find_map(|depth| {
            let key = plan.boundary(depth);
            if key.len() >= depth || key.len() > MAX_KEY {
                return None;
            }
            let (prefix, suffix) = order.split_at(depth);
            let mut outside = prefix.iter().filter(|w| !key.contains(w));
            outside
                .all(|&w| suffix.iter().all(|&s| apart(w, s)))
                .then_some(CleanCut { depth, key })
        })
    }
}

/// `EXPLAIN`'s form: `cut depth=3 key=[u0,u2]`.
impl fmt::Display for CleanCut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let key: Vec<String> = self.key.iter().map(|u| format!("u{u}")).collect();
        write!(f, "cut depth={} key=[{}]", self.depth, key.join(","))
    }
}

/// Whether two sorted sets share no element. Under label-major ids two
/// labels' candidates are two id ranges, so most pairs are answered by
/// their ends.
fn disjoint(a: &[VertexId], b: &[VertexId]) -> bool {
    let (Some((a0, a1)), Some((b0, b1))) = (a.first().zip(a.last()), b.first().zip(b.last()))
    else {
        return true;
    };
    if a1 < b0 || b1 < a0 {
        return true;
    }
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return false,
        }
    }
    true
}

/// A key: the boundary's images, zero past the boundary's width.
type Key = [u32; MAX_KEY];

/// Hashes a [`Key`] eight bytes at a time: rotate, xor in the word,
/// multiply. Keys are images the index produced, not outside input, so
/// they need none of the std default's keyed SipHash.
#[derive(Default)]
struct WordHasher(u64);

impl WordHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    /// A key's images arrive as one run of bytes.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_ne_bytes(word));
        }
    }

    /// The key's length prefix.
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.fold(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// One drain's sub-counts under a [`CleanCut`], keyed by the boundary's
/// images: a map that allocates on its first insert, capped at
/// [`MEMO_ENTRIES`], switched off by the [`GUARD_KEYS`] guard. Each worker
/// owns one, so what a worker counts never depends on another's memo.
pub(crate) struct SubCountMemo<'a> {
    cut: &'a CleanCut,
    counts: HashMap<Key, u64, BuildHasherDefault<WordHasher>>,
    hits: u64,
    on: bool,
}

impl<'a> SubCountMemo<'a> {
    pub(crate) fn new(cut: &'a CleanCut) -> Self {
        SubCountMemo {
            cut,
            counts: HashMap::default(),
            hits: 0,
            on: true,
        }
    }

    /// Whether a search entering `depth` asks this memo first.
    #[inline]
    pub(crate) fn at(&self, depth: usize) -> bool {
        self.on && depth == self.cut.depth
    }

    /// The key of the partial embedding `mapping`.
    #[inline]
    pub(crate) fn key(&self, mapping: &[Option<VertexId>]) -> Key {
        let mut key = [0; MAX_KEY];
        for (word, w) in key.iter_mut().zip(&self.cut.key) {
            *word = mapping[w.index()].expect("the boundary is mapped").0;
        }
        key
    }

    /// The sub-count stored under `key`, if any (a hit).
    #[inline]
    pub(crate) fn get(&mut self, key: &Key) -> Option<u64> {
        let count = *self.counts.get(key)?;
        self.hits += 1;
        Some(count)
    }

    /// Stores `count` under `key`, a key [`SubCountMemo::get`] just missed;
    /// returns whether it was stored. The 256th key switches the memo off
    /// (and frees it) unless 256 hits came first.
    pub(crate) fn insert(&mut self, key: &Key, count: u64) -> bool {
        if self.counts.len() == MEMO_ENTRIES {
            return false;
        }
        if self.counts.capacity() == 0 {
            // Room for the guard's keys: a memo that outlives them grows.
            self.counts.reserve(GUARD_KEYS);
        }
        let fresh = self.counts.insert(*key, count).is_none();
        debug_assert!(fresh, "a stored key is answered, not recounted");
        if self.counts.len() == GUARD_KEYS && self.hits < GUARD_HITS {
            *self = SubCountMemo {
                on: false,
                ..SubCountMemo::new(self.cut)
            };
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceci_graph::vid;

    fn cut(width: usize) -> CleanCut {
        CleanCut {
            depth: width + 1,
            key: (0..width as u32).map(vid).collect(),
        }
    }

    fn key(words: &[u32]) -> Key {
        let mut key = [0; MAX_KEY];
        key[..words.len()].copy_from_slice(words);
        key
    }

    #[test]
    fn stores_answers_and_grows() {
        let cut = cut(2);
        let mut memo = SubCountMemo::new(&cut);
        assert_eq!(
            memo.counts.capacity(),
            0,
            "nothing allocated before a store"
        );
        assert_eq!(memo.get(&key(&[1, 2])), None);
        // A guard's worth of hits first, so the memo stays on past 256 keys.
        assert!(memo.insert(&key(&[1, 2]), 7));
        for _ in 0..GUARD_HITS {
            assert_eq!(memo.get(&key(&[1, 2])), Some(7));
        }
        for i in 0..1000u32 {
            assert!(memo.insert(&key(&[i, i + 5]), u64::from(i)));
        }
        assert!(memo.at(cut.depth));
        for i in 0..1000u32 {
            assert_eq!(memo.get(&key(&[i, i + 5])), Some(u64::from(i)));
        }
        assert_eq!(memo.get(&key(&[2, 1])), None, "keys are ordered");
        assert_eq!(memo.counts.len(), 1001);
    }

    #[test]
    fn a_full_memo_stops_storing_and_keeps_answering() {
        let cut = cut(1);
        let mut memo = SubCountMemo::new(&cut);
        memo.hits = GUARD_HITS;
        for i in 0..MEMO_ENTRIES as u32 {
            assert!(memo.insert(&key(&[i]), 1));
        }
        assert!(!memo.insert(&key(&[u32::MAX]), 1));
        assert_eq!(memo.get(&key(&[u32::MAX])), None);
        assert_eq!(memo.get(&key(&[0])), Some(1));
        assert_eq!(memo.counts.len(), MEMO_ENTRIES);
    }

    #[test]
    fn keys_that_never_repeat_switch_it_off() {
        let cut = cut(3);
        let mut memo = SubCountMemo::new(&cut);
        for i in 0..GUARD_KEYS as u32 - 1 {
            assert!(memo.insert(&key(&[i, 0, i]), 0));
        }
        assert!(memo.at(cut.depth));
        assert!(memo.insert(&key(&[u32::MAX, 0, 0]), 0));
        assert!(!memo.at(cut.depth), "the 256th key with no hits");
        assert_eq!(memo.counts.capacity(), 0, "freed");
    }

    #[test]
    fn disjoint_sets() {
        let set = |ids: &[u32]| ids.iter().copied().map(vid).collect::<Vec<_>>();
        assert!(disjoint(&set(&[1, 2]), &set(&[3, 4])));
        assert!(disjoint(&set(&[1, 3, 5]), &set(&[2, 4, 6])));
        assert!(!disjoint(&set(&[1, 3, 5]), &set(&[0, 5])));
        assert!(disjoint(&set(&[]), &set(&[0, 5])));
    }
}
