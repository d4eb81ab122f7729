//! Candidate tables: the key → value-list maps holding TE and NTE
//! candidates.
//!
//! Both the mutable build-time form and the frozen form share one memory
//! layout: a flat CSR-style arena. [`BuildTable`] appends every key's value
//! list into a single contiguous `Vec<VertexId>` bump arena and records
//! `(offset, len)` spans per key, so construction performs **zero per-key
//! allocations** and freezing is (in the common fast path) a move, not a
//! copy. Removals — required by the Algorithm 1 empty-entry cascade and by
//! Algorithm 2 refinement — shift inside a span (value removal, one pass per
//! span for a whole set of values) or tombstone a span (key removal); the
//! resulting holes are compacted *in place* at freeze time.
//!
//! Every table keeps two dense maps: key id → slot, so a lookup
//! ([`BuildTable::get`], [`CompactTable::get`]) is two array reads instead
//! of a binary search per recursive call, and, while building, value id →
//! the number of lists holding it (the multiset the cascade needs), so
//! `contains_value` is one read and `value_union` one ascending scan. A
//! dense map spans only its ids: a build table's keys are its frontier and
//! its values its node's candidate set, and a frozen table's keys are the
//! ones that survived, so none of them grows with the largest vertex id.
//! The binary-search path survives as [`CompactTable::get_binary`] for
//! differential testing.

use ceci_graph::VertexId;

/// Sentinel marking "key absent" in the dense slot maps.
const NO_SLOT: u32 = u32::MAX;

/// Dense `vertex id → u32` counter over the ids from a table's first
/// possible value to its last — the value-membership multiset of one table.
/// Ids outside the span read 0.
#[derive(Clone, Debug, Default)]
struct CountMap {
    /// The first id; `counts[i]` counts id `first + i`.
    first: u32,
    counts: Vec<u32>,
}

impl CountMap {
    /// A zero count for every id from the first of the sorted `ids` to the
    /// last.
    fn spanning(ids: &[VertexId]) -> CountMap {
        match (ids.first(), ids.last()) {
            (Some(first), Some(last)) => CountMap {
                first: first.0,
                counts: vec![0; (last.0 - first.0) as usize + 1],
            },
            _ => CountMap::default(),
        }
    }

    #[inline]
    fn get(&self, v: VertexId) -> u32 {
        let i = v.0.wrapping_sub(self.first) as usize;
        self.counts.get(i).copied().unwrap_or(0)
    }

    #[inline]
    fn count_mut(&mut self, v: VertexId) -> &mut u32 {
        &mut self.counts[(v.0 - self.first) as usize]
    }

    /// Zeroes the count of `v` and returns what it was.
    fn take(&mut self, v: VertexId) -> u32 {
        let i = v.0.wrapping_sub(self.first) as usize;
        self.counts.get_mut(i).map_or(0, std::mem::take)
    }

    /// Distinct tracked values in ascending id order (no sort needed — the
    /// index *is* the id).
    fn distinct_sorted(&self) -> Vec<VertexId> {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, _)| VertexId(self.first + i as u32))
            .collect()
    }

    /// Heap bytes of the map.
    fn size_bytes(&self) -> usize {
        self.counts.len() * std::mem::size_of::<u32>()
    }
}

/// One key's span in the arena.
#[derive(Clone, Copy, Debug)]
struct Span {
    /// Arena offset of the first value.
    offset: u32,
    /// Live value count (gaps trail the live values inside the original
    /// allocation).
    len: u32,
    /// Tombstone set by [`BuildTable::remove_keys`].
    dead: bool,
}

/// Mutable key → sorted-value-list table used while building CECI, stored as
/// a CSR arena from the start (see module docs).
#[derive(Clone, Debug)]
pub struct BuildTable {
    /// Keys in insertion (= ascending) order, tombstones included.
    keys: Vec<VertexId>,
    /// Parallel to `keys`.
    spans: Vec<Span>,
    /// The shared bump arena all value lists live in.
    values: Vec<VertexId>,
    /// value → number of keys whose list currently contains it.
    value_counts: CountMap,
    /// Key id → index into `keys`/`spans`.
    slot_of: SlotMap,
    /// Live (key, value) entries — Σ live span lengths. The arena's other
    /// slots are the holes removals left (compaction work at freeze).
    num_entries: usize,
    /// Tombstoned keys.
    dead_keys: usize,
    /// Scratch of the removals: the values a removal took out.
    held: Vec<VertexId>,
}

impl BuildTable {
    /// An empty table whose keys are among the sorted `keys` and whose
    /// values lie between the first and the last of the sorted `values`:
    /// Algorithm 1 passes a table's frontier and its node's candidates. Its
    /// dense maps span those ids and no others.
    pub fn new(keys: &[VertexId], values: &[VertexId]) -> Self {
        BuildTable {
            keys: Vec::with_capacity(keys.len()),
            spans: Vec::with_capacity(keys.len()),
            values: Vec::new(),
            value_counts: CountMap::spanning(values),
            slot_of: SlotMap::spanning(keys),
            num_entries: 0,
            dead_keys: 0,
            held: Vec::new(),
        }
    }

    /// Inserts a key with its complete sorted value list, copying the slice
    /// into the arena. Keys must be inserted in ascending order; duplicate
    /// keys are not allowed.
    pub fn push_key(&mut self, key: VertexId, values: &[VertexId]) {
        self.push_key_with(key, |arena| arena.extend_from_slice(values));
    }

    /// Inserts a key whose value list is produced *directly into the arena*
    /// by `produce` (the zero-copy path of the filter phases). Returns the
    /// number of values written; when zero, the key is **not** recorded
    /// (Algorithm 1 never stores empty entries — it cascades them). The
    /// produced run must be sorted.
    pub fn push_key_with(
        &mut self,
        key: VertexId,
        produce: impl FnOnce(&mut Vec<VertexId>),
    ) -> usize {
        debug_assert!(
            self.keys.last().map(|&k| k < key).unwrap_or(true),
            "keys must be inserted in ascending order"
        );
        let offset = self.values.len();
        produce(&mut self.values);
        values_len_guard(self.values.len());
        let written = &self.values[offset..];
        debug_assert!(
            written.windows(2).all(|w| w[0] < w[1]),
            "values must be sorted"
        );
        let len = written.len();
        if len == 0 {
            return 0;
        }
        for &v in &self.values[offset..] {
            *self.value_counts.count_mut(v) += 1;
        }
        let slot = self.keys.len();
        self.keys.push(key);
        self.spans.push(Span {
            offset: offset as u32,
            len: len as u32,
            dead: false,
        });
        self.slot_of.set(key, slot);
        self.num_entries += len;
        len
    }

    /// Number of live keys.
    pub fn num_keys(&self) -> usize {
        self.keys.len() - self.dead_keys
    }

    /// O(1) lookup of the value list for `key` (dense slot map).
    #[inline]
    pub fn get(&self, key: VertexId) -> Option<&[VertexId]> {
        let i = self.slot_of.get(key)?;
        let s = self.spans[i];
        Some(&self.values[s.offset as usize..(s.offset + s.len) as usize])
    }

    /// Iterates live `(key, values)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, &[VertexId])> {
        self.keys
            .iter()
            .zip(self.spans.iter())
            .filter(|(_, s)| !s.dead)
            .map(move |(&k, s)| {
                (
                    k,
                    &self.values[s.offset as usize..(s.offset + s.len) as usize],
                )
            })
    }

    /// `true` if `v` appears in at least one value list.
    #[inline]
    pub fn contains_value(&self, v: VertexId) -> bool {
        self.value_counts.get(v) > 0
    }

    /// The distinct values across all keys, sorted — the *candidate set* of
    /// the query node this table belongs to. An ascending scan of the dense
    /// count array, which spans that node's candidate set; no sort.
    pub fn value_union(&self) -> Vec<VertexId> {
        self.value_counts.distinct_sorted()
    }

    /// Removes each of `keys` with its whole value list (absent keys are
    /// no-ops).
    pub fn remove_keys(&mut self, keys: &[VertexId]) {
        for &key in keys {
            let Some(i) = self.slot_of.get(key) else {
                continue;
            };
            self.slot_of.clear(key);
            let s = &mut self.spans[i];
            s.dead = true;
            self.dead_keys += 1;
            self.num_entries -= s.len as usize;
            for &v in &self.values[s.offset as usize..(s.offset + s.len) as usize] {
                let count = self.value_counts.count_mut(v);
                debug_assert!(*count > 0, "decrementing absent value");
                *count -= 1;
            }
        }
    }

    /// Removes every value of the sorted `gone` from every key's list in one
    /// pass over the live spans, each compacted once by a galloping
    /// difference: values the table does not hold are skipped, and the pass
    /// stops once every held occurrence is gone. A list may be left empty.
    pub fn remove_values(&mut self, gone: &[VertexId]) {
        debug_assert!(gone.windows(2).all(|w| w[0] < w[1]), "gone must be sorted");
        self.held.clear();
        let mut left = 0;
        for &v in gone {
            let count = self.value_counts.take(v);
            if count > 0 {
                left += count as usize;
                self.held.push(v);
            }
        }
        for s in self.spans.iter_mut().filter(|s| !s.dead) {
            if left == 0 {
                break;
            }
            let span = &mut self.values[s.offset as usize..(s.offset + s.len) as usize];
            let kept = retain_absent(span, &self.held);
            let removed = span.len() - kept;
            s.len = kept as u32;
            self.num_entries -= removed;
            left -= removed;
        }
    }

    /// Total candidate-edge entries currently stored (Σ live value-list
    /// lengths). O(1) — maintained incrementally.
    #[inline]
    pub fn num_entries(&self) -> usize {
        self.num_entries
    }

    /// Arena bytes currently held (live values + holes), the build-time
    /// memory footprint of the value storage.
    pub fn arena_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<VertexId>()
    }

    /// Heap bytes held by the table, both dense maps included, computed
    /// from lengths as [`CompactTable::size_bytes`] is.
    pub fn size_bytes(&self) -> usize {
        self.keys.len() * std::mem::size_of::<VertexId>()
            + self.spans.len() * std::mem::size_of::<Span>()
            + self.arena_bytes()
            + self.value_counts.size_bytes()
            + self.slot_of.size_bytes()
    }

    /// Freezes into the compact immutable form, dropping empty and
    /// tombstoned keys. Consumes the table: when no removals punched holes
    /// in the arena the value storage is **moved**, not copied; otherwise
    /// the live spans are compacted in place (stable left-shift) and the
    /// arena truncated — still no second allocation.
    pub fn freeze(mut self) -> CompactTable {
        let mut keys = Vec::with_capacity(self.keys.len() - self.dead_keys);
        let mut offsets = Vec::with_capacity(keys.capacity() + 1);
        offsets.push(0u32);
        let mut write = 0usize;
        for (i, s) in self.spans.iter().enumerate() {
            if s.dead || s.len == 0 {
                continue;
            }
            let (offset, len) = (s.offset as usize, s.len as usize);
            debug_assert!(offset >= write, "spans must be in ascending arena order");
            if offset != write {
                self.values.copy_within(offset..offset + len, write);
            }
            write += len;
            keys.push(self.keys[i]);
            offsets.push(write as u32);
        }
        self.values.truncate(write);
        let slot_of = SlotMap::new(&keys);
        CompactTable {
            keys,
            offsets,
            values: self.values,
            slot_of,
        }
    }
}

/// The dense key-id → slot map of a sorted key list, spanning only the ids
/// from its first key to its last: a lookup is one subtraction, a bounds
/// check and one array read, and ids outside the span are simply absent.
/// Candidates that pass the degree filter cluster at the top of a
/// degree-ranked id range, so a map from id 0 would be mostly empty.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct SlotMap {
    /// The first key's id; slot `i` of `slots` is id `first + i`.
    first: u32,
    /// Index into the key list, or [`NO_SLOT`].
    slots: Vec<u32>,
}

impl SlotMap {
    /// The map of the sorted `keys`, key `i` at slot `i`.
    pub(crate) fn new(keys: &[VertexId]) -> SlotMap {
        let mut map = SlotMap::spanning(keys);
        for (i, &key) in keys.iter().enumerate() {
            map.set(key, i);
        }
        map
    }

    /// A map spanning the first to the last of the sorted `keys`, every id
    /// absent.
    fn spanning(keys: &[VertexId]) -> SlotMap {
        let (Some(first), Some(last)) = (keys.first(), keys.last()) else {
            return SlotMap::default();
        };
        debug_assert!(
            keys.len() < NO_SLOT as usize,
            "slot indices must fit below the NO_SLOT sentinel"
        );
        SlotMap {
            first: first.0,
            slots: vec![NO_SLOT; (last.0 - first.0) as usize + 1],
        }
    }

    /// Puts `key`, an id of the span, at `slot`.
    fn set(&mut self, key: VertexId, slot: usize) {
        self.slots[(key.0 - self.first) as usize] = slot as u32;
    }

    /// Makes `key`, an id of the span, absent.
    fn clear(&mut self, key: VertexId) {
        self.set(key, NO_SLOT as usize);
    }

    /// The slot of `key`. An id below the first key wraps past the end of
    /// `slots` and reads as absent.
    #[inline]
    pub(crate) fn get(&self, key: VertexId) -> Option<usize> {
        let s = *self.slots.get(key.0.wrapping_sub(self.first) as usize)?;
        (s != NO_SLOT).then_some(s as usize)
    }

    /// Heap bytes of the map.
    fn size_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<u32>()
    }
}

/// Drops from the sorted `span` every value of the sorted `gone` in place
/// and returns how many are kept, in order, at its front. The side behind
/// gallops to the other's value, so it costs no more than a merge nor than a
/// search per value of the shorter side, and each kept run shifts once.
pub(crate) fn retain_absent(span: &mut [VertexId], gone: &[VertexId]) -> usize {
    let (mut i, mut j, mut write) = (0, 0, 0);
    while i < span.len() && j < gone.len() {
        if span[i] < gone[j] {
            let kept = gallop(&span[i..], gone[j]);
            if write < i {
                span.copy_within(i..i + kept, write);
            }
            (i, write) = (i + kept, write + kept);
        } else if span[i] > gone[j] {
            j += gallop(&gone[j..], span[i]);
        } else {
            (i, j) = (i + 1, j + 1);
        }
    }
    if write < i {
        span.copy_within(i.., write);
    }
    write + span.len() - i
}

/// The first index of the sorted `list` whose value is at least `x`, probed
/// 1, 2, 4, … ahead before a binary search of the last stride: O(log i).
fn gallop(list: &[VertexId], x: VertexId) -> usize {
    let mut bound = 1;
    while bound <= list.len() && list[bound - 1] < x {
        bound *= 2;
    }
    bound / 2 + list[bound / 2..bound.min(list.len())].partition_point(|&v| v < x)
}

fn values_len_guard(len: usize) {
    assert!(
        len <= u32::MAX as usize,
        "candidate table exceeds u32 offset range"
    );
}

/// Immutable frozen candidate table: sorted keys, flat value arena, dense
/// key → slot map.
///
/// Layout is exactly the paper's 8-bytes-per-candidate-edge accounting: each
/// stored (key, value) candidate edge costs one `u32` value slot plus
/// amortized key/offset overhead. The `slot_of` acceleration array trades
/// `4 × (last_key − first_key + 1)` bytes per table for O(1) hot-path
/// lookups; it is derived entirely from `keys`, so equality and the
/// candidate-edge counts of Table 2 are unaffected.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CompactTable {
    keys: Vec<VertexId>,
    offsets: Vec<u32>,
    values: Vec<VertexId>,
    /// Key id → index into `keys`/`offsets`.
    slot_of: SlotMap,
}

impl CompactTable {
    /// Number of keys.
    #[inline]
    pub fn num_keys(&self) -> usize {
        self.keys.len()
    }

    /// Total candidate entries (Σ value-list lengths).
    #[inline]
    pub fn num_entries(&self) -> usize {
        self.values.len()
    }

    /// O(1) lookup of the sorted value list for `key`: one read of the dense
    /// slot map, one offset-pair read. This is the enumeration hot path.
    #[inline]
    pub fn get(&self, key: VertexId) -> Option<&[VertexId]> {
        let i = self.slot_of.get(key)?;
        Some(&self.values[self.offsets[i] as usize..self.offsets[i + 1] as usize])
    }

    /// Legacy binary-searched lookup, kept as the reference implementation
    /// for differential tests against [`CompactTable::get`].
    #[inline]
    pub fn get_binary(&self, key: VertexId) -> Option<&[VertexId]> {
        self.keys
            .binary_search(&key)
            .ok()
            .map(|i| &self.values[self.offsets[i] as usize..self.offsets[i + 1] as usize])
    }

    /// The sorted key list.
    #[inline]
    pub fn keys(&self) -> &[VertexId] {
        &self.keys
    }

    /// Iterates `(key, values)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, &[VertexId])> {
        self.keys.iter().enumerate().map(move |(i, &k)| {
            (
                k,
                &self.values[self.offsets[i] as usize..self.offsets[i + 1] as usize],
            )
        })
    }

    /// Distinct values across all keys, sorted.
    pub fn value_union(&self) -> Vec<VertexId> {
        let mut out = self.values.clone();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Bytes of the flat value arena alone — the paper's
    /// 4-bytes-per-candidate-edge payload, excluding keys/offsets/slot-map
    /// overhead.
    pub fn arena_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<VertexId>()
    }

    /// Heap bytes held by the table, including the dense slot map. Computed
    /// from lengths (not capacities) so the figure is exact and identical
    /// across allocation histories — a table frozen after removals reports
    /// the bytes of one pushed with its surviving content.
    pub fn size_bytes(&self) -> usize {
        self.keys.len() * std::mem::size_of::<VertexId>()
            + self.offsets.len() * std::mem::size_of::<u32>()
            + self.values.len() * std::mem::size_of::<VertexId>()
            + self.slot_of.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceci_graph::vid;

    fn sample() -> BuildTable {
        let mut t = BuildTable::new(&[vid(1), vid(2)], &[vid(3), vid(9)]);
        t.push_key(vid(1), &[vid(3), vid(5), vid(7)]);
        t.push_key(vid(2), &[vid(7), vid(9)]);
        t
    }

    #[test]
    fn lookup_and_union() {
        let t = sample();
        assert_eq!(t.get(vid(1)), Some(&[vid(3), vid(5), vid(7)][..]));
        assert_eq!(t.get(vid(2)), Some(&[vid(7), vid(9)][..]));
        assert_eq!(t.get(vid(3)), None);
        assert_eq!(t.value_union(), vec![vid(3), vid(5), vid(7), vid(9)]);
        assert_eq!(t.num_entries(), 5);
        assert_eq!(t.num_keys(), 2);
    }

    #[test]
    fn contains_value_tracks_multiplicity() {
        let mut t = sample();
        assert!(t.contains_value(vid(7)));
        // v7 appears under both keys; removing key v2 keeps it alive.
        t.remove_keys(&[vid(2)]);
        assert!(t.contains_value(vid(7)));
        assert!(!t.contains_value(vid(9)));
        assert_eq!(t.value_union(), vec![vid(3), vid(5), vid(7)]);
        assert_eq!(t.num_keys(), 1);
        assert_eq!(t.get(vid(2)), None);
    }

    #[test]
    fn remove_key_noop_when_absent() {
        let mut t = sample();
        t.remove_keys(&[vid(99)]);
        assert_eq!(t.num_keys(), 2);
    }

    /// The keys whose lists are empty.
    fn emptied(t: &BuildTable) -> Vec<VertexId> {
        t.iter()
            .filter(|(_, l)| l.is_empty())
            .map(|(k, _)| k)
            .collect()
    }

    #[test]
    fn remove_values_reports_emptied_keys() {
        let mut t = BuildTable::new(&[vid(1), vid(2)], &[vid(5), vid(6)]);
        t.push_key(vid(1), &[vid(5)]);
        t.push_key(vid(2), &[vid(5), vid(6)]);
        t.remove_values(&[vid(5)]);
        assert_eq!(emptied(&t), vec![vid(1)]);
        assert!(!t.contains_value(vid(5)));
        assert_eq!(t.get(vid(1)), Some(&[][..]));
        assert_eq!(t.get(vid(2)), Some(&[vid(6)][..]));
        // Removing again is a no-op.
        t.remove_values(&[vid(5)]);
        assert_eq!(emptied(&t), vec![vid(1)]);
        assert_eq!(t.num_entries(), 1);
    }

    /// One pass over a whole set equals removing its values one at a time,
    /// whichever list is the shorter and wherever the values fall (before,
    /// inside, between and past the spans, held or not).
    #[test]
    fn removing_a_set_equals_removing_each_value() {
        let lists: [&[u32]; 5] = [
            &[1, 2, 3, 4, 5, 6, 7, 8],
            &[4],
            &[2, 9, 30],
            &[],
            &[6, 7, 31, 40],
        ];
        let gones: [&[u32]; 6] = [
            &[],
            &[4],
            &[0, 45],
            &[1, 3, 5, 7, 30, 40],
            &[2, 6, 7, 9],
            &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 30, 31, 40],
        ];
        let table = || {
            let mut t = BuildTable::new(&[vid(0), vid(4)], &[vid(1), vid(40)]);
            for (k, list) in lists.iter().enumerate() {
                t.push_key(
                    vid(k as u32),
                    &list.iter().map(|&v| vid(v)).collect::<Vec<_>>(),
                );
            }
            t
        };
        let image = |t: &BuildTable| {
            let lists: Vec<_> = t.iter().map(|(k, l)| (k, l.to_vec())).collect();
            (lists, t.value_union(), t.num_entries(), t.arena_bytes())
        };
        for gone in gones {
            let gone: Vec<_> = gone.iter().map(|&v| vid(v)).collect();
            let (mut batch, mut single) = (table(), table());
            batch.remove_values(&gone);
            for &v in &gone {
                single.remove_values(&[v]);
            }
            assert_eq!(image(&batch), image(&single), "gone {gone:?}");
            assert!(gone.iter().all(|&v| !batch.contains_value(v)));
            assert_eq!(batch.freeze(), single.freeze(), "gone {gone:?}");
        }
    }

    #[test]
    fn freeze_drops_empty_keys() {
        let mut t = sample();
        t.remove_values(&[vid(7), vid(9)]);
        let c = t.freeze();
        assert_eq!(c.num_keys(), 1);
        assert_eq!(c.get(vid(1)), Some(&[vid(3), vid(5)][..]));
        assert_eq!(c.get(vid(2)), None);
        assert_eq!(c.num_entries(), 2);
    }

    #[test]
    fn freeze_compacts_after_key_removal() {
        let mut t = BuildTable::new(&[vid(1), vid(3)], &[vid(10), vid(32)]);
        t.push_key(vid(1), &[vid(10), vid(11)]);
        t.push_key(vid(2), &[vid(20)]);
        t.push_key(vid(3), &[vid(30), vid(31), vid(32)]);
        t.remove_keys(&[vid(2)]);
        t.remove_values(&[vid(31)]);
        let c = t.freeze();
        assert_eq!(c.num_keys(), 2);
        assert_eq!(c.get(vid(1)), Some(&[vid(10), vid(11)][..]));
        assert_eq!(c.get(vid(2)), None);
        assert_eq!(c.get(vid(3)), Some(&[vid(30), vid(32)][..]));
        assert_eq!(c.num_entries(), 4);
        assert_eq!(c.arena_bytes(), 4 * std::mem::size_of::<VertexId>());
    }

    #[test]
    fn push_key_with_writes_directly_into_arena() {
        let mut t = BuildTable::new(&[vid(7), vid(8)], &[vid(1), vid(4)]);
        let n = t.push_key_with(vid(7), |arena| {
            arena.extend([vid(1), vid(4)]);
        });
        assert_eq!(n, 2);
        // An empty production records no key at all.
        let n = t.push_key_with(vid(8), |_| {});
        assert_eq!(n, 0);
        assert_eq!(t.get(vid(7)), Some(&[vid(1), vid(4)][..]));
        assert_eq!(t.get(vid(8)), None);
        assert_eq!(t.num_keys(), 1);
        assert_eq!(t.num_entries(), 2);
    }

    #[test]
    fn compact_iter_and_union() {
        let c = sample().freeze();
        let pairs: Vec<_> = c.iter().map(|(k, v)| (k, v.len())).collect();
        assert_eq!(pairs, vec![(vid(1), 3), (vid(2), 2)]);
        assert_eq!(c.value_union(), vec![vid(3), vid(5), vid(7), vid(9)]);
        assert!(c.size_bytes() > 0);
        assert_eq!(c.keys(), &[vid(1), vid(2)]);
    }

    #[test]
    fn dense_get_agrees_with_binary_search() {
        // Sparse, irregular key set: probe the whole surrounding id range so
        // both hits and misses (inside and past the slot map) are covered.
        let mut t = BuildTable::new(&[vid(2), vid(999)], &[vid(4), vid(1999)]);
        for &k in &[2u32, 3, 17, 40, 41, 999] {
            t.push_key(vid(k), &[vid(k * 2), vid(k * 2 + 1)]);
        }
        let c = t.freeze();
        for probe in 0..1100u32 {
            assert_eq!(
                c.get(vid(probe)),
                c.get_binary(vid(probe)),
                "dense/binary lookup disagree at key {probe}"
            );
        }
    }

    #[test]
    fn build_get_is_dense_and_tracks_removals() {
        let mut t = BuildTable::new(&[vid(2), vid(999)], &[vid(3), vid(1000)]);
        for &k in &[2u32, 40, 999] {
            t.push_key(vid(k), &[vid(k + 1)]);
        }
        assert_eq!(t.get(vid(40)), Some(&[vid(41)][..]));
        t.remove_keys(&[vid(40)]);
        assert_eq!(t.get(vid(40)), None);
        assert_eq!(t.get(vid(999)), Some(&[vid(1000)][..]));
        assert_eq!(t.get(vid(5000)), None);
    }

    #[test]
    fn slot_map_counted_in_size() {
        let table = |keys: &[u32]| {
            let keys: Vec<_> = keys.iter().map(|&k| vid(k)).collect();
            let mut t = BuildTable::new(&keys, &[vid(1)]);
            for &k in &keys {
                t.push_key(k, &[vid(1)]);
            }
            t.freeze()
        };
        // The map spans the keys, not the ids below the first one.
        assert_eq!(table(&[1000]).size_bytes(), table(&[0]).size_bytes());
        assert!(table(&[0, 1000]).size_bytes() > table(&[1000]).size_bytes());
        let spread = table(&[1000, 1003]);
        for probe in 0..1100 {
            assert_eq!(spread.get(vid(probe)), spread.get_binary(vid(probe)));
        }
    }

    #[test]
    fn size_bytes_is_allocation_independent() {
        // Same logical content through different construction histories
        // (exact pushes vs incremental with removals) reports identical
        // bytes.
        let a = {
            let mut t = BuildTable::new(&[vid(1)], &[vid(3), vid(5)]);
            t.push_key(vid(1), &[vid(3), vid(5)]);
            t.freeze()
        };
        let b = {
            let mut t = BuildTable::new(&[vid(1), vid(2)], &[vid(3), vid(9)]);
            t.push_key(vid(1), &[vid(3), vid(5), vid(9)]);
            t.push_key(vid(2), &[vid(9)]);
            t.remove_values(&[vid(9)]);
            t.remove_keys(&[vid(2)]);
            t.freeze()
        };
        assert_eq!(a, b);
        assert_eq!(a.size_bytes(), b.size_bytes());
        assert_eq!(a.arena_bytes(), b.arena_bytes());
    }

    /// Keys near id 1 000 000 and values near 2 000 000: both dense maps
    /// span only those ids, so the table holds a few KB, not the 12 MB of
    /// maps indexed from id 0.
    #[test]
    fn a_build_table_spans_its_keys_and_values() {
        let keys: Vec<_> = (1_000_000..1_000_100).map(vid).collect();
        let values: Vec<_> = (2_000_000..2_000_200).map(vid).collect();
        let mut t = BuildTable::new(&keys, &values);
        for (i, &k) in keys.iter().enumerate().step_by(2) {
            t.push_key(k, &values[i..i + 3]);
        }
        assert_eq!(t.get(keys[98]), Some(&values[98..101]));
        assert_eq!(t.get(keys[1]), None);
        assert_eq!(t.value_union(), &values[..101]);
        t.remove_keys(&keys[..50]);
        t.remove_values(&values[..60]);
        assert_eq!(t.value_union(), &values[60..101]);
        assert!(t.size_bytes() < 4096, "{} bytes", t.size_bytes());
        let frozen = t.freeze();
        assert_eq!(frozen.num_keys(), 21, "emptied lists go");
        assert!(frozen.size_bytes() < 4096, "{} bytes", frozen.size_bytes());
    }

    #[test]
    fn empty_table() {
        let t = BuildTable::new(&[], &[]);
        assert_eq!(t.num_keys(), 0);
        assert!(t.value_union().is_empty());
        assert_eq!(t.arena_bytes(), 0);
        let c = t.freeze();
        assert_eq!(c.num_entries(), 0);
        assert_eq!(c.get(vid(0)), None);
    }
}
