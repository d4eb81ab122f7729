//! Sorted-set intersection kernels (§4).
//!
//! CECI replaces per-candidate edge verification with set intersection
//! between TE and NTE candidate lists (the §4.1 ablation of that choice is
//! [`crate::VerifyMode`]). Lists are sorted `u32` id vectors, so an
//! intersection is a linear merge, a galloping binary search when one side is
//! much shorter, or a block scan with 128-bit compares. [`intersect_into`]
//! picks gallop or the block scan from the lengths of the two lists alone;
//! [`merge_intersect`] is the reference every kernel is tested against.
//!
//! Kernels report the number of element comparisons into the caller's
//! counter. Counting is **exact integer math** (actual probes, no
//! `log2`-based estimates) so op counts reproduce bit-for-bit across
//! platforms. For SIMD probes, one 4-lane vector compare counts as 4
//! element comparisons — the scalar-equivalent work, keeping op counts
//! comparable across kernels.

use ceci_graph::VertexId;

/// Size ratio from which [`intersect_into`] gallops instead of
/// block-scanning. It is not the measured crossover: the committed sweep
/// (`bench_results/kernels.json`, `repro kernels`) has the block scan ahead
/// of gallop at 1:16 and 1:64, and gallop winning only from 1:256.
pub const GALLOP_RATIO: usize = 16;

/// Width of one SIMD probe block in `u32` lanes (two 128-bit SSE2 vectors).
const SIMD_BLOCK: usize = 8;

/// Intersects two sorted slices into `out` (cleared first): galloping when
/// the longer list is at least [`GALLOP_RATIO`] times the shorter, the block
/// scan otherwise. Adds the number of comparisons performed to `ops`.
#[inline]
pub fn intersect_into(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>, ops: &mut u64) {
    out.clear();
    if a.is_empty() || b.is_empty() {
        return;
    }
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if large.len() / small.len() >= GALLOP_RATIO {
        gallop_intersect(small, large, out, ops);
    } else {
        simd_intersect(small, large, out, ops);
    }
}

/// Scalar two-pointer merge — the reference kernel every other kernel is
/// differentially tested against.
pub fn merge_intersect(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>, ops: &mut u64) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        *ops += 1;
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Exponential probe + exact-counted binary search of `large` for each
/// element of `small`. Comparisons are counted per actual probe — no
/// estimates — so op totals are deterministic across platforms.
pub fn gallop_intersect(
    small: &[VertexId],
    large: &[VertexId],
    out: &mut Vec<VertexId>,
    ops: &mut u64,
) {
    let mut lo = 0usize;
    for &x in small {
        // Exponential probe from `lo`. After the loop, everything before
        // `base` is `< x` and the probe stopped at `hi` with
        // `large[hi] >= x` (or ran off the end), so the candidate window is
        // `[base, hi]` inclusive.
        let mut step = 1usize;
        let mut base = lo;
        let mut hi = lo;
        while hi < large.len() && large[hi] < x {
            *ops += 1;
            base = hi + 1;
            hi += step;
            step *= 2;
        }
        if hi < large.len() {
            // The probe comparison that stopped the loop.
            *ops += 1;
        }
        let end = large.len().min(hi + 1);
        match counted_binary_search(&large[base..end], x, ops) {
            Ok(k) => {
                out.push(x);
                lo = base + k + 1;
            }
            Err(k) => {
                lo = base + k;
            }
        }
        if lo >= large.len() {
            break;
        }
    }
}

/// Binary search that counts every element comparison it performs.
#[inline]
fn counted_binary_search(window: &[VertexId], x: VertexId, ops: &mut u64) -> Result<usize, usize> {
    let (mut lo, mut hi) = (0usize, window.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        *ops += 1;
        match window[mid].cmp(&x) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Ok(mid),
        }
    }
    Err(lo)
}

/// Reinterprets a sorted candidate list as raw `u32` lanes.
///
/// Sound because [`VertexId`] is `#[repr(transparent)]` over `u32`.
#[inline]
fn as_lanes(v: &[VertexId]) -> &[u32] {
    // SAFETY: VertexId is repr(transparent) over u32, so the slices have
    // identical layout, alignment, and length.
    unsafe { std::slice::from_raw_parts(v.as_ptr().cast::<u32>(), v.len()) }
}

/// Block-scan intersection: for each element of `small`, skip 8-lane blocks
/// of `large` whose maximum is below the needle, then equality-test the
/// block with two 128-bit compares (SSE2) or an auto-vectorizable portable
/// loop. The block cursor only moves forward, so total work is
/// `O(|small| + |large|/8 + hits)` at every size ratio.
pub fn simd_intersect(
    small: &[VertexId],
    large: &[VertexId],
    out: &mut Vec<VertexId>,
    ops: &mut u64,
) {
    let lanes = as_lanes(large);
    let full_blocks = lanes.len() / SIMD_BLOCK;
    let mut block = 0usize;
    let mut i = 0usize;
    while i < small.len() {
        let x = small[i].0;
        // Skip whole blocks strictly below the needle. One comparison
        // against the block maximum per skipped/tested block.
        while block < full_blocks {
            *ops += 1;
            if lanes[block * SIMD_BLOCK + SIMD_BLOCK - 1] < x {
                block += 1;
            } else {
                break;
            }
        }
        if block == full_blocks {
            break; // fall through to the scalar tail below
        }
        let start = block * SIMD_BLOCK;
        let lanes_of_block = lanes[start..start + SIMD_BLOCK]
            .try_into()
            .expect("the range is SIMD_BLOCK lanes long");
        if probe_block_eq(lanes_of_block, x, ops) {
            out.push(small[i]);
        }
        i += 1;
    }
    if i < small.len() {
        // Scalar tail: the remaining needles against the < 8 trailing lanes.
        let tail_start = full_blocks * SIMD_BLOCK;
        merge_intersect(&small[i..], &large[tail_start..], out, ops);
    }
}

/// Equality-tests one 8-lane block against a broadcast needle. Returns
/// whether the needle occurs. Counts one op per 4-lane vector compare ×
/// 4 lanes (scalar-equivalent work).
#[inline]
fn probe_block_eq(block: &[u32; SIMD_BLOCK], x: u32, ops: &mut u64) -> bool {
    *ops += SIMD_BLOCK as u64;
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: SSE2 is part of the x86_64 baseline. `block` is 8 u32
        // lanes (32 bytes) by its type, so the unaligned 16-byte loads at
        // lanes 0 and 4 read inside it.
        unsafe {
            use std::arch::x86_64::{
                _mm_cmpeq_epi32, _mm_loadu_si128, _mm_movemask_epi8, _mm_or_si128, _mm_set1_epi32,
            };
            let needle = _mm_set1_epi32(x as i32);
            let lo = _mm_loadu_si128(block.as_ptr().cast());
            let hi = _mm_loadu_si128(block.as_ptr().add(4).cast());
            let eq = _mm_or_si128(_mm_cmpeq_epi32(lo, needle), _mm_cmpeq_epi32(hi, needle));
            _mm_movemask_epi8(eq) != 0
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        block_contains(block, x)
    }
}

/// Whether `x` occurs in `block`: the portable 8-wide equality reduction
/// (LLVM vectorizes this shape). [`probe_block_eq`]'s body off x86_64, and
/// the reference its SSE2 body is tested against on x86_64.
#[cfg(any(test, not(target_arch = "x86_64")))]
fn block_contains(block: &[u32; SIMD_BLOCK], x: u32) -> bool {
    let mut hit = false;
    for &lane in block {
        hit |= lane == x;
    }
    hit
}

/// Intersects `base` with each list in `others`, writing the final result to
/// `out`. The first intersection reads `base` where it lies; `scratch` is the
/// ping-pong buffer from the second list on (buffers are reused, not
/// reallocated), and `base` is copied only when `others` is empty.
/// Short-circuits to empty. Each step is one [`intersect_into`].
pub fn intersect_many_into(
    base: &[VertexId],
    others: &[&[VertexId]],
    out: &mut Vec<VertexId>,
    scratch: &mut Vec<VertexId>,
    ops: &mut u64,
) {
    let Some((first, rest)) = others.split_first() else {
        out.clear();
        out.extend_from_slice(base);
        return;
    };
    intersect_into(base, first, out, ops);
    for list in rest {
        if out.is_empty() {
            return;
        }
        std::mem::swap(out, scratch);
        intersect_into(scratch, list, out, ops);
    }
}

/// Membership test on a sorted slice, counting each probe actually made.
#[inline]
pub fn sorted_contains(list: &[VertexId], x: VertexId, ops: &mut u64) -> bool {
    counted_binary_search(list, x, ops).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceci_graph::vid;

    fn v(ids: &[u32]) -> Vec<VertexId> {
        ids.iter().map(|&i| vid(i)).collect()
    }

    type KernelFn = fn(&[VertexId], &[VertexId], &mut Vec<VertexId>, &mut u64);

    /// Every kernel and the dispatch, by name.
    const KERNELS: [(&str, KernelFn); 4] = [
        ("merge", merge_intersect),
        ("gallop", gallop_intersect),
        ("simd", simd_intersect),
        ("dispatch", intersect_into),
    ];

    fn run(kernel: KernelFn, a: &[VertexId], b: &[VertexId]) -> (Vec<VertexId>, u64) {
        let mut out = Vec::new();
        let mut ops = 0;
        kernel(a, b, &mut out, &mut ops);
        (out, ops)
    }

    #[test]
    fn merge_basic() {
        let (out, ops) = run(merge_intersect, &v(&[1, 3, 5, 7]), &v(&[2, 3, 6, 7, 9]));
        assert_eq!(out, v(&[3, 7]));
        assert!(ops > 0);
    }

    #[test]
    fn empty_inputs_all_kernels() {
        for (name, kernel) in KERNELS {
            let (out, ops) = run(kernel, &v(&[]), &v(&[1, 2]));
            assert!(out.is_empty(), "{name}");
            assert_eq!(ops, 0, "{name}");
            let (out, _) = run(kernel, &v(&[1, 2]), &v(&[]));
            assert!(out.is_empty(), "{name}");
        }
    }

    #[test]
    fn disjoint_and_identical_all_kernels() {
        for (name, kernel) in KERNELS {
            let (out, _) = run(kernel, &v(&[1, 2]), &v(&[3, 4]));
            assert!(out.is_empty(), "{name}");
            let (out, _) = run(kernel, &v(&[1, 2, 3]), &v(&[1, 2, 3]));
            assert_eq!(out, v(&[1, 2, 3]), "{name}");
        }
    }

    #[test]
    fn gallop_kicks_in_for_skewed_sizes() {
        let small = v(&[5, 500, 995]);
        let large: Vec<VertexId> = (0..1000).map(vid).collect();
        let (out, ops) = run(intersect_into, &small, &large);
        assert_eq!(out, v(&[5, 500, 995]));
        // Galloping must do far fewer comparisons than a full merge.
        assert!(ops < 500, "gallop ops = {ops}");
    }

    #[test]
    fn all_kernels_match_reference() {
        // Cross-check every kernel on assorted skewed inputs.
        for (si, li) in [(3usize, 100usize), (5, 200), (1, 50), (7, 400), (64, 64)] {
            let small: Vec<VertexId> = (0..si as u32).map(|i| vid(i * 13 + 1)).collect();
            let large: Vec<VertexId> = (0..li as u32).map(|i| vid(i * 2)).collect();
            let (reference, _) = run(merge_intersect, &small, &large);
            for (name, kernel) in KERNELS {
                let (out, _) = run(kernel, &small, &large);
                assert_eq!(out, reference, "{name} mismatch for sizes ({si},{li})");
            }
        }
    }

    #[test]
    fn gallop_hits_probe_boundary_matches() {
        // Regression: an element equal to the value at the probe's stopping
        // position must not be skipped (window must be inclusive of `hi`).
        let large: Vec<VertexId> = (0..64u32).map(|i| vid(i * 2)).collect();
        // x = 2 stops the very first probe at index 1 where large[1] == 2.
        let small = v(&[2]);
        let mut out = Vec::new();
        let mut ops = 0;
        gallop_intersect(&small, &large, &mut out, &mut ops);
        assert_eq!(out, v(&[2]));
        // First element of `large` itself (empty probe loop).
        let mut out = Vec::new();
        gallop_intersect(&v(&[0]), &large, &mut out, &mut ops);
        assert_eq!(out, v(&[0]));
    }

    #[test]
    fn exhaustive_cross_check() {
        // Every kernel against the merge reference across strides/offsets.
        let large: Vec<VertexId> = (0..200u32).map(|i| vid(i * 3 + 1)).collect();
        for stride in 1..8u32 {
            for offset in 0..6u32 {
                let small: Vec<VertexId> =
                    (0..40u32).map(|i| vid(i * stride * 3 + offset)).collect();
                let (reference, _) = run(merge_intersect, &small, &large);
                for (name, kernel) in KERNELS {
                    let (out, _) = run(kernel, &small, &large);
                    assert_eq!(out, reference, "{name} stride {stride} offset {offset}");
                }
            }
        }
    }

    #[test]
    fn simd_block_boundaries() {
        // Matches at every lane position of a block, lists not a multiple of
        // the block width, and needles beyond the last block.
        let large: Vec<VertexId> = (0..37u32).map(|i| vid(i * 5)).collect();
        for lane in 0..37u32 {
            let needle = v(&[lane * 5]);
            let (out, _) = run(simd_intersect, &needle, &large);
            assert_eq!(out, needle, "lane {lane}");
            let miss = v(&[lane * 5 + 1]);
            let (out, _) = run(simd_intersect, &miss, &large);
            assert!(out.is_empty(), "lane {lane} false positive");
        }
    }

    #[test]
    fn simd_tail_only_lists() {
        // Lists shorter than one block exercise the scalar tail exclusively.
        let a = v(&[1, 4, 6]);
        let b = v(&[2, 4, 6, 9]);
        let (out, _) = run(simd_intersect, &a, &b);
        assert_eq!(out, v(&[4, 6]));
    }

    #[test]
    fn op_counts_are_deterministic() {
        let a: Vec<VertexId> = (0..123u32).map(|i| vid(i * 7 + 3)).collect();
        let b: Vec<VertexId> = (0..999u32).map(|i| vid(i * 2)).collect();
        for (name, kernel) in KERNELS {
            let (_, ops1) = run(kernel, &a, &b);
            let (_, ops2) = run(kernel, &a, &b);
            assert_eq!(ops1, ops2, "{name} non-deterministic ops");
            assert!(ops1 > 0, "{name} counted no work");
        }
    }

    #[test]
    fn gallop_counts_fewer_ops_than_merge_when_skewed() {
        let small: Vec<VertexId> = (0..8u32).map(|i| vid(i * 100)).collect();
        let large: Vec<VertexId> = (0..4096u32).map(vid).collect();
        let (_, merge_ops) = run(merge_intersect, &small, &large);
        let (_, gallop_ops) = run(gallop_intersect, &small, &large);
        assert!(
            gallop_ops < merge_ops / 4,
            "gallop {gallop_ops} vs merge {merge_ops}"
        );
    }

    #[test]
    fn many_way_intersection() {
        let base = v(&[1, 2, 3, 4, 5, 6]);
        let b = v(&[2, 4, 6, 8]);
        let c = v(&[1, 2, 4, 5, 6]);
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        let mut ops = 0;
        intersect_many_into(&base, &[&b, &c], &mut out, &mut scratch, &mut ops);
        assert_eq!(out, v(&[2, 4, 6]));
    }

    #[test]
    fn many_way_short_circuits() {
        let base = v(&[1, 2]);
        let empty = v(&[]);
        let c = v(&[1]);
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        let mut ops = 0;
        intersect_many_into(&base, &[&empty, &c], &mut out, &mut scratch, &mut ops);
        assert!(out.is_empty());
    }

    #[test]
    fn many_way_no_others_copies_base() {
        let base = v(&[4, 8]);
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        let mut ops = 0;
        intersect_many_into(&base, &[], &mut out, &mut scratch, &mut ops);
        assert_eq!(out, base);
    }

    #[test]
    fn sorted_contains_counts_exact_probes() {
        let list = v(&[1, 4, 9]);
        let mut ops = 0;
        assert!(sorted_contains(&list, vid(4), &mut ops));
        // Hit at the midpoint: exactly one probe.
        assert_eq!(ops, 1);
        assert!(!sorted_contains(&list, vid(5), &mut ops));
        // Miss: probes 4 (hit-mid? no — greater/less chain) then 9 then done.
        assert!(ops >= 3);
        let mut empty_ops = 0;
        assert!(!sorted_contains(&[], vid(1), &mut empty_ops));
        assert_eq!(empty_ops, 0);
    }

    #[test]
    fn the_block_probe_equals_the_portable_reduction() {
        // Around 0, 2^31 (where `x as i32` turns negative) and u32::MAX,
        // plus two ordinary ids.
        let needles = [
            0,
            1,
            12_345,
            (1 << 31) - 1,
            1 << 31,
            (1 << 31) + 1,
            u32::MAX - 1,
            u32::MAX,
        ];
        for x in needles {
            // Every filler differs from the needle, some only in the sign
            // bit or the lowest bit.
            let filler: [u32; SIMD_BLOCK] = [
                0x8000_0000,
                1,
                u32::MAX,
                0x100,
                0x7FFF_FFFF,
                2,
                0x8000_0001,
                0x1_0000,
            ]
            .map(|flip| x ^ flip);
            let mut cases = vec![(filler, false)];
            for lane in 0..SIMD_BLOCK {
                let mut at = filler;
                at[lane] = x;
                cases.push((at, true));
                let mut twice = at;
                twice[(lane + 3) % SIMD_BLOCK] = x;
                cases.push((twice, true));
            }
            cases.push(([x; SIMD_BLOCK], true));
            for (block, present) in cases {
                let mut ops = 0;
                assert_eq!(
                    probe_block_eq(&block, x, &mut ops),
                    present,
                    "{x:#x} in {block:x?}"
                );
                assert_eq!(block_contains(&block, x), present, "{x:#x} in {block:x?}");
                assert_eq!(ops, SIMD_BLOCK as u64);
            }
        }
    }
}
