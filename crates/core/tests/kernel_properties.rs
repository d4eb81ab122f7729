//! Differential property tests for the intersection kernel suite and the
//! dense candidate-table lookup.
//!
//! Every kernel function (gallop, the SIMD block scan) and the dispatch that
//! picks between them must agree element-for-element with the scalar merge
//! reference on randomized sorted inputs covering empty, disjoint,
//! identical, and heavily skewed list shapes; the frozen `CompactTable`'s
//! O(1) dense lookup must agree with its binary-search reference for every
//! probed key.

use ceci_core::intersect::{
    gallop_intersect, intersect_into, intersect_many_into, merge_intersect, simd_intersect,
    sorted_contains,
};
use ceci_core::tables::BuildTable;
use ceci_graph::{vid, VertexId};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

/// Sorted, deduplicated vertex list from arbitrary raw values.
fn sorted_ids(raw: Vec<u32>) -> Vec<VertexId> {
    let mut v: Vec<VertexId> = raw.into_iter().map(vid).collect();
    v.sort_unstable();
    v.dedup();
    v
}

type KernelFn = fn(&[VertexId], &[VertexId], &mut Vec<VertexId>, &mut u64);

/// Every kernel and the dispatch, by name; `merge` is the reference.
const KERNELS: [(&str, KernelFn); 4] = [
    ("merge", merge_intersect),
    ("gallop", gallop_intersect),
    ("simd", simd_intersect),
    ("dispatch", intersect_into),
];

fn run(kernel: KernelFn, a: &[VertexId], b: &[VertexId]) -> (Vec<VertexId>, u64) {
    let mut out = Vec::new();
    let mut ops = 0u64;
    kernel(a, b, &mut out, &mut ops);
    (out, ops)
}

fn reference(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
    let mut out = Vec::new();
    let mut ops = 0u64;
    merge_intersect(a, b, &mut out, &mut ops);
    out
}

/// Pairs covering the interesting shape space: balanced, skewed 1:many,
/// disjoint ranges, and dense overlap.
fn list_pair() -> impl Strategy<Value = (Vec<VertexId>, Vec<VertexId>)> {
    prop_oneof![
        // Balanced, same universe (dense overlap).
        (pvec(0u32..256, 0..128), pvec(0u32..256, 0..128)),
        // Heavily skewed: tiny probe list vs large haystack.
        (pvec(0u32..10_000, 0..6), pvec(0u32..10_000, 0..1024)),
        // Disjoint universes.
        (pvec(0u32..100, 0..64), pvec(1_000u32..1_100, 0..64)),
        // Sparse in a huge id space (SIMD block boundaries).
        (pvec(0u32..1_000_000, 0..40), pvec(0u32..1_000_000, 0..40)),
    ]
    .prop_map(|(a, b)| (sorted_ids(a), sorted_ids(b)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_kernel_matches_merge_reference((a, b) in list_pair()) {
        let expected = reference(&a, &b);
        for (name, kernel) in KERNELS {
            prop_assert_eq!(&run(kernel, &a, &b).0, &expected, "kernel {} diverges from merge reference", name);
            // Argument order must not matter either.
            prop_assert_eq!(&run(kernel, &b, &a).0, &expected, "kernel {} asymmetric", name);
        }
        // The dispatch clears its output: stale content must be overwritten.
        let mut out = vec![vid(99); 3];
        let mut ops = 0u64;
        intersect_into(&a, &b, &mut out, &mut ops);
        prop_assert_eq!(&out, &expected, "dispatch kept stale output");
    }

    #[test]
    fn identical_lists_are_fixpoints(raw in pvec(0u32..5_000, 0..512)) {
        let a = sorted_ids(raw);
        for (name, kernel) in KERNELS {
            prop_assert_eq!(&run(kernel, &a, &a).0, &a, "kernel {} not a fixpoint on x∩x", name);
        }
    }

    #[test]
    fn many_way_matches_pairwise_reference(
        (base, b) in list_pair(),
        c_raw in pvec(0u32..256, 0..96),
    ) {
        let c = sorted_ids(c_raw);
        let expected = reference(&reference(&base, &b), &c);
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        let mut ops = 0u64;
        intersect_many_into(
            &base,
            &[b.as_slice(), c.as_slice()],
            &mut out,
            &mut scratch,
            &mut ops,
        );
        prop_assert_eq!(&out, &expected, "many-way dispatch diverges");
    }

    #[test]
    fn ops_are_deterministic((a, b) in list_pair()) {
        for (name, kernel) in KERNELS {
            prop_assert_eq!(run(kernel, &a, &b).1, run(kernel, &a, &b).1, "kernel {} ops nondeterministic", name);
        }
    }

    #[test]
    fn sorted_contains_agrees_with_linear_scan(
        raw in pvec(0u32..2_000, 0..256),
        probes in pvec(0u32..2_200, 1..32),
    ) {
        let list = sorted_ids(raw);
        for p in probes {
            let mut ops = 0u64;
            prop_assert_eq!(
                sorted_contains(&list, vid(p), &mut ops),
                list.contains(&vid(p))
            );
        }
    }

    #[test]
    fn compact_table_dense_lookup_matches_binary_search(
        keys_raw in pvec(0u32..4_000, 0..64),
        probes in pvec(0u32..4_400, 1..64),
    ) {
        let keys = sorted_ids(keys_raw);
        // Value list content is irrelevant to the lookup path; derive a
        // small deterministic list per key.
        let values: Vec<_> = (keys.iter())
            .flat_map(|k| [vid(k.0 * 2), vid(k.0 * 2 + 1)])
            .collect();
        let mut build = BuildTable::new(&keys, &values);
        for (&k, list) in keys.iter().zip(values.chunks(2)) {
            build.push_key(k, list);
        }
        let table = build.freeze();
        for p in probes.into_iter().map(vid) {
            prop_assert_eq!(table.get(p), table.get_binary(p), "lookup diverges at {p:?}");
        }
        // Every stored key must hit through the dense path.
        for &k in &keys {
            prop_assert!(table.get(k).is_some());
        }
    }
}
