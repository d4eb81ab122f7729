//! Twin tails: interchangeable vertices at the end of a matching order.
//!
//! §2.2 groups query vertices into NEC classes — same label, same
//! neighbourhood — and breaks their symmetry with Grochow–Kellis order
//! constraints. When k ≥ 2 of them end the matching order under the same
//! tree parent and the same backward non-tree edges, with no edge among them,
//! every one looks its candidates up in equal tables under equal keys: the
//! first twin's gathered set is every twin's set. Once the search reaches
//! the tail, a partial embedding that leaves `j` twins unmapped is completed
//! by choosing their images out of the `n′` gathered vertices no prefix
//! vertex uses — `C(n′, j)` ways when the constraints order the twins in a
//! chain, `n′·(n′−1)·…·(n′−j+1)` when nothing ties them — so the search
//! answers it with one gather instead of walking every sibling
//! ([`crate::LeafMode::Twins`]).
//!
//! The plan side ([`TwinTail::of`]) reads structure alone; the build
//! confirms once, in O(entries), that the twins' frozen tables are equal
//! ([`Ceci::twin_tail`](crate::Ceci::twin_tail)), so no request compares
//! tables.

use ceci_graph::VertexId;
use ceci_query::QueryPlan;

use crate::tables::CompactTable;

/// The last `twins` vertices of a plan's matching order, interchangeable
/// up to the symmetry constraints among them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TwinTail {
    /// How many vertices end the order as twins (at least 2).
    pub twins: usize,
    /// Whether the constraints among the twins order their images along the
    /// matching order (a chain); otherwise no constraint ties two twins.
    pub chained: bool,
}

impl TwinTail {
    /// The longest twin tail of `plan`'s matching order, from structure
    /// alone. Its vertices share a label set, a tree parent and a
    /// backward-NTE set, no edge joins two of them, and their symmetry
    /// windows agree once the bounds among the twins are removed. The
    /// constraints among them form a chain in matching order (every pair
    /// tied, each twin's image above — or each below — every earlier
    /// twin's) or there are none: any other partial order is no tail.
    pub fn of(plan: &QueryPlan) -> Option<TwinTail> {
        let (order, query, tree) = (plan.matching_order(), plan.query(), plan.tree());
        let &last = order.last()?;
        // The root has no parent, so it never joins a tail.
        let alike = |u: VertexId| {
            query.labels(u) == query.labels(last)
                && tree.parent(u) == tree.parent(last)
                && plan.backward_nte(u) == plan.backward_nte(last)
        };
        let mut first = order.len() - 1;
        while first > 0
            && alike(order[first - 1])
            && (order[first..].iter()).all(|&t| !query.has_edge(order[first - 1], t))
        {
            first -= 1;
        }
        // Dropping the first twin makes its bounds outside bounds, which
        // may then agree: try the longest tail first.
        (first..order.len() - 1).find_map(|start| TwinTail::ordered(plan, &order[start..]))
    }

    /// `tail` as a twin tail, if its windows agree outside the tail and
    /// the constraints inside it are a chain in matching order or nothing.
    fn ordered(plan: &QueryPlan, tail: &[VertexId]) -> Option<TwinTail> {
        let outside = |bounds: &[VertexId]| {
            let mut rest: Vec<VertexId> = bounds
                .iter()
                .filter(|w| !tail.contains(w))
                .copied()
                .collect();
            rest.sort_unstable();
            rest
        };
        let window = |t: VertexId| (outside(plan.lower_bounds(t)), outside(plan.upper_bounds(t)));
        let first = window(tail[0]);
        if !tail[1..].iter().all(|&t| window(t) == first) {
            return None;
        }
        // Per pair of twins, whether the later one's image must lie above
        // the earlier one's, below it, or (both) neither can. Grochow–Kellis
        // ties every pair of twins directly, so a chain is every pair tied
        // the same way.
        let ties: Vec<(bool, bool)> = (1..tail.len())
            .flat_map(|j| (0..j).map(move |i| (tail[i], tail[j])))
            .map(|(earlier, later)| {
                let above = plan.lower_bounds(later).contains(&earlier);
                (above, plan.upper_bounds(later).contains(&earlier))
            })
            .collect();
        let chained = match ties.iter().all(|&t| t == ties[0]).then_some(ties[0])? {
            (false, false) => false,
            (true, true) => return None,
            _ => true,
        };
        Some(TwinTail {
            twins: tail.len(),
            chained,
        })
    }

    /// Whether every twin's TE table and NTE tables equal the first twin's,
    /// so the first twin's gathered set is every twin's. O(entries); the
    /// build calls it once.
    pub(crate) fn tables_agree(
        &self,
        plan: &QueryPlan,
        te: &[Option<CompactTable>],
        nte: &[Vec<(VertexId, CompactTable)>],
    ) -> bool {
        let order = plan.matching_order();
        let (first, rest) = order[order.len() - self.twins..]
            .split_first()
            .expect("a tail has twins");
        let first = first.index();
        rest.iter()
            .all(|t| te[t.index()] == te[first] && nte[t.index()] == nte[first])
    }

    /// The embeddings completing a partial one that leaves the last `left`
    /// twins unmapped, given `free` gathered vertices no mapped vertex uses:
    /// `C(free, left)` for a chain, `free·(free−1)·…·(free−left+1)`
    /// otherwise. `None` when the count overflows `u64`, which only a tail
    /// of three or more twins can do; the caller then walks the first twin's
    /// set instead.
    pub(crate) fn completions(&self, free: u64, left: usize) -> Option<u64> {
        let left = left as u64;
        if free < left {
            return Some(0);
        }
        // After step `i` the product is `C(free, i + 1)` for a chain, so
        // every division is exact.
        (0..left).try_fold(1u64, |acc, i| {
            let acc = acc.checked_mul(free - i)?;
            Some(if self.chained { acc / (i + 1) } else { acc })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceci_graph::{generators::erdos_renyi, lid};
    use ceci_query::catalog::{clique, path, star, PaperQuery};
    use ceci_query::{PlanOptions, QueryGraph};

    fn tail_with(query: QueryGraph, root: u32, break_symmetry: bool) -> Option<TwinTail> {
        let graph = erdos_renyi(30, 90, 1);
        let options = PlanOptions {
            root_override: Some(VertexId(root)),
            break_symmetry,
            ..PlanOptions::default()
        };
        TwinTail::of(&QueryPlan::with_options(query, &graph, &options))
    }

    fn tail(query: QueryGraph, root: u32) -> Option<TwinTail> {
        tail_with(query, root, true)
    }

    #[test]
    fn structure_finds_the_tails() {
        let chain = |twins| {
            Some(TwinTail {
                twins,
                chained: true,
            })
        };
        // The diamond's degree-2 vertices u1 and u3 under `u1 < u3`, when
        // the order visits both degree-3 vertices first.
        assert_eq!(tail(PaperQuery::Qg3.build(), 2), chain(2));
        // From u0 the order is [u0, u1, u2, u3]: u2 comes between them.
        assert_eq!(tail(PaperQuery::Qg3.build(), 0), None);
        // A star from its hub: every leaf, chained.
        assert_eq!(tail(star(4), 0), chain(4));
        // From a leaf, the other leaves.
        assert_eq!(tail(star(3), 1), chain(2));
        // Swapping two twins is an automorphism, so complete symmetry
        // breaking always chains them; without it nothing ties them.
        let unordered = Some(TwinTail {
            twins: 3,
            chained: false,
        });
        assert_eq!(tail_with(star(3), 0, false), unordered);
        // Near twins: the leaves' labels differ.
        let near = QueryGraph::with_labels(&[lid(0), lid(1), lid(2)], &[(0, 1), (0, 2)]);
        assert_eq!(tail(near.unwrap(), 0), None);
        // Adjacent, or under different parents: no tail.
        assert_eq!(tail(clique(3), 0), None);
        assert_eq!(tail(path(4), 2), None);
    }

    #[test]
    fn completions_are_binomials_or_falling_factorials() {
        let chain = TwinTail {
            twins: 3,
            chained: true,
        };
        let free = TwinTail {
            chained: false,
            ..chain
        };
        assert_eq!(chain.completions(5, 2), Some(10));
        assert_eq!(free.completions(5, 2), Some(20));
        assert_eq!(chain.completions(6, 3), Some(20));
        assert_eq!(free.completions(6, 3), Some(120));
        // One twin left is the tally; fewer vertices than twins, nothing.
        assert_eq!(chain.completions(7, 1), Some(7));
        assert_eq!(free.completions(1, 2), Some(0));
        assert_eq!(chain.completions(0, 3), Some(0));
    }

    #[test]
    fn completions_overflow_to_none() {
        let chain = TwinTail {
            twins: 3,
            chained: true,
        };
        let free = TwinTail {
            chained: false,
            ..chain
        };
        // Two twins never overflow: free < 2^32 for any data graph.
        let most = u64::from(u32::MAX);
        assert_eq!(free.completions(most, 2), Some(most * (most - 1)));
        assert_eq!(chain.completions(most, 2), Some(most * (most - 1) / 2));
        // Three can: 2^32·(2^32−1)·(2^32−2) does not fit, and the chain's
        // running product overflows before its division would bring it back.
        assert_eq!(free.completions(most, 3), None);
        assert_eq!(chain.completions(most, 3), None);
        // The largest falling factorial of three that fits still counts.
        let fits = 2_642_245; // ⌊∛(2^64)⌋
        assert_eq!(
            free.completions(fits, 3),
            Some(fits * (fits - 1) * (fits - 2))
        );
    }
}
