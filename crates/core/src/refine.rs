//! Reverse-BFS refinement and cardinality — Algorithm 2 (§3.3).
//!
//! Walking the matching order backwards (children before parents), each
//! candidate `v` of query node `u` gets a *cardinality*:
//!
//! ```text
//! cardinality(u, v) = Π over tree children u_c of u
//!                       Σ over v_c ∈ TE_Candidates[u_c][v]
//!                         cardinality(u_c, v_c)
//! ```
//!
//! with two base rules: leaves have cardinality 1, and any candidate missing
//! from one of `u`'s backward NTE tables is zeroed (it can never close that
//! non-tree edge). Zero-cardinality candidates are deleted from `u`'s tables
//! and their key entries removed from every child table — the green removals
//! of Figure 3(c) — in one removal per query node once its loop ends: no
//! other candidate of `u` reads a value or a list that removal touches.
//!
//! Cardinality doubles as the workload estimate: `cardinality(u_s, v_s)` of
//! a pivot bounds the embeddings its cluster can contain (§4.3).
//!
//! Storage is dense: per node, a snapshot of the candidate list (sorted), a
//! dense candidate-id → slot map (the tables' `SlotMap`, spanning only the
//! candidates' ids), and a slot-indexed `Vec<u64>` of cardinalities. Lookups
//! during the reverse walk are two array reads — no hashing — which makes
//! refinement a linear pass over the child tables' flat arenas, and
//! [`Cardinalities::of_node`] returns pairs in candidate order without a
//! per-call sort or re-allocation of the map.

use ceci_graph::VertexId;
use ceci_query::QueryPlan;

use crate::filter::BuilderState;
use crate::tables::SlotMap;

/// One query node's cardinalities in dense slot-indexed form.
#[derive(Clone, Debug, Default)]
struct NodeCards {
    /// Candidate snapshot at refinement time, sorted.
    cands: Vec<VertexId>,
    /// Dense candidate id → slot into `vals`.
    slot_of: SlotMap,
    /// `vals[slot]` = cardinality of `cands[slot]` (0 = pruned).
    vals: Vec<u64>,
}

impl NodeCards {
    fn for_candidates(cands: Vec<VertexId>) -> NodeCards {
        NodeCards {
            slot_of: SlotMap::new(&cands),
            vals: vec![0; cands.len()],
            cands,
        }
    }
}

/// Per-(query node, candidate) cardinalities.
#[derive(Clone, Debug, Default)]
pub struct Cardinalities {
    per_node: Vec<NodeCards>,
}

impl Cardinalities {
    /// Cardinality of `(u, v)`; 0 if the candidate was pruned (or was never
    /// a candidate). Two array reads.
    #[inline]
    pub fn get(&self, u: VertexId, v: VertexId) -> u64 {
        let node = &self.per_node[u.index()];
        match node.slot_of.get(v) {
            Some(s) => node.vals[s],
            None => 0,
        }
    }

    /// All `(candidate, cardinality)` pairs of `u` with non-zero
    /// cardinality, in ascending candidate order. The dense layout already
    /// stores slots in candidate order, so this is a filtering scan — no
    /// per-call sort.
    pub fn of_node(&self, u: VertexId) -> Vec<(VertexId, u64)> {
        let node = &self.per_node[u.index()];
        node.cands
            .iter()
            .zip(node.vals.iter())
            .filter(|&(_, &c)| c > 0)
            .map(|(&v, &c)| (v, c))
            .collect()
    }
}

/// Runs Algorithm 2 over the builder state.
///
/// When `remove_zero` is `false` the cardinalities are still computed but no
/// candidates are deleted — used by the Figure 19 ablation that measures the
/// value of refinement.
pub fn reverse_bfs_refine(
    plan: &QueryPlan,
    state: &mut BuilderState,
    remove_zero: bool,
) -> Cardinalities {
    let n = plan.query().num_vertices();
    let mut cards = Cardinalities {
        per_node: vec![NodeCards::default(); n],
    };
    let mut zero: Vec<VertexId> = Vec::new();
    for &u in plan.matching_order().iter().rev() {
        let mut node = NodeCards::for_candidates(state.candidates_of(plan, u));
        for (slot, &v) in node.cands.iter().enumerate() {
            let mut card: u64 = 1;
            // NTE membership: v must be a value of every backward NTE table.
            let nte_ok = state.nte[u.index()]
                .iter()
                .all(|(_, table)| table.contains_value(v));
            if !nte_ok {
                card = 0;
            } else {
                for &uc in plan.tree().children(u) {
                    let child = &cards.per_node[uc.index()];
                    let sum: u64 = state.te[uc.index()]
                        .as_ref()
                        .and_then(|t| t.get(v))
                        .map(|list| {
                            list.iter().fold(0u64, |acc, &vc| {
                                let c = match child.slot_of.get(vc) {
                                    Some(s) => child.vals[s],
                                    None => 0,
                                };
                                acc.saturating_add(c)
                            })
                        })
                        .unwrap_or(0);
                    card = card.saturating_mul(sum);
                    if card == 0 {
                        break;
                    }
                }
            }
            if card == 0 {
                zero.push(v);
            } else {
                node.vals[slot] = card;
            }
        }
        if remove_zero {
            state.remove_candidates(plan, u, &zero);
        }
        zero.clear();
        cards.per_node[u.index()] = node;
    }
    cards
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::bfs_filter;
    use crate::fixtures::paper;
    use std::collections::HashMap;

    fn refined() -> (BuilderState, Cardinalities) {
        let (graph, plan) = paper::figure1();
        let mut state = bfs_filter(&graph, &plan);
        let cards = reverse_bfs_refine(&plan, &mut state, true);
        (state, cards)
    }

    #[test]
    fn leaf_cardinalities_are_one() {
        let (_, cards) = refined();
        for v in [12, 14] {
            assert_eq!(cards.get(paper::u(5), paper::v(v)), 1);
        }
        for v in [11, 13] {
            assert_eq!(cards.get(paper::u(4), paper::v(v)), 1);
        }
    }

    #[test]
    fn v15_zeroed_by_nte_membership() {
        // v15 is in TE of u4 but not in NTE_Candidates of u4 → cardinality 0
        // → removed (paper §3.3).
        let (state, cards) = refined();
        assert_eq!(cards.get(paper::u(4), paper::v(15)), 0);
        let te_u4 = state.te[paper::u(4).index()].as_ref().unwrap();
        assert!(!te_u4.contains_value(paper::v(15)));
    }

    #[test]
    fn v7_zeroed_through_child() {
        // cardinality(u2, v7) = 0 because its only child v15 died; v7 is then
        // removed from TE of u2 and the <v7,{v6}> entry is removed from the
        // NTE table of u3 (paper §3.3).
        let (state, cards) = refined();
        assert_eq!(cards.get(paper::u(2), paper::v(7)), 0);
        let te_u2 = state.te[paper::u(2).index()].as_ref().unwrap();
        assert!(!te_u2.contains_value(paper::v(7)));
        let (un, nte_u3) = &state.nte[paper::u(3).index()][0];
        assert_eq!(*un, paper::u(2));
        assert_eq!(nte_u3.get(paper::v(7)), None);
        // The surviving entries of nte[u3] are intact.
        assert_eq!(nte_u3.get(paper::v(3)), Some(&[paper::v(4)][..]));
        assert_eq!(
            nte_u3.get(paper::v(5)),
            Some(&[paper::v(4), paper::v(6)][..])
        );
    }

    #[test]
    fn internal_cardinalities() {
        let (_, cards) = refined();
        assert_eq!(cards.get(paper::u(2), paper::v(3)), 1);
        assert_eq!(cards.get(paper::u(2), paper::v(5)), 1);
        assert_eq!(cards.get(paper::u(3), paper::v(4)), 1);
        assert_eq!(cards.get(paper::u(3), paper::v(6)), 1);
        // Root: (1 + 1) × (1 + 1) = 4 — an upper bound on the 2 embeddings.
        assert_eq!(cards.get(paper::u(1), paper::v(1)), 4);
        let root: u64 = cards.of_node(paper::u(1)).iter().map(|&(_, c)| c).sum();
        assert_eq!(root, 4);
    }

    #[test]
    fn of_node_sorted() {
        let (_, cards) = refined();
        let list = cards.of_node(paper::u(2));
        assert_eq!(list, vec![(paper::v(3), 1), (paper::v(5), 1)]);
    }

    #[test]
    fn of_node_matches_hashmap_reference() {
        // Differential check against the pre-dense behavior: collect
        // (candidate, cardinality>0) pairs through a HashMap (the old
        // storage), sort, and compare with the dense scan for every node.
        let (graph, plan) = paper::figure1();
        let mut state = bfs_filter(&graph, &plan);
        let cards = reverse_bfs_refine(&plan, &mut state, true);
        for u in plan.query().vertices() {
            let mut reference: HashMap<VertexId, u64> = HashMap::new();
            // Probe the full graph id range — `get` must agree with the map
            // built from of_node itself plus report 0 elsewhere.
            for (v, c) in cards.of_node(u) {
                reference.insert(v, c);
            }
            let mut expected: Vec<(VertexId, u64)> =
                reference.iter().map(|(&v, &c)| (v, c)).collect();
            expected.sort_unstable_by_key(|&(v, _)| v);
            assert_eq!(cards.of_node(u), expected, "of_node order differs at {u:?}");
            for v in graph.vertices() {
                let want = reference.get(&v).copied().unwrap_or(0);
                assert_eq!(cards.get(u, v), want, "get({u:?}, {v:?}) differs");
            }
        }
    }

    #[test]
    fn no_removal_mode_keeps_candidates() {
        let (graph, plan) = paper::figure1();
        let mut state = bfs_filter(&graph, &plan);
        let cards = reverse_bfs_refine(&plan, &mut state, false);
        // Cardinalities still identify the dead candidates...
        assert_eq!(cards.get(paper::u(4), paper::v(15)), 0);
        // ...but the tables keep them.
        let te_u4 = state.te[paper::u(4).index()].as_ref().unwrap();
        assert!(te_u4.contains_value(paper::v(15)));
        let te_u2 = state.te[paper::u(2).index()].as_ref().unwrap();
        assert!(te_u2.contains_value(paper::v(7)));
        // Root cardinality accounts only for live subtrees either way:
        // (card(v3)+card(v5)+card(v7)) × (card(v4)+card(v6)) = (1+1+0)×(1+1).
        assert_eq!(cards.get(paper::u(1), paper::v(1)), 4);
    }

    #[test]
    fn pivots_survive_refinement() {
        let (state, cards) = refined();
        assert_eq!(state.pivots, vec![paper::v(1)]);
        assert!(cards.get(paper::u(1), paper::v(1)) > 0);
    }
}
