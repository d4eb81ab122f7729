//! Automorphism breaking (§2.2).
//!
//! The paper combines TurboIso's NEC equivalence groups with the
//! ordering-based symmetry-breaking rules of Grochow–Kellis \[16\] so each
//! embedding is listed exactly once. We implement both pieces:
//!
//! * [`nec_groups`] — neighborhood equivalence classes (same label, same
//!   neighborhood modulo each other), a fast path for generating
//!   constraints. (The TurboIso-lite baseline omits NEC compression.)
//! * [`automorphisms`] + [`symmetry_constraints`] — the full Grochow–Kellis
//!   scheme: enumerate `Aut(G_q)`, then repeatedly fix the smallest vertex
//!   with a nontrivial orbit, emit `map(v) < map(w)` for its orbit, and
//!   recurse into the stabilizer. This quotients the automorphism group
//!   completely, so enumeration with these constraints reports exactly one
//!   representative per automorphism class.

use ceci_graph::VertexId;

use crate::query_graph::QueryGraph;

/// A `map(smaller) < map(larger)` ordering constraint between two query
/// vertices, to be enforced on their data-graph images.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct OrderConstraint {
    /// The query vertex whose image must be smaller.
    pub smaller: VertexId,
    /// The query vertex whose image must be larger.
    pub larger: VertexId,
}

/// NEC equivalence groups: vertices `u ≡ v` iff they share a label set and
/// `N(u) \ {v} == N(v) \ {u}`. Returns groups of size ≥ 2, each sorted.
pub fn nec_groups(query: &QueryGraph) -> Vec<Vec<VertexId>> {
    let n = query.num_vertices();
    let mut assigned = vec![false; n];
    let mut groups = Vec::new();
    let equivalent = |a: VertexId, b: VertexId| -> bool {
        if query.labels(a) != query.labels(b) {
            return false;
        }
        let na: Vec<VertexId> = query
            .neighbors(a)
            .iter()
            .copied()
            .filter(|&x| x != b)
            .collect();
        let nb: Vec<VertexId> = query
            .neighbors(b)
            .iter()
            .copied()
            .filter(|&x| x != a)
            .collect();
        na == nb
    };
    for u in query.vertices() {
        if assigned[u.index()] {
            continue;
        }
        let mut group = vec![u];
        for w in query.vertices() {
            if w > u && !assigned[w.index()] && equivalent(u, w) {
                group.push(w);
            }
        }
        if group.len() >= 2 {
            for &g in &group {
                assigned[g.index()] = true;
            }
            groups.push(group);
        }
    }
    groups
}

/// Enumerates all automorphisms of the query graph by label/degree-pruned
/// backtracking. Returns `None` if the search exceeds `step_cap` recursive
/// steps (callers then fall back to duplicate-tolerant enumeration).
///
/// Each automorphism is returned as a permutation `perm` with
/// `perm[u] = image of u`.
pub fn automorphisms(query: &QueryGraph, step_cap: u64) -> Option<Vec<Vec<VertexId>>> {
    let n = query.num_vertices();
    let mut result = Vec::new();
    let mut mapping: Vec<Option<VertexId>> = vec![None; n];
    let mut used = vec![false; n];
    let mut steps = 0u64;
    fn rec(
        query: &QueryGraph,
        depth: usize,
        mapping: &mut Vec<Option<VertexId>>,
        used: &mut Vec<bool>,
        result: &mut Vec<Vec<VertexId>>,
        steps: &mut u64,
        cap: u64,
    ) -> bool {
        *steps += 1;
        if *steps > cap {
            return false;
        }
        let n = query.num_vertices();
        if depth == n {
            result.push(mapping.iter().map(|m| m.unwrap()).collect());
            return true;
        }
        let u = VertexId(depth as u32);
        for cand in query.vertices() {
            if used[cand.index()] {
                continue;
            }
            if query.labels(u) != query.labels(cand) {
                continue;
            }
            if query.degree(u) != query.degree(cand) {
                continue;
            }
            // Adjacency consistency with already-mapped vertices.
            let consistent = (0..depth).all(|i| {
                let w = VertexId(i as u32);
                let img = mapping[i].unwrap();
                query.has_edge(u, w) == query.has_edge(cand, img)
            });
            if !consistent {
                continue;
            }
            mapping[depth] = Some(cand);
            used[cand.index()] = true;
            let ok = rec(query, depth + 1, mapping, used, result, steps, cap);
            mapping[depth] = None;
            used[cand.index()] = false;
            if !ok {
                return false;
            }
        }
        true
    }
    if rec(
        query,
        0,
        &mut mapping,
        &mut used,
        &mut result,
        &mut steps,
        step_cap,
    ) {
        Some(result)
    } else {
        None
    }
}

/// Generates a complete set of symmetry-breaking constraints from the
/// automorphism group (Grochow–Kellis): while the group is nontrivial, fix
/// the smallest vertex `v` with a nontrivial orbit, emit
/// `map(v) < map(w)` for every other `w` in `orbit(v)`, and restrict the
/// group to the stabilizer of `v`.
pub fn symmetry_constraints(autos: &[Vec<VertexId>]) -> Vec<OrderConstraint> {
    let mut constraints = Vec::new();
    if autos.is_empty() {
        return constraints;
    }
    let n = autos[0].len();
    let mut group: Vec<&Vec<VertexId>> = autos.iter().collect();
    loop {
        if group.len() <= 1 {
            break;
        }
        // Find the smallest vertex with a nontrivial orbit.
        let mut fixed_vertex = None;
        for v in 0..n {
            let mut orbit: Vec<VertexId> = group.iter().map(|perm| perm[v]).collect();
            orbit.sort_unstable();
            orbit.dedup();
            if orbit.len() > 1 {
                fixed_vertex = Some((VertexId(v as u32), orbit));
                break;
            }
        }
        let Some((v, orbit)) = fixed_vertex else {
            break; // every vertex fixed — group is trivial on points
        };
        for &w in &orbit {
            if w != v {
                constraints.push(OrderConstraint {
                    smaller: v,
                    larger: w,
                });
            }
        }
        group.retain(|perm| perm[v.index()] == v);
    }
    constraints
}

/// Computes symmetry-breaking constraints for a query, or an empty list when
/// the automorphism search exceeds the cap (enumeration then reports
/// duplicates, which callers may post-deduplicate).
pub fn break_symmetry(query: &QueryGraph, step_cap: u64) -> (Vec<OrderConstraint>, bool) {
    match automorphisms(query, step_cap) {
        Some(autos) => (symmetry_constraints(&autos), true),
        None => (Vec::new(), false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{clique, cycle, path, PaperQuery};
    use ceci_graph::vid;

    fn aut_count(q: &QueryGraph) -> usize {
        automorphisms(q, 1_000_000).unwrap().len()
    }

    #[test]
    fn automorphism_group_sizes() {
        assert_eq!(aut_count(&PaperQuery::Qg1.build()), 6); // S3
        assert_eq!(aut_count(&PaperQuery::Qg2.build()), 8); // dihedral D4
        assert_eq!(aut_count(&PaperQuery::Qg3.build()), 4); // diamond
        assert_eq!(aut_count(&PaperQuery::Qg4.build()), 24); // S4
        assert_eq!(aut_count(&PaperQuery::Qg5.build()), 2); // house: one mirror
        assert_eq!(aut_count(&path(4)), 2);
        assert_eq!(aut_count(&cycle(5)), 10);
        assert_eq!(aut_count(&clique(5)), 120);
    }

    #[test]
    fn labeled_queries_often_rigid() {
        use ceci_graph::lid;
        let q =
            QueryGraph::with_labels(&[lid(0), lid(1), lid(2)], &[(0, 1), (1, 2), (2, 0)]).unwrap();
        assert_eq!(aut_count(&q), 1);
        let (c, complete) = break_symmetry(&q, 1_000_000);
        assert!(complete);
        assert!(c.is_empty());
    }

    #[test]
    fn triangle_constraints_are_chain() {
        // S3 breaks to map(0) < map(1) < map(2) (paper's example for QG1).
        let q = PaperQuery::Qg1.build();
        let (c, complete) = break_symmetry(&q, 1_000_000);
        assert!(complete);
        let mut c = c;
        c.sort();
        assert_eq!(
            c,
            vec![
                OrderConstraint {
                    smaller: vid(0),
                    larger: vid(1)
                },
                OrderConstraint {
                    smaller: vid(0),
                    larger: vid(2)
                },
                OrderConstraint {
                    smaller: vid(1),
                    larger: vid(2)
                },
            ]
        );
    }

    /// Count mappings of a query onto itself that satisfy the constraints —
    /// must be exactly 1 for complete breaking (only the identity-class rep).
    fn satisfying_automorphisms(q: &QueryGraph) -> usize {
        let autos = automorphisms(q, 1_000_000).unwrap();
        let constraints = symmetry_constraints(&autos);
        autos
            .iter()
            .filter(|perm| {
                constraints
                    .iter()
                    .all(|c| perm[c.smaller.index()] < perm[c.larger.index()])
            })
            .count()
    }

    #[test]
    fn constraints_quotient_group_completely() {
        for pq in PaperQuery::ALL {
            assert_eq!(
                satisfying_automorphisms(&pq.build()),
                1,
                "{} not fully broken",
                pq.name()
            );
        }
        assert_eq!(satisfying_automorphisms(&cycle(6)), 1);
        assert_eq!(satisfying_automorphisms(&clique(4)), 1);
        assert_eq!(satisfying_automorphisms(&path(5)), 1);
        assert_eq!(satisfying_automorphisms(&crate::catalog::star(4)), 1);
    }

    #[test]
    fn nec_groups_triangle() {
        let q = PaperQuery::Qg1.build();
        let groups = nec_groups(&q);
        assert_eq!(groups, vec![vec![vid(0), vid(1), vid(2)]]);
    }

    #[test]
    fn nec_groups_square() {
        let q = PaperQuery::Qg2.build();
        let mut groups = nec_groups(&q);
        groups.sort();
        // Opposite corners are NEC-equivalent.
        assert_eq!(groups, vec![vec![vid(0), vid(2)], vec![vid(1), vid(3)]]);
    }

    #[test]
    fn nec_house_has_no_twins() {
        // The house's only symmetry is a mirror (0↔1, 2↔3), which is not a
        // twin relation: N(2)\{3} = {1} ≠ {0} = N(3)\{2}. NEC finds nothing;
        // only the full Grochow–Kellis pass breaks the mirror.
        let q = PaperQuery::Qg5.build();
        assert!(nec_groups(&q).is_empty());
        let (c, complete) = break_symmetry(&q, 1_000_000);
        assert!(complete);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn step_cap_returns_none() {
        let q = clique(6);
        assert!(automorphisms(&q, 10).is_none());
        let (c, complete) = break_symmetry(&q, 10);
        assert!(!complete);
        assert!(c.is_empty());
    }

    #[test]
    fn automorphisms_contain_identity() {
        let q = PaperQuery::Qg3.build();
        let autos = automorphisms(&q, 1_000_000).unwrap();
        let identity: Vec<VertexId> = q.vertices().collect();
        assert!(autos.contains(&identity));
    }
}
