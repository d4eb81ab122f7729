//! Root query node selection (§2.2).
//!
//! The root `u_s` minimizes `|candidate(u)| / degree(u)` — few candidates
//! means few embedding clusters, high degree means strong early pruning.
//! Ties break toward the smaller vertex id for determinism.

use ceci_graph::VertexId;

use crate::candidates::CandidateSet;
use crate::query_graph::QueryGraph;

/// Root choice, along with the score table for diagnostics.
#[derive(Clone, Debug)]
pub struct RootChoice {
    /// The selected root query node.
    pub root: VertexId,
    /// `scores[u] = |candidate(u)| / degree(u)` for every query vertex.
    pub scores: Vec<f64>,
}

/// Selects the root query node given precomputed candidate sets.
///
/// Degree-0 queries (a single vertex) get score `|candidates|`.
pub fn select_root(query: &QueryGraph, candidate_sets: &[CandidateSet]) -> RootChoice {
    assert_eq!(candidate_sets.len(), query.num_vertices());
    let mut best: Option<(f64, VertexId)> = None;
    let mut scores = Vec::with_capacity(candidate_sets.len());
    for set in candidate_sets {
        let deg = query.degree(set.u).max(1) as f64;
        let score = set.candidates.len() as f64 / deg;
        scores.push(score);
        let better = match best {
            None => true,
            Some((bs, bu)) => score < bs || (score == bs && set.u < bu),
        };
        if better {
            best = Some((score, set.u));
        }
    }
    let (_, root) = best.expect("query graphs are non-empty");
    RootChoice { root, scores }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::compute_candidates;
    use ceci_graph::{lid, vid, Graph, LabelSet};

    #[test]
    fn fewest_candidates_per_degree_wins() {
        // Data: many A's, one B. Query: u0(A)-u1(B). u1 has 1 candidate.
        let g = Graph::new(
            vec![
                LabelSet::single(lid(0)),
                LabelSet::single(lid(0)),
                LabelSet::single(lid(0)),
                LabelSet::single(lid(1)),
            ],
            &[(vid(0), vid(3)), (vid(1), vid(3)), (vid(2), vid(3))],
            false,
        );
        let q = QueryGraph::with_labels(&[lid(0), lid(1)], &[(0, 1)]).unwrap();
        let choice = select_root(&q, &compute_candidates(&q, &g));
        assert_eq!(choice.root, vid(1));
        assert!(choice.scores[1] < choice.scores[0]);
    }

    #[test]
    fn tie_breaks_to_smaller_id() {
        // Symmetric data and query → identical scores everywhere.
        let g = Graph::unlabeled(2, &[(vid(0), vid(1))]);
        let q = QueryGraph::unlabeled(2, &[(0, 1)]).unwrap();
        let choice = select_root(&q, &compute_candidates(&q, &g));
        assert_eq!(choice.root, vid(0));
        assert_eq!(choice.scores[0], choice.scores[1]);
    }

    #[test]
    fn single_vertex_query() {
        let g = Graph::unlabeled(3, &[(vid(0), vid(1))]);
        let q = QueryGraph::unlabeled(1, &[]).unwrap();
        let sets = compute_candidates(&q, &g);
        let choice = select_root(&q, &sets);
        assert_eq!(choice.root, vid(0));
        // degree clamps to 1 → score = candidate count = 3.
        assert_eq!(choice.scores[0], 3.0);
    }

    #[test]
    fn score_table_has_one_entry_per_query_vertex() {
        let g = Graph::unlabeled(4, &[(vid(0), vid(1)), (vid(1), vid(2)), (vid(2), vid(3))]);
        let q = QueryGraph::unlabeled(3, &[(0, 1), (1, 2)]).unwrap();
        let choice = select_root(&q, &compute_candidates(&q, &g));
        assert_eq!(choice.scores.len(), 3);
    }
}
