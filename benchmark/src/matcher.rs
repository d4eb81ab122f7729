//! The benchmark's own counting oracle: plain backtracking subgraph
//! matching that shares no code with the system under test.
//!
//! `ceci-serve` reports each embedding once per automorphism class (it
//! breaks query symmetry), so the oracle counts label-preserving injective
//! homomorphisms and divides by the query's automorphism count — itself
//! obtained by matching the query onto itself.

use crate::gen::Graph;

/// Number of embeddings of `query` in the data graph, one per automorphism
/// class. `adj` must be the sorted adjacency of the data graph.
pub fn count_embeddings(labels: &[u32], adj: &[Vec<u32>], query: &Graph) -> u64 {
    count_within(labels, adj, query, u64::MAX).expect("an unbounded search finishes")
}

/// [`count_embeddings`] under a work budget: `None` once the search has
/// tried more than `budget` candidate vertices. Template pools use it to
/// keep only queries that are cheap to answer.
pub fn count_within(labels: &[u32], adj: &[Vec<u32>], query: &Graph, budget: u64) -> Option<u64> {
    let homs = injective_homs(labels, adj, query, budget)?;
    if homs == 0 {
        return Some(0);
    }
    let autos = injective_homs(&query.labels, &query.adjacency(), query, u64::MAX)?;
    debug_assert_eq!(homs % autos, 0);
    Some(homs / autos)
}

struct Search<'a> {
    labels: &'a [u32],
    adj: &'a [Vec<u32>],
    /// Per matching position: the query vertex's label and degree, and the
    /// positions of its already-matched query neighbors.
    steps: Vec<(u32, usize, Vec<usize>)>,
    image: Vec<u32>,
    used: Vec<bool>,
    /// Candidate vertices the search may still try.
    budget: u64,
}

fn injective_homs(labels: &[u32], adj: &[Vec<u32>], query: &Graph, budget: u64) -> Option<u64> {
    let qadj = query.adjacency();
    let k = query.n();
    if k == 0 {
        return Some(0);
    }
    // Connected matching order: start at the highest-degree query vertex,
    // then always take the vertex with the most matched neighbors.
    let mut order: Vec<usize> = Vec::with_capacity(k);
    let mut placed = vec![false; k];
    for _ in 0..k {
        let next = (0..k)
            .filter(|&u| !placed[u])
            .max_by_key(|&u| {
                let back = qadj[u].iter().filter(|&&w| placed[w as usize]).count();
                (back, qadj[u].len(), std::cmp::Reverse(u))
            })
            .expect("an unplaced vertex remains");
        placed[next] = true;
        order.push(next);
    }
    let steps = order
        .iter()
        .enumerate()
        .map(|(i, &u)| {
            let back: Vec<usize> = (0..i)
                .filter(|&j| qadj[u].contains(&(order[j] as u32)))
                .collect();
            assert!(i == 0 || !back.is_empty(), "query templates are connected");
            (query.labels[u], qadj[u].len(), back)
        })
        .collect();
    let mut search = Search {
        labels,
        adj,
        steps,
        image: vec![0; k],
        used: vec![false; labels.len()],
        budget,
    };
    search.extend(0)
}

impl Search<'_> {
    fn fits(&self, pos: usize, v: u32, skip: usize) -> bool {
        let (label, degree, back) = &self.steps[pos];
        self.labels[v as usize] == *label
            && self.adj[v as usize].len() >= *degree
            && !self.used[v as usize]
            && back
                .iter()
                .filter(|&&j| j != skip)
                .all(|&j| self.adj[self.image[j] as usize].binary_search(&v).is_ok())
    }

    /// `None` when the budget ran out.
    fn extend(&mut self, pos: usize) -> Option<u64> {
        let last = pos + 1 == self.steps.len();
        let adj = self.adj;
        // Candidates come from the shortest adjacency list among the
        // matched neighbors (every vertex at the first position).
        let source = self.steps[pos]
            .2
            .iter()
            .copied()
            .min_by_key(|&j| adj[self.image[j] as usize].len());
        let neighbors = source.map(|j| adj[self.image[j] as usize].as_slice());
        let mut total = 0;
        for i in 0..neighbors.map_or(self.labels.len(), <[u32]>::len) {
            let v = neighbors.map_or(i as u32, |list| list[i]);
            self.budget = self.budget.checked_sub(1)?;
            if !self.fits(pos, v, source.unwrap_or(usize::MAX)) {
                continue;
            }
            if last {
                total += 1;
            } else {
                self.image[pos] = v;
                self.used[v as usize] = true;
                let below = self.extend(pos + 1);
                self.used[v as usize] = false;
                total += below?;
            }
        }
        Some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unlabeled(n: usize, edges: &[(u32, u32)]) -> Graph {
        Graph::new(vec![0; n], edges.iter().copied())
    }

    #[test]
    fn counts_on_a_clique() {
        // K5: C(5,3) triangles, C(5,4) 4-cliques, 5*4*3/2 two-edge paths.
        let k5 = unlabeled(
            5,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (1, 2),
                (1, 3),
                (1, 4),
                (2, 3),
                (2, 4),
                (3, 4),
            ],
        );
        let adj = k5.adjacency();
        let tri = unlabeled(3, &[(0, 1), (1, 2), (2, 0)]);
        let k4 = unlabeled(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let path = unlabeled(3, &[(0, 1), (1, 2)]);
        assert_eq!(count_embeddings(&k5.labels, &adj, &tri), 10);
        assert_eq!(count_embeddings(&k5.labels, &adj, &k4), 5);
        assert_eq!(count_embeddings(&k5.labels, &adj, &path), 30);
    }

    #[test]
    fn labels_and_non_induced_semantics() {
        // Labeled triangle 0-1-2 plus a pendant 3 (label 2) on vertex 1.
        let g = Graph::new(vec![0, 1, 2, 2], [(0, 1), (1, 2), (0, 2), (1, 3)]);
        let adj = g.adjacency();
        // Path L0-L1-L2 matches through the triangle edge too (non-induced).
        let path = Graph::new(vec![0, 1, 2], [(0, 1), (1, 2)]);
        assert_eq!(count_embeddings(&g.labels, &adj, &path), 2);
        let tri = Graph::new(vec![0, 1, 2], [(0, 1), (1, 2), (0, 2)]);
        assert_eq!(count_embeddings(&g.labels, &adj, &tri), 1);
        let absent = Graph::new(vec![0, 0], [(0, 1)]);
        assert_eq!(count_embeddings(&g.labels, &adj, &absent), 0);
        // The root scan alone tries 4 vertices.
        assert_eq!(count_within(&g.labels, &adj, &path, 3), None);
        assert_eq!(count_within(&g.labels, &adj, &path, 1_000), Some(2));
    }
}
