//! Input generation: graphs, query templates and mutation batches, all
//! derived from a seed through [`Rng`], and the writers for the labeled
//! `t/v/e` text format `ceci-serve` loads.
//!
//! ```text
//! t <num_vertices> <num_edges>
//! v <id> <label> <degree>
//! e <a> <b>
//! ```

use std::collections::{BTreeSet, HashSet};
use std::fmt::Write as _;

use crate::rng::Rng;

/// An undirected, simple, single-labeled graph. Data graphs and query
/// templates share the type (a template is a small connected graph).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    /// `labels[v]` is the label of vertex `v`.
    pub labels: Vec<u32>,
    /// Every edge once as `(a, b)` with `a < b`, sorted.
    pub edges: Vec<(u32, u32)>,
}

impl Graph {
    /// Normalises an edge sample: self-loops and duplicates are dropped.
    pub fn new(labels: Vec<u32>, edges: impl IntoIterator<Item = (u32, u32)>) -> Graph {
        let set: BTreeSet<(u32, u32)> = edges
            .into_iter()
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| (a.min(b), a.max(b)))
            .collect();
        let n = labels.len() as u32;
        assert!(
            set.iter().all(|&(_, b)| b < n),
            "edge endpoint out of range"
        );
        Graph {
            labels,
            edges: set.into_iter().collect(),
        }
    }

    pub fn n(&self) -> usize {
        self.labels.len()
    }

    /// Sorted adjacency lists.
    pub fn adjacency(&self) -> Vec<Vec<u32>> {
        let mut adj = vec![Vec::new(); self.n()];
        for &(a, b) in &self.edges {
            adj[a as usize].push(b);
            adj[b as usize].push(a);
        }
        for list in &mut adj {
            list.sort_unstable();
        }
        adj
    }

    /// The same graph with vertex `v` renamed `perm[v]`.
    pub fn renamed(&self, perm: &[u32]) -> Graph {
        let mut labels = vec![0; self.n()];
        for (v, &l) in self.labels.iter().enumerate() {
            labels[perm[v] as usize] = l;
        }
        Graph::new(
            labels,
            self.edges
                .iter()
                .map(|&(a, b)| (perm[a as usize], perm[b as usize])),
        )
    }

    /// The labeled `t/v/e` text form.
    pub fn to_text(&self) -> String {
        let mut degree = vec![0u32; self.n()];
        for &(a, b) in &self.edges {
            degree[a as usize] += 1;
            degree[b as usize] += 1;
        }
        let mut s = String::with_capacity(16 * (self.n() + self.edges.len()));
        writeln!(s, "t {} {}", self.n(), self.edges.len()).unwrap();
        for (v, (&l, &d)) in self.labels.iter().zip(&degree).enumerate() {
            writeln!(s, "v {v} {l} {d}").unwrap();
        }
        for &(a, b) in &self.edges {
            writeln!(s, "e {a} {b}").unwrap();
        }
        s
    }
}

/// Graph500-style R-MAT edge sample over `2^scale` vertices with the
/// reference parameters `(a, b, c) = (0.57, 0.19, 0.19)`: a skewed,
/// clustered core like the paper's social graphs.
pub fn rmat(scale: u32, edge_factor: usize, rng: &mut Rng) -> Vec<(u32, u32)> {
    let n = 1u32 << scale;
    (0..edge_factor << scale)
        .map(|_| {
            let (mut row, mut col) = (0u32, 0u32);
            let mut half = n >> 1;
            while half > 0 {
                let x = rng.unit();
                if x >= 0.57 + 0.19 {
                    row += half;
                }
                if (0.57..0.57 + 0.19).contains(&x) || x >= 0.57 + 0.19 + 0.19 {
                    col += half;
                }
                half >>= 1;
            }
            (row, col)
        })
        .collect()
}

/// Appends `count` degree-1 vertices, each hung on a host drawn
/// degree-proportionally (a random endpoint of a random edge), the tail
/// that real communication graphs such as wiki-talk carry. Returns the new
/// vertex count.
pub fn attach_pendants(
    n: usize,
    edges: &mut Vec<(u32, u32)>,
    count: usize,
    rng: &mut Rng,
) -> usize {
    let core = edges.len();
    for i in 0..count {
        let (a, b) = edges[rng.below(core)];
        let host = if rng.below(2) == 0 { a } else { b };
        edges.push((host, (n + i) as u32));
    }
    n + count
}

/// Erdős–Rényi `G(n, m)` sample with uniformly injected labels. Edges whose
/// endpoint labels form a `forbidden` pair are not generated, so the graph
/// provably holds no edge between those labels (the admission filter's
/// absent-label-pair case).
pub fn er_labeled(
    n: usize,
    m: usize,
    num_labels: u32,
    forbidden: &[(u32, u32)],
    rng: &mut Rng,
) -> Graph {
    let labels = inject_labels(n, num_labels, rng);
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let (a, b) = (rng.below(n) as u32, rng.below(n) as u32);
        if !is_forbidden(labels[a as usize], labels[b as usize], forbidden) {
            edges.push((a, b));
        }
    }
    Graph::new(labels, edges)
}

/// Uniform labels over `0..num_labels`.
pub fn inject_labels(n: usize, num_labels: u32, rng: &mut Rng) -> Vec<u32> {
    (0..n)
        .map(|_| rng.below(num_labels as usize) as u32)
        .collect()
}

pub fn is_forbidden(l: u32, m: u32, forbidden: &[(u32, u32)]) -> bool {
    forbidden.contains(&(l.min(m), l.max(m)))
}

/// Drops the edges of `edges` that join a forbidden label pair.
pub fn drop_forbidden(labels: &[u32], edges: &mut Vec<(u32, u32)>, forbidden: &[(u32, u32)]) {
    edges.retain(|&(a, b)| !is_forbidden(labels[a as usize], labels[b as usize], forbidden));
}

/// Samples a connected `k`-vertex subgraph of the data graph as a query
/// template: grows a vertex set along random edges, keeps the growth tree,
/// and keeps each further induced edge with probability `extra_edge_prob`.
/// `None` when the start vertex's component is too small.
pub fn sample_template(
    labels: &[u32],
    adj: &[Vec<u32>],
    k: usize,
    extra_edge_prob: f64,
    rng: &mut Rng,
) -> Option<Graph> {
    let start = rng.below(adj.len()) as u32;
    let mut chosen = vec![start];
    let mut tree: Vec<(u32, u32)> = Vec::new();
    let mut tries = 0;
    while chosen.len() < k {
        tries += 1;
        if tries > 64 * k {
            return None;
        }
        let from = chosen[rng.below(chosen.len())];
        let nbrs = &adj[from as usize];
        if nbrs.is_empty() {
            return None;
        }
        let to = nbrs[rng.below(nbrs.len())];
        if !chosen.contains(&to) {
            tree.push((from, to));
            chosen.push(to);
        }
    }
    let local = |v: u32| chosen.iter().position(|&c| c == v).unwrap() as u32;
    let mut edges: Vec<(u32, u32)> = tree.iter().map(|&(a, b)| (local(a), local(b))).collect();
    let in_tree: HashSet<(u32, u32)> = tree.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
    for (i, &a) in chosen.iter().enumerate() {
        for &b in &chosen[i + 1..] {
            let induced = adj[a as usize].binary_search(&b).is_ok();
            if induced && !in_tree.contains(&(a.min(b), a.max(b))) && rng.unit() < extra_edge_prob {
                edges.push((local(a), local(b)));
            }
        }
    }
    Some(Graph::new(
        chosen.iter().map(|&v| labels[v as usize]).collect(),
        edges,
    ))
}

/// A conservative isomorphism invariant: vertex and edge counts plus the
/// sorted multiset of `(label, sorted neighbor labels)`. Templates with
/// different invariants are certainly non-isomorphic, so a pool that keeps
/// one template per invariant is pairwise non-isomorphic (and no request
/// can hit the index another one cached).
pub fn invariant(t: &Graph) -> String {
    let adj = t.adjacency();
    let mut rows: Vec<(u32, Vec<u32>)> = adj
        .iter()
        .enumerate()
        .map(|(v, nbrs)| {
            let mut nl: Vec<u32> = nbrs.iter().map(|&w| t.labels[w as usize]).collect();
            nl.sort_unstable();
            (t.labels[v], nl)
        })
        .collect();
    rows.sort();
    format!("{}/{}/{rows:?}", t.n(), t.edges.len())
}

/// One mutation batch: `(is_add, u, v)` entries.
pub type Batch = Vec<(bool, u32, u32)>;

/// Generates `count` consecutive batches against an evolving copy of the
/// edge set: each holds `adds` edges absent when the batch applies and
/// `dels` edges present when it applies, so every entry is a net mutation.
pub fn mutation_batches(
    graph: &Graph,
    count: usize,
    adds: usize,
    dels: usize,
    rng: &mut Rng,
) -> Vec<Batch> {
    let n = graph.n();
    let mut live: Vec<(u32, u32)> = graph.edges.clone();
    let mut present: HashSet<(u32, u32)> = live.iter().copied().collect();
    (0..count)
        .map(|_| {
            let mut batch = Batch::with_capacity(adds + dels);
            for _ in 0..dels {
                let e = live.swap_remove(rng.below(live.len()));
                present.remove(&e);
                batch.push((false, e.0, e.1));
            }
            // Deleted edges are not re-added inside the same batch: the
            // server nets a batch, and a cancelled pair would not count as
            // a mutation.
            let deleted: HashSet<(u32, u32)> = batch.iter().map(|&(_, a, b)| (a, b)).collect();
            let mut added = 0;
            while added < adds {
                let (a, b) = (rng.below(n) as u32, rng.below(n) as u32);
                let e = (a.min(b), a.max(b));
                if a != b && !deleted.contains(&e) && present.insert(e) {
                    live.push(e);
                    batch.push((true, e.0, e.1));
                    added += 1;
                }
            }
            rng.shuffle(&mut batch);
            batch
        })
        .collect()
}

/// Applies a batch to a graph (the harness's own copy of the edge set).
pub fn apply_batch(graph: &Graph, batch: &Batch) -> Graph {
    let mut set: BTreeSet<(u32, u32)> = graph.edges.iter().copied().collect();
    for &(add, a, b) in batch {
        let e = (a.min(b), a.max(b));
        if add {
            set.insert(e);
        } else {
            set.remove(&e);
        }
    }
    Graph {
        labels: graph.labels.clone(),
        edges: set.into_iter().collect(),
    }
}

/// The inline `BATCH` request line for a batch.
pub fn batch_line(graph_name: &str, batch: &Batch) -> String {
    let mut s = format!("BATCH {graph_name}");
    for &(add, a, b) in batch {
        write!(s, " {}{a}:{b}", if add { '+' } else { '-' }).unwrap();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_normalises_and_prints() {
        let g = Graph::new(vec![0, 1, 2], [(1, 0), (0, 1), (2, 2), (1, 2)]);
        assert_eq!(g.edges, vec![(0, 1), (1, 2)]);
        assert_eq!(
            g.to_text(),
            "t 3 2\nv 0 0 1\nv 1 1 2\nv 2 2 1\ne 0 1\ne 1 2\n"
        );
        let r = g.renamed(&[2, 0, 1]);
        assert_eq!(r.labels, vec![1, 2, 0]);
        assert_eq!(r.edges, vec![(0, 1), (0, 2)]);
    }

    #[test]
    fn er_respects_forbidden_pairs() {
        let g = er_labeled(500, 4000, 6, &[(0, 1), (2, 3)], &mut Rng::new(3));
        assert!(g.edges.iter().all(|&(a, b)| !is_forbidden(
            g.labels[a as usize],
            g.labels[b as usize],
            &[(0, 1), (2, 3)]
        )));
    }

    #[test]
    fn templates_are_connected_subgraphs() {
        let mut rng = Rng::new(5);
        let mut edges = rmat(8, 8, &mut rng);
        let labels = inject_labels(256, 4, &mut rng);
        edges.retain(|&(a, b)| a != b);
        let g = Graph::new(labels, edges);
        let adj = g.adjacency();
        let mut seen = 0;
        for _ in 0..200 {
            let Some(t) = sample_template(&g.labels, &adj, 5, 0.5, &mut rng) else {
                continue;
            };
            seen += 1;
            assert_eq!(t.n(), 5);
            assert!(t.edges.len() >= 4, "a spanning tree is kept");
            // Connected: BFS from 0 reaches every vertex.
            let tadj = t.adjacency();
            let mut reach = [false; 5];
            let mut stack = vec![0u32];
            reach[0] = true;
            while let Some(v) = stack.pop() {
                for &w in &tadj[v as usize] {
                    if !std::mem::replace(&mut reach[w as usize], true) {
                        stack.push(w);
                    }
                }
            }
            assert!(reach.iter().all(|&r| r));
        }
        assert!(seen > 100);
    }

    #[test]
    fn invariant_ignores_numbering() {
        let t = Graph::new(vec![3, 1, 2, 1], [(0, 1), (1, 2), (2, 3), (0, 2)]);
        let p = t.renamed(&[2, 3, 0, 1]);
        assert_ne!(t, p);
        assert_eq!(invariant(&t), invariant(&p));
        let other = Graph::new(vec![3, 1, 2, 1], [(0, 1), (1, 2), (2, 3)]);
        assert_ne!(invariant(&t), invariant(&other));
    }

    #[test]
    fn batches_are_net_mutations() {
        let g = er_labeled(300, 1500, 3, &[], &mut Rng::new(9));
        let batches = mutation_batches(&g, 5, 40, 4, &mut Rng::new(10));
        let mut cur = g.clone();
        for b in &batches {
            let set: HashSet<(u32, u32)> = cur.edges.iter().copied().collect();
            for &(add, a, b2) in b {
                assert_eq!(set.contains(&(a, b2)), !add, "adds absent, deletes present");
            }
            let next = apply_batch(&cur, b);
            assert_eq!(next.edges.len(), cur.edges.len() + 40 - 4);
            cur = next;
        }
        assert!(batch_line("g", &batches[0]).starts_with("BATCH g "));
    }
}
