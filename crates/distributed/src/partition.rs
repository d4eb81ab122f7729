//! Pivot distribution across machines (§5).
//!
//! Cardinality is not available before CECI creation, so machines receive
//! pivots by a light-weight workload estimate: in replicated mode
//! `deg(v) + Σ_{w∈N(v)} deg(w)`, in shared mode `deg(v)` alone — both scaled
//! by `(|V| − v)/|V|` to account for the imbalance automorphism-breaking
//! orders inflict on low-id vertices. Highly overlapping clusters
//! (`J(v_i, v_j) ≥ 0.5` among the largest `top_k`) are co-located so two
//! machines don't redundantly explore the same region, subject to the
//! per-machine workload cap.

use ceci_graph::stats::{pivot_workload_in_memory, pivot_workload_shared};
use ceci_graph::{Graph, VertexId};

use crate::config::{ClusterConfig, StorageMode};

/// The result of distributing pivots: `assignment[m]` = sorted pivots of
/// machine `m`.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Per-machine sorted pivot lists.
    pub assignment: Vec<Vec<VertexId>>,
    /// Estimated workload per machine.
    pub machine_load: Vec<f64>,
    /// Number of pivot groups merged by Jaccard co-location.
    pub merged_groups: usize,
}

/// Light-weight pre-index workload estimate for one pivot under the
/// configured storage mode (see module docs). Shared with the
/// fault-injection layer, which uses the same estimate as the exchange
/// rate for its deterministic virtual-progress clock — so crash points
/// expressed in virtual time line up with the load balancer's view of the
/// work.
pub fn workload_estimate(graph: &Graph, v: VertexId, config: &ClusterConfig) -> f64 {
    let w = match config.storage {
        StorageMode::Replicated => pivot_workload_in_memory(graph, v),
        StorageMode::Shared => pivot_workload_shared(graph, v),
    };
    // Every cluster costs at least something to visit.
    w.max(1.0)
}

/// Jaccard similarity of the neighborhoods of two vertices.
pub fn jaccard(graph: &Graph, a: VertexId, b: VertexId) -> f64 {
    let (na, nb) = (graph.neighbors(a), graph.neighbors(b));
    if na.is_empty() && nb.is_empty() {
        return 0.0;
    }
    let mut inter = 0usize;
    let (mut i, mut j) = (0, 0);
    while i < na.len() && j < nb.len() {
        match na[i].cmp(&nb[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = na.len() + nb.len() - inter;
    inter as f64 / union as f64
}

/// Distributes `pivots` over `config.machines` machines.
pub fn distribute_pivots(graph: &Graph, pivots: &[VertexId], config: &ClusterConfig) -> Partition {
    let m = config.machines.max(1);
    let estimate = |v: VertexId| -> f64 { workload_estimate(graph, v, config) };

    // Group pivots: singleton groups, then Jaccard merging among the top-k
    // (replicated mode only — shared mode lacks remote neighborhoods).
    let mut groups: Vec<Vec<VertexId>> = pivots.iter().map(|&v| vec![v]).collect();
    let mut merged_groups = 0usize;
    if config.jaccard_colocation && matches!(config.storage, StorageMode::Replicated) {
        let mut by_load: Vec<usize> = (0..groups.len()).collect();
        by_load.sort_by(|&a, &b| estimate(groups[b][0]).total_cmp(&estimate(groups[a][0])));
        let top: Vec<usize> = by_load.into_iter().take(config.jaccard_top_k).collect();
        // Union-find over the top clusters.
        let mut parent: Vec<usize> = (0..groups.len()).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let r = find(parent, parent[x]);
                parent[x] = r;
            }
            parent[x]
        }
        for (ai, &a) in top.iter().enumerate() {
            for &b in top.iter().skip(ai + 1) {
                if jaccard(graph, groups[a][0], groups[b][0]) >= config.jaccard_threshold {
                    let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                    if ra != rb {
                        parent[rb] = ra;
                        merged_groups += 1;
                    }
                }
            }
        }
        // Ordered by root so the grouping, and with it the assignment, is
        // the same on every run.
        let mut merged: std::collections::BTreeMap<usize, Vec<VertexId>> =
            std::collections::BTreeMap::new();
        let group_heads: Vec<VertexId> = groups.iter().map(|g| g[0]).collect();
        for (i, &head) in group_heads.iter().enumerate() {
            let root = find(&mut parent, i);
            merged.entry(root).or_default().push(head);
        }
        groups = merged.into_values().collect();
    }

    // Longest-processing-time greedy with a per-machine cap: oversized
    // groups split back into singletons rather than blowing the cap.
    let total: f64 = pivots.iter().map(|&v| estimate(v)).sum();
    let cap = (total / m as f64) * config.max_load_factor;
    let group_load = |g: &[VertexId]| -> f64 { g.iter().map(|&v| estimate(v)).sum() };
    groups.sort_by(|a, b| group_load(b).total_cmp(&group_load(a)));

    let mut assignment: Vec<Vec<VertexId>> = vec![Vec::new(); m];
    let mut machine_load = vec![0.0f64; m];
    let assign =
        |vs: &[VertexId], assignment: &mut Vec<Vec<VertexId>>, machine_load: &mut Vec<f64>| {
            let load: f64 = vs.iter().map(|&v| estimate(v)).sum();
            let target = (0..m)
                .min_by(|&a, &b| machine_load[a].total_cmp(&machine_load[b]))
                .unwrap();
            assignment[target].extend_from_slice(vs);
            machine_load[target] += load;
        };
    for g in &groups {
        let load = group_load(g);
        let lightest = (0..m)
            .map(|i| machine_load[i])
            .fold(f64::INFINITY, f64::min);
        if g.len() > 1 && lightest + load > cap {
            for &v in g {
                assign(&[v], &mut assignment, &mut machine_load);
            }
        } else {
            assign(g, &mut assignment, &mut machine_load);
        }
    }
    for a in &mut assignment {
        a.sort_unstable();
    }
    Partition {
        assignment,
        machine_load,
        merged_groups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceci_graph::vid;

    fn fan_graph() -> Graph {
        let mut edges = Vec::new();
        for i in 1..=30u32 {
            edges.push((vid(0), vid(i)));
        }
        for i in 1..30u32 {
            edges.push((vid(i), vid(i + 1)));
        }
        Graph::unlabeled(31, &edges)
    }

    #[test]
    fn jaccard_basics() {
        let g = fan_graph();
        // Identical neighborhoods → 1.0 (vertex with itself).
        assert!((jaccard(&g, vid(5), vid(5)) - 1.0).abs() < 1e-12);
        // Ring neighbors share the hub: J > 0.
        assert!(jaccard(&g, vid(5), vid(7)) > 0.0);
        let isolated = Graph::unlabeled(2, &[]);
        assert_eq!(jaccard(&isolated, vid(0), vid(1)), 0.0);
    }

    #[test]
    fn all_pivots_assigned_exactly_once() {
        let g = fan_graph();
        let pivots: Vec<VertexId> = g.vertices().collect();
        let cfg = ClusterConfig {
            machines: 4,
            ..Default::default()
        };
        let p = distribute_pivots(&g, &pivots, &cfg);
        assert_eq!(p.assignment.len(), 4);
        let mut all: Vec<VertexId> = p.assignment.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, pivots);
    }

    #[test]
    fn loads_are_roughly_balanced() {
        let g = fan_graph();
        let pivots: Vec<VertexId> = g.vertices().collect();
        let cfg = ClusterConfig {
            machines: 3,
            jaccard_colocation: false,
            ..Default::default()
        };
        let p = distribute_pivots(&g, &pivots, &cfg);
        let max = p.machine_load.iter().cloned().fold(0.0, f64::max);
        let min = p.machine_load.iter().cloned().fold(f64::INFINITY, f64::min);
        // LPT keeps the spread within the largest single item, which here is
        // the hub's big estimate; just sanity-check no machine is empty.
        assert!(min > 0.0, "loads {:?}", p.machine_load);
        assert!(max >= min);
    }

    #[test]
    fn shared_mode_uses_degree_only() {
        let g = fan_graph();
        let pivots: Vec<VertexId> = g.vertices().collect();
        let rep = distribute_pivots(
            &g,
            &pivots,
            &ClusterConfig {
                machines: 2,
                storage: StorageMode::Replicated,
                jaccard_colocation: false,
                ..Default::default()
            },
        );
        let shared = distribute_pivots(
            &g,
            &pivots,
            &ClusterConfig {
                machines: 2,
                storage: StorageMode::Shared,
                ..Default::default()
            },
        );
        // Replicated estimates include neighbor degrees → larger loads.
        let rep_total: f64 = rep.machine_load.iter().sum();
        let shared_total: f64 = shared.machine_load.iter().sum();
        assert!(rep_total > shared_total);
    }

    #[test]
    fn colocation_merges_similar_ring_vertices() {
        // A graph with two cliques: members of the same clique have highly
        // overlapping neighborhoods.
        let mut edges = Vec::new();
        for a in 0..6u32 {
            for b in (a + 1)..6 {
                edges.push((vid(a), vid(b)));
            }
        }
        for a in 6..12u32 {
            for b in (a + 1)..12 {
                edges.push((vid(a), vid(b)));
            }
        }
        let g = Graph::unlabeled(12, &edges);
        let pivots: Vec<VertexId> = g.vertices().collect();
        let cfg = ClusterConfig {
            machines: 2,
            max_load_factor: 10.0, // don't let the cap split the groups
            ..Default::default()
        };
        let p = distribute_pivots(&g, &pivots, &cfg);
        assert!(p.merged_groups > 0);
        // Clique members end up together: machine of v0 == machine of v1.
        let machine_of = |v: VertexId| {
            p.assignment
                .iter()
                .position(|a| a.contains(&v))
                .expect("assigned")
        };
        assert_eq!(machine_of(vid(0)), machine_of(vid(1)));
        assert_eq!(machine_of(vid(6)), machine_of(vid(7)));
    }
}
