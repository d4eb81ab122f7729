//! EXPLAIN-style reports for plans and indexes.
//!
//! Subgraph matching performance hinges on decisions a user can't otherwise
//! see: which root was chosen, how the matching order runs, how hard each
//! filter hit, how skewed the embedding clusters are. [`explain_plan`] and
//! [`explain_index`] render those as plain-text reports (used by
//! `ceci-match --stats` and handy in tests and notebooks).

use std::fmt::Write as _;

use ceci_graph::{Graph, VertexId};
use ceci_query::QueryPlan;

use crate::enumerate::{memo_cut, EnumOptions, LeafMode};
use crate::estimate::CostEstimate;
use crate::index::Ceci;
use crate::metrics::Counters;
use crate::parallel::Strategy;
use ceci_trace::DepthProfile;

/// Renders a per-matching-order-depth enumeration profile (the
/// `EXPLAIN ANALYZE` table) as machine-parseable `key=value` rows plus a
/// totals row carrying the run's exact global [`Counters`]. Per-depth
/// `isect` values are exact op counts, so their sum always equals
/// `intersection_ops` in the totals row. A memo hit at a clean cut walks
/// nothing, so its embeddings are credited to the last depth's `emit`, and
/// `memo_hits` / `memo_keys` close the row.
pub fn explain_profile(plan: &QueryPlan, profile: &DepthProfile, counters: &Counters) -> String {
    let order = plan.matching_order();
    let mut out = String::new();
    let total_time = profile.total_time_ns().max(1);
    for (d, s) in profile.depths().iter().enumerate() {
        let node = order
            .get(d)
            .map(|u| format!("u{u}"))
            .unwrap_or_else(|| "-".into());
        let _ = writeln!(
            out,
            "depth={d} node={node} calls={} cand={} isect={} emit={} back={} time_us={} samples={} time_pct={:.1}",
            s.calls,
            s.candidates,
            s.intersections,
            s.emitted,
            s.backtracks,
            s.time_ns / 1_000,
            s.samples,
            s.time_ns as f64 * 100.0 / total_time as f64,
        );
    }
    let _ = writeln!(
        out,
        "totals depths={} calls={} cand={} isect={} emit={} sampled_us={} recursive_calls={} intersection_ops={} edge_verifications={} embeddings={} injectivity_rejections={} symmetry_rejections={} memo_hits={} memo_keys={}",
        profile.len(),
        profile.total_calls(),
        profile.total_candidates(),
        profile.total_intersections(),
        profile.total_emitted(),
        profile.total_time_ns() / 1_000,
        counters.recursive_calls,
        counters.intersection_ops,
        counters.edge_verifications,
        counters.embeddings,
        counters.injectivity_rejections,
        counters.symmetry_rejections,
        counters.memo_hits,
        counters.memo_keys,
    );
    out
}

/// Renders the preprocessing decisions of a plan, and what they let an
/// enumeration under `options` skip: per matching-order depth the mapped
/// partners whose images bound its candidate lists (`window lo<-{..}
/// hi<-{..}`: the symmetry constraints applied before the intersection), and
/// how a count-only run over `ceci`, the plan's index, answers its last
/// depths (`leaf=`, see [`LeafMode`]) and where it memoises sub-counts
/// (`cut depth=d key=[..]` or `cut none`, see [`crate::CleanCut`]).
///
/// The listed `initial candidates` are the plan's candidate sets, which
/// describe `graph` ([`QueryPlan::describes`], checked in debug builds), as
/// they must for `ceci` to have been built under the plan.
pub fn explain_plan(plan: &QueryPlan, ceci: &Ceci, graph: &Graph, options: EnumOptions) -> String {
    debug_assert!(
        plan.describes(graph),
        "the plan's candidate sets were computed on another graph"
    );
    let query = plan.query();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "query: {} vertices, {} edges ({} tree + {} non-tree)",
        query.num_vertices(),
        query.num_edges(),
        plan.tree().tree_edges().len(),
        plan.tree().non_tree_edges().len(),
    );
    let _ = writeln!(
        out,
        "data graph: {} vertices, {} edges, {} labels",
        graph.num_vertices(),
        graph.num_edges(),
        graph.num_labels()
    );
    let _ = writeln!(
        out,
        "root: u{} | matching order: {:?}",
        plan.root(),
        plan.matching_order()
    );
    let _ = writeln!(
        out,
        "symmetry: {} constraints ({})",
        plan.symmetry_constraints().len(),
        if plan.symmetry_complete() {
            "complete — each embedding listed once"
        } else {
            "incomplete — duplicates possible"
        }
    );
    let _ = writeln!(out, "per-node preprocessing:");
    for &u in plan.matching_order() {
        let parent = plan
            .tree()
            .parent(u)
            .map(|p| format!("u{p}"))
            .unwrap_or_else(|| "-".into());
        let ntes: Vec<String> = plan
            .backward_nte(u)
            .iter()
            .map(|w| format!("u{w}"))
            .collect();
        let partners = |bounds: &[VertexId]| {
            let names: Vec<String> = bounds.iter().map(|w| format!("u{w}")).collect();
            names.join(",")
        };
        let _ = writeln!(
            out,
            "  u{u}: parent {parent:>3} | NTE from [{}] | window lo<-{{{}}} hi<-{{{}}} | {} initial candidates",
            ntes.join(", "),
            partners(plan.lower_bounds(u)),
            partners(plan.upper_bounds(u)),
            plan.initial_candidates(u).len(),
        );
    }
    let cut = memo_cut(ceci, options).map_or_else(|| "cut none".into(), |c| c.to_string());
    let _ = writeln!(
        out,
        "leaf={} {cut} for a count-only run (LIMIT and collected runs: EMIT, no cut)",
        LeafMode::of(plan, ceci, options)
    );
    out
}

/// Renders the served plan and its execution: one `plan:` row (the order
/// strategy, root and matching order of `plan`), then one `exec:` row (the
/// drain's `strategy` and `workers`, and the count and volume `cost`
/// estimates — [`crate::served_cost`] over the served index, taken by the
/// caller).
pub fn explain_served(
    plan: &QueryPlan,
    cost: &CostEstimate,
    strategy: Strategy,
    workers: usize,
) -> String {
    let mut out = String::new();
    let order: Vec<String> = plan
        .matching_order()
        .iter()
        .map(|u| format!("u{u}"))
        .collect();
    let named = plan
        .strategy()
        .map_or_else(|| "Given".to_string(), |s| format!("{s:?}"));
    let _ = writeln!(
        out,
        "plan: strategy={named} root=u{} order=[{}]",
        plan.root(),
        order.join(", "),
    );
    let est = &cost.estimate;
    let (lo, hi) = est.ci95();
    let _ = writeln!(
        out,
        "exec: strategy={} workers={workers} est_count={:.1} est_se={:.1} ci95=[{:.1}, {:.1}] est_volume={:.1}",
        strategy.abbrev(),
        est.mean,
        est.std_error,
        lo,
        hi,
        cost.volume(),
    );
    out
}

/// Renders estimated vs actual cardinality per matching-order depth (the
/// `EXPLAIN ANALYZE` mis-estimate view) of a run over `ceci` under
/// `options` that left `profile` and `counters`. The actual partial-embedding
/// count at depth `d` is read from the observed profile: searches entering
/// depth `d + 1` for interior depths — recursive calls, and at the clean cut
/// the memo hits, which walk nothing — except that under leaf reuse the
/// penultimate depth's siblings search nothing and are its backtracks; and
/// emissions at the leaf. `qerr` is the usual max(est/actual, actual/est),
/// blank when either side is zero. A [`LeafMode::Twins`] tail is answered in closed
/// form from its first twin on and credited to the last depth, so the rows
/// from the first twin to the penultimate depth observe nothing and print
/// `actual=- qerr=- (closed form)`. Likewise, once the run answered a key
/// from the memo, the searches below the clean cut are only the walked
/// ones: the rows from the cut to the penultimate depth print
/// `actual=- qerr=- (memoised)`.
pub fn explain_estimates(
    plan: &QueryPlan,
    ceci: &Ceci,
    options: EnumOptions,
    cost: &CostEstimate,
    profile: &DepthProfile,
    counters: &Counters,
) -> String {
    let order = plan.matching_order();
    let stats = profile.depths();
    let n = order.len();
    let leaf = LeafMode::of(plan, ceci, options);
    let closed = match leaf {
        LeafMode::Twins(tail) => n - tail.twins..n - 1,
        _ => 0..0,
    };
    let shared_leaf = matches!(leaf, LeafMode::Reuse | LeafMode::ReuseOrdered(_));
    let cut = memo_cut(ceci, options).map(|cut| cut.depth);
    let memoised = match cut {
        Some(c) if counters.memo_hits > 0 => c..n - 1,
        _ => 0..0,
    };
    let mut out = String::new();
    for (d, &est) in cost.depth_volumes.iter().enumerate().take(n) {
        let node = order[d];
        let unobserved = if closed.contains(&d) {
            Some("closed form")
        } else if memoised.contains(&d) {
            Some("memoised")
        } else {
            None
        };
        if let Some(why) = unobserved {
            let _ = writeln!(
                out,
                "estimate depth={d} node=u{node} est={est:.1} actual=- qerr=- ({why})",
            );
            continue;
        }
        let actual = if d + 1 >= stats.len() {
            // Every embedding, walked, tallied, read off a shared leaf set
            // or answered from the memo, is emitted at the last depth.
            stats.get(d).map_or(0, |s| s.emitted)
        } else if shared_leaf && d + 2 == n {
            // Siblings that read the shared leaf set search nothing below;
            // each is one backtrack here.
            stats[d].backtracks
        } else {
            let hits = counters.memo_hits * u64::from(cut == Some(d + 1));
            stats[d + 1].calls + hits
        };
        let qerr = if est > 0.0 && actual > 0 {
            let a = actual as f64;
            format!("{:.2}", (est / a).max(a / est))
        } else {
            "-".into()
        };
        let _ = writeln!(
            out,
            "estimate depth={d} node=u{node} est={est:.1} actual={actual} qerr={qerr}",
        );
    }
    out
}

/// Renders the built index: per-node table sizes, cluster-size skew, stage
/// statistics.
pub fn explain_index(ceci: &Ceci, plan: &QueryPlan) -> String {
    let mut out = String::new();
    let stats = ceci.stats();
    let _ = writeln!(
        out,
        "pivots: {} of {} initial root candidates survive",
        stats.pivots_final, stats.pivots_initial
    );
    let _ = writeln!(
        out,
        "entries: TE {} -> {} | NTE {} -> {} (filter -> refine)",
        stats.te_entries_after_filter,
        stats.te_entries_after_refine,
        stats.nte_entries_after_filter,
        stats.nte_entries_after_refine,
    );
    let entry_bytes = (stats.te_entries_after_refine + stats.nte_entries_after_refine) * 8;
    let _ = writeln!(
        out,
        "size: {entry_bytes} candidate-edge bytes ({:.0}% under the |Eq|x|Eg| bound of {} bytes); resident structure {} bytes",
        stats.percent_saved(),
        stats.theoretical_bytes,
        stats.size_bytes,
    );
    let _ = writeln!(
        out,
        "build: filter {:?}, refine {:?}",
        stats.filter_time, stats.refine_time
    );
    let _ = writeln!(out, "per-node candidates after refinement:");
    for &u in plan.matching_order() {
        let te = ceci
            .te(u)
            .map(|t| format!("{} keys / {} entries", t.num_keys(), t.num_entries()))
            .unwrap_or_else(|| "root".into());
        let nte: usize = ceci.nte(u).iter().map(|(_, t)| t.num_entries()).sum();
        let _ = writeln!(
            out,
            "  u{u}: {} candidates | TE {te} | NTE entries {nte}",
            ceci.candidates(u).len(),
        );
    }
    let _ = writeln!(out, "cluster cardinality distribution:");
    let summary = cluster_skew(ceci);
    let _ = writeln!(
        out,
        "  clusters {} | total cardinality {} | max {} | p50 {} | skew(max/mean) {:.1}",
        summary.clusters, summary.total, summary.max, summary.median, summary.skew
    );
    out
}

/// Summary of the cluster-size distribution — the quantity that decides
/// whether ExtremeCluster decomposition matters (§4.3).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClusterSkew {
    /// Number of clusters.
    pub clusters: usize,
    /// Σ cardinalities.
    pub total: u64,
    /// Largest cluster cardinality.
    pub max: u64,
    /// Median cluster cardinality.
    pub median: u64,
    /// `max / mean` (1.0 for perfectly uniform clusters; 0 if empty).
    pub skew: f64,
}

/// Computes the cluster-size skew summary.
pub fn cluster_skew(ceci: &Ceci) -> ClusterSkew {
    let mut cards: Vec<u64> = ceci.pivots().iter().map(|&(_, c)| c).collect();
    cards.sort_unstable();
    let clusters = cards.len();
    let total: u64 = cards.iter().sum();
    let max = cards.last().copied().unwrap_or(0);
    let median = if clusters == 0 {
        0
    } else {
        cards[clusters / 2]
    };
    let mean = if clusters == 0 {
        0.0
    } else {
        total as f64 / clusters as f64
    };
    let skew = if mean > 0.0 { max as f64 / mean } else { 0.0 };
    ClusterSkew {
        clusters,
        total,
        max,
        median,
        skew,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::paper;

    fn setup() -> (ceci_graph::Graph, QueryPlan, Ceci) {
        let (graph, plan) = paper::figure1();
        let ceci = Ceci::build(&graph, &plan);
        (graph, plan, ceci)
    }

    #[test]
    fn plan_report_mentions_key_facts() {
        let (graph, plan, ceci) = setup();
        let report = explain_plan(&plan, &ceci, &graph, EnumOptions::default());
        assert!(report.contains("root: u0"));
        assert!(report.contains("per-node preprocessing:\n"));
        assert!(report.contains("5 vertices, 6 edges (4 tree + 2 non-tree)"));
        assert!(report.contains("complete — each embedding listed once"));
        // u3 (paper u4) has an NTE from u2 (paper u3).
        assert!(report.contains("NTE from [u2]"), "report:\n{report}");
        // Distinct labels throughout: no automorphism, nothing to window.
        assert!(report.contains("window lo<-{} hi<-{}"), "report:\n{report}");
        assert!(report.contains("leaf=TALLY"), "report:\n{report}");
    }

    #[test]
    fn plan_report_names_window_partners_and_leaf_mode() {
        use ceci_query::PaperQuery;
        let graph = ceci_graph::generators::erdos_renyi(30, 120, 3);
        // Triangle: every later vertex is bounded below by the earlier ones.
        let triangle = QueryPlan::new(PaperQuery::Qg1.build(), &graph);
        let ceci = Ceci::build(&graph, &triangle);
        let report = explain_plan(&triangle, &ceci, &graph, EnumOptions::default());
        assert_eq!(
            triangle.matching_order(),
            [VertexId(0), VertexId(1), VertexId(2)]
        );
        assert!(report.contains("u1: parent  u0 | NTE from [] | window lo<-{u0} hi<-{}"));
        assert!(report.contains("| NTE from [u1] | window lo<-{u0,u1} hi<-{}"));
        assert!(report.contains("leaf=TALLY"), "report:\n{report}");
        // 2-leaf star: the leaves are twins, tied by symmetry alone.
        let star = QueryPlan::new(ceci_query::catalog::star(2), &graph);
        let ceci = Ceci::build(&graph, &star);
        let pruning = EnumOptions {
            prune_redundant: true,
            ..EnumOptions::default()
        };
        let report = explain_plan(&star, &ceci, &graph, pruning);
        assert!(report.contains("leaf=TWINS(2)"), "report:\n{report}");
        let verify = EnumOptions {
            verify: crate::enumerate::VerifyMode::EdgeVerification,
            ..pruning
        };
        assert!(explain_plan(&star, &ceci, &graph, verify).contains("leaf=EMIT"));
    }

    #[test]
    fn plan_report_names_the_clean_cut() {
        use ceci_graph::lid;
        let graph = ceci_graph::generators::inject_random_labels(
            &ceci_graph::generators::erdos_renyi(30, 120, 3),
            4,
            3,
        );
        let labels = [lid(0), lid(1), lid(2), lid(3)];
        let query =
            ceci_query::QueryGraph::with_labels(&labels, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let options = ceci_query::PlanOptions {
            root_override: Some(VertexId(0)),
            ..Default::default()
        };
        let path = QueryPlan::with_options(query, &graph, &options);
        let ceci = Ceci::build(&graph, &path);
        let pruning = EnumOptions {
            prune_redundant: true,
            ..EnumOptions::default()
        };
        // A–B–C–D from the A end: the suffix after u1 reads u1 alone, and
        // u0's label is no suffix vertex's.
        let report = explain_plan(&path, &ceci, &graph, pruning);
        assert!(
            report.contains("leaf=TALLY cut depth=2 key=[u1] for a count-only run"),
            "report:\n{report}"
        );
        // The paper's options memoise nothing.
        let report = explain_plan(&path, &ceci, &graph, EnumOptions::default());
        assert!(report.contains("leaf=TALLY cut none"), "report:\n{report}");
        // The triangle's last vertex reads its whole prefix: no cut.
        let triangle = QueryPlan::new(ceci_query::PaperQuery::Qg1.build(), &graph);
        let ceci = Ceci::build(&graph, &triangle);
        let report = explain_plan(&triangle, &ceci, &graph, pruning);
        assert!(report.contains("leaf=TALLY cut none"), "report:\n{report}");
    }

    #[test]
    fn index_report_mentions_sizes() {
        let (_, plan, ceci) = setup();
        let report = explain_index(&ceci, &plan);
        assert!(report.contains("pivots: 1 of 2"));
        assert!(report.contains("entries: TE 10 -> 8 | NTE 6 -> 5"));
        assert!(report.contains("cluster cardinality distribution"));
    }

    #[test]
    fn skew_summary_on_figure5() {
        use crate::fixtures::figure5;
        let (graph, plan) = figure5::setup();
        let ceci = Ceci::build(&graph, &plan);
        let s = cluster_skew(&ceci);
        assert_eq!(s.clusters, 2);
        assert_eq!(s.total, 10);
        assert_eq!(s.max, 9);
        // mean 5 → skew 1.8
        assert!((s.skew - 1.8).abs() < 1e-9);
    }

    #[test]
    fn skew_empty_index() {
        let graph = ceci_graph::Graph::unlabeled(2, &[]);
        let q = ceci_query::QueryGraph::unlabeled(2, &[(0, 1)]).unwrap();
        let plan = QueryPlan::new(q, &graph);
        let ceci = Ceci::build(&graph, &plan);
        let s = cluster_skew(&ceci);
        assert_eq!(s.clusters, 0);
        assert_eq!(s.skew, 0.0);
    }

    #[test]
    fn served_report_names_the_plan_and_exec() {
        use crate::adaptive::served_cost;
        use ceci_query::PlanOptions;
        let (graph, plan) = paper::figure1();
        let plan = QueryPlan::new(plan.query().clone(), &graph);
        let ceci = Ceci::build(&graph, &plan);
        let cost = served_cost(&graph, &plan, &ceci);
        let report = explain_served(&plan, &cost, Strategy::Static, 1);
        let order: Vec<String> = plan
            .matching_order()
            .iter()
            .map(|u| format!("u{u}"))
            .collect();
        // One row names the order the miss was served; the exec row carries
        // the walked numbers it was handed.
        let row = format!(
            "plan: strategy={:?} root=u{} order=[{}]",
            PlanOptions::default().order,
            plan.root(),
            order.join(", "),
        );
        assert_eq!(report.lines().next(), Some(row.as_str()), "{report}");
        assert!(
            report.contains(&format!(
                "exec: strategy=ST workers=1 est_count={:.1}",
                cost.estimate.mean
            )),
            "{report}"
        );
        assert_eq!(report.lines().count(), 2, "{report}");
    }

    #[test]
    fn estimate_report_compares_depths() {
        let (graph, plan, ceci) = setup();
        let report = estimate_rows(&graph, &plan, &ceci, EnumOptions::default());
        assert_eq!(
            report.lines().count(),
            plan.matching_order().len(),
            "{report}"
        );
        assert!(report.contains("estimate depth=0"), "{report}");
        assert!(report.contains("qerr="), "{report}");
    }

    #[test]
    fn estimate_report_leaves_closed_form_depths_unobserved() {
        use ceci_graph::vid;
        // A 3-leaf star from its hub over a 7-leaf fan: its leaves are a
        // chained twin tail, C(7, 3) = 35 embeddings answered in closed form.
        let edges: Vec<_> = (1..=7).map(|leaf| (vid(0), vid(leaf))).collect();
        let graph = Graph::unlabeled(8, &edges);
        let plan_options = ceci_query::PlanOptions {
            root_override: Some(vid(0)),
            ..Default::default()
        };
        let plan = QueryPlan::with_options(ceci_query::catalog::star(3), &graph, &plan_options);
        let ceci = Ceci::build(&graph, &plan);
        let options = EnumOptions {
            prune_redundant: true,
            ..EnumOptions::default()
        };
        let leaf = LeafMode::of(&plan, &ceci, options);
        assert!(matches!(leaf, LeafMode::Twins(_)), "{leaf}");
        let report = estimate_rows(&graph, &plan, &ceci, options);
        let rows: Vec<&str> = report.lines().collect();
        let (last, above) = rows.split_last().expect("one row per depth");
        for row in above {
            assert!(!row.contains("actual=0 "), "a false zero: {row}\n{report}");
        }
        // The first and second twins' rows are the closed-form ones.
        assert_eq!(
            report.matches("actual=- qerr=- (closed form)").count(),
            2,
            "{report}"
        );
        assert!(last.contains("actual=35 "), "{report}");
    }

    /// The estimate rows of one profiled single-worker count of `plan`
    /// under `options`.
    fn estimate_rows(graph: &Graph, plan: &QueryPlan, ceci: &Ceci, options: EnumOptions) -> String {
        use crate::estimate::{estimate_cost, EstimateOptions};
        use crate::sink::CountSink;
        let cost = estimate_cost(graph, plan, ceci, &EstimateOptions::default());
        let mut enumerator = crate::enumerate::Enumerator::new(graph, plan, ceci, options);
        enumerator.enable_profile();
        let mut counters = Counters::default();
        let mut sink = CountSink::unbounded();
        for &(pivot, _) in ceci.pivots() {
            enumerator.enumerate_cluster(pivot, &mut sink, &mut counters);
        }
        let profile = enumerator.take_profile().unwrap();
        explain_estimates(plan, ceci, options, &cost, &profile, &counters)
    }

    #[test]
    fn estimate_rows_read_the_same_actuals_whatever_the_leaf_mode() {
        use ceci_graph::generators::{erdos_renyi, inject_random_labels};
        use ceci_graph::{lid, vid};
        use ceci_query::{catalog, PlanOptions, QueryGraph};
        let from = |root: u32| PlanOptions {
            root_override: Some(vid(root)),
            ..Default::default()
        };
        let unlabeled = erdos_renyi(40, 160, 11);
        let labeled = inject_random_labels(&erdos_renyi(60, 300, 5), 4, 9);
        let labels = [lid(0), lid(1), lid(2), lid(3)];
        let path = QueryGraph::with_labels(&labels, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        // Two leaves leave no clean cut; three memoise at the hub.
        let fork = QueryGraph::with_labels(&labels[..3], &[(0, 1), (0, 2)]).unwrap();
        let star = QueryGraph::with_labels(&labels, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let cases = [
            ("TALLY", &labeled, path, from(0)),
            (
                "TALLY",
                &unlabeled,
                ceci_query::PaperQuery::Qg1.build(),
                PlanOptions::default(),
            ),
            ("REUSE", &labeled, fork, from(0)),
            ("REUSE", &labeled, star, from(0)),
            ("REUSE_ORDERED", &unlabeled, catalog::path(4), from(2)),
        ];
        let pruning = EnumOptions {
            prune_redundant: true,
            ..EnumOptions::default()
        };
        for (mode, graph, query, plan_options) in cases {
            let plan = QueryPlan::with_options(query, graph, &plan_options);
            let ceci = Ceci::build(graph, &plan);
            assert_eq!(LeafMode::of(&plan, &ceci, pruning).to_string(), mode);
            let pruned = estimate_rows(graph, &plan, &ceci, pruning);
            let walked = estimate_rows(graph, &plan, &ceci, EnumOptions::default());
            let actual = |row: &str| {
                row.split(" actual=")
                    .nth(1)
                    .unwrap()
                    .split(' ')
                    .next()
                    .unwrap()
                    .to_string()
            };
            assert_eq!(pruned.lines().count(), walked.lines().count());
            for (row, reference) in pruned.lines().zip(walked.lines()) {
                if row.ends_with("(closed form)") || row.ends_with("(memoised)") {
                    continue;
                }
                assert_eq!(
                    actual(row),
                    actual(reference),
                    "{mode}: {row}\n{pruned}\n{walked}"
                );
            }
            let last = walked.lines().last().unwrap();
            assert_ne!(
                actual(last),
                "0",
                "{mode}: an empty run proves nothing\n{walked}"
            );
        }
    }

    #[test]
    fn filter_effectiveness_monotone() {
        let (_, plan, ceci) = setup();
        for u in plan.query().vertices() {
            let (initial, final_) = (plan.initial_candidates(u).len(), ceci.candidates(u).len());
            assert!(final_ <= initial, "u{u}: {final_} > {initial}");
        }
    }
}
