//! Fault-injection sweep: exactly-once recovery under crashes, stragglers,
//! and steal-message loss.
//!
//! The distributed simulator replays a seeded [`FaultPlan`] against the
//! fault-free baseline and checks the headline robustness claim on every
//! scenario: **the committed embedding count is bit-identical to the
//! fault-free run** — crashes trigger pivot re-scatter under bumped
//! ownership epochs, stragglers trigger speculative re-execution, and the
//! first-commit-wins result board deduplicates everything else.
//!
//! What varies is *cost*, not *answers*: the table reports lost and
//! re-executed clusters, board-rejected (deduplicated) commits, lost steal
//! messages, and the makespan inflation each fault schedule causes.
//! Results land in `bench_results/faults.json`.

use std::time::Duration;

use ceci_distributed::{
    run_distributed, run_distributed_with_faults, workload_estimate, ClusterConfig,
    DistributedResult, FaultPlan, StorageMode,
};
use ceci_query::{PaperQuery, PlanOptions, QueryPlan};

use crate::datasets::{Dataset, Scale};
use crate::json::JsonValue;
use crate::table::Table;

/// One named fault schedule, built from the run's measured virtual extent.
struct Scenario {
    name: &'static str,
    plan: Option<FaultPlan>,
}

/// Mean per-machine virtual extent of the whole run under `plan`'s
/// exchange rate: Σ workload estimates × unit cost / machines. Crash
/// points are placed at fractions of this, so "crash at 25%" means the
/// same thing on every dataset and scale.
fn mean_virtual_extent(
    graph: &ceci_graph::Graph,
    plan: &QueryPlan,
    config: &ClusterConfig,
    unit_cost: Duration,
) -> Duration {
    let total: f64 = plan
        .initial_candidates(plan.root())
        .iter()
        .map(|&v| workload_estimate(graph, v, config))
        .sum();
    let nanos = total * unit_cost.as_nanos() as f64 / config.machines.max(1) as f64;
    Duration::from_nanos(nanos.max(1.0) as u64)
}

fn scenarios(extent: Duration, unit_cost: Duration) -> Vec<Scenario> {
    let at = |f: f64| Duration::from_nanos((extent.as_nanos() as f64 * f) as u64);
    vec![
        Scenario {
            name: "fault-free",
            plan: None,
        },
        Scenario {
            name: "crash m1 @25%",
            plan: Some(
                FaultPlan::new(11)
                    .with_unit_cost(unit_cost)
                    .crash(1, at(0.25)),
            ),
        },
        Scenario {
            name: "crash m1 @50%",
            plan: Some(
                FaultPlan::new(12)
                    .with_unit_cost(unit_cost)
                    .crash(1, at(0.50)),
            ),
        },
        Scenario {
            name: "crash m1+m2",
            plan: Some(
                FaultPlan::new(13)
                    .with_unit_cost(unit_cost)
                    .crash(1, at(0.25))
                    .crash(2, at(0.60)),
            ),
        },
        Scenario {
            name: "straggler x4",
            plan: Some(
                FaultPlan::new(14)
                    .with_unit_cost(unit_cost)
                    .straggler(0, 4.0),
            ),
        },
        Scenario {
            name: "straggler x16",
            plan: Some(
                FaultPlan::new(15)
                    .with_unit_cost(unit_cost)
                    .straggler(0, 16.0),
            ),
        },
        Scenario {
            name: "steal loss 20%",
            plan: Some(
                FaultPlan::new(16)
                    .with_unit_cost(unit_cost)
                    .with_steal_loss(0.2),
            ),
        },
        Scenario {
            name: "kitchen sink",
            plan: Some(
                FaultPlan::new(17)
                    .with_unit_cost(unit_cost)
                    .crash(1, at(0.30))
                    .straggler(0, 8.0)
                    .with_steal_loss(0.2),
            ),
        },
    ]
}

fn run_one(
    graph: &ceci_graph::Graph,
    plan: &QueryPlan,
    config: &ClusterConfig,
    scenario: &Scenario,
) -> DistributedResult {
    run_distributed_with_faults(graph, plan, config, scenario.plan.as_ref()).expect(scenario.name)
}

/// Runs the sweep and writes `bench_results/faults.json`.
pub fn run(scale: Scale) {
    println!(
        "Fault injection: exactly-once recovery under crashes, stragglers, and steal \
         loss, scale {scale:?}\n"
    );
    let machines = 4;
    let unit_cost = Duration::from_micros(1);
    let mut rows = Vec::new();
    let mut scenarios_checked = 0u64;

    for d in [Dataset::Wt, Dataset::Lj] {
        let graph = d.build(scale);
        for q in [PaperQuery::Qg1, PaperQuery::Qg3] {
            let plan = QueryPlan::with_options(q.build(), &graph, &PlanOptions::paper());
            for storage in [StorageMode::Replicated, StorageMode::Shared] {
                let config = ClusterConfig {
                    machines,
                    storage,
                    jaccard_colocation: false,
                    ..Default::default()
                };
                let extent = mean_virtual_extent(&graph, &plan, &config, unit_cost);
                let baseline = run_distributed(&graph, &plan, &config);

                let mut t = Table::new(vec![
                    "scenario",
                    "embeddings",
                    "crashed",
                    "lost",
                    "re-exec",
                    "dedup",
                    "steals lost",
                    "inflation",
                ]);
                for s in scenarios(extent, unit_cost) {
                    let result = run_one(&graph, &plan, &config, &s);
                    assert_eq!(
                        result.total_embeddings,
                        baseline.total_embeddings,
                        "{} / {} / {storage:?} / {}: fault run diverged from baseline",
                        d.abbrev(),
                        q.name(),
                        s.name
                    );
                    // Replay determinism: the simulator's schedule is a
                    // function of the plan and the configuration alone, so
                    // a replay reproduces the whole recovery ledger — what
                    // was lost, re-executed, deduplicated and re-scattered
                    // — not just the answer.
                    let replay = run_one(&graph, &plan, &config, &s);
                    assert_eq!(
                        (replay.total_embeddings, replay.recovery),
                        (result.total_embeddings, result.recovery),
                        "{}: replay diverged",
                        s.name
                    );
                    scenarios_checked += 1;
                    let r = &result.recovery;
                    let inflation = result.makespan_inflation();
                    t.row(vec![
                        s.name.to_string(),
                        result.total_embeddings.to_string(),
                        r.crashed_machines.to_string(),
                        r.lost_clusters.to_string(),
                        r.reexecuted_clusters.to_string(),
                        r.commits_rejected.to_string(),
                        r.steals_lost.to_string(),
                        format!("{inflation:.2}x"),
                    ]);
                    rows.push(
                        JsonValue::object()
                            .field("dataset", d.abbrev())
                            .field("query", q.name())
                            .field("storage", format!("{storage:?}").as_str())
                            .field("scenario", s.name)
                            .field("machines", machines as u64)
                            .field("embeddings", result.total_embeddings)
                            .field("matches_baseline", true)
                            .field("replay_identical", true)
                            .field("crashed_machines", r.crashed_machines as u64)
                            .field("lost_clusters", r.lost_clusters as u64)
                            .field("reexecuted_clusters", r.reexecuted_clusters as u64)
                            .field("commits_rejected", r.commits_rejected as u64)
                            .field("steals_lost", r.steals_lost as u64)
                            .field(
                                "recovery_comm_virtual_ms",
                                r.recovery_comm_virtual.as_secs_f64() * 1e3,
                            )
                            .field(
                                "straggle_virtual_ms",
                                r.straggle_virtual.as_secs_f64() * 1e3,
                            )
                            .field("makespan_ms", result.makespan.as_secs_f64() * 1e3)
                            .field("makespan_inflation", inflation),
                    );
                }
                println!("{} / {} / {storage:?}:", d.abbrev(), q.name());
                t.print();
                println!();
            }
        }
    }

    println!(
        "(all {scenarios_checked} fault scenarios committed counts bit-identical to their \
         fault-free baselines, and every replay reproduced the same recovery ledger — \
         failures change the cost columns, never the answer)"
    );

    let json = JsonValue::object()
        .field("machines", machines as u64)
        .field("scenarios_checked", scenarios_checked)
        .field("all_counts_match_baseline", true)
        .field("replay_identical", true)
        .field("runs", JsonValue::Array(rows));
    crate::harness::persist("faults", &json);
}
