//! The distributed execution simulation (§5): a single-threaded,
//! deterministic discrete-event scheduler driving the recovery protocol of
//! [`crate::recovery`].
//!
//! A simulated machine is an executor of the [`Recovery`] state machine; its
//! `threads_per_machine` workers are **lanes** of the scheduler, not OS
//! threads. The run queue holds one entry per lane, ordered by
//! `(lane virtual time, machine, thread)`; the scheduler pops the earliest,
//! lets that lane finish what it was running (commit, or crash) and start
//! what the protocol hands it next, and pushes it back at the virtual time
//! that work ends. Nothing else decides the order of events, so the same
//! `(FaultPlan, ClusterConfig)` replays the same steals, crashes, commits
//! and trace on any host.
//!
//! Every cluster is still *really* enumerated — at the moment its lane
//! starts it — and its measured CPU time feeds
//! [`MachineReport::enumerate_busy`] and the *modeled makespan*
//! `max_m (compute_m + virtual io_m + virtual comm_m)` of Figures 16, 17
//! and 20. Measured time never moves a lane's clock. That advances by
//! replayable quantities only: [`FaultPlan::virtual_work_nanos`] over the
//! pivot's [`workload_estimate`] (times the machine's straggler slowdown)
//! plus the [`CostModel`](crate::config::CostModel) charges that lane pays
//! — the scatter message and shared-storage reads before its first
//! cluster, the candidate fetch of a stolen one, and one message latency
//! per steal request the plan's seeded draws lose.
//!
//! Protocol, as in the paper:
//!
//! 1. Pivots are distributed by light-weight workload estimates (see
//!    [`crate::partition`]); each machine builds its own CECI over its
//!    pivots.
//! 2. Machines enumerate their clusters; the per-machine unexplored-cluster
//!    queues are globally visible.
//! 3. An idle machine steals half the queue of the machine with the most
//!    unexplored clusters (the `MPI_Get` emulation), builds a mini-CECI for
//!    each stolen pivot, and continues.
//! 4. Results accumulate to machine 0 (one message per machine).
//!
//! ## Faults
//!
//! A machine **crashes** on the completion that carries its cumulative
//! virtual work across the plan's crash point: that cluster is lost, the
//! machine is declared dead to the protocol (which bumps the epoch of
//! everything uncommitted it owned and re-scatters it to the survivors),
//! and whatever its other lanes were running completes later into nothing
//! — the cancelled in-flight siblings. A **straggler**'s lanes advance
//! `slowdown`× slower; once it is at or above [`STRAGGLER_THRESHOLD`] idle
//! machines speculatively re-execute what it has in flight. A **lost
//! steal** delays the thief. Per-pivot counts do not depend on where a
//! cluster runs, so `Σ committed counts` is bit-identical under any plan.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use ceci_core::metrics::{Counters, ThreadTimer};
use ceci_core::sink::CountSink;
use ceci_core::{BuildOptions, Ceci, EnumOptions, Enumerator};
use ceci_graph::{Graph, VertexId};
use ceci_query::QueryPlan;
use ceci_trace::{SpanRecord, Tracer};

use crate::config::{ClusterConfig, StorageMode};
use crate::fault::{FaultPlan, FaultPlanError};
use crate::partition::{distribute_pivots, workload_estimate};
use crate::recovery::{Recovery, Work, WorkKind};

/// Virtual slowdown factor at which a machine counts as a straggler and
/// what it has in flight becomes a speculation target.
pub const STRAGGLER_THRESHOLD: f64 = 4.0;

/// A thief gives up re-sending a steal request after this many losses in a
/// row; the next one goes through.
const MAX_LOST_STEALS: u32 = 16;

/// Per-machine outcome.
#[derive(Clone, Debug, Default)]
pub struct MachineReport {
    /// Machine index.
    pub machine: usize,
    /// Pivots originally assigned.
    pub assigned_pivots: usize,
    /// Clusters this machine actually enumerated (own + stolen).
    pub processed_clusters: usize,
    /// Clusters obtained by stealing.
    pub stolen_clusters: usize,
    /// Embeddings this machine *committed* to the result board (first
    /// commit wins; equals the enumerated total in fault-free runs).
    pub embeddings: u64,
    /// Merged enumeration counters.
    pub counters: Counters,
    /// Real CPU time of local CECI construction.
    pub build_compute: Duration,
    /// Real busy time of enumeration, summed over the machine's threads.
    pub enumerate_busy: Duration,
    /// Virtual IO time (shared-storage adjacency reads).
    pub io_virtual: Duration,
    /// Virtual communication time (pivot messages, steals, result gather,
    /// recovery re-scatter).
    pub comm_virtual: Duration,
    /// True when the fault plan killed this machine mid-run.
    pub crashed: bool,
    /// Executions whose results were discarded: the cluster crossing the
    /// crash point, in-flight enumerations cancelled by the crash, and
    /// completions landing after it.
    pub lost_clusters: usize,
    /// Clusters this machine committed under a recovery epoch (re-scattered
    /// from a dead machine) or via speculative re-execution.
    pub reexecuted_clusters: usize,
    /// Commits rejected by the board (stale epoch or already committed) —
    /// work that was correctly deduplicated rather than double-counted.
    pub commits_rejected: usize,
    /// Steal requests lost on the wire (each charged one message latency).
    pub steals_lost: usize,
    /// Extra virtual time accumulated through straggler slowdown.
    pub straggle_virtual: Duration,
    /// Virtual communication spent *receiving* recovery re-scatter batches
    /// (also included in `comm_virtual`).
    pub recovery_comm_virtual: Duration,
}

impl MachineReport {
    /// Modeled completion time of this machine: real compute plus virtual
    /// IO, communication, and straggler slowdown, with enumeration spread
    /// over its threads.
    pub fn modeled_time(&self, threads_per_machine: usize) -> Duration {
        let threads = threads_per_machine.max(1) as u32;
        self.build_compute
            + self.enumerate_busy / threads
            + self.io_virtual
            + self.comm_virtual
            + self.straggle_virtual
    }
}

/// Aggregate recovery accounting for one distributed run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Machines the fault plan killed.
    pub crashed_machines: usize,
    /// Discarded executions across machines (see
    /// [`MachineReport::lost_clusters`]).
    pub lost_clusters: usize,
    /// Recovery/speculative re-executions that committed.
    pub reexecuted_clusters: usize,
    /// Board-rejected commits (deduplicated work).
    pub commits_rejected: usize,
    /// Steal messages lost on the wire.
    pub steals_lost: usize,
    /// Virtual communication spent on recovery re-scatter.
    pub recovery_comm_virtual: Duration,
    /// Virtual time lost to straggler slowdown.
    pub straggle_virtual: Duration,
}

/// Aggregate result of a distributed run.
#[derive(Debug)]
pub struct DistributedResult {
    /// Per-machine reports.
    pub reports: Vec<MachineReport>,
    /// Total embeddings across machines.
    pub total_embeddings: u64,
    /// Modeled makespan (max machine modeled time).
    pub makespan: Duration,
    /// Real wall time of the simulation.
    pub wall: Duration,
    /// Pivot groups merged by Jaccard co-location.
    pub merged_groups: usize,
    /// Worker threads per machine the run was configured with.
    pub threads_per_machine: usize,
    /// Recovery accounting (all zeros in fault-free runs).
    pub recovery: RecoveryStats,
}

impl DistributedResult {
    /// CECI-construction breakdown (Fig 20): total (io, comm, compute)
    /// across machines.
    pub fn build_breakdown(&self) -> (Duration, Duration, Duration) {
        let io = self.reports.iter().map(|r| r.io_virtual).sum();
        let comm = self.reports.iter().map(|r| r.comm_virtual).sum();
        let compute = self.reports.iter().map(|r| r.build_compute).sum();
        (io, comm, compute)
    }

    /// Makespan inflation caused by faults: the ratio of the modeled
    /// makespan to the makespan with straggle and recovery-communication
    /// overheads stripped out. `1.0` means faults cost nothing (or the run
    /// was fault-free).
    pub fn makespan_inflation(&self) -> f64 {
        let base = self
            .reports
            .iter()
            .map(|r| {
                r.modeled_time(self.threads_per_machine)
                    .saturating_sub(r.straggle_virtual)
                    .saturating_sub(r.recovery_comm_virtual)
            })
            .max()
            .unwrap_or(Duration::ZERO);
        if base.is_zero() {
            return 1.0;
        }
        self.makespan.as_secs_f64() / base.as_secs_f64()
    }
}

/// Estimated adjacency entries read while building a CECI: for every table
/// key (an expanded frontier vertex), its full neighbor list was scanned.
fn adjacency_entries_touched(graph: &Graph, plan: &QueryPlan, ceci: &Ceci) -> u64 {
    let tables = plan.query().vertices().flat_map(|u| {
        let nte = ceci.nte(u).iter().map(|(_, table)| table);
        ceci.te(u).into_iter().chain(nte)
    });
    tables
        .flat_map(|table| table.keys())
        .map(|&k| graph.degree(k) as u64)
        .sum()
}

/// Runs the distributed simulation fault-free: counts all embeddings.
pub fn run_distributed(
    graph: &Graph,
    plan: &QueryPlan,
    config: &ClusterConfig,
) -> DistributedResult {
    simulate(graph, plan, config, &FaultPlan::new(0), None)
}

/// Runs the distributed simulation under an optional [`FaultPlan`].
///
/// With `faults: None` (or a no-op plan) behaves exactly like
/// [`run_distributed`]. With faults, injected crashes trigger pivot
/// re-scatter with ownership-epoch bumps, stragglers trigger speculative
/// re-execution, and the total embedding count is guaranteed bit-identical
/// to the fault-free run. A plan that fails [`FaultPlan::validate`] (e.g.
/// it crashes every machine, leaving no survivor to recover onto) is
/// refused before anything runs.
pub fn run_distributed_with_faults(
    graph: &Graph,
    plan: &QueryPlan,
    config: &ClusterConfig,
    faults: Option<&FaultPlan>,
) -> Result<DistributedResult, FaultPlanError> {
    run_distributed_traced(graph, plan, config, faults, None)
}

/// [`run_distributed_with_faults`] with an optional [`Tracer`] that records
/// a per-machine timeline: `distributed.machine{m}` summary spans plus
/// scatter / steal / commit / crash / re-scatter instant events, all
/// timestamped on the scheduler's **virtual clock**, in the order the
/// scheduler processed them. Tracing never changes counts, fault behavior,
/// or recovery accounting, and a replay records the same timeline (only the
/// `distributed.build` child's duration is a measured one).
pub fn run_distributed_traced(
    graph: &Graph,
    plan: &QueryPlan,
    config: &ClusterConfig,
    faults: Option<&FaultPlan>,
    tracer: Option<&Tracer>,
) -> Result<DistributedResult, FaultPlanError> {
    let fault_free = FaultPlan::new(0);
    let faults = faults.unwrap_or(&fault_free);
    faults.validate(config.machines)?;
    Ok(simulate(graph, plan, config, faults, tracer))
}

/// What a lane is running: handed out at its start event, really enumerated
/// there, committed (or lost) at its completion event.
struct Running {
    work: Work,
    count: u64,
    /// Virtual work of the cluster, added to the machine's crash clock when
    /// it completes.
    nanos: u64,
}

/// One simulated machine: its report, accumulated in place, and the clocks
/// the fault plan reads.
struct Machine {
    report: MachineReport,
    /// Cumulative virtual work of the clusters its lanes completed — the
    /// clock crash points are pinned to.
    progress: u64,
    steal_attempts: u64,
    /// Virtual time of its latest completion.
    end: u64,
    /// Id of its `distributed.machine` summary span, reserved up front so
    /// events can parent onto it.
    span: u64,
}

/// Counts the cluster of `pivot` over `ceci` (0 when refinement pruned the
/// pivot: it has no embedding).
fn count_cluster(
    enumerator: &mut Enumerator<'_>,
    ceci: &Ceci,
    pivot: VertexId,
    counters: &mut Counters,
) -> u64 {
    let kept = ceci.pivots().binary_search_by_key(&pivot, |&(p, _)| p);
    if kept.is_err() {
        return 0;
    }
    let mut sink = CountSink::unbounded();
    enumerator.enumerate_cluster(pivot, &mut sink, counters);
    sink.count()
}

/// Counts the cluster of `pivot` over a mini-CECI built for that pivot
/// alone — how a cluster runs anywhere but on the machine whose index holds
/// it (a thief, a re-scatter target, a speculator). Returns the count and
/// the index it was counted over.
pub fn count_pivot_cluster(
    graph: &Graph,
    plan: &QueryPlan,
    pivot: VertexId,
    counters: &mut Counters,
) -> (u64, Ceci) {
    let mini = Ceci::build_for_pivots(graph, plan, BuildOptions::default(), vec![pivot]);
    let mut enumerator = Enumerator::new(graph, plan, &mini, EnumOptions::default());
    let count = count_cluster(&mut enumerator, &mini, pivot, counters);
    (count, mini)
}

fn simulate(
    graph: &Graph,
    plan: &QueryPlan,
    config: &ClusterConfig,
    faults: &FaultPlan,
    tracer: Option<&Tracer>,
) -> DistributedResult {
    assert!(config.machines >= 1 && config.threads_per_machine >= 1);
    let wall_start = Instant::now();
    let pivots = plan.initial_candidates(plan.root()).to_vec();
    let partition = distribute_pivots(graph, &pivots, config);
    let (costs, threads) = (config.costs, config.threads_per_machine);
    let mut core = Recovery::new(&partition.assignment, config.work_stealing);
    let may_speculate_on = |m: usize| faults.slowdown_for(m) >= STRAGGLER_THRESHOLD;
    // Records one `distributed.*` span (an instant when `dur_ns` is 0) on
    // `machine`'s lane of the virtual-time axis; `id` 0 draws a fresh one.
    let record = |id, parent, name, machine: usize, ts_ns, dur_ns, args: &[(&'static str, u64)]| {
        if let Some(t) = tracer {
            t.record(SpanRecord {
                id: if id == 0 { t.next_span_id() } else { id },
                parent,
                name,
                index: Some(machine as u32),
                cat: "distributed",
                ts_ns,
                dur_ns,
                tid: machine as u32,
                args: args.to_vec(),
            });
        }
    };

    // Scatter (one message per machine plus marginal cost per pivot), then
    // every machine builds its CECI over what it received.
    let mut cecis = Vec::with_capacity(config.machines);
    let mut machines = Vec::with_capacity(config.machines);
    for (m, own) in partition.assignment.iter().enumerate() {
        let args = [("pivots", own.len() as u64)];
        record(0, 0, "distributed.scatter", m, 0, 0, &args);
        let timer = ThreadTimer::start();
        let ceci = Ceci::build_for_pivots(graph, plan, BuildOptions::default(), own.clone());
        let mut report = MachineReport {
            machine: m,
            assigned_pivots: own.len(),
            build_compute: timer.elapsed(),
            comm_virtual: costs.msg_latency + costs.per_pivot_comm * own.len() as u32,
            ..Default::default()
        };
        if matches!(config.storage, StorageMode::Shared) {
            report.io_virtual =
                costs.per_entry_io * adjacency_entries_touched(graph, plan, &ceci) as u32;
        }
        machines.push(Machine {
            report,
            progress: 0,
            steal_attempts: 0,
            end: 0,
            span: tracer.map_or(0, |t| t.next_span_id()),
        });
        cecis.push(ceci);
    }
    let mut enumerators: Vec<Enumerator<'_>> = cecis
        .iter()
        .map(|ceci| Enumerator::new(graph, plan, ceci, EnumOptions::default()))
        .collect();

    // The run queue: one entry per lane that has something to do, earliest
    // virtual time first. A machine's lanes start once its scatter message
    // and shared-storage reads are paid.
    let mut queue = BinaryHeap::new();
    for (m, machine) in machines.iter().enumerate() {
        let start = (machine.report.comm_virtual + machine.report.io_virtual).as_nanos() as u64;
        queue.extend((0..threads).map(|t| Reverse((start, m, t))));
    }
    let mut running: Vec<Option<Running>> = Vec::new();
    running.resize_with(config.machines * threads, || None);
    // Lanes the protocol had nothing for; every completion re-queues them.
    let mut idle: Vec<(usize, usize)> = Vec::new();

    while let Some(Reverse((now, m, t))) = queue.pop() {
        if let Some(done) = running[m * threads + t].take() {
            let span = machines[m].span;
            machines[m].end = now;
            machines[m].progress += done.nanos;
            let crash = faults
                .crash_nanos_for(m)
                .filter(|&at| machines[m].progress >= at && !machines[m].report.crashed);
            if let Some(at) = crash {
                machines[m].report.crashed = true;
                let args = [("crash_at_ns", at)];
                record(0, span, "distributed.crash", m, now, 0, &args);
                for (target, batch) in core.declare_dead(m) {
                    let args = [("target", target as u64), ("pivots", batch.len() as u64)];
                    record(0, 0, "distributed.rescatter", m, now, 0, &args);
                    let charge = costs.msg_latency + costs.per_pivot_comm * batch.len() as u32;
                    machines[target].report.comm_virtual += charge;
                    machines[target].report.recovery_comm_virtual += charge;
                }
            }
            let report = &mut machines[m].report;
            if report.crashed {
                // The cluster that crossed the crash point, or a sibling
                // that was in flight when it did: its count is discarded.
                report.lost_clusters += 1;
            } else {
                let Work { pivot, epoch, kind } = done.work;
                let speculative = kind == WorkKind::Speculative;
                let accepted = core.commit(pivot, epoch, done.count);
                if !accepted {
                    report.commits_rejected += 1;
                } else {
                    report.embeddings += done.count;
                    if speculative || epoch > 0 {
                        report.reexecuted_clusters += 1;
                    }
                }
                let args = [
                    ("pivot", pivot.0 as u64),
                    ("count", done.count),
                    ("epoch", epoch as u64),
                    ("accepted", accepted as u64),
                    ("speculative", speculative as u64),
                ];
                record(0, span, "distributed.commit", m, now, 0, &args);
            }
            queue.extend(idle.drain(..).map(|(m, t)| Reverse((now, m, t))));
        }
        if machines[m].report.crashed {
            continue;
        }
        let Some(work) = core.next(m, may_speculate_on) else {
            // Only a fault makes work reappear: a crash re-scatters, a
            // straggler's next cluster is a speculation target.
            if !faults.is_noop() && core.remaining() > 0 {
                idle.push((m, t));
            }
            continue;
        };

        // Start event: pay what reaching the cluster costs, enumerate it for
        // real, and come back when its virtual work is done.
        let machine = &mut machines[m];
        let report = &mut machine.report;
        let (mut comm, mut io) = (Duration::ZERO, Duration::ZERO);
        if work.kind == WorkKind::Stolen {
            // The request that got through, after the ones the plan lost.
            let lost = (0..MAX_LOST_STEALS)
                .take_while(|&k| faults.steal_lost(m, machine.steal_attempts + k as u64))
                .count() as u32;
            machine.steal_attempts += lost as u64 + 1;
            report.steals_lost += lost as usize;
            comm += costs.msg_latency * lost;
            let args = [("pivot", work.pivot.0 as u64)];
            record(0, machine.span, "distributed.steal", m, now, 0, &args);
        }
        report.processed_clusters += 1;
        let mut counters = Counters::default();
        let timer = ThreadTimer::start();
        let count = if partition.assignment[m].binary_search(&work.pivot).is_ok() {
            count_cluster(&mut enumerators[m], &cecis[m], work.pivot, &mut counters)
        } else {
            // Not in the local CECI — stolen, parked here by an earlier
            // steal batch, re-scattered or speculated: build a mini index
            // for it and charge the candidate fetch.
            report.stolen_clusters += 1;
            let (count, mini) = count_pivot_cluster(graph, plan, work.pivot, &mut counters);
            comm += costs.msg_latency;
            match config.storage {
                StorageMode::Replicated => {
                    comm += costs.per_entry_comm * mini.num_entries() as u32;
                }
                StorageMode::Shared => {
                    io += costs.per_entry_io * adjacency_entries_touched(graph, plan, &mini) as u32;
                }
            }
            count
        };
        report.enumerate_busy += timer.elapsed();
        report.counters.merge(&counters);
        report.comm_virtual += comm;
        report.io_virtual += io;
        let estimate = workload_estimate(graph, work.pivot, config);
        let (nanos, straggle) = faults.virtual_work_nanos(m, estimate);
        report.straggle_virtual += Duration::from_nanos(straggle);
        running[m * threads + t] = Some(Running { work, count, nanos });
        queue.push(Reverse((now + (comm + io).as_nanos() as u64 + nanos, m, t)));
    }
    debug_assert_eq!(core.remaining(), 0, "a pivot cluster was never committed");

    // Result gather: one message per non-root machine, charged to machine 0.
    machines[0].report.comm_virtual += costs.msg_latency * (config.machines - 1) as u32;
    // Each machine's summary span runs from virtual t=0 to its last
    // completion, with a build child covering the (measured) local index
    // construction.
    for (
        m,
        Machine {
            report: r,
            end,
            span,
            ..
        },
    ) in machines.iter().enumerate()
    {
        let args = [
            ("processed", r.processed_clusters as u64),
            ("stolen", r.stolen_clusters as u64),
            ("committed", r.embeddings),
            ("crashed", r.crashed as u64),
            ("lost", r.lost_clusters as u64),
        ];
        record(*span, 0, "distributed.machine", m, 0, (*end).max(1), &args);
        let build_ns = (r.build_compute.as_nanos() as u64).max(1);
        let args = [("pivots", r.assigned_pivots as u64)];
        record(0, *span, "distributed.build", m, 0, build_ns, &args);
    }

    let reports: Vec<MachineReport> = machines.into_iter().map(|m| m.report).collect();
    let makespan = reports
        .iter()
        .map(|r| r.modeled_time(threads))
        .max()
        .unwrap_or(Duration::ZERO);
    let recovery = RecoveryStats {
        crashed_machines: reports.iter().filter(|r| r.crashed).count(),
        lost_clusters: reports.iter().map(|r| r.lost_clusters).sum(),
        reexecuted_clusters: reports.iter().map(|r| r.reexecuted_clusters).sum(),
        commits_rejected: reports.iter().map(|r| r.commits_rejected).sum(),
        steals_lost: reports.iter().map(|r| r.steals_lost).sum(),
        recovery_comm_virtual: reports.iter().map(|r| r.recovery_comm_virtual).sum(),
        straggle_virtual: reports.iter().map(|r| r.straggle_virtual).sum(),
    };
    DistributedResult {
        reports,
        total_embeddings: core.total(),
        makespan,
        wall: wall_start.elapsed(),
        merged_groups: partition.merged_groups,
        threads_per_machine: threads,
        recovery,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceci_core::count_embeddings;
    use ceci_graph::vid;
    use ceci_query::PaperQuery;

    fn test_graph() -> Graph {
        // Ring + hub: plenty of triangles spread over many clusters.
        let mut edges = Vec::new();
        let n = 40u32;
        for i in 1..=n {
            edges.push((vid(0), vid(i)));
        }
        for i in 1..n {
            edges.push((vid(i), vid(i + 1)));
        }
        edges.push((vid(n), vid(1)));
        Graph::unlabeled(n as usize + 1, &edges)
    }

    fn reference_count(graph: &Graph, plan: &QueryPlan) -> u64 {
        let ceci = Ceci::build(graph, plan);
        count_embeddings(graph, plan, &ceci)
    }

    #[test]
    fn distributed_count_matches_single_machine() {
        let graph = test_graph();
        let plan = QueryPlan::new(PaperQuery::Qg1.build(), &graph);
        let expected = reference_count(&graph, &plan);
        assert!(expected > 0);
        for machines in [1, 2, 4] {
            for storage in [StorageMode::Replicated, StorageMode::Shared] {
                let cfg = ClusterConfig {
                    machines,
                    threads_per_machine: 2,
                    storage,
                    ..Default::default()
                };
                let result = run_distributed(&graph, &plan, &cfg);
                assert_eq!(
                    result.total_embeddings, expected,
                    "machines={machines} storage={storage:?}"
                );
                assert_eq!(result.reports.len(), machines);
                assert_eq!(result.recovery, RecoveryStats::default());
            }
        }
    }

    #[test]
    fn shared_mode_charges_io() {
        let graph = test_graph();
        let plan = QueryPlan::new(PaperQuery::Qg1.build(), &graph);
        let rep = run_distributed(
            &graph,
            &plan,
            &ClusterConfig {
                machines: 2,
                storage: StorageMode::Replicated,
                ..Default::default()
            },
        );
        let shared = run_distributed(
            &graph,
            &plan,
            &ClusterConfig {
                machines: 2,
                storage: StorageMode::Shared,
                jaccard_colocation: false,
                ..Default::default()
            },
        );
        let (io_rep, _, _) = rep.build_breakdown();
        let (io_shared, _, _) = shared.build_breakdown();
        assert_eq!(io_rep, Duration::ZERO);
        assert!(io_shared > Duration::ZERO);
    }

    #[test]
    fn comm_always_charged() {
        let graph = test_graph();
        let plan = QueryPlan::new(PaperQuery::Qg1.build(), &graph);
        let result = run_distributed(&graph, &plan, &ClusterConfig::default());
        let (_, comm, compute) = result.build_breakdown();
        assert!(comm > Duration::ZERO);
        assert!(compute > Duration::ZERO);
        assert!(result.makespan > Duration::ZERO);
    }

    #[test]
    fn stealing_can_be_disabled() {
        let graph = test_graph();
        let plan = QueryPlan::new(PaperQuery::Qg1.build(), &graph);
        let expected = reference_count(&graph, &plan);
        let cfg = ClusterConfig {
            machines: 3,
            work_stealing: false,
            ..Default::default()
        };
        let result = run_distributed(&graph, &plan, &cfg);
        assert_eq!(result.total_embeddings, expected);
        assert!(result.reports.iter().all(|r| r.stolen_clusters == 0));
    }

    #[test]
    fn report_accounting_consistent() {
        let graph = test_graph();
        let plan = QueryPlan::new(PaperQuery::Qg3.build(), &graph);
        let result = run_distributed(
            &graph,
            &plan,
            &ClusterConfig {
                machines: 2,
                ..Default::default()
            },
        );
        let processed: usize = result.reports.iter().map(|r| r.processed_clusters).sum();
        let assigned: usize = result.reports.iter().map(|r| r.assigned_pivots).sum();
        assert_eq!(processed, assigned, "every cluster runs exactly once");
        let total: u64 = result.reports.iter().map(|r| r.embeddings).sum();
        assert_eq!(total, result.total_embeddings);
    }

    #[test]
    fn crash_recovery_preserves_counts() {
        let graph = test_graph();
        let plan = QueryPlan::new(PaperQuery::Qg1.build(), &graph);
        let expected = reference_count(&graph, &plan);
        let cfg = ClusterConfig {
            machines: 3,
            threads_per_machine: 2,
            ..Default::default()
        };
        // Machine 1 dies after its first completed cluster.
        let fp = FaultPlan::new(11).crash(1, Duration::ZERO);
        let result = run_distributed_with_faults(&graph, &plan, &cfg, Some(&fp))
            .expect("crash of machine 1 at zero");
        assert_eq!(result.total_embeddings, expected, "exactly-once recovery");
        assert_eq!(result.recovery.crashed_machines, 1);
        assert!(result.reports[1].crashed);
        assert!(result.recovery.lost_clusters >= 1);
        assert!(result.makespan_inflation() >= 1.0);
    }

    #[test]
    fn stragglers_and_steal_loss_preserve_counts() {
        let graph = test_graph();
        let plan = QueryPlan::new(PaperQuery::Qg3.build(), &graph);
        let expected = reference_count(&graph, &plan);
        let cfg = ClusterConfig {
            machines: 3,
            threads_per_machine: 2,
            ..Default::default()
        };
        let fp = FaultPlan::new(5).straggler(0, 8.0).with_steal_loss(0.4);
        let result = run_distributed_with_faults(&graph, &plan, &cfg, Some(&fp))
            .expect("straggler + steal loss");
        assert_eq!(result.total_embeddings, expected);
        assert!(result.reports[0].straggle_virtual > Duration::ZERO);
        assert!(result.recovery.straggle_virtual > Duration::ZERO);
    }

    #[test]
    fn all_machines_crashing_is_rejected() {
        let graph = test_graph();
        let plan = QueryPlan::new(PaperQuery::Qg1.build(), &graph);
        let cfg = ClusterConfig {
            machines: 2,
            ..Default::default()
        };
        let fp = FaultPlan::new(0)
            .crash(0, Duration::ZERO)
            .crash(1, Duration::ZERO);
        let refused = run_distributed_with_faults(&graph, &plan, &cfg, Some(&fp));
        assert_eq!(refused.err(), Some(FaultPlanError::NoSurvivor));
    }

    #[test]
    fn traced_run_records_machine_timeline_without_changing_totals() {
        let graph = test_graph();
        let plan = QueryPlan::new(PaperQuery::Qg1.build(), &graph);
        let expected = reference_count(&graph, &plan);
        let cfg = ClusterConfig {
            machines: 3,
            threads_per_machine: 2,
            ..Default::default()
        };
        let tracer = Tracer::new();
        let result =
            run_distributed_traced(&graph, &plan, &cfg, None, Some(&tracer)).expect("fault-free");
        assert_eq!(result.total_embeddings, expected);
        let spans = tracer.snapshot();
        assert!(!spans.is_empty());
        // One summary span per machine, each with a build child.
        let machines: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "distributed.machine")
            .collect();
        assert_eq!(machines.len(), cfg.machines);
        for m in &machines {
            assert!(
                spans
                    .iter()
                    .any(|s| s.name == "distributed.build" && s.parent == m.id),
                "machine span {} missing build child",
                m.id
            );
        }
        // Scatter instants cover every machine, and committed counts recorded
        // on accepted commit events sum to the run total.
        let scatters = spans
            .iter()
            .filter(|s| s.name == "distributed.scatter")
            .count();
        assert_eq!(scatters, cfg.machines);
        let committed: u64 = spans
            .iter()
            .filter(|s| s.name == "distributed.commit")
            .filter(|s| s.args.iter().any(|&(k, v)| k == "accepted" && v == 1))
            .map(|s| {
                s.args
                    .iter()
                    .find(|&&(k, _)| k == "count")
                    .map(|&(_, v)| v)
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(committed, expected);
        // The same run without a tracer is bit-identical on counters.
        let plain = run_distributed(&graph, &plan, &cfg);
        let merged_traced = {
            let mut c = Counters::default();
            for r in &result.reports {
                c.merge(&r.counters);
            }
            c
        };
        let merged_plain = {
            let mut c = Counters::default();
            for r in &plain.reports {
                c.merge(&r.counters);
            }
            c
        };
        assert_eq!(merged_traced.embeddings, merged_plain.embeddings);
    }

    #[test]
    fn traced_crash_run_records_crash_and_rescatter() {
        let graph = test_graph();
        let plan = QueryPlan::new(PaperQuery::Qg1.build(), &graph);
        let expected = reference_count(&graph, &plan);
        let cfg = ClusterConfig {
            machines: 3,
            threads_per_machine: 2,
            ..Default::default()
        };
        let fp = FaultPlan::new(11).crash(1, Duration::from_nanos(1));
        let tracer = Tracer::new();
        let result = run_distributed_traced(&graph, &plan, &cfg, Some(&fp), Some(&tracer))
            .expect("crash of machine 1");
        assert_eq!(
            result.total_embeddings, expected,
            "exactly-once under trace"
        );
        let spans = tracer.snapshot();
        assert!(
            spans.iter().any(|s| s.name == "distributed.crash"),
            "crash instant missing"
        );
        assert!(
            spans.iter().any(|s| s.name == "distributed.rescatter"),
            "rescatter instant missing"
        );
    }

    /// Everything about a machine's run that is not a measured duration.
    fn ledger(r: &MachineReport) -> impl PartialEq + std::fmt::Debug {
        (
            (r.processed_clusters, r.stolen_clusters, r.embeddings),
            (r.lost_clusters, r.reexecuted_clusters, r.commits_rejected),
            (r.steals_lost, r.crashed, r.counters),
            (r.io_virtual, r.comm_virtual, r.straggle_virtual),
        )
    }

    #[test]
    fn crash_replay_is_byte_identical() {
        let graph = test_graph();
        let plan = QueryPlan::new(PaperQuery::Qg1.build(), &graph);
        let expected = reference_count(&graph, &plan);
        let cfg = ClusterConfig {
            machines: 3,
            threads_per_machine: 2,
            ..Default::default()
        };
        let plans = [
            ("crash at zero", FaultPlan::new(11).crash(1, Duration::ZERO)),
            (
                "crash mid-run",
                FaultPlan::new(12).crash(2, Duration::from_micros(100)),
            ),
            (
                "straggler + steal loss",
                FaultPlan::new(5).straggler(0, 8.0).with_steal_loss(0.4),
            ),
        ];
        for (name, fp) in &plans {
            let run = || {
                let tracer = Tracer::new();
                let result = run_distributed_traced(&graph, &plan, &cfg, Some(fp), Some(&tracer))
                    .expect(name);
                assert_eq!(result.total_embeddings, expected, "{name}");
                let timeline: Vec<_> = tracer
                    .snapshot()
                    .into_iter()
                    .map(|s| (s.full_name(), s.id, s.parent, s.tid, s.ts_ns, s.args))
                    .collect();
                let ledgers: Vec<_> = result.reports.iter().map(ledger).collect();
                (result.recovery, format!("{ledgers:?}"), timeline)
            };
            let (first, second) = (run(), run());
            assert_eq!(first.0, second.0, "{name}: recovery stats");
            assert_eq!(first.1, second.1, "{name}: per-machine ledgers");
            assert_eq!(first.2, second.2, "{name}: distributed.* timeline");
            if fp.crashes.is_empty() {
                assert!(first.0.straggle_virtual > Duration::ZERO, "{name}");
                assert!(first.0.reexecuted_clusters > 0, "{name}: nobody speculated");
            } else {
                assert_eq!(
                    first.0.crashed_machines, 1,
                    "{name}: the crash did not fire"
                );
                assert!(first.0.lost_clusters >= 1, "{name}");
            }
        }
    }
}
