//! The distributed execution simulation (§5), with deterministic fault
//! injection and exactly-once recovery.
//!
//! Machines are OS threads (each running `threads_per_machine` worker
//! threads); MPI messages are accounted through the [`crate::config::CostModel`] as virtual
//! time — the simulation never sleeps, it reports a *modeled makespan*
//! `max_m (real compute_m + virtual io_m + virtual comm_m)` alongside the
//! real wall time.
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
//!    the stolen pivots, and continues.
//! 4. Results accumulate to machine 0 (one message per machine).
//!
//! ## Fault model and exactly-once recovery
//!
//! [`run_distributed_with_faults`] threads a [`FaultPlan`] through the run:
//! machines crash when their deterministic virtual-progress clock crosses
//! the plan's crash point, stragglers accumulate extra virtual time, and
//! steal messages are lost by seeded draws. Recovery is built on a shared
//! **result board** holding one slot per pivot with an *ownership epoch*
//! and a first-commit-wins tally:
//!
//! * every execution claims the pivot's current epoch before enumerating
//!   and commits `(epoch, count)` after — a commit is accepted only if the
//!   epoch still matches and nothing committed before it;
//! * a crash cancels the machine's in-flight enumerations (their partial
//!   counts are *discarded*, never mixed into a total — see
//!   [`ceci_core::Enumerator::enumerate_cluster_checked`]), bumps the epoch
//!   of everything uncommitted the machine owned, and re-scatters those
//!   pivots to survivors, so late commits from the dead machine are
//!   rejected as stale;
//! * idle machines speculatively re-execute clusters claimed by straggler
//!   machines; duplicated completions are de-duplicated by the board.
//!
//! Because per-pivot cluster counts are independent of *where* the cluster
//! is enumerated (the steal path already relies on this: a per-pivot mini
//! CECI produces the same cluster as the machine-local index), the total is
//! `Σ committed per-pivot counts` and is **bit-identical** under any fault
//! schedule and any thread interleaving — the property `tests/chaos.rs`
//! asserts seed by seed.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ceci_core::metrics::{Counters, ThreadTimer};
use ceci_core::{BuildOptions, CancelToken, Ceci, EnumOptions, Enumerator};
use ceci_graph::{Graph, VertexId};
use ceci_query::QueryPlan;
use ceci_trace::{LocalSpans, SpanRecord, Tracer};
use parking_lot::Mutex;

use crate::config::{ClusterConfig, CostModel, StorageMode};
use crate::fault::FaultPlan;
use crate::partition::{distribute_pivots, workload_estimate};

/// Per-machine outcome.
#[derive(Clone, Debug)]
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

/// Virtual-time ledger for one machine (atomics in nanoseconds so worker
/// threads can charge concurrently).
#[derive(Default)]
struct Ledger {
    io_nanos: AtomicU64,
    comm_nanos: AtomicU64,
}

impl Ledger {
    fn charge_io(&self, d: Duration) {
        self.io_nanos
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }
    fn charge_comm(&self, d: Duration) {
        self.comm_nanos
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }
}

/// One result-board slot: the ownership epoch, current owner, and the
/// first-committed count of a pivot's cluster.
#[derive(Debug)]
struct PivotSlot {
    epoch: u32,
    owner: usize,
    claimed: bool,
    committed: Option<u64>,
}

/// The shared exactly-once result board: one slot per pivot.
///
/// `claim` hands an executor the slot's current epoch; `commit` accepts a
/// count only when that epoch is still current and no count landed first.
/// `rescatter` bumps the epoch of everything uncommitted a dead machine
/// owned, which atomically invalidates any late commit from that machine.
struct ResultBoard {
    slots: Mutex<HashMap<VertexId, PivotSlot>>,
    remaining: AtomicUsize,
}

impl ResultBoard {
    fn new(assignment: &[Vec<VertexId>]) -> Self {
        let mut slots = HashMap::new();
        for (machine, pivots) in assignment.iter().enumerate() {
            for &p in pivots {
                slots.insert(
                    p,
                    PivotSlot {
                        epoch: 0,
                        owner: machine,
                        claimed: false,
                        committed: None,
                    },
                );
            }
        }
        let remaining = slots.len();
        ResultBoard {
            slots: Mutex::new(slots),
            remaining: AtomicUsize::new(remaining),
        }
    }

    /// Takes ownership of `pivot` for execution; returns the current epoch.
    fn claim(&self, pivot: VertexId, machine: usize) -> u32 {
        let mut slots = self.slots.lock();
        let slot = slots
            .get_mut(&pivot)
            .expect("claimed pivot is on the board");
        slot.owner = machine;
        slot.claimed = true;
        slot.epoch
    }

    /// Commits `count` for `pivot` under `epoch`. First commit wins; stale
    /// epochs (bumped by a re-scatter) are rejected. Returns acceptance.
    fn commit(&self, pivot: VertexId, epoch: u32, count: u64) -> bool {
        let mut slots = self.slots.lock();
        let slot = slots
            .get_mut(&pivot)
            .expect("committed pivot is on the board");
        if slot.committed.is_some() || slot.epoch != epoch {
            return false;
        }
        slot.committed = Some(count);
        drop(slots);
        self.remaining.fetch_sub(1, Ordering::AcqRel);
        true
    }

    /// Reassigns queue ownership of stolen/re-scattered pivots (no epoch
    /// change: stealing is a normal transfer, not a recovery event).
    fn transfer(&self, pivots: &[VertexId], to: usize) {
        let mut slots = self.slots.lock();
        for p in pivots {
            if let Some(slot) = slots.get_mut(p) {
                if slot.committed.is_none() {
                    slot.owner = to;
                }
            }
        }
    }

    /// Crash recovery: bumps the epoch of every uncommitted pivot owned by
    /// `dead` (queued *or* in flight) and returns them, sorted, for
    /// redistribution. Late commits from the dead machine now carry a stale
    /// epoch and are rejected.
    fn rescatter(&self, dead: usize) -> Vec<VertexId> {
        let mut slots = self.slots.lock();
        let mut orphans: Vec<VertexId> = slots
            .iter_mut()
            .filter(|(_, s)| s.committed.is_none() && s.owner == dead)
            .map(|(&p, s)| {
                s.epoch += 1;
                s.claimed = false;
                p
            })
            .collect();
        orphans.sort_unstable();
        orphans
    }

    /// Uncommitted, claimed pivots currently owned by `machine` with their
    /// epochs — the speculation targets when `machine` is a straggler.
    fn in_flight_of(&self, machine: usize) -> Vec<(VertexId, u32)> {
        let slots = self.slots.lock();
        let mut v: Vec<(VertexId, u32)> = slots
            .iter()
            .filter(|(_, s)| s.committed.is_none() && s.claimed && s.owner == machine)
            .map(|(&p, s)| (p, s.epoch))
            .collect();
        v.sort_unstable_by_key(|&(p, _)| p);
        v
    }

    fn remaining(&self) -> usize {
        self.remaining.load(Ordering::Acquire)
    }
}

/// Per-machine fault/recovery state shared across all machines' workers.
struct MachineState {
    dead: AtomicBool,
    cancel: Arc<CancelToken>,
    virt_nanos: AtomicU64,
    straggle_nanos: AtomicU64,
    lost: AtomicU64,
    reexecuted: AtomicU64,
    commits_rejected: AtomicU64,
    steals_lost: AtomicU64,
    steal_attempts: AtomicU64,
    recovery_comm_nanos: AtomicU64,
}

impl MachineState {
    fn new() -> Self {
        MachineState {
            dead: AtomicBool::new(false),
            cancel: CancelToken::new(),
            virt_nanos: AtomicU64::new(0),
            straggle_nanos: AtomicU64::new(0),
            lost: AtomicU64::new(0),
            reexecuted: AtomicU64::new(0),
            commits_rejected: AtomicU64::new(0),
            steals_lost: AtomicU64::new(0),
            steal_attempts: AtomicU64::new(0),
            recovery_comm_nanos: AtomicU64::new(0),
        }
    }
}

/// Estimated adjacency entries read while building a CECI: for every table
/// key (an expanded frontier vertex), its full neighbor list was scanned.
fn adjacency_entries_touched(graph: &Graph, plan: &QueryPlan, ceci: &Ceci) -> u64 {
    let mut touched = 0u64;
    for u in plan.query().vertices() {
        if let Some(te) = ceci.te(u) {
            touched += te
                .keys()
                .iter()
                .map(|&k| graph.degree(k) as u64)
                .sum::<u64>();
        }
        for (_, table) in ceci.nte(u) {
            touched += table
                .keys()
                .iter()
                .map(|&k| graph.degree(k) as u64)
                .sum::<u64>();
        }
    }
    touched
}

/// Runs the distributed simulation fault-free: counts all embeddings.
pub fn run_distributed(
    graph: &Graph,
    plan: &QueryPlan,
    config: &ClusterConfig,
) -> DistributedResult {
    run_distributed_with_faults(graph, plan, config, None)
}

/// Runs the distributed simulation under an optional [`FaultPlan`].
///
/// With `faults: None` (or a no-op plan) behaves exactly like
/// [`run_distributed`]. With faults, injected crashes trigger pivot
/// re-scatter with ownership-epoch bumps, stragglers trigger speculative
/// re-execution (when [`ClusterConfig::speculation`] is on), and the total
/// embedding count is guaranteed bit-identical to the fault-free run.
///
/// # Panics
///
/// Panics when the plan fails [`FaultPlan::validate`] (e.g. it crashes
/// every machine, leaving no survivor to recover onto).
pub fn run_distributed_with_faults(
    graph: &Graph,
    plan: &QueryPlan,
    config: &ClusterConfig,
    faults: Option<&FaultPlan>,
) -> DistributedResult {
    run_distributed_traced(graph, plan, config, faults, None)
}

/// [`run_distributed_with_faults`] with an optional [`Tracer`] that records
/// a per-machine timeline: `distributed.machine{m}` summary spans plus
/// scatter / steal / commit / crash / re-scatter instant events, all
/// timestamped on the simulation's **virtual clock** (the same
/// deterministic clock the fault plan uses to trigger crashes). Tracing a
/// fault-free run advances the virtual clock with a unit-cost plan so the
/// timeline is still meaningful; this never changes counts, fault behavior,
/// or recovery accounting.
pub fn run_distributed_traced(
    graph: &Graph,
    plan: &QueryPlan,
    config: &ClusterConfig,
    faults: Option<&FaultPlan>,
    tracer: Option<&Tracer>,
) -> DistributedResult {
    assert!(config.machines >= 1 && config.threads_per_machine >= 1);
    if let Some(f) = faults {
        if let Err(e) = f.validate(config.machines) {
            panic!("invalid fault plan: {e}");
        }
    }
    // A no-op plan is exactly a fault-free run; normalize so the worker
    // loops take the lean path.
    let faults = faults.filter(|f| !f.is_noop());
    // Virtual-clock source for traced fault-free runs (slowdown 1, no
    // crashes): keeps `distributed.*` event timestamps meaningful without
    // enabling any fault machinery.
    let clock_plan = FaultPlan::new(0);

    let wall_start = Instant::now();
    let pivots = plan.initial_candidates(plan.root()).to_vec();
    let partition = distribute_pivots(graph, &pivots, config);
    let m = config.machines;
    let costs = config.costs;

    // Globally visible unexplored-cluster queues (front = next to run).
    let queues: Vec<Mutex<VecDeque<VertexId>>> = partition
        .assignment
        .iter()
        .map(|p| Mutex::new(p.iter().copied().collect()))
        .collect();
    let ledgers: Vec<Ledger> = (0..m).map(|_| Ledger::default()).collect();
    let board = ResultBoard::new(&partition.assignment);
    let states: Vec<MachineState> = (0..m).map(|_| MachineState::new()).collect();

    // Charge the pivot scatter: one message per machine plus marginal cost
    // per pivot.
    for (i, p) in partition.assignment.iter().enumerate() {
        ledgers[i].charge_comm(costs.msg_latency + costs.per_pivot_comm * p.len() as u32);
        if let Some(t) = tracer {
            t.record(SpanRecord {
                id: t.next_span_id(),
                parent: 0,
                name: "distributed.scatter",
                index: Some(i as u32),
                cat: "distributed",
                ts_ns: 0,
                dur_ns: 0,
                tid: i as u32,
                args: vec![("pivots", p.len() as u64)],
            });
        }
    }

    let mut reports: Vec<MachineReport> = Vec::with_capacity(m);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(m);
        for machine in 0..m {
            let queues = &queues;
            let ledgers = &ledgers;
            let partition = &partition;
            let board = &board;
            let states = &states;
            let clock_plan = &clock_plan;
            handles.push(scope.spawn(move || {
                run_machine(
                    graph,
                    plan,
                    config,
                    machine,
                    partition.assignment[machine].clone(),
                    queues,
                    ledgers,
                    board,
                    states,
                    faults,
                    tracer,
                    clock_plan,
                )
            }));
        }
        for h in handles {
            reports.push(h.join().expect("machine thread panicked"));
        }
    });
    reports.sort_by_key(|r| r.machine);

    // Result gather: one message per non-root machine, charged to machine 0.
    ledgers[0].charge_comm(costs.msg_latency * (m.saturating_sub(1)) as u32);
    for (r, ledger) in reports.iter_mut().zip(&ledgers) {
        r.io_virtual = Duration::from_nanos(ledger.io_nanos.load(Ordering::Relaxed));
        r.comm_virtual = Duration::from_nanos(ledger.comm_nanos.load(Ordering::Relaxed));
    }

    let total_embeddings = reports.iter().map(|r| r.embeddings).sum();
    debug_assert_eq!(
        board.remaining(),
        0,
        "every pivot cluster must be committed exactly once"
    );
    let makespan = reports
        .iter()
        .map(|r| r.modeled_time(config.threads_per_machine))
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
        total_embeddings,
        makespan,
        wall: wall_start.elapsed(),
        merged_groups: partition.merged_groups,
        threads_per_machine: config.threads_per_machine,
        recovery,
    }
}

/// Crash recovery: drains the dead machine's queue, bumps the epochs of
/// everything uncommitted it owned, and redistributes those pivots
/// round-robin to alive survivors (charging each survivor the re-scatter
/// message).
fn rescatter_dead_machine(
    dead: usize,
    board: &ResultBoard,
    queues: &[Mutex<VecDeque<VertexId>>],
    states: &[MachineState],
    ledgers: &[Ledger],
    costs: &CostModel,
    tracer: Option<&Tracer>,
) {
    // Drop the dead machine's queued work so thieves can't pick up stale
    // pivots from its queue (the board re-scatter below re-homes them).
    queues[dead].lock().clear();
    let orphans = board.rescatter(dead);
    if orphans.is_empty() {
        return;
    }
    let survivors: Vec<usize> = (0..queues.len())
        .filter(|&i| i != dead && !states[i].dead.load(Ordering::Acquire))
        .collect();
    if survivors.is_empty() {
        return; // validate() forbids this; keep the simulation from wedging
    }
    let mut batches: Vec<Vec<VertexId>> = vec![Vec::new(); survivors.len()];
    for (i, &p) in orphans.iter().enumerate() {
        batches[i % survivors.len()].push(p);
    }
    for (bi, batch) in batches.iter().enumerate() {
        if batch.is_empty() {
            continue;
        }
        let target = survivors[bi];
        board.transfer(batch, target);
        if let Some(t) = tracer {
            t.record(SpanRecord {
                id: t.next_span_id(),
                parent: 0,
                name: "distributed.rescatter",
                index: Some(dead as u32),
                cat: "distributed",
                ts_ns: states[dead].virt_nanos.load(Ordering::Relaxed),
                dur_ns: 0,
                tid: dead as u32,
                args: vec![("target", target as u64), ("pivots", batch.len() as u64)],
            });
        }
        let charge = costs.msg_latency + costs.per_pivot_comm * batch.len() as u32;
        ledgers[target].charge_comm(charge);
        states[target]
            .recovery_comm_nanos
            .fetch_add(charge.as_nanos() as u64, Ordering::Relaxed);
        let mut q = queues[target].lock();
        for &p in batch {
            q.push_back(p);
        }
    }
}

/// Picks a speculative re-execution target: the smallest-id uncommitted
/// in-flight cluster claimed by an alive straggler machine that this
/// worker has not already attempted.
fn pick_speculation_target(
    board: &ResultBoard,
    states: &[MachineState],
    me: usize,
    config: &ClusterConfig,
    faults: &FaultPlan,
    attempted: &mut HashSet<VertexId>,
) -> Option<(VertexId, u32)> {
    for (machine, state) in states.iter().enumerate() {
        if machine == me
            || state.dead.load(Ordering::Acquire)
            || faults.slowdown_for(machine) < config.straggler_threshold
        {
            continue;
        }
        for (pivot, epoch) in board.in_flight_of(machine) {
            if attempted.insert(pivot) {
                return Some((pivot, epoch));
            }
        }
    }
    None
}

#[allow(clippy::too_many_arguments)]
fn run_machine(
    graph: &Graph,
    plan: &QueryPlan,
    config: &ClusterConfig,
    machine: usize,
    own_pivots: Vec<VertexId>,
    queues: &[Mutex<VecDeque<VertexId>>],
    ledgers: &[Ledger],
    board: &ResultBoard,
    states: &[MachineState],
    faults: Option<&FaultPlan>,
    tracer: Option<&Tracer>,
    clock_plan: &FaultPlan,
) -> MachineReport {
    let costs = config.costs;
    let ledger = &ledgers[machine];
    let state = &states[machine];
    let crash_at = faults.and_then(|f| f.crash_nanos_for(machine));
    // Reserve the machine's summary-span id up front so worker events can
    // parent onto it even though the span itself (whose duration is the
    // final virtual clock) is recorded last.
    let machine_span = tracer.map(|t| t.next_span_id()).unwrap_or(0);
    let track_virt = faults.is_some() || tracer.is_some();
    // Build the machine-local CECI over the assigned pivots.
    let t0 = Instant::now();
    let local_ceci = Ceci::build_for_pivots(graph, plan, BuildOptions::default(), {
        let mut p = own_pivots.clone();
        p.sort_unstable();
        p
    });
    let build_compute = t0.elapsed();
    if matches!(config.storage, StorageMode::Shared) {
        let touched = adjacency_entries_touched(graph, plan, &local_ceci);
        ledger.charge_io(costs.per_entry_io * touched as u32);
    }

    // Worker threads pull from the machine's queue, stealing when idle.
    // A pivot counts as "stolen" when it is absent from the machine's local
    // CECI — whether it arrived via a direct steal, was parked on the
    // queue by an earlier steal batch, or was re-scattered here by crash
    // recovery.
    let own_set: HashSet<VertexId> = own_pivots.iter().copied().collect();
    let processed = AtomicU64::new(0);
    let stolen = AtomicU64::new(0);
    let committed_sum = AtomicU64::new(0);
    let threads = config.threads_per_machine;
    let mut thread_outcomes: Vec<(Counters, Duration)> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let local_ceci = &local_ceci;
        let processed = &processed;
        let stolen = &stolen;
        let committed_sum = &committed_sum;
        let own_set = &own_set;
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            handles.push(scope.spawn(move || {
                let mut counters = Counters::default();
                let mut busy = Duration::ZERO;
                // Worker-local span buffer: pushes are plain vector appends;
                // the shared store is touched once, at thread exit.
                let mut spans = tracer.map(|_| LocalSpans::new(1 << 14));
                let mut enumerator =
                    Enumerator::new(graph, plan, local_ceci, EnumOptions::default());
                if faults.is_some() {
                    // Crash cancellation: when this machine dies, in-flight
                    // enumerations unwind and their partial counts are
                    // discarded by `enumerate_cluster_checked`.
                    enumerator.set_cancel(Some(Arc::clone(&state.cancel)));
                }
                let mut speculated: HashSet<VertexId> = HashSet::new();
                loop {
                    if state.dead.load(Ordering::Acquire) {
                        break;
                    }
                    // Own queue first, then stealing, then speculation.
                    let own = queues[machine].lock().pop_front();
                    let mut speculative_epoch: Option<u32> = None;
                    let pivot = match own {
                        Some(p) => Some(p),
                        None => {
                            let stolen_pivot = if config.work_stealing {
                                let got =
                                    steal(queues, machine, board, states, faults, ledger, &costs);
                                if let (Some(p), Some(t), Some(buf)) = (got, tracer, spans.as_mut())
                                {
                                    buf.push(SpanRecord {
                                        id: t.next_span_id(),
                                        parent: machine_span,
                                        name: "distributed.steal",
                                        index: Some(machine as u32),
                                        cat: "distributed",
                                        ts_ns: state.virt_nanos.load(Ordering::Relaxed),
                                        dur_ns: 0,
                                        tid: machine as u32,
                                        args: vec![("pivot", p.0 as u64)],
                                    });
                                }
                                got
                            } else {
                                None
                            };
                            match (stolen_pivot, faults) {
                                (Some(p), _) => Some(p),
                                (None, Some(f)) if config.speculation => {
                                    match pick_speculation_target(
                                        board,
                                        states,
                                        machine,
                                        config,
                                        f,
                                        &mut speculated,
                                    ) {
                                        Some((p, e)) => {
                                            speculative_epoch = Some(e);
                                            Some(p)
                                        }
                                        None => None,
                                    }
                                }
                                _ => None,
                            }
                        }
                    };
                    let Some(pivot) = pivot else {
                        if faults.is_some() && board.remaining() > 0 {
                            // Work may reappear through crash re-scatter;
                            // spin gently until the board settles.
                            std::thread::sleep(Duration::from_micros(50));
                            continue;
                        }
                        break;
                    };
                    // Claim the pivot's current epoch. Speculative runs use
                    // the epoch observed at selection and do *not* take
                    // ownership — the straggler keeps it; first commit wins.
                    let epoch = match speculative_epoch {
                        Some(e) => e,
                        None => board.claim(pivot, machine),
                    };
                    let was_stolen = !own_set.contains(&pivot);
                    processed.fetch_add(1, Ordering::Relaxed);
                    let start = ThreadTimer::start();
                    let outcome: Option<u64> = if was_stolen {
                        stolen.fetch_add(1, Ordering::Relaxed);
                        // A stolen / re-scattered / speculated cluster is not
                        // in the local CECI: build a mini index for it and
                        // charge the candidate fetch.
                        let mini = Ceci::build_for_pivots(
                            graph,
                            plan,
                            BuildOptions::default(),
                            vec![pivot],
                        );
                        let entries = mini.num_entries() as u32;
                        match config.storage {
                            StorageMode::Replicated => {
                                ledger.charge_comm(
                                    costs.msg_latency + costs.per_entry_comm * entries,
                                );
                            }
                            StorageMode::Shared => {
                                ledger.charge_io(
                                    costs.per_entry_io
                                        * adjacency_entries_touched(graph, plan, &mini) as u32,
                                );
                                ledger.charge_comm(costs.msg_latency);
                            }
                        }
                        let mut mini_enum =
                            Enumerator::new(graph, plan, &mini, EnumOptions::default());
                        if faults.is_some() {
                            mini_enum.set_cancel(Some(Arc::clone(&state.cancel)));
                        }
                        if mini.pivots().iter().any(|&(p, _)| p == pivot) {
                            mini_enum.enumerate_cluster_checked(pivot, &mut counters)
                        } else {
                            Some(0)
                        }
                    } else if local_ceci.pivots().iter().any(|&(p, _)| p == pivot) {
                        enumerator.enumerate_cluster_checked(pivot, &mut counters)
                    } else {
                        Some(0)
                    };
                    busy += start.elapsed();

                    // Advance the deterministic virtual-progress clock and
                    // trigger the crash if this completion crosses the
                    // plan's crash point. The crossing cluster is lost.
                    if track_virt {
                        let estimate = workload_estimate(graph, pivot, config);
                        let clock = faults.unwrap_or(clock_plan);
                        let (work, straggle) = clock.virtual_work_nanos(machine, estimate);
                        state.straggle_nanos.fetch_add(straggle, Ordering::Relaxed);
                        let now = state.virt_nanos.fetch_add(work, Ordering::Relaxed) + work;
                        if let Some(crash) = crash_at {
                            if now >= crash {
                                if !state.dead.swap(true, Ordering::AcqRel) {
                                    // First crossing wins: kill the machine,
                                    // cancel siblings, re-scatter orphans.
                                    state.cancel.cancel();
                                    if let (Some(t), Some(buf)) = (tracer, spans.as_mut()) {
                                        buf.push(SpanRecord {
                                            id: t.next_span_id(),
                                            parent: machine_span,
                                            name: "distributed.crash",
                                            index: Some(machine as u32),
                                            cat: "distributed",
                                            ts_ns: now,
                                            dur_ns: 0,
                                            tid: machine as u32,
                                            args: vec![("crash_at_ns", crash)],
                                        });
                                    }
                                    rescatter_dead_machine(
                                        machine, board, queues, states, ledgers, &costs, tracer,
                                    );
                                }
                                state.lost.fetch_add(1, Ordering::Relaxed);
                                if let (Some(t), Some(buf)) = (tracer, spans.as_mut()) {
                                    buf.flush(t);
                                }
                                break;
                            }
                        }
                    }
                    match outcome {
                        Some(count) => {
                            let accepted = board.commit(pivot, epoch, count);
                            if accepted {
                                committed_sum.fetch_add(count, Ordering::Relaxed);
                                if speculative_epoch.is_some() || epoch > 0 {
                                    state.reexecuted.fetch_add(1, Ordering::Relaxed);
                                }
                            } else {
                                state.commits_rejected.fetch_add(1, Ordering::Relaxed);
                            }
                            if let (Some(t), Some(buf)) = (tracer, spans.as_mut()) {
                                buf.push(SpanRecord {
                                    id: t.next_span_id(),
                                    parent: machine_span,
                                    name: "distributed.commit",
                                    index: Some(machine as u32),
                                    cat: "distributed",
                                    ts_ns: state.virt_nanos.load(Ordering::Relaxed),
                                    dur_ns: 0,
                                    tid: machine as u32,
                                    args: vec![
                                        ("pivot", pivot.0 as u64),
                                        ("count", count),
                                        ("epoch", epoch as u64),
                                        ("accepted", accepted as u64),
                                        ("speculative", speculative_epoch.is_some() as u64),
                                    ],
                                });
                            }
                        }
                        None => {
                            // Cancelled mid-cluster: the machine died under
                            // us. Discard the partial count; the re-scatter
                            // already re-homed this pivot under a new epoch.
                            state.lost.fetch_add(1, Ordering::Relaxed);
                            if let (Some(t), Some(buf)) = (tracer, spans.as_mut()) {
                                buf.flush(t);
                            }
                            break;
                        }
                    }
                }
                if let (Some(t), Some(mut buf)) = (tracer, spans) {
                    buf.flush(t);
                }
                (counters, busy)
            }));
        }
        for h in handles {
            thread_outcomes.push(h.join().expect("worker thread panicked"));
        }
    });

    let mut counters = Counters::default();
    let mut enumerate_busy = Duration::ZERO;
    for (c, busy) in thread_outcomes {
        counters.merge(&c);
        enumerate_busy += busy;
    }
    if let Some(t) = tracer {
        // The machine's lane on the virtual-time axis: one summary span from
        // virtual t=0 to the machine's final virtual clock, with a build
        // child covering the (wall-clock measured) local index construction.
        let virt_end = states[machine].virt_nanos.load(Ordering::Relaxed);
        let build_ns = build_compute.as_nanos() as u64;
        t.record(SpanRecord {
            id: machine_span,
            parent: 0,
            name: "distributed.machine",
            index: Some(machine as u32),
            cat: "distributed",
            ts_ns: 0,
            dur_ns: virt_end.max(build_ns).max(1),
            tid: machine as u32,
            args: vec![
                ("processed", processed.load(Ordering::Relaxed)),
                ("stolen", stolen.load(Ordering::Relaxed)),
                ("committed", committed_sum.load(Ordering::Relaxed)),
                ("crashed", state.dead.load(Ordering::Acquire) as u64),
                ("lost", state.lost.load(Ordering::Relaxed)),
            ],
        });
        t.record(SpanRecord {
            id: t.next_span_id(),
            parent: machine_span,
            name: "distributed.build",
            index: Some(machine as u32),
            cat: "distributed",
            ts_ns: 0,
            dur_ns: build_ns.max(1),
            tid: machine as u32,
            args: vec![("pivots", own_pivots.len() as u64)],
        });
    }
    MachineReport {
        machine,
        assigned_pivots: own_pivots.len(),
        processed_clusters: processed.load(Ordering::Relaxed) as usize,
        stolen_clusters: stolen.load(Ordering::Relaxed) as usize,
        embeddings: committed_sum.load(Ordering::Relaxed),
        counters,
        build_compute,
        enumerate_busy,
        io_virtual: Duration::ZERO, // filled in by the caller from ledgers
        comm_virtual: Duration::ZERO,
        crashed: state.dead.load(Ordering::Acquire),
        lost_clusters: state.lost.load(Ordering::Relaxed) as usize,
        reexecuted_clusters: state.reexecuted.load(Ordering::Relaxed) as usize,
        commits_rejected: state.commits_rejected.load(Ordering::Relaxed) as usize,
        steals_lost: state.steals_lost.load(Ordering::Relaxed) as usize,
        straggle_virtual: Duration::from_nanos(state.straggle_nanos.load(Ordering::Relaxed)),
        recovery_comm_virtual: Duration::from_nanos(
            state.recovery_comm_nanos.load(Ordering::Relaxed),
        ),
    }
}

/// Steals one pivot from the victim with the most unexplored clusters,
/// moving (up to) half the victim's remaining queue onto the thief's queue
/// and returning the first stolen pivot. Under a fault plan, each steal
/// request first survives deterministic loss draws (a lost request costs
/// one message latency and is retried, up to a bounded number of rounds),
/// and moved pivots change owner on the result board.
///
/// A machine with a scheduled crash is not stolen from until it has
/// completed a cluster. Its crash fires on a completion, and which
/// machine's threads start first is up to the host: without the shield the
/// others can empty its queue before it runs at all, and the planned crash
/// never happens.
fn steal(
    queues: &[Mutex<VecDeque<VertexId>>],
    thief: usize,
    board: &ResultBoard,
    states: &[MachineState],
    faults: Option<&FaultPlan>,
    ledger: &Ledger,
    costs: &CostModel,
) -> Option<VertexId> {
    let state = &states[thief];
    let shielded = |machine: usize| {
        faults.is_some_and(|f| f.crash_nanos_for(machine).is_some())
            && states[machine].virt_nanos.load(Ordering::Relaxed) == 0
    };
    if let Some(f) = faults {
        if f.steal_loss > 0.0 {
            let mut rounds = 0;
            loop {
                let attempt = state.steal_attempts.fetch_add(1, Ordering::Relaxed);
                if !f.steal_lost(thief, attempt) {
                    break;
                }
                // The request vanished on the wire: pay for it, try again.
                state.steals_lost.fetch_add(1, Ordering::Relaxed);
                ledger.charge_comm(costs.msg_latency);
                rounds += 1;
                if rounds >= 16 {
                    return None; // give up this round; the worker loop retries
                }
            }
        }
    }
    // Pick the victim by queue length (the "maximum number of unexplored
    // clusters" rule).
    let victim = queues
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != thief && !shielded(i))
        .max_by_key(|(_, q)| q.lock().len())?
        .0;
    let mut vq = queues[victim].lock();
    let take = vq.len().div_ceil(2);
    if take == 0 {
        return None;
    }
    let mut batch: Vec<VertexId> = Vec::with_capacity(take);
    for _ in 0..take {
        if let Some(p) = vq.pop_back() {
            batch.push(p);
        }
    }
    drop(vq);
    board.transfer(&batch, thief);
    let first = batch[0];
    if batch.len() > 1 {
        let mut tq = queues[thief].lock();
        for &p in &batch[1..] {
            tq.push_back(p);
        }
    }
    Some(first)
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
    fn board_commit_protocol_is_exactly_once() {
        let a = vid(1);
        let board = ResultBoard::new(&[vec![a, vid(2)], vec![vid(3)]]);
        assert_eq!(board.remaining(), 3);
        let e = board.claim(a, 0);
        assert_eq!(e, 0);
        // First commit wins; duplicates and stale epochs are rejected.
        assert!(board.commit(a, e, 7));
        assert!(!board.commit(a, e, 9), "duplicate rejected");
        assert_eq!(board.remaining(), 2);
        // Rescatter bumps epochs of uncommitted pivots owned by the dead
        // machine only.
        let orphans = board.rescatter(0);
        assert_eq!(orphans, vec![vid(2)]);
        let stale = 0;
        assert!(!board.commit(vid(2), stale, 1), "stale epoch rejected");
        let fresh = board.claim(vid(2), 1);
        assert_eq!(fresh, 1);
        assert!(board.commit(vid(2), fresh, 4));
        assert!(board.commit(vid(3), board.claim(vid(3), 1), 5));
        assert_eq!(board.remaining(), 0);
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
        let result = run_distributed_with_faults(&graph, &plan, &cfg, Some(&fp));
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
        let result = run_distributed_with_faults(&graph, &plan, &cfg, Some(&fp));
        assert_eq!(result.total_embeddings, expected);
        assert!(result.reports[0].straggle_virtual > Duration::ZERO);
        assert!(result.recovery.straggle_virtual > Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
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
        run_distributed_with_faults(&graph, &plan, &cfg, Some(&fp));
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
        let result = run_distributed_traced(&graph, &plan, &cfg, None, Some(&tracer));
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
        let result = run_distributed_traced(&graph, &plan, &cfg, Some(&fp), Some(&tracer));
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
}
