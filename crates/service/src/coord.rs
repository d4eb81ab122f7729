//! Coordinator side of multi-process sharded serving: scatter a query's
//! pivots across `ceci-shard` processes, steal work from idle shards, and
//! recover from shard death/stalls without ever changing the answer.
//!
//! ## Protocol and transport
//!
//! *What* runs where, and what a result is worth, is decided by
//! [`ceci_distributed::Recovery`] — the same state machine the distributed
//! simulator drives through every fault schedule: per-pivot ownership
//! epochs, first commit wins, own queue → steal half of the longest live
//! queue → speculate on somebody's in-flight pivot, a dead shard's
//! uncommitted pivots re-homed on the living under a bumped epoch. This
//! module is the *transport* under it. Each shard driver (one thread per
//! shard) holds one connection; after every (re)connect it re-sends
//! `PREPARE` (idempotent) pinning the coordinator's full-graph plan
//! decisions, then loops: ask the state machine for a pivot, `EXEC <name>
//! <pivot> <epoch>`, commit the count. The state machine sits behind one
//! mutex held only around those calls — nanoseconds against an RPC's
//! milliseconds.
//!
//! ## Recovery invariant
//!
//! The total is `Σ` per-pivot committed counts, and each pivot's count is a
//! pure function of `(graph, plan, pivot)` — independent of *which* shard
//! executes it or how many times — so any schedule of kills, stalls,
//! restarts, steals, and speculative re-executions produces the
//! bit-identical total of a single-process run. What the transport adds:
//!
//! * A driver whose RPC fails transiently hands the pivot back and retries
//!   with capped exponential backoff ([`RetryPolicy`]) after reconnecting.
//! * A driver that exhausts its attempt budget declares its shard dead,
//!   then keeps trying to rejoin at a slow cadence — a restarted shard
//!   process is revived automatically.
//! * If every shard is dead — or a hard wall-clock passes — the
//!   coordinator executes the uncommitted pivots locally on the full graph.
//!
//! ## Numbering
//!
//! A pivot's count depends on the vertex numbering its symmetry constraints
//! compare, so all pivots of one scatter are counted under one: the file
//! ids the shards loaded. `EXEC` names pivots by file id, and the local
//! fallback runs the shards' executor ([`count_fragment`]) over a view of
//! the coordinator's graph that presents file ids.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use ceci_distributed::{
    count_fragment, distribute_pivots, AdjacencySource, ClusterConfig, PlanSpec, Recovery,
};
use ceci_graph::{Graph, LabelSet, Ranking, VertexId};
use ceci_query::{OrderConstraint, QueryPlan};

use crate::client::{Client, RetryPolicy};
use crate::protocol::ErrorCode;

/// Shard liveness as seen by the coordinator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardLiveness {
    /// Not yet probed.
    Unknown,
    /// Last RPC or heartbeat succeeded.
    Alive,
    /// Declared dead after exhausting the attempt budget.
    Dead,
}

/// Per-shard status block (all atomics; read by STATS/PROM while drivers
/// write).
#[derive(Debug)]
pub struct ShardStatus {
    /// The shard's address.
    pub addr: String,
    state: AtomicU8,
    /// Successful reconnects after a failure or death.
    pub reconnects: AtomicU64,
    /// Times this shard's pivots were re-scattered to survivors.
    pub rescatters: AtomicU64,
    /// Pivot counts this shard's driver committed.
    pub executed: AtomicU64,
    /// Commits rejected by the board (stale epoch / already committed).
    pub commits_rejected: AtomicU64,
}

impl ShardStatus {
    fn new(addr: String) -> ShardStatus {
        ShardStatus {
            addr,
            state: AtomicU8::new(0),
            reconnects: AtomicU64::new(0),
            rescatters: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            commits_rejected: AtomicU64::new(0),
        }
    }

    /// Current liveness.
    pub fn liveness(&self) -> ShardLiveness {
        match self.state.load(Ordering::Relaxed) {
            1 => ShardLiveness::Alive,
            2 => ShardLiveness::Dead,
            _ => ShardLiveness::Unknown,
        }
    }

    /// Sets liveness.
    pub fn set_liveness(&self, l: ShardLiveness) {
        let v = match l {
            ShardLiveness::Unknown => 0,
            ShardLiveness::Alive => 1,
            ShardLiveness::Dead => 2,
        };
        self.state.store(v, Ordering::Relaxed);
    }
}

/// The coordinator's shard table.
#[derive(Debug)]
pub struct ShardSet {
    /// One status block per configured shard, in CLI order.
    pub shards: Vec<ShardStatus>,
}

impl ShardSet {
    /// Builds the table from the configured addresses.
    pub fn new(addrs: &[String]) -> ShardSet {
        ShardSet {
            shards: addrs.iter().cloned().map(ShardStatus::new).collect(),
        }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// `true` when no shards are configured.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Shards currently alive.
    pub fn alive(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| s.liveness() == ShardLiveness::Alive)
            .count()
    }
}

/// Coordinator tunables.
#[derive(Clone, Debug)]
pub struct CoordConfig {
    /// Socket read/write timeout per shard RPC.
    pub io_timeout: Duration,
    /// TCP connect timeout per dial.
    pub connect_timeout: Duration,
    /// Backoff policy between RPC attempts.
    pub retry: RetryPolicy,
    /// Consecutive failed attempts before a shard is declared dead and its
    /// pivots re-scattered.
    pub attempt_budget: u32,
    /// Cadence at which a dead shard's driver retries rejoining.
    pub rejoin_interval: Duration,
    /// Hard wall: past this the coordinator finishes everything locally.
    pub hard_wall: Duration,
}

impl Default for CoordConfig {
    fn default() -> Self {
        CoordConfig {
            io_timeout: Duration::from_millis(5_000),
            connect_timeout: Duration::from_millis(1_000),
            retry: RetryPolicy::default(),
            attempt_budget: 3,
            rejoin_interval: Duration::from_millis(200),
            hard_wall: Duration::from_secs(120),
        }
    }
}

/// A typed coordinator startup failure (maps onto `E_SHARD`).
#[derive(Debug)]
pub struct CoordError {
    /// Which shard failed validation.
    pub addr: String,
    /// The underlying failure.
    pub reason: String,
}

impl fmt::Display for CoordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} shard {} unreachable: {}",
            ErrorCode::Shard.as_str(),
            self.addr,
            self.reason
        )
    }
}

impl std::error::Error for CoordError {}

/// Connects to `addr` under the coordinator timeouts.
fn dial(addr: &str, config: &CoordConfig) -> std::io::Result<Client> {
    let mut client = Client::connect_with_timeout(addr, config.connect_timeout)?;
    client.set_io_timeout(Some(config.io_timeout))?;
    Ok(client)
}

/// One PING round-trip against `addr` under the coordinator timeouts.
pub fn probe(addr: &str, config: &CoordConfig) -> std::io::Result<()> {
    let resp = dial(addr, config)?.request("PING")?;
    if resp.is_ok() {
        Ok(())
    } else {
        Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("unexpected PING answer: {}", resp.terminal),
        ))
    }
}

/// A joinable shard-heartbeat thread. The old server-side heartbeat was
/// spawned fire-and-forget and never joined, so a shutting-down server
/// could race its own probe traffic; this handle owns the thread and
/// [`HeartbeatHandle::stop`] joins it with a deadline.
pub struct HeartbeatHandle {
    stop: Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl HeartbeatHandle {
    /// Signals the heartbeat loop to exit and joins it, waiting at most
    /// `deadline`. Returns `true` when the thread actually finished —
    /// `false` means it is wedged mid-probe (e.g. a shard dial hanging
    /// past its connect timeout) and was leaked rather than hung on.
    pub fn stop(mut self, deadline: Duration) -> bool {
        {
            let (lock, cvar) = &*self.stop;
            *lock
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = true;
            cvar.notify_all();
        }
        let Some(thread) = self.thread.take() else {
            return true;
        };
        let t0 = std::time::Instant::now();
        while !thread.is_finished() {
            if t0.elapsed() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        thread.join().is_ok()
    }
}

/// Spawns the coordinator heartbeat: PING every shard each `interval` so
/// `STATS` shows per-shard liveness even between queries. The loop sleeps
/// on a condvar, so [`HeartbeatHandle::stop`] interrupts it promptly
/// instead of waiting out the interval.
pub fn spawn_heartbeat(
    shards: Arc<ShardSet>,
    config: CoordConfig,
    interval: Duration,
) -> std::io::Result<HeartbeatHandle> {
    let stop = Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
    let stop_flag = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("ceci-heartbeat".to_string())
        .spawn(move || loop {
            {
                let (lock, cvar) = &*stop_flag;
                let mut stopped = lock
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                while !*stopped {
                    let (guard, timed_out) = cvar
                        .wait_timeout(stopped, interval)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    stopped = guard;
                    if timed_out.timed_out() {
                        break;
                    }
                }
                if *stopped {
                    return;
                }
            }
            for status in &shards.shards {
                match probe(&status.addr, &config) {
                    Ok(()) => status.set_liveness(ShardLiveness::Alive),
                    Err(_) => status.set_liveness(ShardLiveness::Dead),
                }
            }
        })?;
    Ok(HeartbeatHandle {
        stop,
        thread: Some(thread),
    })
}

/// Validates every configured shard at coordinator startup: each must
/// answer PING within the retry budget (with backoff between attempts) or
/// startup fails with a typed [`CoordError`] instead of a panic.
pub fn validate_shards(set: &ShardSet, config: &CoordConfig) -> Result<(), CoordError> {
    for status in &set.shards {
        let mut last = String::new();
        let mut ok = false;
        for attempt in 0..=config.attempt_budget {
            match probe(&status.addr, config) {
                Ok(()) => {
                    ok = true;
                    break;
                }
                Err(e) => last = e.to_string(),
            }
            if attempt < config.attempt_budget {
                std::thread::sleep(config.retry.backoff(attempt));
            }
        }
        if ok {
            status.set_liveness(ShardLiveness::Alive);
        } else {
            status.set_liveness(ShardLiveness::Dead);
            return Err(CoordError {
                addr: status.addr.clone(),
                reason: format!("{last} (after {} attempts)", config.attempt_budget + 1),
            });
        }
    }
    Ok(())
}

/// Formats the `PREPARE` line pinning `spec`'s decisions under `name`.
pub fn prepare_line(name: &str, query_path: &str, spec: &PlanSpec) -> String {
    let order: Vec<String> = spec.order.iter().map(|u| u.0.to_string()).collect();
    let mut line = format!(
        "PREPARE {name} {query_path} ROOT {} ORDER {} RADIUS {}",
        spec.root.0,
        order.join(","),
        spec.radius
    );
    if !spec.sym.is_empty() {
        let pair = |c: &OrderConstraint| format!("{}:{}", c.smaller.0, c.larger.0);
        let pairs: Vec<String> = spec.sym.iter().map(pair).collect();
        line.push_str(" SYM ");
        line.push_str(&pairs.join(","));
    }
    if spec.sym_complete {
        line.push_str(" SYMCOMPLETE");
    }
    line
}

/// Outcome of one scattered query.
#[derive(Debug, Default)]
pub struct ScatterReport {
    /// The total embedding count (bit-identical to single-process).
    pub total: u64,
    /// Pivots executed and committed via shard RPCs.
    pub shard_commits: u64,
    /// Pivots finished by the coordinator's local fallback.
    pub local_fallback: u64,
    /// Re-scatter events (a shard declared dead mid-query).
    pub rescatters: u64,
    /// Commits the board rejected as stale/duplicate.
    pub stale_rejected: u64,
    /// Reconnects performed across all drivers.
    pub reconnects: u64,
    /// Wall time of the scattered execution.
    pub wall: Duration,
}

/// Why a shard RPC attempt failed.
enum RpcFailure {
    /// Transport-level (reset, timeout, EOF): reconnect and retry.
    Io,
    /// The shard answered `ERR` (e.g. unknown PREPARE handle after a
    /// restart): re-`PREPARE` and retry.
    Refused,
}

/// Executes `EXEC` for one pivot over an established client.
fn rpc_exec(
    client: &mut Client,
    name: &str,
    pivot: VertexId,
    epoch: u32,
) -> Result<u64, RpcFailure> {
    match client.request(&exec_line(name, pivot, epoch)) {
        Ok(resp) if resp.is_ok() => resp.field_u64("count").ok_or(RpcFailure::Refused),
        Ok(_) => Err(RpcFailure::Refused),
        Err(_) => Err(RpcFailure::Io),
    }
}

/// Formats the `EXEC` line for one pivot under ownership epoch `epoch`.
pub fn exec_line(name: &str, pivot: VertexId, epoch: u32) -> String {
    format!("EXEC {name} {} {epoch}", pivot.0)
}

/// The recovery state machine, shared by the shard drivers and the
/// coordinator's fallback loop.
fn lock(core: &Mutex<Recovery>) -> MutexGuard<'_, Recovery> {
    core.lock()
        .expect("a shard driver panicked inside the recovery state machine")
}

/// A graph numbered by `ids`, presented in file ids.
struct FileIds<'a> {
    graph: &'a Graph,
    ids: &'a Ranking,
}

impl AdjacencySource for FileIds<'_> {
    fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    fn directed(&self) -> bool {
        self.graph.is_directed_input()
    }

    fn for_each_neighbor(&self, v: VertexId, f: &mut dyn FnMut(VertexId)) {
        let neighbors = self.graph.neighbors(self.ids.rank(v));
        neighbors.iter().for_each(|&nb| f(self.ids.file(nb)));
    }

    fn label_set(&self, v: VertexId) -> LabelSet {
        self.graph.labels(self.ids.rank(v)).clone()
    }
}

/// Runs one query scattered over `shards`, recovering from any shard
/// failures, and returns the exact total.
///
/// `full` is numbered by `ids` (its file ids are what the shards loaded;
/// pass [`Ranking::identity`] for a graph in file numbering), and `plan`
/// must be built against it; `query_path` must be readable by the shard
/// processes (they re-load and re-validate it).
pub fn scatter_match(
    full: &Graph,
    ids: &Ranking,
    plan: &QueryPlan,
    query_path: &str,
    handle: &str,
    shards: &ShardSet,
    config: &CoordConfig,
) -> ScatterReport {
    let t0 = Instant::now();
    let pivots = plan.initial_candidates(plan.root()).to_vec();
    let spec = PlanSpec::of(plan);
    let prepare = prepare_line(handle, query_path, &spec);
    let cluster = ClusterConfig {
        machines: shards.len().max(1),
        ..Default::default()
    };
    let mut assignment = distribute_pivots(full, &pivots, &cluster).assignment;
    for own in &mut assignment {
        own.iter_mut().for_each(|p| *p = ids.file(*p));
        own.sort_unstable();
    }
    let file_ids = FileIds { graph: full, ids };
    let core = Mutex::new(Recovery::new(&assignment, true));
    let mut report = ScatterReport::default();

    std::thread::scope(|scope| {
        let drivers: Vec<_> = (shards.shards.iter().enumerate())
            .map(|(idx, status)| {
                let driver = Driver {
                    idx,
                    status,
                    core: &core,
                    prepare: &prepare,
                    handle,
                    config,
                    t0,
                };
                scope.spawn(move || driver.run())
            })
            .collect();
        // Coordinator main loop: watch for the all-dead / hard-wall
        // conditions and finish the remainder locally so the query always
        // terminates with the exact answer.
        while lock(&core).remaining() > 0 {
            let all_dead = (shards.shards.iter()).all(|s| s.liveness() == ShardLiveness::Dead);
            if !(all_dead || t0.elapsed() > config.hard_wall) {
                std::thread::sleep(Duration::from_millis(2));
                continue;
            }
            // A driver may still rejoin, or declare its shard dead, while
            // this runs: a count whose epoch went stale is recomputed.
            let pending = lock(&core).uncommitted();
            for (pivot, epoch) in pending {
                // What a shard's `EXEC` of this pivot answers.
                let count = count_fragment(&file_ids, &spec, &[pivot]).embeddings;
                if lock(&core).commit(pivot, epoch, count) {
                    report.local_fallback += 1;
                }
            }
        }
        for driver in drivers {
            let tally = driver.join().expect("shard driver panicked");
            report.shard_commits += tally.commits;
            report.rescatters += tally.rescatters;
            report.reconnects += tally.reconnects;
        }
    });

    let core = lock(&core);
    report.total = core.total();
    report.stale_rejected = core.rejected();
    report.wall = t0.elapsed();
    report
}

/// What one shard driver did during a query.
#[derive(Default)]
struct DriverTally {
    commits: u64,
    rescatters: u64,
    reconnects: u64,
}

/// One shard's driver: executor `idx` of the recovery state machine.
struct Driver<'a> {
    idx: usize,
    status: &'a ShardStatus,
    core: &'a Mutex<Recovery>,
    prepare: &'a str,
    handle: &'a str,
    config: &'a CoordConfig,
    t0: Instant,
}

impl Driver<'_> {
    /// Dials the shard and re-sends `PREPARE` (idempotent) so `EXEC`s find
    /// the handle even after a shard restart wiped its plan store. `None`
    /// when the dial, the request or the shard's answer fails.
    fn connect_and_prepare(&self) -> Option<Client> {
        let mut client = dial(&self.status.addr, self.config).ok()?;
        let prepared = client.request(self.prepare).ok()?.is_ok();
        prepared.then_some(client)
    }

    fn run(&self) -> DriverTally {
        let mut tally = DriverTally::default();
        let mut client: Option<Client> = None;
        let mut failures = 0u32;
        let mut ever_connected = false;
        while lock(self.core).remaining() > 0 && self.t0.elapsed() <= self.config.hard_wall {
            let Some(conn) = client.as_mut() else {
                match self.connect_and_prepare() {
                    Some(c) => {
                        client = Some(c);
                        if ever_connected {
                            tally.reconnects += 1;
                            self.status.reconnects.fetch_add(1, Ordering::Relaxed);
                        }
                        ever_connected = true;
                        self.status.set_liveness(ShardLiveness::Alive);
                        lock(self.core).revive(self.idx);
                        failures = 0;
                    }
                    None => self.on_failure(&mut failures, &mut tally, RpcFailure::Io),
                }
                continue;
            };
            // Own work first, then steal, then speculate on anybody's
            // in-flight pivot — first commit wins either way.
            let Some(work) = lock(self.core).next(self.idx, |_| true) else {
                std::thread::sleep(Duration::from_millis(2));
                continue;
            };
            match rpc_exec(conn, self.handle, work.pivot, work.epoch) {
                Ok(count) => {
                    failures = 0;
                    if lock(self.core).commit(work.pivot, work.epoch, count) {
                        tally.commits += 1;
                        self.status.executed.fetch_add(1, Ordering::Relaxed);
                    } else {
                        self.status.commits_rejected.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Err(kind) => {
                    lock(self.core).requeue(self.idx, work.pivot);
                    client = None;
                    self.on_failure(&mut failures, &mut tally, kind);
                }
            }
        }
        tally
    }

    /// Handles one failed dial or RPC (the connection is already dropped,
    /// so the next iteration re-dials and re-`PREPARE`s — the
    /// restart-wiped-plan case): an `Io` failure backs off first, and past
    /// the attempt budget the shard is declared dead — its uncommitted
    /// pivots, queued or in flight, go to the living under a bumped epoch —
    /// and the driver waits out the rejoin cadence.
    fn on_failure(&self, failures: &mut u32, tally: &mut DriverTally, kind: RpcFailure) {
        *failures += 1;
        if *failures > self.config.attempt_budget {
            self.status.set_liveness(ShardLiveness::Dead);
            if !lock(self.core).declare_dead(self.idx).is_empty() {
                tally.rescatters += 1;
                self.status.rescatters.fetch_add(1, Ordering::Relaxed);
            }
            *failures = 0;
            std::thread::sleep(self.config.rejoin_interval);
        } else if matches!(kind, RpcFailure::Io) {
            std::thread::sleep(self.config.retry.backoff(*failures - 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coord_error_is_typed() {
        let e = CoordError {
            addr: "127.0.0.1:1".to_string(),
            reason: "connection refused".to_string(),
        };
        let s = e.to_string();
        assert!(s.starts_with("E_SHARD"), "{s}");
        assert!(s.contains("127.0.0.1:1"));
    }

    #[test]
    fn shard_set_tracks_liveness() {
        let set = ShardSet::new(&["a:1".to_string(), "b:2".to_string()]);
        assert_eq!(set.len(), 2);
        assert_eq!(set.alive(), 0);
        set.shards[0].set_liveness(ShardLiveness::Alive);
        assert_eq!(set.alive(), 1);
        assert_eq!(set.shards[1].liveness(), ShardLiveness::Unknown);
        set.shards[1].set_liveness(ShardLiveness::Dead);
        assert_eq!(set.shards[1].liveness(), ShardLiveness::Dead);
    }
}
