//! The `ceci-serve` server proper: start-up and shutdown, request routing,
//! and request execution against the registry / index cache / worker pool.
//!
//! ## Threading model
//!
//! * A single epoll readiness loop (`crate::event_loop`) owns every
//!   connection, each driven by the sans-IO line-connection state machine
//!   (`crate::conn`), so 10k+ mostly-idle connections cost file
//!   descriptors, not threads.
//! * The **control plane** (`LOAD`, `STATS`, `PING`, `QUIT`) runs inline on
//!   the loop thread: these are cheap or operator-driven and must stay
//!   responsive even when the data plane is saturated.
//! * The **data plane** (`MATCH`, `EXPLAIN`, `SLEEP`) is submitted to the
//!   bounded [`WorkerPool`]; a full queue answers `BUSY` immediately
//!   (admission control), and each connection has at most one request in
//!   flight, so responses stay in request order.
//!
//! ## Deadlines
//!
//! `MATCH ... DEADLINE <ms>` arms a [`CancelToken`] when the job *starts
//! executing* (queue wait does not consume the budget). The token is
//! checked around the index build and threaded into
//! [`enumerate_parallel_cancellable`], so enumeration unwinds cooperatively
//! and the response reports the partial count with
//! `status=DEADLINE_EXCEEDED`.
//!
//! ## Fault tolerance
//!
//! * A panicking data-plane job is caught at the pool boundary; the worker
//!   respawns, the waiting connection gets `ERR E_WORKER_DROPPED`, and the
//!   `panics_caught` / `worker_drops` counters record it.
//! * A panicking *index build* additionally quarantines its cache key (see
//!   [`index_for`]) so the same poisonous request fails fast afterwards.
//! * The `CHAOS` verb (enabled with [`ServeConfig::chaos`]) injects these
//!   failures on demand for testing.

use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ceci_core::{
    admit, batch_delta, count_embeddings, enumerate_parallel_cancellable, estimate_embeddings,
    explain_choice, explain_estimates, ns_per_unit_from_profile, plan_with_options, replan_price,
    AdaptiveOptions, Admission as DeadlineVerdict, CancelToken, Ceci, EnumOptions, EstimateOptions,
    ParallelOptions, PlanChoice, ReplanPrice, Reuse, DEFAULT_NS_PER_UNIT,
};
use ceci_graph::io as graph_io;
use ceci_graph::{vid, Graph, VertexId};
use ceci_query::{
    admission_check, CanonicalQuery, OrderStrategy, PlanOptions, QueryGraph, QueryPlan,
};
use ceci_stream::{RepairStats, StreamIndex};
use ceci_trace::{PromWriter, Tracer};

use crate::cache::{CachedIndex, FlightProbe, FlightWait, IndexCache, PlanFeedback, Probe};
use crate::coord::{self, CoordConfig, HeartbeatHandle, ShardLiveness, ShardSet};
use crate::event_loop::{lock_recover, EventLoop, LoopShared, SharedWriter};
use crate::metrics::ServerMetrics;
use crate::pool::WorkerPool;
use crate::protocol::{ChaosCommand, ErrorCode, MatchStatus, Request};
use crate::registry::{ContinuousQuery, ContinuousRegistry, GraphEntry, GraphRegistry};

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Data-plane pool threads.
    pub pool_workers: usize,
    /// Pending-job cap; beyond it requests bounce with `BUSY`.
    pub queue_cap: usize,
    /// Index-cache byte budget (0 disables caching).
    pub cache_budget_bytes: usize,
    /// Enumeration threads per MATCH when the request doesn't say.
    pub default_match_workers: usize,
    /// Hard cap on per-request `WORKERS`.
    pub max_match_workers: usize,
    /// BFS-filter worker threads per cache-miss index build (any value
    /// yields a bit-identical index; see `ceci_core::BuildOptions`).
    pub build_threads: usize,
    /// Enable the `CHAOS` fault-injection verb. Off by default; without it
    /// `CHAOS` answers `ERR E_CHAOS_DISABLED` and injects nothing.
    pub chaos: bool,
    /// Record `service.request` span timelines (queue wait → cache probe →
    /// build → enumerate → serialize) into [`ServerState::tracer`]. Off by
    /// default: the span store grows with request count, which is fine for
    /// tests and bounded benchmark runs but not for an unattended server.
    pub trace: bool,
    /// Label-pair admission filter: answer provably-zero MATCHes with
    /// `count=0` before any cache probe or index build (`MATCH ... RAW`
    /// bypasses it per request).
    pub admission_filter: bool,
    /// Dedupe concurrent cache misses on the same `(epoch, canonical)` key
    /// into one build with N−1 waiters ([`IndexCache::begin`]).
    pub single_flight: bool,
    /// Redundant-extension elimination at the enumeration leaf (CEMR-style
    /// sibling-subtree reuse; bit-identical counts, fewer intersections).
    pub prune_redundant: bool,
    /// Matching-order prefix length of the structural frontier
    /// (`ceci_core::PrefixSpec`). The server no longer builds one: the field
    /// is read only by the ledger's replay (`benchmark/`, the `core.batch.*`
    /// cells) and is retired by the `benchmark` PR that drops `core.batch.*`
    /// / `service.batch.*`.
    pub batch_prefix_depth: usize,
    /// Net mutations since the last compaction that trigger the next one:
    /// the fresh snapshot gets an exact label-pair index rebuild and
    /// becomes the streamed graph's base.
    pub compact_threshold: usize,
    /// Applied mutation batches whose dirty endpoints are retained per
    /// graph; a stale index older than the log drops its tables and is
    /// rebuilt frozen under its plan instead of patched.
    pub dirty_log_cap: usize,
    /// Repair a stale cached index forward under its retained plan instead
    /// of rebuilding it as a miss. The maintainable tables a repair works
    /// on exist only where a small mutation asked for them: a miss builds
    /// none, the first stale probe after a small batch builds them against
    /// its snapshot, later ones move them out of the dead entry and patch
    /// them from the dirty log, and a probe whose gap is too large to merge
    /// (or off the log) drops them and rebuilds the frozen index alone.
    /// Off: every stale probe is a miss.
    pub stream_repair: bool,
    /// Cost-model-driven adaptive execution. A cache miss plans as the
    /// paper does (best root, BFS order) and takes one 64-walk cost
    /// estimate from the index it built; that estimate chooses the parallel
    /// strategy and worker count, and `MATCH ... DEADLINE` degrades to an
    /// APPROX answer (or `E_INFEASIBLE`) when the exact run cannot finish
    /// in time. The plan portfolio (order × root) is rented, not bought:
    /// every execution adds its exact enumeration work
    /// (`intersection_ops + recursive_calls`) to the cached entry, and the
    /// first current request that finds that spent work at or above the
    /// price of scoring the challengers plus one rebuild
    /// ([`ceci_core::replan_price`], the build's own adjacency-scan count
    /// in the same unit) scores them once and rebuilds the entry under a
    /// challenger only if the saving already in sight — the incumbent's
    /// observed work against the challenger's estimate plus its error, over
    /// the executions served so far — pays for the rebuild. At most once
    /// per entry; the ledger rides along through repairs. Both sides are
    /// counters, not clocks, so
    /// the same traffic re-plans at the same request on every run; a query
    /// never asked again pays nothing. Exact counts are bit-identical to
    /// fixed-BFS planning.
    pub adaptive: bool,
    /// Per-connection socket read/write timeout in milliseconds (0 = off).
    /// A half-open or stalled peer gets `ERR E_TIMEOUT` and its connection
    /// closed instead of holding its connection slot forever. Connections
    /// holding continuous-query registrations are exempt while idle (they
    /// legitimately sit waiting for pushed events).
    pub io_timeout_ms: u64,
    /// Shard addresses (coordinator mode when non-empty): plain count-only
    /// `MATCH`es scatter their pivots across these `ceci-shard` processes.
    pub shards: Vec<String>,
    /// Coordinator-side RPC read/write timeout per shard call, ms.
    pub shard_io_timeout_ms: u64,
    /// Consecutive failed shard RPC attempts before the shard is declared
    /// dead and its pivots re-scattered to survivors.
    pub shard_retries: u32,
    /// Shard heartbeat (PING) interval, ms (0 = no heartbeat thread).
    pub shard_heartbeat_ms: u64,
    /// Concurrent-connection cap; accepts beyond it are refused with
    /// `BUSY` instead of queueing unserviced sockets.
    pub max_conns: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            pool_workers: 2,
            queue_cap: 64,
            cache_budget_bytes: 64 << 20,
            default_match_workers: 1,
            max_match_workers: 8,
            build_threads: 1,
            chaos: false,
            trace: false,
            admission_filter: true,
            single_flight: true,
            prune_redundant: true,
            batch_prefix_depth: 2,
            compact_threshold: 32_768,
            dirty_log_cap: 64,
            stream_repair: true,
            adaptive: true,
            io_timeout_ms: 30_000,
            shards: Vec::new(),
            shard_io_timeout_ms: 5_000,
            shard_retries: 3,
            shard_heartbeat_ms: 1_000,
            max_conns: 10_000,
        }
    }
}

/// Shared server state: everything a connection (or pool job) needs.
pub struct ServerState {
    /// Named loaded graphs.
    pub registry: GraphRegistry,
    /// Frozen-index cache.
    pub cache: IndexCache,
    /// Aggregate counters + latency histograms.
    pub metrics: ServerMetrics,
    /// `service.request` span store (recording only when
    /// [`ServeConfig::trace`] is set; always safe to snapshot).
    pub tracer: Tracer,
    config: ServeConfig,
    pub(crate) stopping: AtomicBool,
    /// One-shot flag armed by `CHAOS BUILDPANIC`: the next index build
    /// panics (and is caught, quarantining its cache key).
    build_panic_armed: AtomicBool,
    /// One-shot delay armed by `CHAOS BUILDDELAY <ms>`: the next index
    /// build sleeps first, widening the single-flight window so tests can
    /// deterministically pile waiters behind one leader.
    build_delay_ms: AtomicU64,
    /// Persistent stall armed by `CHAOS STALL <ms>`: every data-plane job
    /// sleeps this long before running (0 disarms). The process-level
    /// slow-server lever, mirroring the shard's.
    pub(crate) chaos_stall_ms: AtomicU64,
    /// Continuous-query registrations by handle.
    pub(crate) continuous: ContinuousRegistry,
    /// Shard table (coordinator mode); `None` without configured shards.
    shards: Option<Arc<ShardSet>>,
}

impl ServerState {
    /// Builds fresh state from a config.
    pub fn new(config: ServeConfig) -> Self {
        let tracer = Tracer::new();
        tracer.set_enabled(config.trace);
        let shards = (!config.shards.is_empty()).then(|| Arc::new(ShardSet::new(&config.shards)));
        ServerState {
            registry: GraphRegistry::new(),
            cache: IndexCache::new(config.cache_budget_bytes),
            metrics: ServerMetrics::default(),
            tracer,
            config,
            stopping: AtomicBool::new(false),
            build_panic_armed: AtomicBool::new(false),
            build_delay_ms: AtomicU64::new(0),
            chaos_stall_ms: AtomicU64::new(0),
            continuous: ContinuousRegistry::default(),
            shards,
        }
    }

    /// The config the server was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The shard table when running as a coordinator.
    pub fn shards(&self) -> Option<&Arc<ShardSet>> {
        self.shards.as_ref()
    }

    /// Coordinator tunables derived from the serve config; the connect
    /// timeout and rejoin cadence are [`CoordConfig::default`]'s constants.
    pub fn coord_config(&self) -> CoordConfig {
        CoordConfig {
            io_timeout: Duration::from_millis(self.config.shard_io_timeout_ms.max(1)),
            attempt_budget: self.config.shard_retries,
            ..CoordConfig::default()
        }
    }

    /// Number of live continuous-query registrations.
    pub fn continuous_len(&self) -> usize {
        self.continuous.len()
    }
}

/// What [`ServerHandle::shutdown`] actually managed to stop. Callers that
/// ignore it keep working; tests and supervisors assert on it — a `false`
/// is reported instead of hanging forever or silently leaking the thread.
#[derive(Clone, Copy, Debug)]
pub struct ShutdownReport {
    /// The event-loop thread (which owns the listener) observed the stop
    /// signal and joined within the shutdown deadline.
    pub accept_joined: bool,
    /// The shard heartbeat thread (when one was running) joined within the
    /// deadline (`true` when no heartbeat was configured).
    pub heartbeat_joined: bool,
}

impl ShutdownReport {
    /// Every owned thread joined.
    pub fn clean(&self) -> bool {
        self.accept_joined && self.heartbeat_joined
    }
}

/// How long [`ServerHandle::shutdown`] waits for owned threads to join
/// before reporting failure instead of blocking forever.
const SHUTDOWN_DEADLINE: Duration = Duration::from_secs(5);

/// Joins a thread with a deadline by polling `is_finished` (std has no
/// timed join); `false` means the thread is still running and was leaked.
fn join_with_deadline(handle: JoinHandle<()>, deadline: Duration) -> bool {
    let start = Instant::now();
    while !handle.is_finished() {
        if start.elapsed() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.join().is_ok()
}

/// A running server; dropping the handle does *not* stop it — call
/// [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    loop_thread: JoinHandle<()>,
    pool: Option<WorkerPool>,
    /// Event-loop wakeup: shutdown writes the eventfd.
    loop_shared: Arc<LoopShared>,
    heartbeat: Option<HeartbeatHandle>,
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state — the integration tests and the in-process load
    /// generator read metrics and preload graphs through this.
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Stops accepting connections, drains the pool, and joins the owned
    /// threads (event loop, shard heartbeat) with a deadline. Open
    /// connections are closed with the loop.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.state.stopping.store(true, Ordering::SeqCst);
        // The eventfd interrupts the loop's epoll_wait.
        self.loop_shared.wake();
        let accept_joined = join_with_deadline(self.loop_thread, SHUTDOWN_DEADLINE);
        let heartbeat_joined = match self.heartbeat.take() {
            Some(hb) => hb.stop(SHUTDOWN_DEADLINE),
            None => true,
        };
        if let Some(pool) = self.pool.take() {
            pool.shutdown();
        }
        ShutdownReport {
            accept_joined,
            heartbeat_joined,
        }
    }
}

/// Binds and starts serving; returns once the listener is live.
pub fn start(config: ServeConfig) -> std::io::Result<ServerHandle> {
    start_with_state(Arc::new(ServerState::new(config)))
}

/// Starts serving over pre-built state (lets callers preload graphs before
/// the first connection).
pub fn start_with_state(state: Arc<ServerState>) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&state.config.addr)?;
    let addr = listener.local_addr()?;
    // Every caught pool panic bumps the server metric so STATS shows it.
    let hook_state = Arc::clone(&state);
    let pool = WorkerPool::with_panic_hook(
        state.config.pool_workers,
        state.config.queue_cap,
        Some(Arc::new(move || {
            ServerMetrics::inc(&hook_state.metrics.panics_caught);
        })),
    )?;
    // Build the loop here so epoll/eventfd setup errors surface to the
    // caller, then hand it to its thread.
    let spawned = EventLoop::new(listener, Arc::clone(&state), pool.handle()).and_then(
        |(event_loop, shared)| {
            let thread = std::thread::Builder::new()
                .name("ceci-loop".to_string())
                .spawn(move || event_loop.run())?;
            Ok((thread, shared))
        },
    );
    let (loop_thread, loop_shared) = match spawned {
        Ok(started) => started,
        Err(e) => {
            pool.shutdown();
            return Err(e);
        }
    };
    // Coordinator heartbeat: PING every shard on a cadence so STATS shows
    // per-shard liveness even between queries. The handle is kept and
    // joined (with a deadline) on shutdown; a spawn failure degrades to
    // no heartbeat rather than failing the server.
    let heartbeat = match (&state.shards, state.config.shard_heartbeat_ms) {
        (Some(shards), ms) if ms > 0 => coord::spawn_heartbeat(
            Arc::clone(shards),
            state.coord_config(),
            Duration::from_millis(ms),
        )
        .ok(),
        _ => None,
    };
    Ok(ServerHandle {
        addr,
        state,
        loop_thread,
        pool: Some(pool),
        loop_shared,
        heartbeat,
    })
}

/// A routed data-plane job: runs on a pool worker with the shared state and
/// the measured queue wait, returns the response lines.
pub(crate) type DataJob = Box<dyn FnOnce(&Arc<ServerState>, Duration) -> Vec<String> + Send>;

/// Where a request executes: inline on the loop thread (control plane) or
/// on the worker pool (data plane).
pub(crate) enum Routed {
    /// Already-computed response lines.
    Inline(Vec<String>),
    /// A job for the bounded pool (admission control applies).
    Data(DataJob),
}

/// Routes a request: control plane executes inline and returns its lines,
/// data plane becomes a pool job. `writer` is this connection's response
/// sink; `REGISTER` captures it so later mutation batches can push
/// `EVENT DELTA` lines back here.
pub(crate) fn route(request: Request, state: &Arc<ServerState>, writer: &SharedWriter) -> Routed {
    match request {
        Request::Ping => Routed::Inline(vec!["OK PONG".to_string()]),
        Request::Quit => Routed::Inline(vec!["OK BYE".to_string()]),
        Request::Stats { prom } => Routed::Inline(exec_stats(state, prom)),
        Request::Load {
            name,
            path,
            edge_list,
            directed,
        } => Routed::Inline(exec_load(state, &name, &path, edge_list, directed)),
        Request::Chaos { command } => route_chaos(command, state),
        Request::Prepare { .. } | Request::Exec { .. } => {
            ServerMetrics::inc(&state.metrics.errors);
            Routed::Inline(vec![ErrorCode::Shard.line(
                "this is a ceci-serve query daemon; PREPARE/EXEC are served by ceci-shard",
            )])
        }
        data_plane => {
            let sink = Arc::clone(writer);
            Routed::Data(Box::new(move |job_state, queue_wait| match data_plane {
                Request::Match {
                    graph,
                    query_path,
                    limit,
                    deadline_ms,
                    workers,
                    raw,
                    exact,
                } => exec_match(
                    job_state,
                    &graph,
                    &query_path,
                    limit,
                    deadline_ms,
                    workers,
                    raw,
                    exact,
                    queue_wait,
                ),
                Request::Estimate {
                    graph,
                    query_path,
                    walks,
                } => exec_estimate(job_state, &graph, &query_path, walks),
                Request::Explain {
                    graph,
                    query_path,
                    analyze,
                } => exec_explain(job_state, &graph, &query_path, analyze),
                Request::Mutate { graph, adds, dels } => {
                    exec_mutate(job_state, &graph, &adds, &dels)
                }
                Request::BatchFile { graph, path } => exec_batch_file(job_state, &graph, &path),
                Request::Register {
                    name,
                    graph,
                    query_path,
                } => exec_register(job_state, &name, &graph, &query_path, sink),
                Request::Unregister { name } => exec_unregister(job_state, &name),
                Request::Sleep { ms } => {
                    std::thread::sleep(Duration::from_millis(ms));
                    vec![format!("OK SLEPT {ms}")]
                }
                _ => unreachable!("control-plane request reached the pool"),
            }))
        }
    }
}

/// Routes a `CHAOS` command (chaos mode only). `PANIC` and `DELAY` become
/// data-plane jobs so they exercise the same pool failure paths a panicking
/// `MATCH` would.
fn route_chaos(command: ChaosCommand, state: &Arc<ServerState>) -> Routed {
    if !state.config.chaos {
        ServerMetrics::inc(&state.metrics.errors);
        return Routed::Inline(vec![ErrorCode::ChaosDisabled
            .line("start the server with --chaos to enable fault injection")]);
    }
    ServerMetrics::inc(&state.metrics.chaos_injected);
    match command {
        ChaosCommand::BuildPanic => {
            state.build_panic_armed.store(true, Ordering::SeqCst);
            Routed::Inline(vec!["OK CHAOS armed=BUILDPANIC".to_string()])
        }
        ChaosCommand::BuildDelay { ms } => {
            state.build_delay_ms.store(ms, Ordering::SeqCst);
            Routed::Inline(vec![format!("OK CHAOS armed=BUILDDELAY ms={ms}")])
        }
        ChaosCommand::Panic => Routed::Data(Box::new(|_, _| {
            panic!("injected CHAOS PANIC in pool worker")
        })),
        ChaosCommand::Delay { ms } => Routed::Data(Box::new(move |_, _| {
            std::thread::sleep(Duration::from_millis(ms));
            vec![format!("OK CHAOS delayed_ms={ms}")]
        })),
        ChaosCommand::Exit { after_ms } => {
            // Answer first (the spawned thread exits the whole process);
            // the deterministic stand-in for kill -9.
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(after_ms));
                std::process::exit(42);
            });
            Routed::Inline(vec![format!("OK CHAOS armed=EXIT after_ms={after_ms}")])
        }
        ChaosCommand::Stall { ms } => {
            state.chaos_stall_ms.store(ms, Ordering::SeqCst);
            Routed::Inline(vec![format!("OK CHAOS armed=STALL ms={ms}")])
        }
    }
}

fn exec_stats(state: &ServerState, prom: bool) -> Vec<String> {
    if prom {
        let mut lines: Vec<String> = render_prometheus(state)
            .lines()
            .map(str::to_string)
            .collect();
        lines.push("OK STATS".to_string());
        return lines;
    }
    let extra = [
        ("graphs_loaded", state.registry.len() as u64),
        ("cache_entries", state.cache.len() as u64),
        ("cache_bytes", state.cache.bytes() as u64),
        (
            "cache_quarantined_keys",
            state.cache.quarantined_len() as u64,
        ),
        ("trace_spans", state.tracer.len() as u64),
        ("continuous_registrations", state.continuous_len() as u64),
        (
            "shards_configured",
            state.shards.as_ref().map_or(0, |s| s.len()) as u64,
        ),
        (
            "shards_alive",
            state.shards.as_ref().map_or(0, |s| s.alive()) as u64,
        ),
    ];
    let mut lines = state.metrics.render(&extra);
    // Per-shard status lines (coordinator mode): one `SHARD` payload line
    // per configured shard, after the sorted STAT rows.
    if let Some(shards) = state.shards.as_ref() {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        for (i, s) in shards.shards.iter().enumerate() {
            let liveness = match s.liveness() {
                ShardLiveness::Unknown => "unknown",
                ShardLiveness::Alive => "alive",
                ShardLiveness::Dead => "dead",
            };
            lines.push(format!(
                "SHARD {i} addr={} state={liveness} reconnects={} rescatters={} \
                 executed={} commits_rejected={}",
                s.addr,
                g(&s.reconnects),
                g(&s.rescatters),
                g(&s.executed),
                g(&s.commits_rejected),
            ));
        }
    }
    lines.push("OK STATS".to_string());
    lines
}

/// Renders the full metric surface in Prometheus text-exposition format
/// 0.0.4 (the `STATS PROM` payload). The output always passes
/// [`ceci_trace::prom::validate`]; the integration tests hold it to that.
pub fn render_prometheus(state: &ServerState) -> String {
    let m = &state.metrics;
    let g = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
    let mut w = PromWriter::new();
    let counters: [(&str, &str, u64); 34] = [
        (
            "ceci_requests_total",
            "Request lines accepted (parse successes)",
            g(&m.requests),
        ),
        (
            "ceci_match_requests_total",
            "MATCH requests admitted",
            g(&m.match_requests),
        ),
        (
            "ceci_load_requests_total",
            "LOAD requests served",
            g(&m.load_requests),
        ),
        (
            "ceci_rejected_busy_total",
            "Requests rejected BUSY by admission control",
            g(&m.rejected_busy),
        ),
        (
            "ceci_deadline_exceeded_total",
            "MATCH requests that hit their deadline",
            g(&m.deadline_exceeded),
        ),
        ("ceci_errors_total", "Requests answered ERR", g(&m.errors)),
        (
            "ceci_cache_hits_total",
            "Index-cache hits",
            g(&m.cache_hits),
        ),
        (
            "ceci_cache_misses_total",
            "Index-cache misses (CECI built)",
            g(&m.cache_misses),
        ),
        (
            "ceci_cache_evictions_total",
            "Cache entries evicted under the byte budget",
            g(&m.cache_evictions),
        ),
        (
            "ceci_cache_collisions_total",
            "Canonical-hash collisions detected by verification",
            g(&m.cache_collisions),
        ),
        (
            "ceci_worker_drops_total",
            "Data-plane jobs whose worker panicked mid-request",
            g(&m.worker_drops),
        ),
        (
            "ceci_panics_caught_total",
            "Job panics caught by pool supervisors",
            g(&m.panics_caught),
        ),
        (
            "ceci_cache_quarantined_total",
            "Index builds that panicked and were quarantined",
            g(&m.cache_quarantined),
        ),
        (
            "ceci_quarantine_hits_total",
            "Requests refused on a quarantined cache key",
            g(&m.quarantine_hits),
        ),
        (
            "ceci_chaos_injected_total",
            "CHAOS commands executed",
            g(&m.chaos_injected),
        ),
        (
            "ceci_embeddings_returned_total",
            "Embeddings returned across MATCH responses",
            g(&m.embeddings_returned),
        ),
        (
            "ceci_filter_rejected_total",
            "MATCH requests answered count=0 by the label-pair admission filter",
            g(&m.filter_rejected),
        ),
        (
            "ceci_cache_singleflight_waits_total",
            "MATCH requests that waited on another request's in-flight build",
            g(&m.singleflight_waits),
        ),
        (
            "ceci_mutation_batches_total",
            "Mutation batches applied (>=1 net edge change)",
            g(&m.mutation_batches),
        ),
        (
            "ceci_edges_added_total",
            "Net edges added by mutation batches",
            g(&m.edges_added),
        ),
        (
            "ceci_edges_deleted_total",
            "Net edges deleted by mutation batches",
            g(&m.edges_deleted),
        ),
        (
            "ceci_compactions_total",
            "Compactions: exact label-pair rebuilds adopting the fresh snapshot as base",
            g(&m.compactions),
        ),
        (
            "ceci_index_repairs_total",
            "Stale cached indexes repaired forward under their plan",
            g(&m.index_repairs),
        ),
        (
            "ceci_index_repair_rebases_total",
            "Repairs that dropped the maintainable tables and rebuilt the frozen index (mode=rebase)",
            g(&m.index_repair_rebases),
        ),
        (
            "ceci_index_repair_fallbacks_total",
            "Stale cached indexes rebuilt as a miss (repair off or panicked, entry from the future)",
            g(&m.index_repair_fallbacks),
        ),
        (
            "ceci_continuous_events_total",
            "Continuous-query delta events emitted",
            g(&m.continuous_events),
        ),
        (
            "ceci_adaptive_replans_total",
            "Cached indexes rebuilt under a challenger plan their reuse paid to score",
            g(&m.adaptive_replans),
        ),
        (
            "ceci_approx_answers_total",
            "Deadline-infeasible MATCH requests answered mode=APPROX",
            g(&m.approx_answers),
        ),
        (
            "ceci_infeasible_rejects_total",
            "Deadline-infeasible MATCH requests refused E_INFEASIBLE",
            g(&m.infeasible_rejects),
        ),
        (
            "ceci_io_timeouts_total",
            "Connections closed on a socket read/write timeout",
            g(&m.timeouts),
        ),
        (
            "ceci_connections_accepted_total",
            "Client connections accepted",
            g(&m.connections_accepted),
        ),
        (
            "ceci_connections_rejected_total",
            "Connections refused BUSY at the max-conns cap",
            g(&m.connections_rejected),
        ),
        (
            "ceci_event_push_failures_total",
            "EVENT pushes that failed on a dead subscriber connection",
            g(&m.event_push_failures),
        ),
        (
            "ceci_slow_reader_disconnects_total",
            "Connections dropped after overflowing their write queue",
            g(&m.slow_reader_disconnects),
        ),
    ];
    for (name, help, value) in counters {
        w.counter(name, help, value);
    }
    // Coordinator-mode shard surface: aggregate counters (per-shard detail
    // lives in the STATS `SHARD` lines; PromWriter has no label support).
    if let Some(shards) = state.shards.as_ref() {
        let sum = |f: &dyn Fn(&crate::coord::ShardStatus) -> u64| -> u64 {
            shards.shards.iter().map(f).sum()
        };
        w.gauge(
            "ceci_shards_configured",
            "Shard processes configured on this coordinator",
            shards.len() as u64,
        );
        w.gauge(
            "ceci_shards_alive",
            "Shards whose last probe or RPC succeeded",
            shards.alive() as u64,
        );
        w.counter(
            "ceci_shard_reconnects_total",
            "Successful shard reconnects after a failure",
            sum(&|s| s.reconnects.load(Ordering::Relaxed)),
        );
        w.counter(
            "ceci_shard_rescatters_total",
            "Re-scatter events (a shard declared dead mid-query)",
            sum(&|s| s.rescatters.load(Ordering::Relaxed)),
        );
        w.counter(
            "ceci_shard_commits_total",
            "Pivot counts committed via shard RPCs",
            sum(&|s| s.executed.load(Ordering::Relaxed)),
        );
        w.counter(
            "ceci_shard_commits_rejected_total",
            "Shard commits rejected as stale or duplicate",
            sum(&|s| s.commits_rejected.load(Ordering::Relaxed)),
        );
    }
    w.gauge(
        "ceci_graphs_loaded",
        "Graphs currently loaded in the registry",
        state.registry.len() as u64,
    );
    w.gauge(
        "ceci_cache_entries",
        "Frozen indexes currently cached",
        state.cache.len() as u64,
    );
    w.gauge(
        "ceci_cache_bytes",
        "Bytes of frozen indexes (and the maintainable tables repaired ones own) currently cached",
        state.cache.bytes() as u64,
    );
    w.gauge(
        "ceci_cache_quarantined_keys",
        "Cache keys currently quarantined",
        state.cache.quarantined_len() as u64,
    );
    w.gauge(
        "ceci_trace_spans",
        "Spans in the service tracer store",
        state.tracer.len() as u64,
    );
    w.gauge(
        "ceci_continuous_registrations",
        "Continuous queries currently registered",
        state.continuous_len() as u64,
    );
    w.gauge(
        "ceci_connections_open",
        "Client connections currently open",
        m.connections_open.load(Ordering::Relaxed),
    );
    for (hist, name, help) in [
        (
            &m.match_latency,
            "ceci_match_latency_us",
            "End-to-end MATCH latency (admission to response), microseconds",
        ),
        (
            &m.build_latency,
            "ceci_build_latency_us",
            "CECI build time on cache misses, microseconds",
        ),
        (
            &m.build_filter_latency,
            "ceci_build_filter_us",
            "BFS-filter phase time within builds (Algorithm 1), microseconds",
        ),
        (
            &m.build_refine_latency,
            "ceci_build_refine_us",
            "Reverse-BFS refinement phase time within builds (Algorithm 2), microseconds",
        ),
        (
            &m.index_repair_latency,
            "ceci_index_repair_us",
            "Stale-index repair time (tables built or patched + re-freeze, or the frozen rebuild), microseconds",
        ),
        (
            &m.plan_score_latency,
            "ceci_plan_score_us",
            "Plan-portfolio scoring time per re-plan a cached index's reuse paid for, microseconds",
        ),
    ] {
        let (cum, sum, count) = hist.cumulative_us();
        w.histogram(name, help, &cum, sum, count);
    }
    w.finish()
}

fn exec_load(
    state: &ServerState,
    name: &str,
    path: &str,
    edge_list: bool,
    directed: bool,
) -> Vec<String> {
    let loaded = if edge_list {
        graph_io::load_edge_list(path, directed)
    } else {
        graph_io::load_labeled(path)
    };
    match loaded {
        Err(e) => {
            ServerMetrics::inc(&state.metrics.errors);
            vec![ErrorCode::Load.line(format!("load failed: {e}"))]
        }
        Ok(graph) => {
            let (vertices, edges) = (graph.num_vertices(), graph.num_edges());
            let (entry, displaced) = state.registry.insert(name, graph);
            if let Some(old_epoch) = displaced {
                state.cache.evict_epoch(old_epoch);
            }
            // Continuous queries are pinned to the replaced entry's epoch;
            // their totals are meaningless against the new graph.
            state.continuous.lock().retain(|_, cq| cq.graph != name);
            ServerMetrics::inc(&state.metrics.load_requests);
            vec![format!(
                "OK LOADED name={name} vertices={vertices} edges={edges} epoch={}",
                entry.epoch
            )]
        }
    }
}

/// Loads + validates a query pattern file.
fn load_query(path: &str) -> Result<QueryGraph, String> {
    let pattern = graph_io::load_labeled(path).map_err(|e| format!("query load failed: {e}"))?;
    QueryGraph::from_graph(&pattern).map_err(|e| format!("invalid query: {e}"))
}

/// What [`run_build`] produces: the plan, the frozen index and (when
/// adaptive planning is on) the planner's decision record. No maintainable
/// tables: those are built by the first repair that needs them.
struct BuiltIndex {
    plan: Arc<QueryPlan>,
    ceci: Arc<Ceci>,
    choice: Option<PlanChoice>,
}

impl BuiltIndex {
    /// The cache entry for this build at `sub_epoch`, owning `tables` when
    /// the incumbent's moved over, and continuing (re-plan) or opening
    /// (miss) the rent/buy ledger.
    fn into_entry(
        self,
        state: &ServerState,
        canonical: CanonicalQuery,
        sub_epoch: u64,
        tables: Option<StreamIndex>,
        reuse: Option<Arc<Reuse>>,
    ) -> CachedIndex {
        let reuse = reuse.unwrap_or_else(|| {
            // A re-plan rebuilds the frozen index now and, with repair on,
            // the tables at the winner's next repair (the incumbent's are
            // for the wrong plan): both are in the price.
            let price = match &self.choice {
                Some(_) => replan_price(
                    &self.plan,
                    &self.ceci,
                    1 + state.config.stream_repair as u64,
                ),
                None => ReplanPrice::NEVER,
            };
            Arc::new(Reuse::new(price))
        });
        CachedIndex::new(
            canonical,
            self.plan,
            self.ceci,
            tables,
            sub_epoch,
            self.choice,
            reuse,
        )
    }
}

/// The plan a cache miss builds under. With [`ServeConfig::adaptive`] (the
/// default) that is the paper's own — best root, BFS order — plus the
/// one-candidate decision record a later re-plan extends.
fn plan_for_miss(
    state: &ServerState,
    graph: &Graph,
    query: QueryGraph,
) -> (QueryPlan, Option<PlanChoice>) {
    if !state.config.adaptive {
        return (QueryPlan::new(query, graph), None);
    }
    plan_with_options(
        query,
        graph,
        &PlanOptions {
            order: OrderStrategy::Adaptive,
            ..Default::default()
        },
        &AdaptiveOptions {
            max_workers: state.config.max_match_workers.max(1),
        },
    )
}

/// Runs the (panic-prone) plan + CECI build under `catch_unwind`, honoring
/// the one-shot chaos levers (`BUILDDELAY` sleeps first, then `BUILDPANIC`
/// fires, so the two compose). `Err(())` means the build panicked; the
/// caller quarantines the key (a miss) or keeps the incumbent (a re-plan).
///
/// The index is built once, under the plan `planner` returns, and a
/// decision record coming with it takes its cost estimate from walks over
/// that served index ([`PlanChoice::estimate_served`]).
fn run_build(
    state: &ServerState,
    graph: &Graph,
    planner: impl FnOnce() -> (QueryPlan, Option<PlanChoice>),
) -> Result<BuiltIndex, ()> {
    let delay_ms = state.build_delay_ms.swap(0, Ordering::SeqCst);
    let armed = state.build_panic_armed.swap(false, Ordering::SeqCst);
    let build_threads = state.config.build_threads.max(1);
    catch_unwind(AssertUnwindSafe(move || {
        if delay_ms > 0 {
            std::thread::sleep(Duration::from_millis(delay_ms));
        }
        if armed {
            panic!("injected CHAOS BUILDPANIC during index build");
        }
        let (plan, mut choice) = planner();
        let ceci = Ceci::build_with(
            graph,
            &plan,
            ceci_core::BuildOptions {
                threads: build_threads,
                ..Default::default()
            },
        );
        if let Some(choice) = choice.as_mut() {
            choice.estimate_served(graph, &plan, &ceci);
        }
        BuiltIndex {
            plan: Arc::new(plan),
            ceci: Arc::new(ceci),
            choice,
        }
    }))
    .map_err(|_| ())
}

/// The buy side of the rent/buy rule, run by a request that found a current
/// (`HIT` / `REPAIRED`) entry. The one request whose [`Reuse::claim`]
/// succeeds — the entry's spent work has reached its re-plan price and
/// nobody scored before — scores the challengers against the incumbent's
/// observed work and, only if one wins, rebuilds the index under it
/// against the request's own snapshot — with candidate sets of that
/// snapshot ([`QueryPlan::on_graph`], a clone when the scoring already
/// moved the winner there): the incumbent's plan may have been retained
/// across repairs, and a build never trusts sets of another graph (the
/// winner's maintainable tables wait for its first repair, like a miss's).
/// Either way the entry is
/// swapped in place for one carrying the scored decision record and the
/// same ledger, so this happens at most once per lineage of entries. The
/// request keeps its cache tag: this is neither a miss, a repair nor an
/// eviction, and it counts only as `plan_score_latency` and (on a win)
/// `adaptive_replans`.
///
/// Returns the entry to execute against and what the re-plan took; `None`
/// when nothing was due (or scoring panicked, which keeps the incumbent).
fn replan_if_due(
    state: &ServerState,
    graph_epoch: u64,
    graph: &Graph,
    index: &Arc<CachedIndex>,
) -> Option<(Arc<CachedIndex>, Duration)> {
    let choice = index.choice.as_ref()?;
    let observed = index.reuse.claim()?;
    let t0 = Instant::now();
    let (winner, scored) = catch_unwind(AssertUnwindSafe(|| {
        choice.score_challengers(graph, &index.plan, &observed)
    }))
    .ok()?;
    state.metrics.plan_score_latency.record(scored.score_time);
    let (rebuilt, tables, sets_sub_epoch) = match winner {
        Some(plan) => {
            let built =
                run_build(state, graph, move || (plan.on_graph(graph), Some(scored))).ok()?;
            ServerMetrics::inc(&state.metrics.adaptive_replans);
            (built, None, index.sub_epoch)
        }
        // The incumbent stays: same index and plan (whatever snapshot its
        // sets date from), now with the scores on record, and its tables
        // move over to the entry that replaces it.
        None => (
            BuiltIndex {
                plan: Arc::clone(&index.plan),
                ceci: Arc::clone(&index.ceci),
                choice: Some(scored),
            },
            index.take_tables(),
            index.sets_sub_epoch,
        ),
    };
    let mut entry = rebuilt.into_entry(
        state,
        index.canonical.clone(),
        index.sub_epoch,
        tables,
        Some(Arc::clone(&index.reuse)),
    );
    entry.sets_sub_epoch = sets_sub_epoch;
    let entry = Arc::new(entry);
    state.cache.insert_arc(graph_epoch, Arc::clone(&entry));
    state
        .metrics
        .cache_evictions
        .store(state.cache.evictions(), Ordering::Relaxed);
    Some((entry, t0.elapsed()))
}

/// How a request came by its index: `cache=` in the response and, for the
/// three rungs of a repair, `mode=` in the `service.repair` span and in
/// `EXPLAIN`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CachePath {
    Hit,
    Miss,
    /// Repaired, small gap; the entry had no maintainable tables: built on
    /// the snapshot and materialized. This rung buys the tables.
    First,
    /// Repaired, small gap; the tables moved out of the dead entry and
    /// merged forward from the dirty log. This rung uses them.
    Patch,
    /// Repaired, gap past [`StreamIndex::past_floor`] or no longer covered
    /// by the dirty log: frozen rebuild under the retained plan with
    /// candidate sets of the snapshot, tables dropped. This rung sells them
    /// — past the floor a merge costs more than the build it would save.
    Rebase,
}

impl CachePath {
    fn tag(self) -> &'static str {
        match self {
            CachePath::Hit => "HIT",
            CachePath::Miss => "MISS",
            CachePath::First | CachePath::Patch | CachePath::Rebase => "REPAIRED",
        }
    }

    fn repair_mode(self) -> Option<&'static str> {
        match self {
            CachePath::Hit | CachePath::Miss => None,
            CachePath::First => Some("mode=first"),
            CachePath::Patch => Some("mode=patch"),
            CachePath::Rebase => Some("mode=rebase"),
        }
    }
}

/// What [`index_for`] answers: the entry, how the request came by it, and
/// the build (or repair) time it paid.
type Indexed = (Arc<CachedIndex>, CachePath, Duration);

/// Repairs a stale cached entry forward under its retained plan, by the
/// rung ([`CachePath`]) the gap since its snapshot calls for — decided
/// before any table is touched. Small gap: bring the maintainable tables to
/// the request's snapshot and re-freeze; they are *moved* out of `old` (the
/// probe that handed it over already removed it from the cache, and only
/// this caller, the single-flight leader, repairs it). Gap past the floor
/// or off the dirty log: every full rebuild in the system is the frozen
/// build, so run that, under the same plan re-set on the snapshot
/// ([`QueryPlan::on_graph`]), and keep no tables. `None` means the caller
/// must fall back to a miss: repair is disabled, the entry is from the
/// *future* relative to this snapshot, or the repair panicked.
fn repair_entry(
    state: &ServerState,
    entry: &GraphEntry,
    graph: &Graph,
    sub_epoch: u64,
    old: &CachedIndex,
) -> Option<(CachedIndex, CachePath, Duration)> {
    if !state.config.stream_repair || old.sub_epoch > sub_epoch {
        return None;
    }
    let plan = Arc::clone(&old.plan);
    let build_threads = state.config.build_threads.max(1);
    let t0 = Instant::now();
    let endpoints = entry.dirty_endpoints_since(old.sub_epoch);
    let tables = old.take_tables();
    let past_floor = match &endpoints {
        Some(endpoints) => StreamIndex::past_floor(graph, endpoints),
        // Off the log the gap is unknown: tables that cannot be brought
        // forward are dropped, an entry without any builds them as ever.
        None => tables.is_some(),
    };
    // Repair runs the same (panic-prone) index code paths a build does;
    // contain it the same way and fall back to a rebuild on unwind.
    let (tables, ceci, stats, mode) = catch_unwind(AssertUnwindSafe(|| {
        if past_floor {
            drop(tables);
            let ceci = Ceci::build_with(
                graph,
                &plan.on_graph(graph),
                ceci_core::BuildOptions {
                    threads: build_threads,
                    ..Default::default()
                },
            );
            return (None, ceci, RepairStats::default(), CachePath::Rebase);
        }
        let (tables, stats, mode) = match (tables, endpoints) {
            (Some(mut tables), Some(endpoints)) => {
                let stats = tables.patch(graph, &plan, &endpoints);
                debug_assert_eq!(stats.rebases, 0, "the floor was asked above");
                (tables, stats, CachePath::Patch)
            }
            _ => (
                StreamIndex::build(graph, &plan),
                RepairStats::default(),
                CachePath::First,
            ),
        };
        let ceci = tables.materialize(graph, &plan);
        (Some(tables), ceci, stats, mode)
    }))
    .ok()?;
    let repair = t0.elapsed();
    state.metrics.index_repair_latency.record(repair);
    ServerMetrics::inc(&state.metrics.index_repairs);
    if mode == CachePath::Rebase {
        ServerMetrics::inc(&state.metrics.index_repair_rebases);
    }
    if state.tracer.enabled() {
        let dur = repair.as_nanos() as u64;
        let end = state.tracer.now_ns();
        state.tracer.span(
            "service.repair",
            "service",
            0,
            0,
            end.saturating_sub(dur),
            dur.max(1),
            vec![
                (mode.repair_mode().expect("a repair rung"), 1),
                ("dirty_vertices", stats.dirty_vertices as u64),
                ("keys_recomputed", stats.keys_recomputed as u64),
                ("keys_added", stats.keys_added as u64),
                ("keys_removed", stats.keys_removed as u64),
                ("from_sub_epoch", old.sub_epoch),
                ("to_sub_epoch", sub_epoch),
            ],
        );
    }
    // The plan is unchanged by a repair, so the planner's decision record
    // and the rent/buy ledger (work spent, re-plan done or not) carry over,
    // as does the snapshot its candidate sets describe; execution feedback
    // does NOT — it was measured against the pre-mutation candidate sets,
    // and the repaired entry re-profiles on its next exact run.
    let mut repaired = CachedIndex::new(
        old.canonical.clone(),
        plan,
        Arc::new(ceci),
        tables,
        sub_epoch,
        old.choice.clone(),
        Arc::clone(&old.reuse),
    );
    repaired.sets_sub_epoch = old.sets_sub_epoch;
    Some((repaired, mode, repair))
}

/// Records build latency and its phase split (filter = Algorithm 1,
/// refine = Algorithm 2) so serve-side build regressions show in STATS
/// without a profiler.
fn record_build(state: &ServerState, ceci: &Ceci, build: Duration) {
    state.metrics.build_latency.record(build);
    let stats = ceci.stats();
    state.metrics.build_filter_latency.record(stats.filter_time);
    state.metrics.build_refine_latency.record(stats.refine_time);
}

/// Quarantines a key after a panicked build and formats the `ERR` response.
fn quarantine_after_panic(
    state: &ServerState,
    graph_epoch: u64,
    canonical: &CanonicalQuery,
) -> Vec<String> {
    state.cache.quarantine(graph_epoch, canonical);
    ServerMetrics::inc(&state.metrics.cache_quarantined);
    ServerMetrics::inc(&state.metrics.errors);
    vec![ErrorCode::BuildPanic.line("index build panicked; the cache key is quarantined")]
}

/// Builds without touching the cache — the collision path (an entry or
/// in-flight build exists under this hash for a *different* canonical
/// form, so the result must not be inserted or shared).
fn build_solo(
    state: &ServerState,
    graph_epoch: u64,
    sub_epoch: u64,
    graph: &Graph,
    query: QueryGraph,
    canonical: CanonicalQuery,
) -> Result<Indexed, Vec<String>> {
    let t0 = Instant::now();
    let built = match run_build(state, graph, || plan_for_miss(state, graph, query)) {
        Ok(built) => built,
        Err(()) => return Err(quarantine_after_panic(state, graph_epoch, &canonical)),
    };
    let build = t0.elapsed();
    record_build(state, &built.ceci, build);
    Ok((
        Arc::new(built.into_entry(state, canonical, sub_epoch, None, None)),
        CachePath::Miss,
        build,
    ))
}

/// Probes the cache; on miss builds plan + CECI (outside any lock) and
/// inserts. Returns the entry, whether it was a hit, and the build time —
/// or the `ERR` response when the key is quarantined or the build panics.
///
/// With [`ServeConfig::single_flight`] (the default), concurrent misses on
/// the same `(epoch, canonical)` key are deduplicated: exactly one request
/// leads the build, the rest wait on its flight gate and share the result
/// (`cache_singleflight_waits` counts them). A panicked leader quarantines
/// the key and fails its waiters with `E_QUARANTINED`.
///
/// The build runs under `catch_unwind`: a panicking build (bad interaction
/// between a specific query and graph — or an injected `CHAOS BUILDPANIC`)
/// answers `ERR E_BUILD_PANIC` and *quarantines* the cache key, so retries
/// of the same poisonous request fail fast with `E_QUARANTINED` instead of
/// burning a worker per attempt. Re-`LOAD`ing the graph clears the mark.
fn index_for(
    state: &ServerState,
    entry: &GraphEntry,
    graph: &Graph,
    sub_epoch: u64,
    query: QueryGraph,
) -> Result<Indexed, Vec<String>> {
    let graph_epoch = entry.epoch;
    let canonical = CanonicalQuery::of(&query);
    if state.config.single_flight {
        return index_for_single_flight(state, entry, graph, sub_epoch, query, canonical);
    }
    let (probe, cached) = state.cache.get_at(graph_epoch, sub_epoch, &canonical);
    match probe {
        Probe::Hit => {
            ServerMetrics::inc(&state.metrics.cache_hits);
            return Ok((
                cached.expect("hit without entry"),
                CachePath::Hit,
                Duration::ZERO,
            ));
        }
        Probe::Quarantined => {
            ServerMetrics::inc(&state.metrics.quarantine_hits);
            ServerMetrics::inc(&state.metrics.errors);
            return Err(vec![ErrorCode::Quarantined.line(
                "index build for this (graph, query) previously panicked; \
                 re-LOAD the graph to clear the quarantine",
            )]);
        }
        Probe::Stale => {
            let old = cached.expect("stale probe without entry");
            if let Some((repaired, mode, repair)) =
                repair_entry(state, entry, graph, sub_epoch, &old)
            {
                let shared = Arc::new(repaired);
                let evicted = state.cache.insert_arc(graph_epoch, Arc::clone(&shared));
                ServerMetrics::add(&state.metrics.cache_evictions, evicted);
                return Ok((shared, mode, repair));
            }
            // Unrepairable: pay the full rebuild, counted as a miss.
            ServerMetrics::inc(&state.metrics.index_repair_fallbacks);
            ServerMetrics::inc(&state.metrics.cache_misses);
        }
        Probe::Miss => ServerMetrics::inc(&state.metrics.cache_misses),
        Probe::Collision => {
            // Verified mismatch: never serve it; count both ways so the
            // operator can see collisions are happening.
            ServerMetrics::inc(&state.metrics.cache_collisions);
            ServerMetrics::inc(&state.metrics.cache_misses);
        }
    }
    let t0 = Instant::now();
    let built = match run_build(state, graph, || plan_for_miss(state, graph, query)) {
        Ok(built) => built,
        Err(()) => return Err(quarantine_after_panic(state, graph_epoch, &canonical)),
    };
    let build = t0.elapsed();
    record_build(state, &built.ceci, build);
    let shared = Arc::new(built.into_entry(state, canonical, sub_epoch, None, None));
    // Collisions keep the *old* entry (LRU decides who survives budget
    // pressure); overwriting would thrash between the two queries.
    if probe != Probe::Collision {
        let evicted = state.cache.insert_arc(graph_epoch, Arc::clone(&shared));
        ServerMetrics::add(&state.metrics.cache_evictions, evicted);
    }
    Ok((shared, CachePath::Miss, build))
}

/// The leader side of a single-flight build: run it, publish through the
/// guard (or quarantine + fail), and sync the eviction counter.
fn finish_lead(
    state: &ServerState,
    graph_epoch: u64,
    sub_epoch: u64,
    graph: &Graph,
    query: QueryGraph,
    canonical: CanonicalQuery,
    guard: crate::cache::FlightGuard<'_>,
) -> Result<Indexed, Vec<String>> {
    let t0 = Instant::now();
    match run_build(state, graph, || plan_for_miss(state, graph, query)) {
        Err(()) => {
            // Quarantine *before* releasing the gate so waiters and
            // later probes agree on the verdict.
            let lines = quarantine_after_panic(state, graph_epoch, &canonical);
            guard.fail();
            Err(lines)
        }
        Ok(built) => {
            let build = t0.elapsed();
            record_build(state, &built.ceci, build);
            let entry = guard.complete(built.into_entry(state, canonical, sub_epoch, None, None));
            // `complete` inserts internally; sync the server-level
            // eviction counter to the cache's authoritative one.
            state
                .metrics
                .cache_evictions
                .store(state.cache.evictions(), Ordering::Relaxed);
            Ok((entry, CachePath::Miss, build))
        }
    }
}

/// The single-flight variant of [`index_for`]: misses are arbitrated by
/// [`IndexCache::begin_at`] into one leader and N−1 waiters; a stale entry
/// elects its leader into the *repair* path first.
fn index_for_single_flight(
    state: &ServerState,
    entry: &GraphEntry,
    graph: &Graph,
    sub_epoch: u64,
    query: QueryGraph,
    canonical: CanonicalQuery,
) -> Result<Indexed, Vec<String>> {
    let graph_epoch = entry.epoch;
    match state.cache.begin_at(graph_epoch, sub_epoch, &canonical) {
        FlightProbe::Hit(entry) => {
            ServerMetrics::inc(&state.metrics.cache_hits);
            Ok((entry, CachePath::Hit, Duration::ZERO))
        }
        FlightProbe::Quarantined => {
            ServerMetrics::inc(&state.metrics.quarantine_hits);
            ServerMetrics::inc(&state.metrics.errors);
            Err(vec![ErrorCode::Quarantined.line(
                "index build for this (graph, query) previously panicked; \
                 re-LOAD the graph to clear the quarantine",
            )])
        }
        FlightProbe::Collision => {
            ServerMetrics::inc(&state.metrics.cache_collisions);
            ServerMetrics::inc(&state.metrics.cache_misses);
            build_solo(state, graph_epoch, sub_epoch, graph, query, canonical)
        }
        FlightProbe::Lead(guard) => {
            ServerMetrics::inc(&state.metrics.cache_misses);
            finish_lead(
                state,
                graph_epoch,
                sub_epoch,
                graph,
                query,
                canonical,
                guard,
            )
        }
        FlightProbe::Stale(old, guard) => {
            if let Some((repaired, mode, repair)) =
                repair_entry(state, entry, graph, sub_epoch, &old)
            {
                let shared = guard.complete(repaired);
                state
                    .metrics
                    .cache_evictions
                    .store(state.cache.evictions(), Ordering::Relaxed);
                return Ok((shared, mode, repair));
            }
            ServerMetrics::inc(&state.metrics.index_repair_fallbacks);
            ServerMetrics::inc(&state.metrics.cache_misses);
            finish_lead(
                state,
                graph_epoch,
                sub_epoch,
                graph,
                query,
                canonical,
                guard,
            )
        }
        FlightProbe::Wait(flight) => {
            ServerMetrics::inc(&state.metrics.singleflight_waits);
            match flight.wait() {
                FlightWait::Ready(flown) => {
                    if flown.canonical == canonical && flown.sub_epoch == sub_epoch {
                        ServerMetrics::inc(&state.metrics.cache_hits);
                        Ok((flown, CachePath::Hit, Duration::ZERO))
                    } else {
                        // A different canonical form under this 64-bit hash
                        // (collision), or the leader ran against a different
                        // snapshot: either way, not our index.
                        if flown.canonical != canonical {
                            ServerMetrics::inc(&state.metrics.cache_collisions);
                        }
                        ServerMetrics::inc(&state.metrics.cache_misses);
                        build_solo(state, graph_epoch, sub_epoch, graph, query, canonical)
                    }
                }
                FlightWait::Failed => {
                    ServerMetrics::inc(&state.metrics.quarantine_hits);
                    ServerMetrics::inc(&state.metrics.errors);
                    Err(vec![ErrorCode::Quarantined.line(
                        "index build for this (graph, query) panicked in a \
                         concurrent request; re-LOAD the graph to clear the \
                         quarantine",
                    )])
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn exec_match(
    state: &ServerState,
    graph_name: &str,
    query_path: &str,
    limit: Option<u64>,
    deadline_ms: Option<u64>,
    workers: Option<usize>,
    raw: bool,
    exact: bool,
    queue_wait: Duration,
) -> Vec<String> {
    let t_start = Instant::now();
    ServerMetrics::inc(&state.metrics.match_requests);
    let Some(entry) = state.registry.get(graph_name) else {
        ServerMetrics::inc(&state.metrics.errors);
        return vec![ErrorCode::UnknownGraph.line(format!("unknown graph {graph_name:?}"))];
    };
    // One consistent (snapshot, sub-epoch) pair for the whole request:
    // concurrent mutations publish new snapshots without touching this one.
    let (graph, sub_epoch) = entry.snapshot();
    let query = match load_query(query_path) {
        Ok(q) => q,
        Err(e) => {
            ServerMetrics::inc(&state.metrics.errors);
            return vec![ErrorCode::Query.line(e)];
        }
    };
    // Label-pair admission filter: a rejection is a *proof* of zero
    // embeddings, answered in O(query edges) before any cache probe,
    // index build, or enumeration.
    if state.config.admission_filter && !raw {
        let verdict = admission_check(&query, &graph);
        if verdict.rejected() {
            ServerMetrics::inc(&state.metrics.filter_rejected);
            let total = t_start.elapsed();
            state.metrics.match_latency.record(queue_wait + total);
            return vec![format!(
                "OK MATCH count=0 status=OK filter=REJECTED cache=NONE \
                 build_us=0 enum_us=0 total_us={}",
                total.as_micros(),
            )];
        }
    }
    // Coordinator mode: plain count-only requests scatter across the shard
    // fleet. The plan is the *fixed* deterministic one (`QueryPlan::new`,
    // BFS order) — shards replay it from the PREPARE line, so coordinator
    // and shards agree bit-for-bit on candidates, order, and symmetry
    // constraints. Requests with LIMIT/DEADLINE/WORKERS keep the local
    // path: those knobs shape enumeration in ways a scatter cannot
    // reproduce deterministically.
    if let Some(shards) = state.shards() {
        if limit.is_none() && deadline_ms.is_none() && workers.is_none() {
            let plan = QueryPlan::new(query, &graph);
            let handle = format!("{graph_name}@{sub_epoch}:{query_path}");
            let report = coord::scatter_match(
                &graph,
                &plan,
                query_path,
                &handle,
                shards,
                &state.coord_config(),
            );
            let total = t_start.elapsed();
            state.metrics.match_latency.record(queue_wait + total);
            return vec![format!(
                "OK MATCH count={} status=OK mode=SHARDED shards={} \
                 shard_commits={} local_fallback={} rescatters={} \
                 stale_rejected={} reconnects={} total_us={}",
                report.total,
                shards.len(),
                report.shard_commits,
                report.local_fallback,
                report.rescatters,
                report.stale_rejected,
                report.reconnects,
                total.as_micros(),
            )];
        }
    }

    // The deadline clock starts when execution starts, not at submission:
    // queue wait is already bounded by admission control.
    let cancel = deadline_ms.map(|ms| CancelToken::after(Duration::from_millis(ms)));

    let t_index = Instant::now();
    let (mut index, path, build) = match index_for(state, &entry, &graph, sub_epoch, query) {
        Ok(built) => built,
        Err(lines) => return lines,
    };
    let cache_tag = path.tag();
    let index_time = t_index.elapsed();

    // Rent or buy: a current entry whose reuse has paid for it re-plans
    // here, once, after any due repair and before this request enumerates.
    // `RAW` asked for the pre-adaptive path and never pays for a re-plan.
    let mut replan = Duration::ZERO;
    if !raw && path != CachePath::Miss {
        if let Some((swapped, took)) = replan_if_due(state, entry.epoch, &graph, &index) {
            index = swapped;
            replan = took;
        }
    }

    // Worker count: explicit `WORKERS` wins, then the adaptive planner's
    // recommendation (sized from estimated volume), then the server default.
    let requested = workers.unwrap_or_else(|| match index.choice.as_ref() {
        Some(choice) if !raw => choice.workers.max(state.config.default_match_workers),
        _ => state.config.default_match_workers,
    });
    let match_workers = requested.clamp(1, state.config.max_match_workers.max(1));

    // Deadline-aware admission: when the planner's cost estimate (calibrated
    // by observed feedback when available) says the exact enumeration cannot
    // finish inside the deadline, degrade to an estimator answer — or refuse
    // outright — *before* occupying the worker for the full deadline.
    // `RAW` and `EXACT` both opt out and run the pre-adaptive exact path.
    if !raw && !exact {
        if let (Some(ms), Some(choice)) = (deadline_ms, index.choice.as_ref()) {
            let ns_per_unit = lock_recover(&index.feedback)
                .as_ref()
                .map_or(DEFAULT_NS_PER_UNIT, |f| f.ns_per_unit);
            let deadline = Duration::from_millis(ms);
            match admit(&choice.cost, deadline, ns_per_unit, match_workers) {
                DeadlineVerdict::Exact => {}
                DeadlineVerdict::Approx => {
                    let est = estimate_embeddings(
                        &graph,
                        &index.plan,
                        &index.ceci,
                        &EstimateOptions::default(),
                    );
                    ServerMetrics::inc(&state.metrics.approx_answers);
                    let (lo, hi) = est.ci95();
                    let total = t_start.elapsed();
                    state.metrics.match_latency.record(queue_wait + total);
                    return vec![format!(
                        "OK MATCH count={} status=OK mode=APPROX mean={:.1} \
                         std_error={:.1} ci95_lo={:.1} ci95_hi={:.1} walks={} \
                         cache={cache_tag} build_us={} enum_us=0 total_us={}",
                        est.mean.round() as u64,
                        est.mean,
                        est.std_error,
                        lo,
                        hi,
                        est.walks,
                        build.as_micros(),
                        total.as_micros(),
                    )];
                }
                DeadlineVerdict::Infeasible => {
                    ServerMetrics::inc(&state.metrics.infeasible_rejects);
                    ServerMetrics::inc(&state.metrics.errors);
                    return vec![ErrorCode::Infeasible.line(format!(
                        "estimated intermediate volume {:.0} cannot finish \
                         inside {ms}ms and the estimate is too noisy for an \
                         APPROX answer; retry with EXACT, a larger DEADLINE, \
                         or use ESTIMATE",
                        choice.cost.volume(),
                    ))];
                }
            }
        }
    }

    // The one drain. Every `MATCH` form enumerates its own cached index
    // through the parallel entry point (an inline loop over the pivots at
    // one worker). What the adaptive planner adds — skipped for `RAW` — is
    // the work-distribution strategy its estimate picked, which changes how
    // work is split, never a count.
    let need_feedback = !raw
        && deadline_ms.is_some()
        && index.choice.is_some()
        && lock_recover(&index.feedback).is_none();
    let mut options = ParallelOptions {
        workers: match_workers,
        limit,
        prune_redundant: state.config.prune_redundant && !raw,
        // Only deadline admission reads the observed rate, so only a
        // deadline run pays to measure it, once per entry.
        profile: need_feedback,
        ..Default::default()
    };
    if let Some(choice) = index.choice.as_ref() {
        if !raw {
            options.strategy = choice.strategy;
        }
    }
    let t_enum = Instant::now();
    let result = enumerate_parallel_cancellable(&graph, &index.plan, &index.ceci, &options, cancel);
    if !result.cancelled {
        if let Some(profile) = &result.profile {
            lock_recover(&index.feedback).get_or_insert(PlanFeedback {
                ns_per_unit: ns_per_unit_from_profile(profile).unwrap_or(DEFAULT_NS_PER_UNIT),
            });
        }
    }
    index.reuse.spend(&result.counters);
    let enum_time = t_enum.elapsed();

    let status = if result.cancelled {
        ServerMetrics::inc(&state.metrics.deadline_exceeded);
        MatchStatus::DeadlineExceeded
    } else {
        MatchStatus::Ok
    };
    let count = limit.map_or(result.total_embeddings, |k| result.total_embeddings.min(k));
    ServerMetrics::add(&state.metrics.embeddings_returned, count);
    let total = t_start.elapsed();
    // `match_latency` is documented as admission-to-response: queue wait
    // after admission counts (it was previously silently excluded).
    state.metrics.match_latency.record(queue_wait + total);
    let mut line = format!(
        "OK MATCH count={count} status={} cache={cache_tag} build_us={} enum_us={} total_us={}",
        status.as_str(),
        build.as_micros(),
        enum_time.as_micros(),
        total.as_micros(),
    );
    if replan > Duration::ZERO {
        line.push_str(&format!(" replan_us={}", replan.as_micros()));
    }
    let lines = vec![line];
    if state.tracer.enabled() {
        record_request_spans(
            &state.tracer,
            RequestTiming {
                queue_wait,
                index_time,
                build,
                replan,
                enum_time,
                total: t_start.elapsed(),
            },
            &[
                ("embeddings", count),
                ("cache_hit", (path == CachePath::Hit) as u64),
                ("deadline_exceeded", result.cancelled as u64),
                ("workers", match_workers as u64),
            ],
        );
    }
    lines
}

/// Answers `ESTIMATE <graph> <query-path> [WALKS <n>]`: runs the
/// random-walk cardinality estimator over the (cached) index and reports
/// mean, standard error, and 95% confidence interval without enumerating.
/// Shares the index cache with MATCH, so estimating then matching pays one
/// build.
fn exec_estimate(
    state: &ServerState,
    graph_name: &str,
    query_path: &str,
    walks: Option<u64>,
) -> Vec<String> {
    let t_start = Instant::now();
    let Some(entry) = state.registry.get(graph_name) else {
        ServerMetrics::inc(&state.metrics.errors);
        return vec![ErrorCode::UnknownGraph.line(format!("unknown graph {graph_name:?}"))];
    };
    let (graph, sub_epoch) = entry.snapshot();
    let query = match load_query(query_path) {
        Ok(q) => q,
        Err(e) => {
            ServerMetrics::inc(&state.metrics.errors);
            return vec![ErrorCode::Query.line(e)];
        }
    };
    // The label-pair filter proves zero without touching the index; answer
    // the degenerate exact-zero estimate directly.
    if state.config.admission_filter && admission_check(&query, &graph).rejected() {
        ServerMetrics::inc(&state.metrics.filter_rejected);
        return vec![format!(
            "OK ESTIMATE mean=0.0 std_error=0.0 ci95_lo=0.0 ci95_hi=0.0 \
             walks=0 exact_zero=1 cache=NONE total_us={}",
            t_start.elapsed().as_micros(),
        )];
    }
    let (index, path, _build) = match index_for(state, &entry, &graph, sub_epoch, query) {
        Ok(built) => built,
        Err(lines) => return lines,
    };
    let cache_tag = path.tag();
    let mut opts = EstimateOptions::default();
    if let Some(w) = walks {
        opts.walks = w.max(1);
    }
    let est = estimate_embeddings(&graph, &index.plan, &index.ceci, &opts);
    let (lo, hi) = est.ci95();
    vec![format!(
        "OK ESTIMATE mean={:.1} std_error={:.1} ci95_lo={:.1} ci95_hi={:.1} \
         walks={} exact_zero={} cache={cache_tag} total_us={}",
        est.mean,
        est.std_error,
        lo,
        hi,
        est.walks,
        est.exact_zero as u8,
        t_start.elapsed().as_micros(),
    )]
}

/// Stage durations of one data-plane request, measured on the worker.
struct RequestTiming {
    /// Admission to execution start.
    queue_wait: Duration,
    /// Cache probe + (on miss) build — the whole `index_for` call.
    index_time: Duration,
    /// Build portion of `index_time` (zero on a cache hit).
    build: Duration,
    /// Portfolio scoring + rebuild, on the one request per entry that pays
    /// for its re-plan (zero otherwise).
    replan: Duration,
    /// Enumeration wall time.
    enum_time: Duration,
    /// Execution start to response-lines-ready.
    total: Duration,
}

/// Records one `service.request` span with its stage children
/// (`service.queue` → `service.cache_probe` → `service.build` →
/// `service.replan` → `service.enumerate` → `service.serialize`) ending at
/// the tracer's current clock.
fn record_request_spans(tracer: &Tracer, t: RequestTiming, args: &[(&'static str, u64)]) {
    let ns = |d: Duration| d.as_nanos() as u64;
    let total = ns(t.queue_wait) + ns(t.total);
    let probe = ns(t.index_time).saturating_sub(ns(t.build));
    // Everything between the measured stages (registry lookup, query-file
    // load, response formatting) lands in `serialize` — the closing stage.
    let serialize = ns(t.total)
        .saturating_sub(ns(t.index_time))
        .saturating_sub(ns(t.replan))
        .saturating_sub(ns(t.enum_time));
    let stages = [
        ("service.queue", ns(t.queue_wait)),
        ("service.cache_probe", probe),
        ("service.build", ns(t.build)),
        ("service.replan", ns(t.replan)),
        ("service.enumerate", ns(t.enum_time)),
        ("service.serialize", serialize),
    ];
    record_tiled_spans(tracer, "service.request", total, args.to_vec(), &stages);
}

/// Records one `service.mutate` span tiled like `service.request`:
/// `service.apply` (the registry's `apply_batch`) → `service.delta`
/// (Σ `batch_delta` over the notified registrations) → `service.notify`
/// (the rest: event formatting, sink writes, counters).
fn record_mutate_spans(
    tracer: &Tracer,
    total: Duration,
    apply: Duration,
    delta: Duration,
    args: Vec<(&'static str, u64)>,
) {
    let ns = |d: Duration| d.as_nanos() as u64;
    let stages = [
        ("service.apply", ns(apply)),
        ("service.delta", ns(delta)),
        (
            "service.notify",
            ns(total).saturating_sub(ns(apply) + ns(delta)),
        ),
    ];
    record_tiled_spans(tracer, "service.mutate", ns(total), args, &stages);
}

/// Records a `root` span of `total` ns ending at the tracer's current clock,
/// with `stages` laid end to end under it from its start.
fn record_tiled_spans(
    tracer: &Tracer,
    root: &'static str,
    total: u64,
    args: Vec<(&'static str, u64)>,
    stages: &[(&'static str, u64)],
) {
    let start = tracer.now_ns().saturating_sub(total);
    let root = tracer.span(root, "service", 0, 0, start, total.max(1), args);
    let mut cursor = start;
    for &(name, dur) in stages {
        tracer.span(name, "service", root, 0, cursor, dur, Vec::new());
        cursor += dur;
    }
}

fn exec_explain(
    state: &ServerState,
    graph_name: &str,
    query_path: &str,
    analyze: bool,
) -> Vec<String> {
    let Some(entry) = state.registry.get(graph_name) else {
        ServerMetrics::inc(&state.metrics.errors);
        return vec![ErrorCode::UnknownGraph.line(format!("unknown graph {graph_name:?}"))];
    };
    let (graph, sub_epoch) = entry.snapshot();
    let query = match load_query(query_path) {
        Ok(q) => q,
        Err(e) => {
            ServerMetrics::inc(&state.metrics.errors);
            return vec![ErrorCode::Query.line(e)];
        }
    };
    let (index, path, _build) = match index_for(state, &entry, &graph, sub_epoch, query) {
        Ok(built) => built,
        Err(lines) => return lines,
    };
    // The enumeration options a count-only `MATCH` of this server runs with.
    let enum_options = EnumOptions {
        prune_redundant: state.config.prune_redundant,
        ..EnumOptions::default()
    };
    // Which snapshot the report's candidate counts describe: the entry's
    // own, unless it was repaired under a plan retained from an earlier one.
    let sets = format!("sets@sub_epoch={}", index.sets_sub_epoch);
    let report = ceci_core::explain_plan(&index.plan, &graph, enum_options, &sets);
    let mut lines: Vec<String> = report.lines().map(|l| format!("| {l}")).collect();
    let mut line = format!("| index: bytes={} cache={}", index.bytes, path.tag());
    if let Some(mode) = path.repair_mode() {
        // Which rung of the repair ladder this request itself took.
        line.push(' ');
        line.push_str(mode);
    }
    lines.push(line);
    // Plan-choice section: where the entry's rent/buy ledger stands, which
    // orders have been weighed, the served plan's estimated cost, and the
    // execution decision.
    if let Some(choice) = index.choice.as_ref() {
        for l in explain_choice(choice, &index.reuse).lines() {
            lines.push(format!("| {l}"));
        }
    }
    if analyze {
        // EXPLAIN ANALYZE: run the enumeration with a per-depth profile
        // attached and append the profile table. Single worker so the
        // per-depth rows describe one deterministic recursion.
        let options = ParallelOptions {
            workers: 1,
            profile: true,
            ..Default::default()
        };
        let result =
            enumerate_parallel_cancellable(&graph, &index.plan, &index.ceci, &options, None);
        // `profile: true` was requested, but degrade gracefully if the
        // enumerator returned none rather than panicking the worker.
        if let Some(profile) = result.profile.as_ref() {
            let table = ceci_core::explain_profile(&index.plan, profile, &result.counters);
            for l in table.lines() {
                lines.push(format!("| {l}"));
            }
            // Estimated vs actual per-depth volumes (q-error column): how
            // well the planner's cost model predicted this execution.
            if let Some(choice) = index.choice.as_ref() {
                for l in explain_estimates(&index.plan, &choice.cost, profile).lines() {
                    lines.push(format!("| {l}"));
                }
            }
        } else {
            lines.push("| profile: unavailable for this run".to_string());
        }
    }
    lines.push("OK EXPLAIN".to_string());
    lines
}

/// Applies one mutation batch to a loaded graph and notifies every
/// continuous query registered on it.
///
/// The continuous-query lock is taken *before* the batch is applied and
/// held through notification, so concurrent mutation requests notify in
/// strict sub-epoch order — each registration's total moves batch by batch
/// over the exact snapshot pair the delta identity needs.
fn exec_mutate(
    state: &ServerState,
    graph_name: &str,
    adds: &[(u32, u32)],
    dels: &[(u32, u32)],
) -> Vec<String> {
    let to_vids = |pairs: &[(u32, u32)]| -> Vec<(VertexId, VertexId)> {
        pairs.iter().map(|&(a, b)| (vid(a), vid(b))).collect()
    };
    exec_mutate_vids(state, graph_name, &to_vids(adds), &to_vids(dels))
}

fn exec_mutate_vids(
    state: &ServerState,
    graph_name: &str,
    adds: &[(VertexId, VertexId)],
    dels: &[(VertexId, VertexId)],
) -> Vec<String> {
    let Some(entry) = state.registry.get(graph_name) else {
        ServerMetrics::inc(&state.metrics.errors);
        return vec![ErrorCode::UnknownGraph.line(format!("unknown graph {graph_name:?}"))];
    };
    let mut continuous = state.continuous.lock();
    let t0 = Instant::now();
    let outcome = match entry.apply_batch(
        adds,
        dels,
        state.config.compact_threshold,
        state.config.dirty_log_cap,
    ) {
        Ok(outcome) => outcome,
        Err(e) => {
            ServerMetrics::inc(&state.metrics.errors);
            return vec![ErrorCode::Mutation.line(e)];
        }
    };
    let apply = t0.elapsed();
    let mut delta_time = Duration::ZERO;
    if outcome.applied() > 0 {
        ServerMetrics::inc(&state.metrics.mutation_batches);
        ServerMetrics::add(&state.metrics.edges_added, outcome.added.len() as u64);
        ServerMetrics::add(&state.metrics.edges_deleted, outcome.deleted.len() as u64);
        if outcome.compacted {
            ServerMetrics::inc(&state.metrics.compactions);
        }
        let mut dead: Vec<String> = Vec::new();
        for (name, cq) in continuous.iter_mut() {
            if cq.graph != graph_name || cq.epoch != entry.epoch {
                continue;
            }
            debug_assert_eq!(
                cq.sub_epoch + 1,
                outcome.sub_epoch,
                "in-order notification is guaranteed by the continuous lock"
            );
            // The embedding delta (new − retired) reads the two snapshots
            // and the batch's edges only; no index of the query is involved.
            // Contained like a build.
            let t_delta = Instant::now();
            let delta = catch_unwind(AssertUnwindSafe(|| {
                batch_delta(
                    &outcome.old_graph,
                    &outcome.new_graph,
                    &cq.plan,
                    &outcome.added,
                    &outcome.deleted,
                )
            }));
            delta_time += t_delta.elapsed();
            let Ok(delta) = delta else {
                // The total can no longer be carried forward.
                dead.push(name.clone());
                continue;
            };
            cq.total = delta.apply_to(cq.total);
            cq.sub_epoch = outcome.sub_epoch;
            let event = format!(
                "EVENT DELTA query={name} graph={graph_name} batch={} new={} retired={} total={}",
                outcome.sub_epoch, delta.new_matches, delta.retired_matches, cq.total,
            );
            if cq.sink.write_lines(&[event]).is_err() {
                // The registering connection is gone (socket error, closed,
                // or its write queue overflowed): auto-unregister so dead
                // subscribers don't accumulate, and record the failure.
                ServerMetrics::inc(&state.metrics.event_push_failures);
                dead.push(name.clone());
            } else {
                ServerMetrics::inc(&state.metrics.continuous_events);
            }
        }
        for name in dead {
            continuous.remove(&name);
        }
    }
    if state.tracer.enabled() {
        let args = vec![
            ("applied", outcome.applied() as u64),
            ("sub_epoch", outcome.sub_epoch),
            ("compacted", outcome.compacted as u64),
        ];
        record_mutate_spans(&state.tracer, t0.elapsed(), apply, delta_time, args);
    }
    vec![format!(
        "OK MUTATED graph={graph_name} added={} deleted={} sub_epoch={} pending={} compacted={} \
         apply_us={} delta_us={}",
        outcome.added.len(),
        outcome.deleted.len(),
        outcome.sub_epoch,
        outcome.pending,
        outcome.compacted as u8,
        apply.as_micros(),
        delta_time.as_micros(),
    )]
}

/// `BATCH <graph> FILE <path>`: reads a SNAP temporal edge list server-side
/// and applies every edge as one batch of additions (timestamps order the
/// file; the whole file is one batch boundary here — `repro stream` slices
/// files into per-timestamp batches client-side when finer boundaries are
/// wanted).
fn exec_batch_file(state: &ServerState, graph_name: &str, path: &str) -> Vec<String> {
    let edges = match graph_io::load_temporal(path) {
        Ok(edges) => edges,
        Err(e) => {
            ServerMetrics::inc(&state.metrics.errors);
            return vec![ErrorCode::Mutation.line(format!("batch file load failed: {e}"))];
        }
    };
    let adds: Vec<(VertexId, VertexId)> = edges.iter().map(|e| (e.src, e.dst)).collect();
    exec_mutate_vids(state, graph_name, &adds, &[])
}

/// `REGISTER <name> <graph> <query-path>`: counts the continuous query's
/// embeddings on the graph's current snapshot (one ordinary index build,
/// dropped after the count) and records that initial total. Holding the continuous lock across the snapshot+build
/// keeps the registration's sub-epoch exactly in step with the mutation
/// notifier (a batch can never slip between the snapshot and the insert).
fn exec_register(
    state: &ServerState,
    name: &str,
    graph_name: &str,
    query_path: &str,
    sink: SharedWriter,
) -> Vec<String> {
    let Some(entry) = state.registry.get(graph_name) else {
        ServerMetrics::inc(&state.metrics.errors);
        return vec![ErrorCode::UnknownGraph.line(format!("unknown graph {graph_name:?}"))];
    };
    let query = match load_query(query_path) {
        Ok(q) => q,
        Err(e) => {
            ServerMetrics::inc(&state.metrics.errors);
            return vec![ErrorCode::Query.line(e)];
        }
    };
    let mut continuous = state.continuous.lock();
    let (graph, sub_epoch) = entry.snapshot();
    let built = catch_unwind(AssertUnwindSafe(|| {
        let plan = Arc::new(QueryPlan::new(query, &graph));
        let ceci = Ceci::build_with(
            &graph,
            &plan,
            ceci_core::BuildOptions {
                threads: state.config.build_threads.max(1),
                ..Default::default()
            },
        );
        let total = count_embeddings(&graph, &plan, &ceci);
        (plan, total)
    }));
    let Ok((plan, total)) = built else {
        ServerMetrics::inc(&state.metrics.errors);
        return vec![ErrorCode::Register.line("index build for the continuous query panicked")];
    };
    continuous.insert(
        name.to_string(),
        ContinuousQuery {
            graph: graph_name.to_string(),
            epoch: entry.epoch,
            sub_epoch,
            plan,
            total,
            sink,
        },
    );
    vec![format!(
        "OK REGISTERED name={name} graph={graph_name} total={total} sub_epoch={sub_epoch}"
    )]
}

/// `UNREGISTER <name>`: drops a continuous-query registration.
fn exec_unregister(state: &ServerState, name: &str) -> Vec<String> {
    let removed = state.continuous.lock().remove(name);
    match removed {
        Some(_) => vec![format!("OK UNREGISTERED name={name}")],
        None => {
            ServerMetrics::inc(&state.metrics.errors);
            vec![ErrorCode::Register.line(format!("unknown registration {name:?}"))]
        }
    }
}
