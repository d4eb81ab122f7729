//! The `ceci-serve` server proper: configuration, shared state, start-up
//! and shutdown, and request routing. The verbs themselves live beside it:
//! `crate::query` (`MATCH` / `ESTIMATE` / `EXPLAIN` behind one
//! `ExecPath`), `crate::index` (how a request comes by its index),
//! `crate::mutate` (`LOAD`, mutations, continuous queries) and
//! `crate::stats` (`STATS` / `STATS PROM`).
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
//! * The **data plane** (`MATCH`, `EXPLAIN`, `CHAOS DELAY`, and the shard plane's
//!   `PREPARE` / `EXEC`) is submitted to the bounded [`WorkerPool`]; a full
//!   queue answers `BUSY` immediately (admission control), and each
//!   connection has at most one request in flight, so responses stay in
//!   request order.
//! * `ceci-shard` is this same server started over state that holds a
//!   fragment plane ([`ServerState::with_fragments`], `crate::shard`);
//!   without one, `PREPARE` / `EXEC` answer `ERR E_SHARD`.
//!
//! ## Deadlines
//!
//! `MATCH ... DEADLINE <ms>` arms a [`ceci_core::CancelToken`] when the job
//! *starts executing* (queue wait does not consume the budget). The token is
//! threaded into [`ceci_core::enumerate_parallel_cancellable`], so
//! enumeration unwinds cooperatively
//! and the response reports the partial count with
//! `status=DEADLINE_EXCEEDED`.
//!
//! ## Fault tolerance
//!
//! * A panicking data-plane job is caught at the pool boundary; the worker
//!   respawns, the waiting connection gets `ERR E_WORKER_DROPPED`, and the
//!   `panics_caught` / `worker_drops` counters record it.
//! * A panicking *index build* additionally quarantines its cache key (see
//!   `crate::index`) so the same poisonous request fails fast afterwards.
//! * The `CHAOS` verb (enabled with [`ServeConfig::chaos`]) injects these
//!   failures on demand for testing.

use std::fmt::Display;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ceci_graph::io as graph_io;
use ceci_query::QueryGraph;
use ceci_trace::Tracer;

use crate::cache::IndexCache;
use crate::coord::{self, CoordConfig, HeartbeatHandle, ShardSet};
use crate::event_loop::{EventLoop, LoopShared, SharedWriter};
use crate::metrics::ServerMetrics;
use crate::mutate::{exec_batch_file, exec_load, exec_mutate, exec_register, exec_unregister};
use crate::pool::WorkerPool;
use crate::protocol::{ChaosCommand, ErrorCode, Request};
use crate::query::{exec_estimate, exec_explain, exec_match};
use crate::registry::{ContinuousRegistry, GraphEntry, GraphRegistry};
use crate::shard::{exec_exec, exec_prepare, FragmentPlane, GraphStore};
use crate::stats::exec_stats;

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
    /// Hard cap on per-request `WORKERS`.
    pub max_match_workers: usize,
    /// Enable the `CHAOS` fault-injection verb. Off by default; without it
    /// `CHAOS` answers `ERR E_CHAOS_DISABLED` and injects nothing.
    pub chaos: bool,
    /// Record `service.request` span timelines (queue wait → cache probe →
    /// build → enumerate → serialize) into [`ServerState::tracer`]. Off by
    /// default: the span store grows with request count, which is fine for
    /// tests and bounded benchmark runs but not for an unattended server.
    pub trace: bool,
    /// Redundant-extension elimination at the enumeration leaf (CEMR-style
    /// sibling-subtree reuse; bit-identical counts, fewer intersections;
    /// `MATCH ... RAW` runs without it per request).
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
    /// graph; a stale index older than the log is still repaired under its
    /// plan, but scans for its candidate sets instead of patching them.
    pub dirty_log_cap: usize,
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
            max_match_workers: 8,
            chaos: false,
            trace: false,
            prune_redundant: true,
            batch_prefix_depth: 2,
            compact_threshold: 32_768,
            dirty_log_cap: 64,
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
    pub(crate) build_panic_armed: AtomicBool,
    /// One-shot delay armed by `CHAOS BUILDDELAY <ms>`: the next index
    /// build sleeps first, widening the single-flight window so tests can
    /// deterministically pile waiters behind one leader.
    pub(crate) build_delay_ms: AtomicU64,
    /// Persistent stall armed by `CHAOS STALL <ms>`: every data-plane job
    /// sleeps this long before running (0 disarms); `PING` stays inline, so
    /// a stalled shard is heartbeat-alive. The process-level slow-server
    /// lever.
    pub(crate) chaos_stall_ms: AtomicU64,
    /// Continuous-query registrations by handle.
    pub(crate) continuous: ContinuousRegistry,
    /// Shard table (coordinator mode); `None` without configured shards.
    shards: Option<Arc<ShardSet>>,
    /// Fragment plane (a `ceci-shard`); `None` on a query daemon.
    fragments: Option<FragmentPlane>,
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
            fragments: None,
        }
    }

    /// Makes this a shard's state: `PREPARE` / `EXEC` are served over
    /// `store`.
    pub fn with_fragments(mut self, store: GraphStore) -> Self {
        self.fragments = Some(FragmentPlane::new(store));
        self
    }

    /// The config the server was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The shard table when running as a coordinator.
    pub fn shards(&self) -> Option<&Arc<ShardSet>> {
        self.shards.as_ref()
    }

    /// The fragment plane when running as a shard.
    pub fn fragments(&self) -> Option<&FragmentPlane> {
        self.fragments.as_ref()
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

    /// The `ERR <code> <message>` reply, counted in `errors`.
    pub(crate) fn fail(&self, code: ErrorCode, message: impl Display) -> Vec<String> {
        ServerMetrics::inc(&self.metrics.errors);
        vec![code.line(message)]
    }

    /// The loaded graph `name`, or the `ERR E_UNKNOWN_GRAPH` reply.
    pub(crate) fn graph(&self, name: &str) -> Result<Arc<GraphEntry>, Vec<String>> {
        let entry = self.registry.get(name);
        entry.ok_or_else(|| self.fail(ErrorCode::UnknownGraph, format!("unknown graph {name:?}")))
    }

    /// The validated query pattern at `path`, or the `ERR E_QUERY` reply.
    pub(crate) fn query(&self, path: &str) -> Result<QueryGraph, Vec<String>> {
        let fail = |e: String| self.fail(ErrorCode::Query, e);
        let pattern =
            graph_io::load_labeled(path).map_err(|e| fail(format!("query load failed: {e}")))?;
        QueryGraph::from_graph(&pattern).map_err(|e| fail(format!("invalid query: {e}")))
    }
}

/// Records a `root` span of `total` ns ending at the tracer's current clock,
/// tiled from its start by the measured `stages` laid end to end and one
/// `closing` stage that takes whatever they left (formatting, sink writes,
/// counters: the unmeasured rest).
pub(crate) fn record_tiled_spans(
    tracer: &Tracer,
    root: &'static str,
    total: u64,
    args: Vec<(&'static str, u64)>,
    stages: &[(&'static str, u64)],
    closing: &'static str,
) {
    let start = tracer.now_ns().saturating_sub(total);
    let root = tracer.span(root, "service", 0, 0, start, total.max(1), args);
    let measured: u64 = stages.iter().map(|&(_, dur)| dur).sum();
    let mut cursor = start;
    for &(name, dur) in stages
        .iter()
        .chain(&[(closing, total.saturating_sub(measured))])
    {
        tracer.span(name, "service", root, 0, cursor, dur, Vec::new());
        cursor += dur;
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

/// What a verb answers: its response lines, or — so that `?` can short-circuit
/// on them — the `ERR` reply of a failed step, already counted
/// ([`ServerState::fail`]). Either way the lines go to the client as they are.
pub(crate) type Reply = Result<Vec<String>, Vec<String>>;

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
        } => Routed::Inline(
            exec_load(state, &name, &path, edge_list, directed).unwrap_or_else(|err| err),
        ),
        Request::Chaos { command } => route_chaos(command, state),
        data_plane => {
            let sink = Arc::clone(writer);
            Routed::Data(Box::new(move |job_state, queue_wait| {
                let reply = match data_plane {
                    Request::Match {
                        graph,
                        query_path,
                        form,
                    } => exec_match(job_state, &graph, &query_path, form, queue_wait),
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
                    Request::Prepare {
                        name,
                        query_path,
                        root,
                        order,
                        radius,
                        sym,
                        sym_complete,
                    } => exec_prepare(
                        job_state,
                        &name,
                        &query_path,
                        root,
                        &order,
                        radius,
                        &sym,
                        sym_complete,
                    ),
                    Request::Exec { name, pivot, epoch } => {
                        exec_exec(job_state, &name, pivot, epoch, queue_wait)
                    }
                    _ => unreachable!("control-plane request reached the pool"),
                };
                reply.unwrap_or_else(|err| err)
            }))
        }
    }
}

/// Routes a `CHAOS` command (chaos mode only). `PANIC` and `DELAY` become
/// data-plane jobs so they exercise the same pool failure paths a panicking
/// `MATCH` would.
fn route_chaos(command: ChaosCommand, state: &Arc<ServerState>) -> Routed {
    if !state.config.chaos {
        return Routed::Inline(state.fail(
            ErrorCode::ChaosDisabled,
            "start the server with --chaos to enable fault injection",
        ));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    /// What a killed-and-restarted `ceci-shard` (or `ceci-serve`) depends
    /// on: the server closed its side of a connection first, so the port has
    /// a socket in TIME_WAIT, and a fresh server binds it all the same —
    /// `std`'s listener sets `SO_REUSEADDR`.
    #[test]
    fn a_restarted_server_rebinds_its_port_at_once() {
        let first = start(ServeConfig::default()).unwrap();
        let addr = first.addr();
        let mut client = Client::connect(addr).unwrap();
        assert!(client.request("PING").unwrap().is_ok());
        assert!(first.shutdown().clean());
        let again = start(ServeConfig {
            addr: addr.to_string(),
            ..ServeConfig::default()
        })
        .expect("rebind through TIME_WAIT");
        assert_eq!(again.addr(), addr);
        let mut client = Client::connect(addr).unwrap();
        assert!(client.request("PING").unwrap().is_ok());
        assert!(again.shutdown().clean());
    }
}
