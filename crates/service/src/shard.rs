//! The `ceci-shard` server: one process owning a graph fragment source,
//! answering the shard plane of the line protocol (`PREPARE` / `EXEC`).
//!
//! ## Execution model
//!
//! A shard holds a *graph source* — either a heap [`Graph`] or a
//! memory-mapped CSR ([`MappedCsr`], for fragments larger than RAM) — and
//! serves each `EXEC <name> <pivot> <epoch>` self-contained: extract the
//! radius-ball fragment around that single pivot (the §8 physical
//! decomposition, one pivot at a time), rebuild the coordinator's plan
//! inside the fragment via [`QueryPlan::from_parts`], build a single-pivot
//! CECI, and enumerate. The per-pivot count is a pure function of
//! `(graph, plan, pivot)`, which is what makes the coordinator's
//! first-commit-wins result board bit-identical to a single-process run
//! under any kill/restart schedule.
//!
//! ## Fault surface
//!
//! * `CHAOS EXIT [after-ms]` exits the process with status 42 — the
//!   deterministic stand-in for `kill -9` mid-enumeration.
//! * `CHAOS STALL <ms>` arms a persistent stall ahead of every subsequent
//!   `PREPARE`/`EXEC` (0 disarms). `PING` is unaffected, so a stalled
//!   shard stays heartbeat-alive while tripping the coordinator's RPC
//!   timeout — the slow-shard re-scatter lever.
//! * Listener sockets are created with `SO_REUSEADDR` ([`bind_reuse`]) so
//!   a killed shard can rebind its port immediately on restart even while
//!   old connections sit in TIME_WAIT.
//! * Connection sockets carry read/write timeouts; a stalled or half-open
//!   peer gets `ERR E_TIMEOUT` and its connection closed instead of
//!   pinning a thread forever.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, SocketAddrV4, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ceci_core::metrics::Counters;
use ceci_core::sink::CountSink;
use ceci_core::{BuildOptions, Ceci, EnumOptions, Enumerator};
use ceci_distributed::Fragment;
use ceci_graph::io::MappedCsr;
use ceci_graph::{vid, Graph, LabelSet, VertexId};
use ceci_query::{OrderConstraint, QueryGraph, QueryPlan};

use crate::conn::LineConn;
use crate::protocol::{ChaosCommand, ErrorCode, Request};

/// Read access to a data graph, abstracted over storage so the per-pivot
/// fragment extraction runs identically on a heap CSR and an mmap'd one.
pub trait AdjacencySource {
    /// Number of vertices.
    fn num_vertices(&self) -> usize;
    /// Whether the source was declared directed at load time.
    fn directed(&self) -> bool;
    /// Calls `f` for every neighbor of `v` in CSR order.
    fn for_each_neighbor(&self, v: u32, f: &mut dyn FnMut(u32));
    /// The vertex's label set (owned; the mmap view materializes it).
    fn label_set(&self, v: u32) -> LabelSet;
}

impl AdjacencySource for Graph {
    fn num_vertices(&self) -> usize {
        Graph::num_vertices(self)
    }

    fn directed(&self) -> bool {
        self.is_directed_input()
    }

    fn for_each_neighbor(&self, v: u32, f: &mut dyn FnMut(u32)) {
        for &nb in self.neighbors(vid(v)) {
            f(nb.0);
        }
    }

    fn label_set(&self, v: u32) -> LabelSet {
        self.labels(vid(v)).clone()
    }
}

impl AdjacencySource for MappedCsr {
    fn num_vertices(&self) -> usize {
        MappedCsr::num_vertices(self)
    }

    fn directed(&self) -> bool {
        self.is_directed_input()
    }

    fn for_each_neighbor(&self, v: u32, f: &mut dyn FnMut(u32)) {
        for &nb in self.neighbors(v) {
            f(nb);
        }
    }

    fn label_set(&self, v: u32) -> LabelSet {
        MappedCsr::label_set(self, v)
    }
}

/// Extracts the radius-`radius` fragment around `pivots` from any
/// [`AdjacencySource`] — the storage-generic twin of
/// [`ceci_distributed::extract_fragment`], bit-identical to it on the same
/// graph (same BFS, same ascending-global-id dense relabeling; the relabel
/// order is load-bearing because symmetry breaking compares data-vertex
/// ids across fragments).
pub fn extract_fragment_from<A: AdjacencySource + ?Sized>(
    src: &A,
    pivots: &[VertexId],
    radius: usize,
) -> Fragment {
    let mut dist: HashMap<VertexId, usize> = HashMap::new();
    let mut order: Vec<VertexId> = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    for &p in pivots {
        if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(p) {
            e.insert(0);
            order.push(p);
            queue.push_back(p);
        }
    }
    while let Some(v) = queue.pop_front() {
        let d = dist[&v];
        if d == radius {
            continue;
        }
        src.for_each_neighbor(v.0, &mut |nb| {
            if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(vid(nb)) {
                e.insert(d + 1);
                order.push(vid(nb));
                queue.push_back(vid(nb));
            }
        });
    }
    order.sort_unstable();
    let local_of: HashMap<VertexId, VertexId> = order
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, VertexId::from_index(i)))
        .collect();
    let mut edges = Vec::new();
    for &v in &order {
        src.for_each_neighbor(v.0, &mut |nb| {
            if v < vid(nb) {
                if let Some(&lnb) = local_of.get(&vid(nb)) {
                    edges.push((local_of[&v], lnb));
                }
            }
        });
    }
    let labels = order.iter().map(|&v| src.label_set(v.0)).collect();
    let graph = Graph::new(labels, &edges, src.directed());
    let local_pivots = pivots.iter().map(|p| local_of[p]).collect();
    Fragment {
        graph,
        local_pivots,
        global_of: order,
        radius,
    }
}

/// The coordinator's plan decisions, pinned on the shard by `PREPARE` so
/// every `EXEC` rebuilds the *same* plan inside its fragment. Everything
/// here is a query-side property (root, order, symmetry) — candidates are
/// recomputed per fragment by [`QueryPlan::from_parts`].
#[derive(Clone, Debug)]
pub struct PlanSpec {
    /// The query pattern.
    pub query: QueryGraph,
    /// Root pinned by the coordinator's full-graph plan.
    pub root: VertexId,
    /// Full matching order, root first.
    pub order: Vec<VertexId>,
    /// Symmetry-breaking constraints.
    pub sym: Vec<OrderConstraint>,
    /// Whether `sym` breaks all automorphisms.
    pub sym_complete: bool,
    /// Fragment extraction radius (max query-tree depth).
    pub radius: usize,
}

/// Counts the embedding cluster of one global pivot: extract its radius
/// ball, rebuild the plan locally, build a single-pivot CECI, enumerate.
/// Returns 0 when the pivot fails the fragment-local initial filters (then
/// it also failed the global ones — filtering is neighborhood-local).
pub fn exec_pivot<A: AdjacencySource + ?Sized>(src: &A, spec: &PlanSpec, pivot: VertexId) -> u64 {
    let fragment = extract_fragment_from(src, &[pivot], spec.radius);
    let local_plan = QueryPlan::from_parts(
        spec.query.clone(),
        spec.root,
        spec.order.clone(),
        &fragment.graph,
        spec.sym.clone(),
        spec.sym_complete,
    );
    let local_pivot = fragment.local_pivots[0];
    let initial = local_plan.initial_candidates(local_plan.root());
    if initial.binary_search(&local_pivot).is_err() {
        return 0;
    }
    let ceci = Ceci::build_for_pivots(
        &fragment.graph,
        &local_plan,
        BuildOptions::default(),
        vec![local_pivot],
    );
    let mut enumerator =
        Enumerator::new(&fragment.graph, &local_plan, &ceci, EnumOptions::default());
    let mut counters = Counters::default();
    let mut sink = CountSink::unbounded();
    for &(p, _) in ceci.pivots() {
        enumerator.enumerate_cluster(p, &mut sink, &mut counters);
    }
    sink.count()
}

/// The shard's graph: heap CSR or mmap'd CSR view.
pub enum GraphStore {
    /// Fully-loaded in-memory graph.
    Heap(Graph),
    /// Zero-copy view over an on-disk `CECIGRF1` file — serves fragments
    /// larger than RAM (the page cache keeps the hot balls resident).
    Mapped(MappedCsr),
}

impl GraphStore {
    /// Vertex count (for startup logging and pivot validation).
    pub fn num_vertices(&self) -> usize {
        match self {
            GraphStore::Heap(g) => g.num_vertices(),
            GraphStore::Mapped(m) => m.num_vertices(),
        }
    }

    fn exec(&self, spec: &PlanSpec, pivot: VertexId) -> u64 {
        match self {
            GraphStore::Heap(g) => exec_pivot(g, spec, pivot),
            GraphStore::Mapped(m) => exec_pivot(m, spec, pivot),
        }
    }
}

/// Shard server configuration.
pub struct ShardConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port). IPv4 addresses
    /// bind through [`bind_reuse`]; others fall back to a plain bind.
    pub addr: String,
    /// The graph this shard serves.
    pub store: GraphStore,
    /// Enable `CHAOS` process faults.
    pub chaos: bool,
    /// Per-connection socket read/write timeout in ms (0 = none).
    pub io_timeout_ms: u64,
}

/// Shared shard state.
pub struct ShardState {
    store: GraphStore,
    plans: Mutex<HashMap<String, Arc<PlanSpec>>>,
    chaos: bool,
    io_timeout_ms: u64,
    /// `CHAOS STALL` milliseconds applied before each `PREPARE`/`EXEC`.
    stall_ms: AtomicU64,
    /// `EXEC`s answered.
    execs: AtomicU64,
    /// `PREPARE`s accepted.
    prepares: AtomicU64,
    /// Connections closed on socket timeout.
    timeouts: AtomicU64,
    stopping: AtomicBool,
}

/// A running shard server; call [`ShardHandle::shutdown`] to stop it.
pub struct ShardHandle {
    addr: SocketAddr,
    state: Arc<ShardState>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ShardHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the accept thread.
    pub fn shutdown(mut self) {
        self.state.stopping.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

/// Binds a TCP listener with `SO_REUSEADDR` so a restarted process can
/// reclaim the same port while the killed predecessor's connections are
/// still in TIME_WAIT. IPv4 only (shards are loopback/LAN processes);
/// non-IPv4 addresses fall back to a plain [`TcpListener::bind`].
pub fn bind_reuse(addr: &str) -> std::io::Result<TcpListener> {
    let parsed: Result<SocketAddrV4, _> = addr.parse();
    let Ok(v4) = parsed else {
        return TcpListener::bind(addr);
    };
    unsafe {
        let fd = libc::socket(libc::AF_INET, libc::SOCK_STREAM | libc::SOCK_CLOEXEC, 0);
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        let fail = |fd: i32| -> std::io::Error {
            let e = std::io::Error::last_os_error();
            libc::close(fd);
            e
        };
        let one: libc::c_int = 1;
        if libc::setsockopt(
            fd,
            libc::SOL_SOCKET,
            libc::SO_REUSEADDR,
            (&one as *const libc::c_int).cast(),
            std::mem::size_of::<libc::c_int>() as libc::socklen_t,
        ) != 0
        {
            return Err(fail(fd));
        }
        let sin = libc::sockaddr_in {
            sin_family: libc::AF_INET as libc::sa_family_t,
            sin_port: v4.port().to_be(),
            sin_addr: libc::in_addr {
                s_addr: u32::from(*v4.ip()).to_be(),
            },
            sin_zero: [0; 8],
        };
        if libc::bind(
            fd,
            (&sin as *const libc::sockaddr_in).cast(),
            std::mem::size_of::<libc::sockaddr_in>() as libc::socklen_t,
        ) != 0
        {
            return Err(fail(fd));
        }
        if libc::listen(fd, 128) != 0 {
            return Err(fail(fd));
        }
        use std::os::unix::io::FromRawFd;
        Ok(TcpListener::from_raw_fd(fd))
    }
}

/// Binds and starts serving the shard plane; returns once the listener is
/// live.
pub fn start_shard(config: ShardConfig) -> std::io::Result<ShardHandle> {
    let listener = bind_reuse(&config.addr)?;
    let addr = listener.local_addr()?;
    let state = Arc::new(ShardState {
        store: config.store,
        plans: Mutex::new(HashMap::new()),
        chaos: config.chaos,
        io_timeout_ms: config.io_timeout_ms,
        stall_ms: AtomicU64::new(0),
        execs: AtomicU64::new(0),
        prepares: AtomicU64::new(0),
        timeouts: AtomicU64::new(0),
        stopping: AtomicBool::new(false),
    });
    let accept_state = Arc::clone(&state);
    let accept_thread = std::thread::Builder::new()
        .name("shard-accept".to_string())
        .spawn(move || {
            for stream in listener.incoming() {
                if accept_state.stopping.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let state = Arc::clone(&accept_state);
                let _ = std::thread::Builder::new()
                    .name("shard-conn".to_string())
                    .spawn(move || {
                        let _ = serve_shard_connection(stream, &state);
                    });
            }
        })?;
    Ok(ShardHandle {
        addr,
        state,
        accept_thread: Some(accept_thread),
    })
}

/// Blocking adapter over the line-connection state machine the query
/// daemon's event loop runs: read, feed, answer every frame that comes out.
fn serve_shard_connection(mut stream: TcpStream, state: &Arc<ShardState>) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    let timeout = (state.io_timeout_ms > 0).then(|| Duration::from_millis(state.io_timeout_ms));
    stream.set_read_timeout(timeout)?;
    stream.set_write_timeout(timeout)?;
    let mut conn = LineConn::new(Instant::now());
    let mut chunk = [0u8; 4096];
    while !conn.finished(false) {
        match stream.read(&mut chunk) {
            Ok(0) => conn.feed_eof(),
            Ok(n) => conn.feed(&chunk[..n], Instant::now()),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return read_failed(e, &mut stream, state),
        }
        while let Some(frame) = conn.next_frame() {
            let lines = match frame.request() {
                Ok(None) => continue,
                Ok(Some(Request::Quit)) => {
                    conn.close_after_drain();
                    vec!["OK BYE".to_string()]
                }
                Ok(Some(request)) => dispatch_shard(request, state),
                Err(reply) => vec![reply],
            };
            write_lines(&mut stream, &lines)?;
        }
    }
    Ok(())
}

/// A shard connection is request/response only, so a read timeout is a
/// stalled or half-open peer: it gets a typed notice and a clean close.
fn read_failed(
    e: std::io::Error,
    stream: &mut TcpStream,
    state: &ShardState,
) -> std::io::Result<()> {
    if !matches!(e.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock) {
        return Err(e);
    }
    state.timeouts.fetch_add(1, Ordering::Relaxed);
    let ms = state.io_timeout_ms;
    let notice = format!("no request within {ms}ms; closing connection");
    let _ = write_lines(stream, &[ErrorCode::Timeout.line(notice)]);
    Ok(())
}

/// Writes one whole response in one `write`.
fn write_lines(stream: &mut TcpStream, lines: &[String]) -> std::io::Result<()> {
    stream.write_all((lines.join("\n") + "\n").as_bytes())
}

/// Answers one request (`QUIT` is the connection loop's: it ends the loop).
fn dispatch_shard(request: Request, state: &Arc<ShardState>) -> Vec<String> {
    match request {
        Request::Ping => vec!["OK PONG".to_string()],
        Request::Stats { .. } => {
            let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
            vec![
                format!("STAT shard_execs {}", g(&state.execs)),
                format!("STAT shard_prepares {}", g(&state.prepares)),
                format!("STAT shard_stall_ms {}", g(&state.stall_ms)),
                format!("STAT shard_timeouts {}", g(&state.timeouts)),
                format!("STAT shard_vertices {}", state.store.num_vertices()),
                "OK STATS".to_string(),
            ]
        }
        Request::Chaos { command } => exec_shard_chaos(command, state),
        Request::Prepare {
            name,
            query_path,
            root,
            order,
            radius,
            sym,
            sym_complete,
        } => {
            apply_stall(state);
            exec_prepare(
                state,
                &name,
                &query_path,
                root,
                &order,
                radius,
                &sym,
                sym_complete,
            )
        }
        Request::Exec { name, pivot, epoch } => {
            apply_stall(state);
            exec_exec(state, &name, pivot, epoch)
        }
        // The query-daemon data plane has no meaning on a shard.
        _ => vec![ErrorCode::Shard
            .line("this is a ceci-shard; only PREPARE/EXEC/PING/STATS/QUIT/CHAOS are served")],
    }
}

fn apply_stall(state: &ShardState) {
    let ms = state.stall_ms.load(Ordering::SeqCst);
    if ms > 0 {
        std::thread::sleep(Duration::from_millis(ms));
    }
}

fn exec_shard_chaos(command: ChaosCommand, state: &Arc<ShardState>) -> Vec<String> {
    if !state.chaos {
        return vec![
            ErrorCode::ChaosDisabled.line("start the shard with --chaos to enable fault injection")
        ];
    }
    match command {
        ChaosCommand::Exit { after_ms } => {
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(after_ms));
                std::process::exit(42);
            });
            vec![format!("OK CHAOS armed=EXIT after_ms={after_ms}")]
        }
        ChaosCommand::Stall { ms } => {
            state.stall_ms.store(ms, Ordering::SeqCst);
            vec![format!("OK CHAOS armed=STALL ms={ms}")]
        }
        _ => {
            vec![ErrorCode::Shard.line("only CHAOS EXIT and CHAOS STALL are supported on a shard")]
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn exec_prepare(
    state: &ShardState,
    name: &str,
    query_path: &str,
    root: u32,
    order: &[u32],
    radius: usize,
    sym: &[(u32, u32)],
    sym_complete: bool,
) -> Vec<String> {
    let pattern = match ceci_graph::io::load_labeled(query_path) {
        Ok(p) => p,
        Err(e) => return vec![ErrorCode::Query.line(format!("query load failed: {e}"))],
    };
    let query = match QueryGraph::from_graph(&pattern) {
        Ok(q) => q,
        Err(e) => return vec![ErrorCode::Query.line(format!("invalid query: {e}"))],
    };
    let n = query.num_vertices() as u32;
    if root >= n || order.iter().any(|&u| u >= n) || sym.iter().any(|&(a, b)| a >= n || b >= n) {
        return vec![ErrorCode::Shard.line("PREPARE references query vertices out of range")];
    }
    if order.len() != n as usize || order.first() != Some(&root) {
        return vec![
            ErrorCode::Shard.line("PREPARE order must cover every query vertex, root first")
        ];
    }
    let spec = PlanSpec {
        query,
        root: vid(root),
        order: order.iter().map(|&u| vid(u)).collect(),
        sym: sym
            .iter()
            .map(|&(a, b)| OrderConstraint {
                smaller: vid(a),
                larger: vid(b),
            })
            .collect(),
        sym_complete,
        radius,
    };
    // Re-PREPARE under the same name is idempotent by design: coordinator
    // drivers re-send it after every (re)connect.
    state
        .plans
        .lock()
        .expect("plans lock poisoned")
        .insert(name.to_string(), Arc::new(spec));
    state.prepares.fetch_add(1, Ordering::Relaxed);
    vec![format!("OK PREPARED name={name} radius={radius}")]
}

fn exec_exec(state: &ShardState, name: &str, pivot: u32, epoch: u32) -> Vec<String> {
    let spec = state
        .plans
        .lock()
        .expect("plans lock poisoned")
        .get(name)
        .cloned();
    let Some(spec) = spec else {
        return vec![ErrorCode::Shard.line(format!(
            "unknown PREPARE handle {name:?}; (re)send PREPARE on this connection's plan"
        ))];
    };
    if (pivot as usize) >= state.store.num_vertices() {
        return vec![ErrorCode::Shard.line(format!("pivot {pivot} out of range"))];
    }
    let count = state.store.exec(&spec, vid(pivot));
    state.execs.fetch_add(1, Ordering::Relaxed);
    vec![format!("OK EXEC pivot={pivot} epoch={epoch} count={count}")]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceci_core::count_embeddings;
    use ceci_graph::generators::{attach_pendants, kronecker_default};
    use ceci_graph::io::save_binary;
    use ceci_query::PaperQuery;

    fn data() -> Graph {
        let core = kronecker_default(7, 5, 23);
        attach_pendants(&core, 60, 24)
    }

    #[test]
    fn generic_extraction_matches_reference() {
        let g = data();
        let plan = QueryPlan::new(PaperQuery::Qg1.build(), &g);
        let radius = plan
            .tree()
            .bfs_order()
            .iter()
            .map(|&u| plan.tree().depth(u))
            .max()
            .unwrap_or(0) as usize;
        for p in [0u32, 3, 17, 40] {
            let want = ceci_distributed::extract_fragment(&g, &[vid(p)], radius);
            let got = extract_fragment_from(&g, &[vid(p)], radius);
            assert_eq!(got.graph.num_vertices(), want.graph.num_vertices());
            assert_eq!(got.graph.num_edges(), want.graph.num_edges());
            assert_eq!(got.global_of, want.global_of);
            assert_eq!(got.local_pivots, want.local_pivots);
        }
    }

    #[test]
    fn per_pivot_sum_equals_full_count() {
        let g = data();
        for q in [PaperQuery::Qg1, PaperQuery::Qg3] {
            let plan = QueryPlan::new(q.build(), &g);
            let ceci = Ceci::build(&g, &plan);
            let want = count_embeddings(&g, &plan, &ceci);
            let radius = plan
                .tree()
                .bfs_order()
                .iter()
                .map(|&u| plan.tree().depth(u))
                .max()
                .unwrap_or(0) as usize;
            let spec = PlanSpec {
                query: plan.query().clone(),
                root: plan.root(),
                order: plan.matching_order().to_vec(),
                sym: plan.symmetry_constraints().to_vec(),
                sym_complete: plan.symmetry_complete(),
                radius,
            };
            let total: u64 = plan
                .initial_candidates(plan.root())
                .iter()
                .map(|&p| exec_pivot(&g, &spec, p))
                .sum();
            assert_eq!(total, want, "{}", q.name());
        }
    }

    #[test]
    fn mmap_store_counts_match_heap_store() {
        let g = data();
        let dir = std::env::temp_dir().join("ceci_shard_mmap_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.ceci");
        save_binary(&g, &path).unwrap();
        let mapped = MappedCsr::open(&path).unwrap();
        let plan = QueryPlan::new(PaperQuery::Qg1.build(), &g);
        let radius = plan
            .tree()
            .bfs_order()
            .iter()
            .map(|&u| plan.tree().depth(u))
            .max()
            .unwrap_or(0) as usize;
        let spec = PlanSpec {
            query: plan.query().clone(),
            root: plan.root(),
            order: plan.matching_order().to_vec(),
            sym: plan.symmetry_constraints().to_vec(),
            sym_complete: plan.symmetry_complete(),
            radius,
        };
        for &p in plan.initial_candidates(plan.root()).iter().take(12) {
            assert_eq!(exec_pivot(&g, &spec, p), exec_pivot(&mapped, &spec, p));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bind_reuse_accepts_connections_and_allows_rebind() {
        let listener = bind_reuse("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || listener.accept().map(|_| ()));
        TcpStream::connect(addr).unwrap();
        t.join().unwrap().unwrap();
        // The port had an accepted (now closed) connection; SO_REUSEADDR
        // lets a fresh listener take the same port immediately.
        let again = bind_reuse(&addr.to_string()).unwrap();
        assert_eq!(again.local_addr().unwrap().port(), addr.port());
    }
}
