//! Multi-process sharded serving: real `ceci-shard` processes on loopback,
//! driven by the coordinator ([`ceci_service::scatter_match`] directly and
//! through a full `ceci-serve` MATCH), under process-level faults.
//!
//! The contract under test is the cross-process port of the chaos suite's
//! headline: the scattered total is `Σ` per-pivot counts, each a pure
//! function of `(graph, plan, pivot)`, guarded by an epoch-checked
//! first-commit-wins board — so any schedule of SIGKILLs, stalls, and
//! restarts commits counts **bit-identical** to a single-process run.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ceci::prelude::*;
use ceci_graph::generators::{attach_pendants, kronecker_default};
use ceci_graph::{io, Ranking};
use ceci_service::{
    scatter_match, start_with_state, validate_shards, Client, CoordConfig, RetryPolicy,
    ServeConfig, ServerState, ShardLiveness, ShardSet,
};

// ---------------------------------------------------------------------------
// Harness: shard binary discovery, process wrapper, scratch files
// ---------------------------------------------------------------------------

/// Locates the `ceci-shard` binary next to the test executable, building it
/// once per test process (plain `cargo test` does not build bin targets of
/// other crates before running integration tests). The build runs even when
/// a binary is already there: one left by an earlier build would be a shard
/// of some other commit.
fn shard_bin() -> &'static Path {
    static BIN: std::sync::OnceLock<PathBuf> = std::sync::OnceLock::new();
    BIN.get_or_init(|| {
        let mut dir = std::env::current_exe().expect("test executable path");
        dir.pop();
        if dir.ends_with("deps") {
            dir.pop();
        }
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
        let mut build = Command::new(cargo);
        build.args(["build", "-p", "ceci-service", "--bin", "ceci-shard"]);
        if dir.ends_with("release") {
            build.arg("--release");
        }
        let status = build.status().expect("run cargo build for ceci-shard");
        assert!(status.success(), "building ceci-shard failed");
        let bin = dir.join("ceci-shard");
        assert!(bin.exists(), "ceci-shard binary not found at {bin:?}");
        bin
    })
}

/// One spawned shard process; killed (SIGKILL) on drop.
struct ShardProc {
    child: Child,
    addr: String,
}

impl ShardProc {
    /// Spawns `ceci-shard` and waits for its `listening on <addr>` line.
    fn spawn(graph_path: &Path, extra: &[&str]) -> ShardProc {
        let mut child = Command::new(shard_bin())
            .arg("--graph")
            .arg(graph_path)
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn ceci-shard");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("shard exited before listening")
                .expect("read shard stdout");
            if let Some(rest) = line.strip_prefix("listening on ") {
                break rest.to_string();
            }
        };
        ShardProc { child, addr }
    }

    /// Spawns a labeled-edge-list shard with chaos enabled and no socket
    /// timeout (the common configuration for these tests).
    fn spawn_labeled(graph_path: &Path, addr: &str) -> ShardProc {
        ShardProc::spawn(
            graph_path,
            &[
                "--labeled",
                "--addr",
                addr,
                "--chaos",
                "--io-timeout-ms",
                "0",
            ],
        )
    }

    /// SIGKILL — no shutdown handshake, by design.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Polls for process exit up to `wait`; returns the exit code.
    fn wait_exit(&mut self, wait: Duration) -> Option<i32> {
        let t0 = Instant::now();
        while t0.elapsed() < wait {
            if let Ok(Some(status)) = self.child.try_wait() {
                return status.code();
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        None
    }
}

impl Drop for ShardProc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// A per-test scratch directory for graph/query files.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("ceci-shard-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn write_labeled(&self, name: &str, graph: &Graph) -> PathBuf {
        let path = self.0.join(name);
        let mut f = std::fs::File::create(&path).unwrap();
        io::write_labeled(graph, &mut f).unwrap();
        path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn data() -> Graph {
    let core = kronecker_default(7, 5, 23);
    attach_pendants(&core, 60, 24)
}

fn expected(graph: &Graph, plan: &QueryPlan) -> u64 {
    let ceci = Ceci::build(graph, plan);
    ceci::core::count_embeddings(graph, plan, &ceci)
}

/// Coordinator tunables sized for fast fault detection in a test.
fn fast_coord() -> CoordConfig {
    CoordConfig {
        io_timeout: Duration::from_millis(500),
        connect_timeout: Duration::from_millis(500),
        retry: RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(50),
            jitter_seed: 7,
        },
        attempt_budget: 2,
        rejoin_interval: Duration::from_millis(50),
        hard_wall: Duration::from_secs(60),
    }
}

fn shard_set(procs: &[&ShardProc]) -> ShardSet {
    ShardSet::new(
        &procs
            .iter()
            .map(|p| p.addr.clone())
            .collect::<Vec<String>>(),
    )
}

/// Grabs a free loopback port by binding an ephemeral listener and
/// releasing it (small race window; fine for tests).
fn free_port() -> u16 {
    let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    l.local_addr().unwrap().port()
}

/// Reads one `STAT <key> <value>` row out of a STATS payload.
fn stat_u64(payload: &[String], key: &str) -> Option<u64> {
    payload.iter().find_map(|l| {
        let (k, v) = l.strip_prefix("STAT ")?.split_once(' ')?;
        if k == key {
            v.parse().ok()
        } else {
            None
        }
    })
}

// ---------------------------------------------------------------------------
// Fault-free differential: counts bit-identical across fleet sizes
// ---------------------------------------------------------------------------

#[test]
fn counts_bit_identical_across_shard_fleets() {
    let graph = data();
    let scratch = Scratch::new("fleet");
    let gpath = scratch.write_labeled("g.graph", &graph);
    for q in [PaperQuery::Qg1, PaperQuery::Qg3] {
        let qg = q.build();
        let qpath = scratch.write_labeled(&format!("{}.graph", q.name()), qg.as_graph());
        let plan = QueryPlan::new(qg, &graph);
        let want = expected(&graph, &plan);
        assert!(want > 0, "{}", q.name());
        for machines in [2usize, 4] {
            let procs: Vec<ShardProc> = (0..machines)
                .map(|_| ShardProc::spawn_labeled(&gpath, "127.0.0.1:0"))
                .collect();
            let set = shard_set(&procs.iter().collect::<Vec<_>>());
            let report = scatter_match(
                &graph,
                &Ranking::identity(),
                &plan,
                qpath.to_str().unwrap(),
                "h",
                &set,
                &fast_coord(),
            );
            assert_eq!(
                report.total,
                want,
                "{} over {machines} shards must be bit-identical",
                q.name()
            );
            assert_eq!(
                report.local_fallback, 0,
                "healthy shards must serve everything"
            );
            assert!(report.shard_commits > 0);
        }
    }
}

// ---------------------------------------------------------------------------
// SIGKILL mid-query: re-scatter to survivors, totals exact
// ---------------------------------------------------------------------------

#[test]
fn sigkill_mid_query_rescatters_and_totals_stay_exact() {
    let graph = data();
    let qg = PaperQuery::Qg1.build();
    let scratch = Scratch::new("kill");
    let gpath = scratch.write_labeled("g.graph", &graph);
    let qpath = scratch.write_labeled("q.graph", qg.as_graph());
    let plan = QueryPlan::new(qg, &graph);
    let want = expected(&graph, &plan);

    let mut victim = ShardProc::spawn_labeled(&gpath, "127.0.0.1:0");
    let survivor = ShardProc::spawn_labeled(&gpath, "127.0.0.1:0");

    // Stall the victim outright so it never finishes a request, and slow
    // the survivor so the victim's queue is still full of undone work when
    // the SIGKILL lands — recovery *must* re-scatter to keep the total.
    let addr = |p: &ShardProc| p.addr.parse::<std::net::SocketAddr>().unwrap();
    let resp = Client::connect(addr(&victim))
        .unwrap()
        .request("CHAOS STALL 30000")
        .unwrap();
    assert!(resp.is_ok(), "{}", resp.terminal);
    let resp = Client::connect(addr(&survivor))
        .unwrap()
        .request("CHAOS STALL 30")
        .unwrap();
    assert!(resp.is_ok(), "{}", resp.terminal);

    let set = ShardSet::new(&[victim.addr.clone(), survivor.addr.clone()]);
    let config = fast_coord();
    let report = std::thread::scope(|scope| {
        let t = scope.spawn(|| {
            scatter_match(
                &graph,
                &Ranking::identity(),
                &plan,
                qpath.to_str().unwrap(),
                "h",
                &set,
                &config,
            )
        });
        std::thread::sleep(Duration::from_millis(200));
        victim.kill();
        t.join().unwrap()
    });

    assert_eq!(report.total, want, "counts must survive a SIGKILL");
    assert!(
        report.rescatters >= 1,
        "the dead shard's work must re-scatter: {report:?}"
    );
    assert_eq!(set.shards[0].liveness(), ShardLiveness::Dead);
}

// ---------------------------------------------------------------------------
// Restart rejoin: a replacement process on the same port is re-adopted
// ---------------------------------------------------------------------------

#[test]
fn shard_restart_rejoins_on_same_port_mid_query() {
    let graph = data();
    let qg = PaperQuery::Qg1.build();
    let scratch = Scratch::new("rejoin");
    let gpath = scratch.write_labeled("g.graph", &graph);
    let qpath = scratch.write_labeled("q.graph", qg.as_graph());
    let plan = QueryPlan::new(qg, &graph);
    let want = expected(&graph, &plan);

    let port = free_port();
    let fixed = format!("127.0.0.1:{port}");
    let mut victim = ShardProc::spawn_labeled(&gpath, &fixed);
    let survivor = ShardProc::spawn_labeled(&gpath, "127.0.0.1:0");

    // The victim's stall (400ms) is under the driver's io timeout, so its
    // driver completes PREPARE — a *successful* first connect — and then
    // hangs mid-EXEC when the SIGKILL lands. The survivor is slowed enough
    // that the query is still running when the replacement rejoins.
    let addr = |p: &ShardProc| p.addr.parse::<std::net::SocketAddr>().unwrap();
    let resp = Client::connect(addr(&victim))
        .unwrap()
        .request("CHAOS STALL 400")
        .unwrap();
    assert!(resp.is_ok(), "{}", resp.terminal);
    let resp = Client::connect(addr(&survivor))
        .unwrap()
        .request("CHAOS STALL 120")
        .unwrap();
    assert!(resp.is_ok(), "{}", resp.terminal);

    let set = ShardSet::new(&[victim.addr.clone(), survivor.addr.clone()]);
    let config = fast_coord();
    let (report, _replacement) = std::thread::scope(|scope| {
        let t = scope.spawn(|| {
            scatter_match(
                &graph,
                &Ranking::identity(),
                &plan,
                qpath.to_str().unwrap(),
                "h",
                &set,
                &config,
            )
        });
        // Kill after the victim's driver has prepared (~400ms) and is
        // stalled in its first EXEC, then bring a fresh process up on the
        // same port: SO_REUSEADDR lets it bind through the predecessor's
        // TIME_WAIT, and the driver's rejoin cadence re-adopts it
        // (re-sending PREPARE to the wiped plan store).
        std::thread::sleep(Duration::from_millis(600));
        victim.kill();
        std::thread::sleep(Duration::from_millis(200));
        let replacement = ShardProc::spawn_labeled(&gpath, &fixed);
        (t.join().unwrap(), replacement)
    });

    assert_eq!(report.total, want, "counts must survive kill + restart");
    assert!(
        report.reconnects >= 1,
        "the replacement must have been re-adopted: {report:?}"
    );
}

// ---------------------------------------------------------------------------
// mmap-vs-heap differential across processes
// ---------------------------------------------------------------------------

#[test]
fn mmap_and_heap_shards_count_identically() {
    let graph = data();
    let qg = PaperQuery::Qg1.build();
    let scratch = Scratch::new("mmap");
    let qpath = scratch.write_labeled("q.graph", qg.as_graph());
    let plan = QueryPlan::new(qg, &graph);
    let want = expected(&graph, &plan);
    let bpath = scratch.0.join("g.ceci");
    io::save_binary(&graph, &bpath).unwrap();

    let base = ["--addr", "127.0.0.1:0", "--io-timeout-ms", "0"];
    let mapped = ShardProc::spawn(&bpath, &base);
    let mut heap_args = vec!["--heap"];
    heap_args.extend_from_slice(&base);
    let heap = ShardProc::spawn(&bpath, &heap_args);

    // Each storage mode alone reproduces the single-process count...
    for p in [&mapped, &heap] {
        let set = shard_set(&[p]);
        let report = scatter_match(
            &graph,
            &Ranking::identity(),
            &plan,
            qpath.to_str().unwrap(),
            "h",
            &set,
            &fast_coord(),
        );
        assert_eq!(report.total, want);
        assert_eq!(report.local_fallback, 0);
    }
    // ...and a mixed fleet agrees too.
    let set = shard_set(&[&mapped, &heap]);
    let report = scatter_match(
        &graph,
        &Ranking::identity(),
        &plan,
        qpath.to_str().unwrap(),
        "h",
        &set,
        &fast_coord(),
    );
    assert_eq!(report.total, want, "mixed mmap/heap fleet must agree");
}

// ---------------------------------------------------------------------------
// Full coordinator path: ceci-serve MATCH scatters, STATS reports shards
// ---------------------------------------------------------------------------

#[test]
fn coordinator_match_scatters_and_reports_shards() {
    let graph = data();
    let qg = PaperQuery::Qg3.build();
    let scratch = Scratch::new("serve");
    let gpath = scratch.write_labeled("g.graph", &graph);
    let qpath = scratch.write_labeled("q.graph", qg.as_graph());
    let plan = QueryPlan::new(qg, &graph);
    let want = expected(&graph, &plan);

    let a = ShardProc::spawn_labeled(&gpath, "127.0.0.1:0");
    let b = ShardProc::spawn_labeled(&gpath, "127.0.0.1:0");
    let state = Arc::new(ServerState::new(ServeConfig {
        shards: vec![a.addr.clone(), b.addr.clone()],
        shard_heartbeat_ms: 50,
        ..ServeConfig::default()
    }));
    validate_shards(state.shards().unwrap(), &state.coord_config()).expect("shards reachable");
    let handle = start_with_state(Arc::clone(&state)).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client
        .request(&format!("LOAD g {}", gpath.display()))
        .unwrap();

    let resp = client
        .request(&format!("MATCH g {}", qpath.display()))
        .unwrap();
    assert!(resp.is_ok(), "{}", resp.terminal);
    assert_eq!(resp.field("mode"), Some("SHARDED"));
    assert_eq!(resp.field_u64("count"), Some(want));
    assert_eq!(resp.field_u64("shards"), Some(2));

    // A constrained request keeps the local path (no mode=SHARDED).
    let resp = client
        .request(&format!("MATCH g {} WORKERS 1", qpath.display()))
        .unwrap();
    assert!(resp.is_ok(), "{}", resp.terminal);
    assert_eq!(resp.field("mode"), None);
    assert_eq!(resp.field_u64("count"), Some(want));

    // STATS carries the shard table; PROM carries the aggregates.
    let resp = client.request("STATS").unwrap();
    assert!(resp.is_ok());
    assert_eq!(stat_u64(&resp.payload, "shards_configured"), Some(2));
    assert_eq!(stat_u64(&resp.payload, "shards_alive"), Some(2));
    let shard_lines: Vec<&String> = resp
        .payload
        .iter()
        .filter(|l| l.starts_with("SHARD "))
        .collect();
    assert_eq!(shard_lines.len(), 2, "{:?}", resp.payload);
    assert!(shard_lines[0].contains("state=alive"), "{shard_lines:?}");
    let resp = client.request("STATS PROM").unwrap();
    let prom = resp.payload.join("\n");
    assert!(prom.contains("ceci_shards_configured 2"), "{prom}");
    assert!(prom.contains("ceci_shard_commits_total"), "{prom}");

    // The heartbeat notices a dead shard.
    drop(a);
    let t0 = Instant::now();
    loop {
        let resp = client.request("STATS").unwrap();
        if stat_u64(&resp.payload, "shards_alive") == Some(1) {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "heartbeat never noticed the dead shard"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// A LOADed entry is numbered by degree; its scatter speaks file ids
// ---------------------------------------------------------------------------

/// A coordinator in front of its own `LOAD`ed (degree-ranked) entry with
/// the shard fleet serving the file.
fn ranked_coordinator(
    gpath: &Path,
    shards: &[&ShardProc],
    io_timeout_ms: u64,
) -> (ceci_service::ServerHandle, Client) {
    let state = Arc::new(ServerState::new(ServeConfig {
        shards: shards.iter().map(|p| p.addr.clone()).collect(),
        shard_io_timeout_ms: io_timeout_ms,
        shard_retries: 1,
        shard_heartbeat_ms: 0,
        ..ServeConfig::default()
    }));
    let handle = start_with_state(state).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let resp = client
        .request(&format!("LOAD g {}", gpath.display()))
        .unwrap();
    assert!(resp.field_u64("rank_us").is_some(), "{}", resp.terminal);
    (handle, client)
}

/// The coordinator counts on its ranked entry, one `--heap` and one mmap
/// shard on the file: every pivot crosses the wire as a file id, and the
/// total is the single-process count.
#[test]
fn a_loaded_entry_scatters_file_ids_to_heap_and_mmap_shards() {
    let graph = data();
    let scratch = Scratch::new("ranked-fleet");
    let gpath = scratch.write_labeled("g.graph", &graph);
    let bpath = scratch.0.join("g.ceci");
    io::save_binary(&graph, &bpath).unwrap();
    let base = ["--addr", "127.0.0.1:0", "--io-timeout-ms", "0"];
    let mapped = ShardProc::spawn(&bpath, &base);
    let heap = ShardProc::spawn(&bpath, &[&["--heap"][..], &base].concat());
    let (handle, mut client) = ranked_coordinator(&gpath, &[&mapped, &heap], 5_000);
    for q in [PaperQuery::Qg1, PaperQuery::Qg3] {
        let qg = q.build();
        let qpath = scratch.write_labeled(&format!("{}.graph", q.name()), qg.as_graph());
        let want = expected(&graph, &QueryPlan::new(qg, &graph));
        let resp = client
            .request(&format!("MATCH g {}", qpath.display()))
            .unwrap();
        assert_eq!(resp.field("mode"), Some("SHARDED"), "{}", resp.terminal);
        assert_eq!(resp.field_u64("count"), Some(want), "{}", q.name());
        assert_eq!(
            resp.field_u64("local_fallback"),
            Some(0),
            "{}",
            resp.terminal
        );
    }
    handle.shutdown();
}

/// A shard killed mid-scatter leaves the coordinator to count the rest
/// itself: the pivots the shard committed were counted on the file, so the
/// fallback counts the rest on a file-id view of the ranked entry, and the
/// mixed total is exact.
#[test]
fn a_killed_shard_falls_back_in_file_ids_on_a_loaded_entry() {
    let graph = data();
    let qg = PaperQuery::Qg1.build();
    let scratch = Scratch::new("ranked-fallback");
    let gpath = scratch.write_labeled("g.graph", &graph);
    let qpath = scratch.write_labeled("q.graph", qg.as_graph());
    let want = expected(&graph, &QueryPlan::new(qg, &graph));
    let mut victim = ShardProc::spawn_labeled(&gpath, "127.0.0.1:0");
    let addr = victim.addr.parse::<std::net::SocketAddr>().unwrap();
    let resp = Client::connect(addr)
        .unwrap()
        .request("CHAOS STALL 20")
        .unwrap();
    assert!(resp.is_ok(), "{}", resp.terminal);
    let (handle, mut client) = ranked_coordinator(&gpath, &[&victim], 500);

    let resp = std::thread::scope(|scope| {
        let line = format!("MATCH g {}", qpath.display());
        let t = scope.spawn(move || client.request(&line).unwrap());
        std::thread::sleep(Duration::from_millis(300));
        victim.kill();
        t.join().unwrap()
    });
    assert_eq!(resp.field("mode"), Some("SHARDED"), "{}", resp.terminal);
    assert_eq!(resp.field_u64("count"), Some(want), "{}", resp.terminal);
    for mixed in ["shard_commits", "local_fallback"] {
        assert!(resp.field_u64(mixed) > Some(0), "{}", resp.terminal);
    }
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// All shards dead: nothing is re-scattered onto the dead, the coordinator
// finishes locally
// ---------------------------------------------------------------------------

#[test]
fn all_dead_fleet_falls_back_to_the_coordinator() {
    let graph = data();
    let qg = PaperQuery::Qg1.build();
    let scratch = Scratch::new("alldead");
    let qpath = scratch.write_labeled("q.graph", qg.as_graph());
    let plan = QueryPlan::new(qg, &graph);
    let want = expected(&graph, &plan);
    let pivots = plan.initial_candidates(plan.root()).len() as u64;

    // Port 1 on loopback refuses immediately: both drivers burn their
    // attempt budget and declare their shard dead. The first to go hands
    // its pivots to the other; the second has nobody left to hand them to.
    let set = ShardSet::new(&["127.0.0.1:1".to_string(), "127.0.0.1:1".to_string()]);
    let report = scatter_match(
        &graph,
        &Ranking::identity(),
        &plan,
        qpath.to_str().unwrap(),
        "h",
        &set,
        &fast_coord(),
    );
    assert_eq!(report.total, want, "the fallback must be exact");
    assert_eq!(report.shard_commits, 0);
    assert_eq!(report.local_fallback, pivots, "every pivot exactly once");
    assert!(report.rescatters <= 1, "{report:?}");
    assert!(set
        .shards
        .iter()
        .all(|s| s.liveness() == ShardLiveness::Dead));
}

// ---------------------------------------------------------------------------
// Startup validation: typed E_SHARD error, not a panic
// ---------------------------------------------------------------------------

#[test]
fn startup_validation_fails_typed_when_shard_unreachable() {
    // Port 1 on loopback refuses immediately.
    let set = ShardSet::new(&["127.0.0.1:1".to_string()]);
    let mut config = fast_coord();
    config.attempt_budget = 1;
    let err = validate_shards(&set, &config).expect_err("unreachable shard must fail");
    let s = err.to_string();
    assert!(s.starts_with("E_SHARD"), "{s}");
    assert!(s.contains("127.0.0.1:1"), "{s}");
    assert_eq!(set.shards[0].liveness(), ShardLiveness::Dead);
}

// ---------------------------------------------------------------------------
// Process-level chaos: CHAOS EXIT terminates with status 42
// ---------------------------------------------------------------------------

#[test]
fn chaos_exit_terminates_the_shard_process() {
    let graph = data();
    let scratch = Scratch::new("exit");
    let gpath = scratch.write_labeled("g.graph", &graph);
    let mut p = ShardProc::spawn_labeled(&gpath, "127.0.0.1:0");
    let mut c = Client::connect(p.addr.parse::<std::net::SocketAddr>().unwrap()).unwrap();
    let resp = c.request("CHAOS EXIT 50").unwrap();
    assert!(resp.is_ok(), "{}", resp.terminal);
    assert_eq!(
        p.wait_exit(Duration::from_secs(5)),
        Some(42),
        "CHAOS EXIT must terminate the process with status 42"
    );
}

// ---------------------------------------------------------------------------
// Panic isolation: a panicking shard job costs one typed reply, not the
// connection
// ---------------------------------------------------------------------------

#[test]
fn panicking_shard_job_answers_typed_and_keeps_the_connection() {
    let graph = data();
    let qg = PaperQuery::Qg1.build();
    let scratch = Scratch::new("panic");
    let gpath = scratch.write_labeled("g.graph", &graph);
    let qpath = scratch.write_labeled("q.graph", qg.as_graph());
    let plan = QueryPlan::new(qg, &graph);
    let pivot = plan.initial_candidates(plan.root())[0];
    let want =
        ceci::distributed::count_pivot_cluster(&graph, &plan, pivot, &mut Default::default()).0;

    let p = ShardProc::spawn_labeled(&gpath, "127.0.0.1:0");
    let mut c = Client::connect(p.addr.parse::<std::net::SocketAddr>().unwrap()).unwrap();
    let spec = ceci::distributed::PlanSpec::of(&plan);
    let prepare = ceci_service::coord::prepare_line("h", qpath.to_str().unwrap(), &spec);
    assert!(c.request(&prepare).unwrap().is_ok());

    let resp = c.request("CHAOS PANIC").unwrap();
    assert!(
        resp.terminal.starts_with("ERR E_WORKER_DROPPED"),
        "{}",
        resp.terminal
    );
    // The same connection keeps serving: the coordinator burns no retry
    // and no reconnect on a shard-side panic.
    assert!(c.request("PING").unwrap().is_ok());
    let resp = c.request(&format!("EXEC h {} 3", pivot.0)).unwrap();
    assert!(resp.is_ok(), "{}", resp.terminal);
    assert_eq!(resp.field_u64("count"), Some(want));
    assert_eq!(resp.field_u64("epoch"), Some(3));
    // The pool counts a panic when the unwind reaches the worker's
    // supervisor, which can be just after the ERR above went out.
    let t0 = Instant::now();
    let stats = loop {
        let payload = c.request("STATS").unwrap().payload;
        let counted = stat_u64(&payload, "panics_caught") == Some(1);
        if counted || t0.elapsed() > Duration::from_secs(5) {
            break payload;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(stat_u64(&stats, "panics_caught"), Some(1));
    assert_eq!(stat_u64(&stats, "shard_execs"), Some(1));
}

// ---------------------------------------------------------------------------
// Socket timeouts: idle connections close with a typed E_TIMEOUT
// ---------------------------------------------------------------------------

fn read_all(stream: &mut std::net::TcpStream) -> String {
    let mut buf = String::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let _ = stream.read_to_string(&mut buf);
    buf
}

#[test]
fn server_and_shard_sockets_time_out_typed() {
    // Server side: a connection that never completes a request line is
    // closed with ERR E_TIMEOUT after io_timeout_ms.
    let state = Arc::new(ServerState::new(ServeConfig {
        io_timeout_ms: 150,
        ..ServeConfig::default()
    }));
    let handle = start_with_state(Arc::clone(&state)).unwrap();
    let mut s = std::net::TcpStream::connect(handle.addr()).unwrap();
    s.write_all(b"PI").unwrap(); // half a request, never finished
    let got = read_all(&mut s);
    assert!(got.starts_with("ERR E_TIMEOUT"), "{got:?}");
    assert_eq!(state.metrics.timeouts.load(Ordering::Relaxed), 1);
    handle.shutdown();

    // Shard side: same contract.
    let graph = data();
    let scratch = Scratch::new("timeout");
    let gpath = scratch.write_labeled("g.graph", &graph);
    let p = ShardProc::spawn(
        &gpath,
        &[
            "--labeled",
            "--addr",
            "127.0.0.1:0",
            "--io-timeout-ms",
            "150",
        ],
    );
    let mut s = std::net::TcpStream::connect(&p.addr).unwrap();
    let got = read_all(&mut s);
    assert!(got.starts_with("ERR E_TIMEOUT"), "{got:?}");
}

// ---------------------------------------------------------------------------
// Malformed input: the shard plane frames lines exactly as ceci-serve does
// ---------------------------------------------------------------------------

#[test]
fn shard_answers_malformed_lines_typed() {
    let graph = data();
    let scratch = Scratch::new("malformed");
    let gpath = scratch.write_labeled("g.graph", &graph);
    let p = ShardProc::spawn_labeled(&gpath, "127.0.0.1:0");

    // Raw non-UTF-8 bytes: a typed parse error, and the connection stays
    // usable and line-synchronised.
    let s = std::net::TcpStream::connect(&p.addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut lines = BufReader::new(s.try_clone().unwrap()).lines();
    (&s).write_all(b"EXEC q \xff\xfe\xfd\n").unwrap();
    let reply = lines.next().expect("a reply, not a close").unwrap();
    assert!(reply.starts_with("ERR E_PARSE"), "{reply:?}");
    (&s).write_all(b"PING\n").unwrap();
    assert_eq!(lines.next().unwrap().unwrap(), "OK PONG");

    // A line past the 1 MiB cap, never terminated: typed error, then close.
    let mut s = std::net::TcpStream::connect(&p.addr).unwrap();
    s.write_all(&vec![b'A'; (1 << 20) + 1]).unwrap();
    let got = read_all(&mut s);
    assert!(got.starts_with("ERR E_PARSE"), "{got:?}");
    assert!(got.contains("exceeds"), "{got:?}");
    assert_eq!(got.lines().count(), 1, "{got:?}");
}
