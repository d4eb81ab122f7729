//! Multi-process sharded serving sweep: real `ceci-shard` processes under
//! process-level faults.
//!
//! The cross-process port of the fault-injection sweep: a coordinator
//! scatters each query's pivots over a fleet of real shard processes on
//! loopback and the sweep replays fault scenarios — SIGKILL mid-query,
//! a stalling straggler, kill + restart on the same port — against the
//! fault-free fleet. Every scenario **asserts the committed total is
//! bit-identical to a single-process run**; what varies is the recovery
//! cost (re-scatters, stale-rejected commits, reconnects, local fallbacks)
//! and the makespan inflation. Results land in `bench_results/shard.json`.

use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use ceci_core::{count_embeddings, Ceci};
use ceci_graph::Ranking;
use ceci_query::{PaperQuery, PlanOptions, QueryPlan};
use ceci_service::{scatter_match, Client, CoordConfig, RetryPolicy, ScatterReport, ShardSet};

use crate::datasets::{Dataset, Scale};
use crate::json::JsonValue;
use crate::table::Table;

/// Locates the release `ceci-shard` binary next to this executable,
/// building it on demand the first time.
fn shard_bin() -> PathBuf {
    let mut dir = std::env::current_exe().expect("bench executable path");
    dir.pop();
    if dir.ends_with("deps") {
        dir.pop();
    }
    let bin = dir.join("ceci-shard");
    if !bin.exists() {
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
        let mut cmd = Command::new(cargo);
        cmd.args(["build", "-p", "ceci-service", "--bin", "ceci-shard"]);
        if dir.ends_with("release") {
            cmd.arg("--release");
        }
        let status = cmd.status().expect("run cargo build for ceci-shard");
        assert!(status.success(), "building ceci-shard failed");
    }
    assert!(bin.exists(), "ceci-shard binary not found at {bin:?}");
    bin
}

/// One spawned shard process; SIGKILLed on drop.
struct ShardProc {
    child: Child,
    addr: String,
}

impl ShardProc {
    fn spawn(graph_path: &Path, addr: &str) -> ShardProc {
        let mut child = Command::new(shard_bin())
            .arg("--graph")
            .arg(graph_path)
            .args([
                "--labeled",
                "--addr",
                addr,
                "--chaos",
                "--io-timeout-ms",
                "0",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn ceci-shard");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = std::io::BufReader::new(stdout).lines();
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

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    fn chaos(&self, command: &str) {
        let resp = Client::connect(self.addr.as_str())
            .expect("connect for chaos arm")
            .request(command)
            .expect("chaos request");
        assert!(resp.is_ok(), "chaos arm failed: {}", resp.terminal);
    }
}

impl Drop for ShardProc {
    fn drop(&mut self) {
        self.kill();
    }
}

fn coord_config() -> CoordConfig {
    CoordConfig {
        io_timeout: Duration::from_millis(2_000),
        connect_timeout: Duration::from_millis(500),
        retry: RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(100),
            jitter_seed: 0xCEC1,
        },
        attempt_budget: 2,
        rejoin_interval: Duration::from_millis(100),
        hard_wall: Duration::from_secs(120),
    }
}

enum Fault {
    None,
    /// SIGKILL shard 0 this long after the scatter starts.
    Kill(Duration),
    /// Arm `CHAOS STALL <ms>` on shard 0 before the scatter.
    Stall(u64),
    /// SIGKILL shard 0 after the first delay, restart it on the same port
    /// after the second.
    KillRestart(Duration, Duration),
}

struct Scenario {
    name: &'static str,
    fault: Fault,
}

/// Runs one scattered query over a fresh fleet under `fault`.
fn run_one(
    graph: &ceci_graph::Graph,
    plan: &QueryPlan,
    graph_path: &Path,
    query_path: &Path,
    machines: usize,
    fault: &Fault,
) -> ScatterReport {
    let mut fleet: Vec<ShardProc> = (0..machines)
        .map(|_| ShardProc::spawn(graph_path, "127.0.0.1:0"))
        .collect();
    if let Fault::Stall(ms) = fault {
        fleet[0].chaos(&format!("CHAOS STALL {ms}"));
    }
    let set = ShardSet::new(
        &fleet
            .iter()
            .map(|p| p.addr.clone())
            .collect::<Vec<String>>(),
    );
    let config = coord_config();
    let qpath = query_path.to_str().expect("utf-8 query path");
    let ids = Ranking::identity();
    std::thread::scope(|scope| {
        let t = scope.spawn(|| scatter_match(graph, &ids, plan, qpath, "bench", &set, &config));
        match fault {
            Fault::Kill(after) => {
                std::thread::sleep(*after);
                fleet[0].kill();
            }
            Fault::KillRestart(kill_after, restart_after) => {
                let port_addr = fleet[0].addr.clone();
                std::thread::sleep(*kill_after);
                fleet[0].kill();
                std::thread::sleep(*restart_after);
                fleet[0] = ShardProc::spawn(graph_path, &port_addr);
            }
            Fault::None | Fault::Stall(_) => {}
        }
        t.join().expect("scatter thread")
    })
}

/// Runs the sweep and writes `bench_results/shard.json`.
pub fn run(scale: Scale) {
    println!(
        "Multi-process sharded serving: SIGKILL / stall / restart recovery over real \
         shard processes, scale {scale:?}\n"
    );
    let queries: &[PaperQuery] = match scale {
        Scale::Quick => &[PaperQuery::Qg1],
        Scale::Full => &[PaperQuery::Qg1, PaperQuery::Qg3],
    };
    let dataset = Dataset::Wt;
    let graph = dataset.build(scale);

    let dir = std::env::temp_dir().join(format!("ceci-bench-shard-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let graph_path = dir.join("g.graph");
    let mut f = std::fs::File::create(&graph_path).expect("create graph file");
    ceci_graph::io::write_labeled(&graph, &mut f).expect("write graph file");

    let mut rows = Vec::new();
    let mut scenarios_checked = 0u64;

    for &q in queries {
        let qg = q.build();
        let query_path = dir.join(format!("{}.graph", q.name()));
        let mut f = std::fs::File::create(&query_path).expect("create query file");
        ceci_graph::io::write_labeled(qg.as_graph(), &mut f).expect("write query file");
        let plan = QueryPlan::with_options(qg, &graph, &PlanOptions::paper());
        let ceci = Ceci::build(&graph, &plan);
        let oracle = count_embeddings(&graph, &plan, &ceci);

        for machines in [2usize, 4] {
            // The fault-free run is both a scenario and the timing
            // baseline: fault points are placed at fractions of its wall so
            // "kill at 25%" means the same thing at every scale.
            let baseline = run_one(
                &graph,
                &plan,
                &graph_path,
                &query_path,
                machines,
                &Fault::None,
            );
            assert_eq!(
                baseline.total,
                oracle,
                "{} x{machines}: fault-free scatter diverged from single-process",
                q.name()
            );
            let at = |f: f64| {
                Duration::from_nanos((baseline.wall.as_nanos() as f64 * f).max(1.0) as u64)
            };
            let scenarios = [
                Scenario {
                    name: "fault-free",
                    fault: Fault::None,
                },
                Scenario {
                    name: "SIGKILL s0 @25%",
                    fault: Fault::Kill(at(0.25)),
                },
                Scenario {
                    name: "stall s0 20ms",
                    fault: Fault::Stall(20),
                },
                Scenario {
                    name: "kill+restart s0",
                    fault: Fault::KillRestart(at(0.25), at(0.25)),
                },
            ];

            let mut t = Table::new(vec![
                "scenario",
                "embeddings",
                "shard commits",
                "local",
                "rescatters",
                "stale",
                "reconnects",
                "wall ms",
                "inflation",
            ]);
            for s in &scenarios {
                let report = match s.fault {
                    // Reuse the already-measured baseline run.
                    Fault::None => copy_report(&baseline),
                    _ => run_one(&graph, &plan, &graph_path, &query_path, machines, &s.fault),
                };
                assert_eq!(
                    report.total,
                    oracle,
                    "{} x{machines} {}: counts must survive process faults",
                    q.name(),
                    s.name
                );
                scenarios_checked += 1;
                let inflation = report.wall.as_secs_f64() / baseline.wall.as_secs_f64().max(1e-9);
                t.row(vec![
                    s.name.to_string(),
                    report.total.to_string(),
                    report.shard_commits.to_string(),
                    report.local_fallback.to_string(),
                    report.rescatters.to_string(),
                    report.stale_rejected.to_string(),
                    report.reconnects.to_string(),
                    format!("{:.1}", report.wall.as_secs_f64() * 1e3),
                    format!("{inflation:.2}x"),
                ]);
                rows.push(
                    JsonValue::object()
                        .field("dataset", dataset.abbrev())
                        .field("query", q.name())
                        .field("scenario", s.name)
                        .field("shards", machines as u64)
                        .field("embeddings", report.total)
                        .field("matches_single_process", true)
                        .field("shard_commits", report.shard_commits)
                        .field("local_fallback", report.local_fallback)
                        .field("rescatters", report.rescatters)
                        .field("stale_rejected", report.stale_rejected)
                        .field("reconnects", report.reconnects)
                        .field("wall_ms", report.wall.as_secs_f64() * 1e3)
                        .field("makespan_inflation", inflation),
                );
            }
            println!("{} / {} / {machines} shards:", dataset.abbrev(), q.name());
            t.print();
            println!();
        }
    }
    std::fs::remove_dir_all(&dir).ok();

    println!(
        "(all {scenarios_checked} process-fault scenarios committed counts bit-identical \
         to the single-process oracle — SIGKILLs, stalls, and restarts change the cost \
         columns, never the answer)"
    );

    let json = JsonValue::object()
        .field("dataset", dataset.abbrev())
        .field("scenarios_checked", scenarios_checked)
        .field("all_counts_match_oracle", true)
        .field("runs", JsonValue::Array(rows));
    crate::harness::persist("shard", &json);
}

/// Clones a report's fields (ScatterReport is not `Clone`; the baseline is
/// reused as the fault-free scenario rather than re-run).
fn copy_report(r: &ScatterReport) -> ScatterReport {
    ScatterReport {
        total: r.total,
        shard_commits: r.shard_commits,
        local_fallback: r.local_fallback,
        rescatters: r.rescatters,
        stale_rejected: r.stale_rejected,
        reconnects: r.reconnects,
        wall: r.wall,
    }
}
